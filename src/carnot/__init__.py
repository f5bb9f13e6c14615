"""Exact-arithmetic computation with stratified nilpotent Lie algebras.

Structure-constant tables over the rationals; gradings, dilations,
filtrations and nilpotentisation; strata-preserving derivations and the
graded prolongation tower; a catalog of built-in algebras and a plain
text file format with a CLI on top.
"""

from .algfile import AlgebraFileError, ParsedAlgebra, emit, parse
from .catalog import CatalogEntry, ExpectedFacts, UnknownEntryError, get, list_entries
from .grading import (
    Filtration,
    GrResult,
    LayerGenerationError,
    NotBracketGeneratingError,
    NotDirectSumError,
    NotNilpotentError,
    SmallFirstLayerError,
    Stratification,
    StratificationError,
    StratifiabilityVerdict,
    TrivialTopLayerError,
    coordinate_layers,
    dilation,
    filtration_from_horizontal,
    grading_derivation,
    homogeneous_dimension,
    is_stratifiable,
    nilpotentisation,
    verify_stratification,
)
from .liealg import (
    LieAlgebra,
    NotLieAlgebraError,
    SeriesReport,
    SingularMatrixError,
)
from .linalg import (
    Matrix,
    RowReducer,
    Subspace,
    quotient_basis,
    rat,
    solve_affine,
)
from .tanaka import (
    AdaptedFrame,
    ComponentNotComputedError,
    HomElement,
    MembershipError,
    ProlongationResult,
    RigidityVerdict,
    degree_zero_derivations,
    prolong,
    ultrarigidity_check,
)

__version__ = "0.1.0"
