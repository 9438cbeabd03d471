"""Exact-arithmetic structure theory for soluble Lie algebras.

Algebras are given by structure constants over Q or GF(p).  The library
computes chief series, classifies maximal subalgebras relative to a
saturated formation, builds normalisers through chains of critical
maximal subalgebras, computes derivation algebras, and checks the two
intravariance criteria; an enumeration of small soluble algebras feeds
the exhaustive property sweeps behind the `lieform` command.
"""

from .algebra import FactorView, LieAlgebra
from .chief import (
    ChiefSeries,
    chief_series,
    minimal_ideal,
    split_extension_by_derivation,
)
from .derivations import (
    Derivation,
    DerivationAlgebra,
    derivation_algebra,
    derivation_from_strings,
    derivation_matrix_strings,
    extension_defect,
    inner_derivations,
    is_intravariant_extension,
    is_intravariant_linear,
    normalizer_fills_extension,
)
from .enumeration import (
    EnumerationBudget,
    enumerate_ideals,
    enumerate_soluble,
    enumerate_subalgebras,
)
from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    CriteriaDisagreeError,
    DimensionMismatchError,
    FieldMismatchError,
    JacobiViolationError,
    LieformError,
    NoCriticalDescentError,
    NotADerivationError,
    NotAnIdealError,
    NotASubalgebraError,
    NotNestedError,
    NotSolubleError,
    ParseError,
    UnsupportedFieldError,
    ZeroAlgebraError,
    ZeroDenominatorError,
)
from .fields import Field
from .formations import (
    ALL_SOLUBLE,
    FORMATIONS,
    NILPOTENT,
    SUPERSOLUBLE,
    CoverAvoidEntry,
    CoverAvoidReport,
    Formation,
    MaximalClassification,
    classify_maximal,
    cover_avoid_check,
    f_normalisers,
    formation_by_name,
    is_f_central,
    is_f_critical,
    maximal_subalgebras,
)
from .linalg import (
    EchelonAccumulator,
    Matrix,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    null_space,
    rref,
)
from .report import AnalysisReport, basis_strings, fingerprint
from .sweep import SweepConfig, SweepResult, check_algebra, sweep_run

__version__ = "0.1.0"

__all__ = [
    "ALL_SOLUBLE",
    "AmbientMismatchError",
    "AnalysisReport",
    "BudgetExceededError",
    "ChiefSeries",
    "CoverAvoidEntry",
    "CoverAvoidReport",
    "CriteriaDisagreeError",
    "Derivation",
    "DerivationAlgebra",
    "DimensionMismatchError",
    "EchelonAccumulator",
    "EnumerationBudget",
    "FORMATIONS",
    "FactorView",
    "Field",
    "FieldMismatchError",
    "Formation",
    "JacobiViolationError",
    "LieAlgebra",
    "LieformError",
    "Matrix",
    "MaximalClassification",
    "NILPOTENT",
    "NoCriticalDescentError",
    "NotADerivationError",
    "NotAnIdealError",
    "NotASubalgebraError",
    "NotNestedError",
    "NotSolubleError",
    "ParseError",
    "SUPERSOLUBLE",
    "Subspace",
    "SweepConfig",
    "SweepResult",
    "UnsupportedFieldError",
    "ZeroAlgebraError",
    "ZeroDenominatorError",
    "basis_strings",
    "check_algebra",
    "chief_series",
    "classify_maximal",
    "cover_avoid_check",
    "derivation_algebra",
    "derivation_from_strings",
    "derivation_matrix_strings",
    "enumerate_ideals",
    "enumerate_soluble",
    "enumerate_subalgebras",
    "enumerate_subspaces",
    "extension_defect",
    "f_normalisers",
    "fingerprint",
    "formation_by_name",
    "gaussian_binomial",
    "inner_derivations",
    "is_f_central",
    "is_f_critical",
    "is_intravariant_extension",
    "is_intravariant_linear",
    "maximal_subalgebras",
    "minimal_ideal",
    "normalizer_fills_extension",
    "null_space",
    "rref",
    "split_extension_by_derivation",
    "sweep_run",
]
