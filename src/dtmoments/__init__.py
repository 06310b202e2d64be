"""Exact *-moments of the quasi-nilpotent DT-operator and the graded
generating-function calculus that cross-checks them."""

from .fps import (
    QSeries,
    RegistryMismatch,
    Series,
    VariableRegistry,
    e_inverse,
    e_transform,
    geometric,
    odot_many,
)
from .moments import (
    MomentEngine,
    canonical_key,
    moment,
    multinomial,
    n_value,
    nom,
    parse_key,
    validate_key,
)
from .ratfun import (
    DistinctnessViolation,
    ExactDivisionError,
    FormTable,
    RationalExpr,
    RationalTerm,
    SymPoly,
    form_id,
    identity_form,
    odot_closed,
    p_polynomial,
    permutation_form,
)
from .genfun import (
    check_conjecture,
    check_n3_identity,
    f_rational,
    f_series,
    g_diagonal,
    h_diagonal,
)

__version__ = "0.1.0"

__all__ = [
    "DistinctnessViolation",
    "ExactDivisionError",
    "FormTable",
    "MomentEngine",
    "QSeries",
    "RationalExpr",
    "RationalTerm",
    "RegistryMismatch",
    "Series",
    "SymPoly",
    "VariableRegistry",
    "canonical_key",
    "check_conjecture",
    "check_n3_identity",
    "e_inverse",
    "e_transform",
    "f_rational",
    "f_series",
    "form_id",
    "g_diagonal",
    "geometric",
    "h_diagonal",
    "identity_form",
    "moment",
    "multinomial",
    "n_value",
    "nom",
    "odot_closed",
    "odot_many",
    "p_polynomial",
    "parse_key",
    "permutation_form",
    "validate_key",
    "__version__",
]
