"""The public API is pinned: a name joins or leaves it only on purpose.

Test-only routes (the undivided numerator Q, the raw-key recursion, the
direct multinomial product) live in tests/oracles.py, not in the package.
"""

import inspect

import dtmoments
from dtmoments import fps, genfun, moments, ratfun

PUBLIC = {
    "DiagonalSeries",
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
}

TEST_ONLY = (
    "q_polynomial",
    "odot_many_direct",
    "recursion_residual",
    "build_genfun",
    "GenFunResult",
    "expand_to_series",
    "qseries_mul",
    "odot",
    "homogeneous_part",
    "f_series_by_geometric",
    "expand_by_geometric",
)


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC) == 34
    assert len(dtmoments.__all__) == len(set(dtmoments.__all__))
    assert set(dtmoments.__all__) == PUBLIC | {"__version__"}


def test_every_listed_name_resolves():
    for name in dtmoments.__all__:
        assert hasattr(dtmoments, name), name
    for module in (moments, genfun):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_test_only_routes_stay_out_of_the_package():
    for name in TEST_ONLY:
        for module in (dtmoments, fps, moments, ratfun, genfun):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(ratfun.SymPoly, "times_monomial")
    assert not hasattr(ratfun.SymPoly, "substitute_series")
    # the engine always canonicalizes; raw keys are the oracle's job
    assert list(inspect.signature(moments.MomentEngine).parameters) == ["memo_limit"]
