"""Acceptance suite.

One test per shipped guarantee; each prints a single ``ACCEPTANCE k:
PASS/FAIL`` line (visible under ``pytest -s``) and fails hard on any
mismatch.  The fixtures embedded here were checked against the published
closed forms by hand and are stated verbatim, so they are independent of
the code under test.
"""

import math
import random
import time
from fractions import Fraction

from dtmoments.fps import (
    Series,
    VariableRegistry,
    e_transform,
    geometric,
)
from dtmoments.genfun import check_conjecture, check_n3_identity, f_rational, f_series
from dtmoments.moments import MomentEngine
from dtmoments.ratfun import RationalExpr, p_polynomial, uv_symbols
from conftest import ZW2, ZW3, balanced_keys, random_theta_series
from oracles import p_by_window, raw_n_value

ZW4 = VariableRegistry.zw_pairs(4)


def _run(num, body):
    try:
        ok, detail = body()
    except Exception as exc:
        print(f"ACCEPTANCE {num}: FAIL — crashed: {exc!r}")
        raise
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def zw_form(registry, *pairs):
    terms = {}
    for i, j in pairs:
        e = [0] * registry.size
        e[registry.index(f"z{i}")] += 1
        e[registry.index(f"w{j}")] += 1
        terms[tuple(e)] = 1
    return Series(registry, 2, terms)


def mono(registry, *names):
    e = [0] * registry.size
    for name in names:
        e[registry.index(name)] += 1
    return tuple(e)


# ---------------------------------------------------------------- 1


def test_acceptance_1_single_pair_law():
    def body():
        engine = MomentEngine()
        t0 = time.perf_counter()
        for k in range(11):
            assert engine.n_value((k, k)) == 1, k
            assert engine.moment((k, k)) == Fraction(1, math.factorial(k + 1)), k
        elapsed = time.perf_counter() - t0
        return elapsed < 1.0, f"single-pair law holds for k <= 10 in {elapsed:.3f}s"

    _run(1, body)


# ---------------------------------------------------------------- 2


def test_acceptance_2_doubled_pair_law():
    def body():
        engine = MomentEngine()
        t0 = time.perf_counter()
        for k in range(9):
            got = engine.n_value((k, k, k, k))
            assert got == 4**k, (k, got)
        elapsed = time.perf_counter() - t0
        return elapsed < 10.0, f"doubled-pair law 4^k holds for k <= 8 in {elapsed:.3f}s"

    _run(2, body)


# ---------------------------------------------------------------- 3


def _g2_formula(a, b):
    return sum(
        math.comb(2 * k, k) * math.comb(a + b - 2 * k, a - k)
        for k in range(min(a, b) + 1)
    )


def test_acceptance_3_two_pair_diagonal_closed_form():
    def body():
        # first validate the formula itself against a direct expansion of
        # 1/((1-x1-x2) * sum_k binom(2k,k) (x1 x2)^k)
        X2 = VariableRegistry(("x1", "x2"), modulus=1)
        D = 10
        linear = Series(X2, D, {(1, 0): 1, (0, 1): 1})
        root = Series(X2, D, {(k, k): math.comb(2 * k, k) for k in range(D // 2 + 1)})
        oracle = geometric(linear, D) * root
        for a in range(D + 1):
            for b in range(D + 1 - a):
                assert oracle.terms.get((a, b), 0) == _g2_formula(a, b), (a, b)
        # then the engine against the formula
        engine = MomentEngine()
        checks = 0
        for a in range(6):
            for b in range(6):
                assert engine.n_value((a, a, b, b)) == _g2_formula(a, b), (a, b)
                checks += 1
        assert engine.n_value((1, 1, 1, 1)) == 4
        assert engine.n_value((2, 2, 2, 2)) == 16
        return True, (
            "two-pair diagonal closed form verified for a,b <= 5 "
            f"(formula oracle to degree {D}, {checks} engine values)"
        )

    _run(3, body)


def test_recursion_takes_one_frame_per_level():
    # Each recursion level removes one T* and one T and takes one stack
    # frame, so this key goes about 900 levels deep: below the
    # interpreter's default limit of 1000, but not with two frames a level.
    assert _g2_formula(900, 1) == 903
    assert MomentEngine().n_value((900, 900, 1, 1)) == 903


# ---------------------------------------------------------------- 4


def test_acceptance_4_cross_pipeline_oracle():
    def body():
        engine = MomentEngine()
        t0 = time.perf_counter()
        checks = 0
        mismatches = []
        for n in (1, 2, 3):
            fs = f_series(n, 12)
            for m in range(7):
                for key in balanced_keys(n, m):
                    series_coeff = fs.terms.get(key, 0)
                    recursion_value = engine.n_value(key)
                    checks += 1
                    if series_coeff != recursion_value:
                        mismatches.append((key, series_coeff, recursion_value))
        elapsed = time.perf_counter() - t0
        ok = not mismatches and elapsed < 120.0
        detail = (
            f"recursion equals series coefficients on {checks} keys "
            f"(n <= 3, m <= 6) in {elapsed:.2f}s"
        )
        if mismatches:
            detail += f"; first mismatch {mismatches[0]}"
        return ok, detail

    _run(4, body)


# ---------------------------------------------------------------- 5

# published closed forms, stated verbatim (1-based (i, j) means z_i w_j)

F2_FORMS = ([(1, 1), (2, 2)], [(1, 2), (2, 1)])

F3_FORMS = {
    1: [(1, 1), (2, 2), (3, 3)],
    2: [(1, 3), (2, 1), (3, 2)],
    3: [(1, 2), (2, 1), (3, 3)],
    4: [(1, 1), (2, 3), (3, 2)],
    5: [(1, 3), (2, 2), (3, 1)],
}

F3_BRACKET = [
    ((), ()),
    (("z1", "w2"), (3,)),
    (("z2", "w3"), (4,)),
    (("z3", "w1"), (5,)),
]

F4_FORMS = {
    1: [(1, 1), (2, 2), (3, 3), (4, 4)],
    2: [(1, 4), (2, 1), (3, 2), (4, 3)],
    3: [(1, 1), (2, 2), (3, 4), (4, 3)],
    4: [(1, 1), (2, 4), (3, 3), (4, 2)],
    5: [(1, 1), (2, 3), (3, 2), (4, 4)],
    6: [(1, 4), (2, 2), (3, 3), (4, 1)],
    7: [(1, 3), (2, 2), (3, 1), (4, 4)],
    8: [(1, 2), (2, 1), (3, 3), (4, 4)],
    9: [(1, 1), (2, 4), (3, 2), (4, 3)],
    10: [(1, 4), (2, 2), (3, 1), (4, 3)],
    11: [(1, 4), (2, 1), (3, 3), (4, 2)],
    12: [(1, 3), (2, 1), (3, 2), (4, 4)],
    13: [(1, 4), (2, 3), (3, 2), (4, 1)],
    14: [(1, 2), (2, 1), (3, 4), (4, 3)],
}

F4_BRACKET = [
    ((), ()),
    (("z3", "w4"), (3,)),
    (("z2", "w3"), (5,)),
    (("z4", "w1"), (6,)),
    (("z1", "w2"), (8,)),
    (("z2", "w4"), (9,)),
    (("z3", "w1"), (10,)),
    (("z4", "w2"), (11,)),
    (("z1", "w3"), (12,)),
    (("z1", "z3", "w2", "w4"), (3, 14)),
    (("z2", "z3", "w4", "w4"), (3, 9)),
    (("z3", "z3", "w1", "w4"), (3, 10)),
    (("z2", "z4", "w2", "w4"), (4, 9)),
    (("z2", "z4", "w2", "w4"), (4, 11)),
    (("z2", "z2", "w3", "w4"), (5, 9)),
    (("z1", "z2", "w3", "w3"), (5, 12)),
    (("z2", "z4", "w1", "w3"), (5, 13)),
    (("z3", "z4", "w1", "w1"), (6, 10)),
    (("z4", "z4", "w1", "w2"), (6, 11)),
    (("z2", "z4", "w1", "w3"), (6, 13)),
    (("z1", "z3", "w1", "w3"), (7, 10)),
    (("z1", "z3", "w1", "w3"), (7, 12)),
    (("z1", "z4", "w2", "w2"), (8, 11)),
    (("z1", "z1", "w2", "w3"), (8, 12)),
    (("z1", "z3", "w2", "w4"), (8, 14)),
]


def _bracket_expr(registry, forms, bracket):
    expr = None
    base = [zw_form(registry, *forms[1]), zw_form(registry, *forms[2])]
    for names, extra in bracket:
        dens = base + [zw_form(registry, *forms[i]) for i in extra]
        term = RationalExpr.single(registry, mono(registry, *names), 1, dens)
        expr = term if expr is None else expr + term
    return expr


def test_acceptance_5_closed_form_fidelity():
    def body():
        printed_f2 = RationalExpr.single(
            ZW2, (0,) * 4, 1, [zw_form(ZW2, *F2_FORMS[0]), zw_form(ZW2, *F2_FORMS[1])]
        )
        assert f_rational(2).expand(8) == printed_f2.expand(8)

        printed_f3 = _bracket_expr(ZW3, F3_FORMS, F3_BRACKET)
        assert f_rational(3).expand(8) == printed_f3.expand(8)

        printed_f4 = _bracket_expr(ZW4, F4_FORMS, F4_BRACKET)
        assert f_rational(4).expand(6) == printed_f4.expand(6)
        return True, (
            "closed forms match the published two/three-pair expressions to "
            "D = 8 and the four-pair expression to D = 6"
        )

    _run(5, body)


# ---------------------------------------------------------------- 6

# published numerator polynomials, stated verbatim as exponent dicts over
# (u1, ..., um, v1, ..., vn); the four-variable pair below has one visible
# typesetting gap in its source, resolved by symmetry in v1, v2, v3

P_2_2_0_1 = {
    (0, 0, 0, 0): 1,
    (1, 1, 0, 0): -1,
    (0, 0, 1, 0): -1,
    (0, 0, 0, 1): -1,
    (0, 0, 1, 1): 1,
}

P_2_2_1_1 = {
    (0, 0, 0, 0): 2,
    (1, 0, 0, 0): -1,
    (0, 1, 0, 0): -1,
    (0, 0, 1, 0): -1,
    (0, 0, 0, 1): -1,
}

P_2_3_1_1 = {
    (0, 0, 0, 0, 0): 2,
    (1, 0, 0, 0, 0): -3,
    (2, 0, 0, 0, 0): 1,
    (0, 1, 0, 0, 0): -3,
    (1, 1, 0, 0, 0): 4,
    (2, 1, 0, 0, 0): -1,
    (0, 2, 0, 0, 0): 1,
    (1, 2, 0, 0, 0): -1,
    (0, 0, 1, 0, 0): -1,
    (1, 0, 1, 0, 0): 1,
    (0, 1, 1, 0, 0): 1,
    (1, 1, 1, 0, 0): -1,
    (0, 0, 0, 1, 0): -1,
    (1, 0, 0, 1, 0): 1,
    (0, 1, 0, 1, 0): 1,
    (1, 1, 0, 1, 0): -1,
    (0, 0, 0, 0, 1): -1,
    (1, 0, 0, 0, 1): 1,
    (0, 1, 0, 0, 1): 1,
    (1, 1, 0, 0, 1): -1,
    (0, 0, 1, 1, 1): 1,
}

P_2_3_1_2 = {
    (0, 0, 0, 0, 0): 3,
    (1, 0, 0, 0, 0): -3,
    (2, 0, 0, 0, 0): 1,
    (0, 1, 0, 0, 0): -3,
    (1, 1, 0, 0, 0): 1,
    (0, 2, 0, 0, 0): 1,
    (0, 0, 1, 0, 0): -2,
    (1, 0, 1, 0, 0): 1,
    (0, 1, 1, 0, 0): 1,
    (0, 0, 0, 1, 0): -2,
    (1, 0, 0, 1, 0): 1,
    (0, 1, 0, 1, 0): 1,
    (0, 0, 1, 1, 0): 1,
    (0, 0, 0, 0, 1): -2,
    (1, 0, 0, 0, 1): 1,
    (0, 1, 0, 0, 1): 1,
    (0, 0, 1, 0, 1): 1,
    (0, 0, 0, 1, 1): 1,
}


def test_acceptance_6_numerator_fixtures_and_divisibility():
    def body():
        fixtures = [
            (2, 2, 0, 1, P_2_2_0_1),
            (2, 2, 1, 1, P_2_2_1_1),
            (2, 3, 1, 1, P_2_3_1_1),
            (2, 3, 1, 2, P_2_3_1_2),
        ]
        for m, n, k, l, expected in fixtures:
            got = p_polynomial(m, n, k, l)
            assert got.symbols == uv_symbols(m, n), (m, n)
            assert dict(got.terms) == expected, (m, n, k, l)
        # exhaustive exact division over the full small range; construction
        # raises if any division leaves a remainder.  The package builds the
        # boundary cells with m > n as mirrors of the (n, m) cells, so those
        # are held to p_by_window, which runs the divisions along the other
        # variable block on every term of the row product
        built = 0
        for m in range(1, 5):
            for n in range(1, 5):
                for k in range(m):
                    for l in range(n):
                        poly = p_polynomial(m, n, k, l)
                        assert poly.terms, (m, n, k, l)
                        built += 1
                        if m > n:
                            assert poly == p_by_window(m, n, k, l), (m, n, k, l)
                            continue
                        mirror = p_polynomial(n, m, l, k)
                        swapped = {
                            e[n:] + e[:n]: c for e, c in mirror.terms.items()
                        }
                        assert poly.terms == swapped, (m, n, k, l)
        return True, (
            "4 published numerators match term-for-term; all "
            f"{built} numerators for 1 <= m,n <= 4 divide out exactly, "
            "in both variable orders"
        )

    _run(6, body)


# ---------------------------------------------------------------- 7


def test_acceptance_7_transform_homomorphism():
    def body():
        rng = random.Random(20260817)
        for trial in range(200):
            trunc = 2 * rng.randrange(0, 6)  # D <= 10
            f = random_theta_series(ZW2, trunc, rng)
            g = random_theta_series(ZW2, trunc, rng)
            lhs = e_transform(f.odot(g))
            rhs = e_transform(f) * e_transform(g)
            assert lhs == rhs, trial
        return True, (
            "E(f (.) g) = (Ef)(Eg) on 200 random pairs, D <= 10 (seed 20260817)"
        )

    _run(7, body)


# ---------------------------------------------------------------- 8


def _rotate(key):
    return key[2:] + key[:2]


def _reverse(key):
    return tuple(reversed(key))


def test_acceptance_8_symmetry_suite():
    def body():
        # raw keys: a canonicalizing engine would satisfy these by construction
        rotations = reversals = contractions = 0
        for n in (1, 2, 3):
            for m in range(6):
                for key in balanced_keys(n, m):
                    base = raw_n_value(key)
                    assert raw_n_value(_rotate(key)) == base, key
                    rotations += 1
                    assert raw_n_value(_reverse(key)) == base, key
                    reversals += 1
                    if n > 1 and key[0] == 0:
                        contracted = key[2:-1] + (key[-1] + key[1],)
                        assert raw_n_value(contracted) == base, key
                        contractions += 1
        return True, (
            f"rotation ({rotations}), reversal ({reversals}) and contraction "
            f"({contractions}) symmetries hold exhaustively for n <= 3, m <= 5"
        )

    _run(8, body)


# ---------------------------------------------------------------- 9


def test_acceptance_9_conjecture_report():
    def body():
        engine = MomentEngine()
        reports = {n: check_conjecture(n, 3) for n in (1, 2, 3)}
        for n, report in reports.items():
            assert len(report["rows"]) == 4, n
            for row in report["rows"]:
                assert row["expected"] == n ** (n * row["k"]), row
        assert reports[1]["all_match"] is True
        assert reports[2]["all_match"] is True
        # the three-pair outcome is reported, not presumed
        n3 = reports[3]["all_match"]
        for p in (1, 2, 3):
            recursion_says = engine.n_value((p,) * 6) == 27**p
            assert check_n3_identity(p) == recursion_says, p
        return True, (
            "conjecture matches for n <= 2 at k <= 3; n=3 reported "
            f"all_match={n3}; identity agrees with the recursion for p <= 3"
        )

    _run(9, body)
