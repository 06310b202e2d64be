import hashlib
import json
import math
from itertools import permutations, product

import pytest

from dtmoments import genfun
from dtmoments.fps import Series, VariableRegistry, _Packing, geometric
from dtmoments.genfun import (
    check_conjecture,
    check_n3_identity,
    f_rational,
    f_series,
    g_diagonal,
    h_diagonal,
)
from dtmoments.moments import MomentEngine, n_value
from dtmoments.ratfun import (
    RationalExpr,
    form_id,
    identity_form,
    permutation_form,
)
from conftest import ZW2, ZW3, assert_same_text, balanced_keys
from oracles import (
    closed_form_at_equal_pairs,
    expand_by_geometric,
    f_series_by_geometric,
    poly_pretty_by_items,
    series_at_equal_pairs,
    series_text_by_items,
    split_factors,
)


def zw_form(registry, *pairs):
    """Sum of z_i w_j monomials from 1-based (i, j) pairs."""
    terms = {}
    for i, j in pairs:
        e = [0] * registry.size
        e[registry.index(f"z{i}")] += 1
        e[registry.index(f"w{j}")] += 1
        terms[tuple(e)] = 1
    return Series(registry, 2, terms)


# -- series pipeline ---------------------------------------------------------------


def test_f1_is_the_geometric_series():
    got = f_series(1, 12)
    assert got == geometric(zw_form(got.registry, (1, 1)), 12)
    for k in range(7):
        assert got.terms.get((k, k), 0) == 1


def test_f2_anchor_coefficients():
    f2 = f_series(2, 4)
    assert f2.terms.get((1, 1, 1, 1), 0) == 4
    assert f2.terms.get((2, 1, 0, 1), 0) == 1


def test_series_coefficients_equal_recursion_values():
    # the two pipelines share no code beyond basic arithmetic
    engine = MomentEngine()
    for n, D in ((1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (6, 6), (7, 6), (7, 8), (8, 6)):
        fs = f_series(n, D)
        for m in range(D // 2 + 1):
            for key in balanced_keys(n, m):
                assert fs.terms.get(key, 0) == engine.n_value(key), key


def test_only_balanced_exponents_appear():
    for n in (2, 3):
        fs = f_series(n, 6)
        for exps in fs.terms:
            ks = exps[0::2]
            ls = exps[1::2]
            assert sum(ks) == sum(ls)


@pytest.mark.parametrize("n, D", [(3, 20), (4, 12), (5, 10), (6, 8), (7, 6)])
def test_series_level_sums_match_the_all_pairs_equal_law(n, D):
    # Setting every z_i = z and w_i = w is observed to give (1 - n zw)^(-n),
    # so the coefficients of level m (k-sum = l-sum = m) sum to
    # n^m C(m+n-1, n-1).
    sums = dict.fromkeys(range(D // 2 + 1), 0)
    for exps, c in f_series(n, D).terms.items():
        sums[sum(exps) // 2] += c
    assert sums == {m: n**m * math.comb(m + n - 1, n - 1) for m in sums}


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_matches_the_all_pairs_equal_law(n):
    # every denominator form becomes 1 - n t, so F_n = (1 - n t)^(-n) says
    # that the terms brought over (1 - n t)^d_max sum to (1 - n t)^(d_max - n),
    # as polynomials: every degree at once
    d_max, total = closed_form_at_equal_pairs(f_rational(n))
    assert d_max >= n
    assert total == [math.comb(d_max - n, i) * (-n) ** i for i in range(d_max - n + 1)]


def test_shadow_recursion_matches_the_all_pairs_equal_law():
    # the recursion's split blueprints, specialized to one variable, far
    # beyond the orders either pipeline reaches
    M = 40
    series = series_at_equal_pairs(14, M)
    assert sorted(series) == list(range(1, 15))
    for n, g in series.items():
        assert g == [n**m * math.comb(m + n - 1, n - 1) for m in range(M + 1)], n


def test_geometric_inverts_one_minus_the_form():
    # f_series(n, D) is geometric(identity form) times the recursion's
    # right-hand side, so the recursion holds exactly when geometric(u, D)
    # inverts 1 - u up to degree D
    D = 8
    forms = [identity_form(ZW2), identity_form(ZW3)]
    forms += [permutation_form(ZW2, (1, 0))]
    forms += [permutation_form(ZW3, s) for s in ((1, 2, 0), (2, 1, 0), (0, 2, 1))]
    for u in forms:
        one = Series.one(u.registry, D)
        assert (one - u.with_trunc(D)) * geometric(u, D) == one, form_id(u)


# f_series packs 8-bit fields up to D = 255 and the width of D above, so
# 255, 256 and 300 sit on both sides of its one width step; 15, 16, 31 and
# 32 are the steps of a layout as wide as D
@pytest.mark.parametrize(
    "n, D",
    [(1, D) for D in (0, 1, 2, 15, 16, 31, 32, 255, 256, 300)]
    + [(2, D) for D in (0, 1, 2, 15, 16, 31, 32)]
    + [(3, 0), (3, 1), (3, 6), (3, 7), (3, 10), (3, 14), (4, 6), (4, 8), (4, 10), (5, 6), (5, 8)]
    + [(6, 4), (6, 6), (7, 4)],
)
def test_f_series_equals_the_geometric_route(n, D):
    assert f_series(n, D) == f_series_by_geometric(n, D)


@pytest.mark.parametrize("n", range(3, 8))
def test_f_series_places_each_blueprint_once_per_order(n, monkeypatch):
    # m(m - 1) blueprints per order m = 2..n: C(m, 2) inner and C(m, 2) outer
    calls = []
    place = genfun._packed_factor

    def counted(*args):
        calls.append(args[:2])
        return place(*args)

    monkeypatch.setattr(genfun, "_packed_factor", counted)
    genfun._packed_f(n, 6, _Packing(2 * n, 6), {})
    assert len(calls) == (n - 1) * n * (n + 1) // 3
    assert len(set(calls)) == len(calls)  # (where, prefix) names the order by its length


@pytest.mark.parametrize("n", range(3, 7))
def test_f_rational_places_each_blueprint_once(n, monkeypatch):
    # C(n, 2) inner and C(n, 2) outer blueprints, with the lower orders cached;
    # placing per split set would take n 2^(n - 1) - n
    for m in range(1, n):
        f_rational(m)
    calls = []
    place = genfun._rational_factor

    def counted(*args):
        calls.append(args[1:])
        return place(*args)

    monkeypatch.setattr(genfun, "_rational_factor", counted)
    f_rational.__wrapped__(n)
    assert len(calls) == n * (n - 1)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("n", range(3, 7))
def test_lower_orders_are_the_same_in_every_layout(n):
    # f_series packs every lower order F_m in the layout of F_n
    for m in range(1, n):
        own = genfun._packed_f(m, 6, _Packing(2 * m, 6), {})
        assert own and own == genfun._packed_f(m, 6, _Packing(2 * n, 6), {}), m


@pytest.mark.parametrize("n", range(2, 8))
def test_split_blueprints_are_registry_positions(n):
    terms = list(split_factors(n))
    assert len(terms) == 2**n - n - 1
    multi = set()
    for term in terms:
        hash(term)
        placed = sorted(p for where, _ in term for p in where)
        assert placed == list(range(2 * n))
        for where, prefix in term:
            assert len(prefix) == 2 * n and len(where) % 2 == 0
            if len(where) == 2:
                assert prefix == (0,) * (2 * n)
            else:
                units = [i for i, x in enumerate(prefix) if x]
                assert [prefix[i] for i in units] == [1, 1]
                assert set(units) <= set(where)
                multi.add((where, prefix))
    if n == 7:
        assert len(multi) == 35


def test_bounds_are_validated():
    with pytest.raises(ValueError):
        f_series(0, 4)
    with pytest.raises(ValueError):
        f_series(2, -1)
    with pytest.raises(ValueError):
        f_rational(0)


@pytest.mark.parametrize(
    "door, args",
    [
        (f_series, (1, 5)),
        (f_rational, (1,)),
        (g_diagonal, (2, 3)),
        (h_diagonal, (2, 3)),
        (check_conjecture, (2, 3)),
        (check_n3_identity, (2,)),
    ],
)
def test_genfun_doors_take_only_ints(door, args):
    # each argument in turn as a float, a bool and a string, refused both
    # before and after the int call has run (a bool or a float equal to a
    # cached int must not reach the cache)
    bads = [
        args[:i] + (x,) + args[i + 1 :]
        for i in range(len(args))
        for x in (float(args[i]), True, str(args[i]))
    ]
    for warm in (False, True):
        if warm:
            door(*args)
        for bad in bads:
            with pytest.raises(ValueError, match="must be an integer"):
                door(*bad)


# -- rational pipeline ----------------------------------------------------------------


def test_rational_expansion_matches_series():
    for n, D in ((1, 8), (2, 8), (3, 8), (4, 6), (5, 8), (6, 6)):
        assert f_rational(n).expand(D) == f_series(n, D)


@pytest.mark.parametrize(
    "n, D", [(n, D) for n in range(1, 6) for D in (6, 8, 10)] + [(3, 7), (6, 6)]
)
def test_expand_equals_the_geometric_route(n, D):
    expr = f_rational(n)
    assert expr.expand(D) == expand_by_geometric(expr, D)


def test_rational_form_tables_are_keyed_by_form_id():
    # the closed product reuses table keys as ids instead of re-rendering them
    for n in range(1, 6):
        expr = f_rational(n)
        forms = expr.table.forms
        for fid, form in forms.items():
            assert fid == form_id(form)
        for t in expr.terms:
            assert all(fid in forms for fid in t.denominator)
            assert all(s in forms for s in t.numerator.symbols)


def test_rational_two_pairs_structure():
    expr = f_rational(2)
    assert len(expr.terms) == 1
    t = expr.terms[0]
    assert t.prefix == (0, 0, 0, 0)
    assert sum(t.numerator.terms.values()) == 1 and t.numerator.degree() == 0
    assert set(t.denominator) == {
        form_id(identity_form(ZW2)),
        form_id(permutation_form(ZW2, (1, 0))),
    }


def test_printed_two_pair_form():
    u1 = zw_form(ZW2, (1, 1), (2, 2))
    u2 = zw_form(ZW2, (1, 2), (2, 1))
    printed = RationalExpr.single(ZW2, (0,) * 4, 1, [u1, u2])
    assert printed.expand(8) == f_series(2, 8)


def test_printed_three_pair_form():
    # bracket of four terms over the two shared denominator forms
    u1 = zw_form(ZW3, (1, 1), (2, 2), (3, 3))
    u2 = zw_form(ZW3, (1, 3), (2, 1), (3, 2))
    u3 = zw_form(ZW3, (1, 2), (2, 1), (3, 3))
    u4 = zw_form(ZW3, (1, 1), (2, 3), (3, 2))
    u5 = zw_form(ZW3, (1, 3), (2, 2), (3, 1))

    def pref(i, j):
        e = [0] * 6
        e[ZW3.index(f"z{i}")] += 1
        e[ZW3.index(f"w{j}")] += 1
        return tuple(e)

    printed = (
        RationalExpr.single(ZW3, (0,) * 6, 1, [u1, u2])
        + RationalExpr.single(ZW3, pref(1, 2), 1, [u1, u2, u3])
        + RationalExpr.single(ZW3, pref(2, 3), 1, [u1, u2, u4])
        + RationalExpr.single(ZW3, pref(3, 1), 1, [u1, u2, u5])
    )
    assert printed.expand(8) == f_series(3, 8)


def test_rational_terms_stay_unmerged_and_within_factor_bound():
    expr = f_rational(3)
    assert len(expr.terms) == 4
    for t in expr.terms:
        assert len(t.denominator) <= math.factorial(3)
        assert sum(t.prefix) // 2 <= len(t.denominator) - 1


def _cycle_count(perm) -> int:
    """Cycles of a permutation of 0..n-1 given as a tuple of images."""
    seen = [False] * len(perm)
    count = 0
    for start in range(len(perm)):
        if not seen[start]:
            count += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return count


def _non_crossing(n: int) -> list:
    """NC(n) inside S_n: the sigma with |sigma| + |sigma^-1 c| = n - 1, where
    |pi| = n - cycles(pi) and c(i) = i - 1 mod n is the long cycle."""
    out = []
    for sigma in permutations(range(n)):
        inverse = [0] * n
        for i, s in enumerate(sigma):
            inverse[s] = i
        rest = tuple(inverse[(i - 1) % n] for i in range(n))
        if (n - _cycle_count(sigma)) + (n - _cycle_count(rest)) == n - 1:
            out.append(sigma)
    return out


def _assert_non_crossing_denominators(expr, catalan):
    """The denominator forms of f_rational(n) are exactly the permutation
    forms of NC(n), ``catalan`` of them; the table's other forms are partial
    (fewer than n terms) and serve only as numerator symbols; every form
    has unit coefficients."""
    n = expr.registry.pair_count
    forms = expr.table.forms
    denominators = {fid for t in expr.terms for fid in t.denominator}
    got = sorted(sorted(forms[fid].terms.items()) for fid in denominators)
    expected = sorted(
        sorted(permutation_form(expr.registry, sigma).terms.items())
        for sigma in _non_crossing(n)
    )
    assert len(expected) == catalan
    assert got == expected
    for fid, form in forms.items():
        assert set(form.terms.values()) == {1}, fid
        if fid not in denominators:
            assert len(form.terms) < n, fid


@pytest.mark.parametrize("n, catalan", [(2, 2), (3, 5), (4, 14), (5, 42), (6, 132)])
def test_rational_denominators_are_the_non_crossing_permutation_forms(n, catalan):
    _assert_non_crossing_denominators(f_rational(n), catalan)


def test_rational_five_pairs_has_distinct_sums():
    # the closed pipeline is only guaranteed by construction up to n=4;
    # at n=5 it happens to stay collision-free and consistent
    assert f_rational(5).expand(4) == f_series(5, 4)


def test_rational_seven_pairs_expands_to_the_series_over_non_crossing_forms():
    # built uncached, so its 4.76 M numerator terms are freed with the test
    expr = f_rational.__wrapped__(7)
    assert len(expr.terms) == 13602
    assert expr.expand(6) == f_series(7, 6)
    _assert_non_crossing_denominators(expr, 429)


# sha256 of f_rational(2..6) rendered as pretty() then sorted-key JSON, each
# expression in turn; any change to the forms, their ids, the table order or
# the numerators changes it
F_RATIONAL_2_TO_6_SHA256 = "fcd610a8c1cfc22db3c6dc330b50fbef74346536380c14defd50c9f9686e5bc9"


def test_rational_output_bytes_are_pinned():
    digest = hashlib.sha256()
    for n in range(2, 7):
        expr = f_rational(n)
        digest.update(expr.pretty().encode())
        digest.update(json.dumps(expr.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == F_RATIONAL_2_TO_6_SHA256


# the oracle pass's series ladder and the closed-form pass's expansions
SERIES_LADDER = ((3, 20), (4, 12), (5, 10), (6, 8), (7, 6))
EXPANSIONS = ((5, 8), (6, 6))


def test_series_and_expansions_render_the_item_oracles_bytes():
    for n, D in SERIES_LADDER:
        f = f_series(n, D)
        assert_same_text(f.to_text(), series_text_by_items(f))
    for n, D in EXPANSIONS:
        f = f_rational(n).expand(D)
        assert_same_text(f.to_text(), series_text_by_items(f))


def test_rational_numerators_render_the_item_oracles_bytes():
    for n in range(2, 7):
        expr = f_rational(n)
        alias = expr._table.display_names()
        for t in expr.terms:
            p = t.numerator
            assert p.pretty(alias) == poly_pretty_by_items(p, alias)
            assert p.pretty() == poly_pretty_by_items(p)


# -- diagonals ---------------------------------------------------------------------


def g2_formula(a, b):
    return sum(
        math.comb(2 * k, k) * math.comb(a + b - 2 * k, a - k)
        for k in range(min(a, b) + 1)
    )


def test_g2_formula_matches_square_root_factor_expansion():
    # oracle for the formula itself: expand 1/(1-x1-x2) times the
    # central-binomial series (the square-root factor) directly
    X2 = VariableRegistry(("x1", "x2"), modulus=1)
    D = 10
    linear = Series(X2, D, {(1, 0): 1, (0, 1): 1})
    root = Series(X2, D, {(k, k): math.comb(2 * k, k) for k in range(D // 2 + 1)})
    prod = geometric(linear, D) * root
    for a in range(D + 1):
        for b in range(D + 1 - a):
            assert prod.terms.get((a, b), 0) == g2_formula(a, b)


def test_g_diagonal_two_pairs_matches_formula():
    diag = g_diagonal(2, 10)
    assert set(diag) == {(a, b) for a in range(6) for b in range(6 - a)}
    for (a, b), coeff in diag.items():
        assert coeff == g2_formula(a, b), (a, b)
    assert diag[(1, 1)] == 4
    assert diag[(2, 2)] == 16


def test_g_diagonal_one_pair_is_all_ones():
    diag = g_diagonal(1, 12)
    assert all(v == 1 for v in diag.values())


def g_diagonal_by_filter(n, D):
    """g_diagonal by walking every multi-index of entries <= D/2 and keeping
    those with 2(k1 + ... + kn) <= D."""
    terms = f_series(n, D).terms
    return [
        (ks, terms.get(tuple(k for k in ks for _ in (0, 1)), 0))
        for ks in product(range(D // 2 + 1), repeat=n)
        if 2 * sum(ks) <= D
    ]


@pytest.mark.parametrize("n, D", [(1, 12), (2, 10), (3, 9), (4, 8), (6, 8)])
def test_g_diagonal_lists_the_filtered_walk_in_its_order(n, D):
    assert list(g_diagonal(n, D).items()) == g_diagonal_by_filter(n, D)


def test_h_diagonal():
    assert h_diagonal(1, 6) == [1] * 7
    assert h_diagonal(2, 6) == [4**k for k in range(7)]
    assert h_diagonal(3, 0) == [1]
    assert h_diagonal(4, 0) == [1]
    with pytest.raises(ValueError):
        h_diagonal(0, 3)
    with pytest.raises(ValueError):
        h_diagonal(2, -1)


def test_h_diagonal_agrees_with_g_diagonal_diagonal():
    diag_g = g_diagonal(2, 8)
    diag_h = h_diagonal(2, 2)
    for k in range(3):
        assert diag_g[(k, k)] == diag_h[k]


# -- conjecture checkers --------------------------------------------------------------


def test_check_conjecture_proved_cases_match():
    for n in (1, 2):
        report = check_conjecture(n, 5)
        assert report["all_match"] is True
        assert report["first_divergence"] is None
        assert len(report["rows"]) == 6
        for row in report["rows"]:
            assert row["match"] is True
            assert row["expected"] == n ** (n * row["k"])


def test_check_conjecture_nine_pairs_match():
    # Sniady's theorem: N((k,) * 2n) = n^(nk); nine pairs up to k = 3
    assert check_conjecture(9, 3)["all_match"] is True


def test_check_conjecture_reports_three_pairs():
    report = check_conjecture(3, 2)
    assert {row["k"] for row in report["rows"]} == {0, 1, 2}
    for row in report["rows"]:
        assert row["computed"] == n_value((row["k"],) * 6)
    with pytest.raises(ValueError):
        check_conjecture(0, 2)


def test_n3_identity_agrees_with_recursion():
    for p in (1, 2, 3):
        recursion_says = n_value((p,) * 6) == 27**p
        assert check_n3_identity(p) == recursion_says
    with pytest.raises(ValueError):
        check_n3_identity(0)
