import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from dtmoments.fps import (
    Series,
    VariableRegistry,
    _Packing,
    _padd_into,
    _pmul_trunc,
    _width,
    geometric,
)
from dtmoments.ratfun import (
    DistinctnessViolation,
    ExactDivisionError,
    FormTable,
    RationalExpr,
    RationalTerm,
    SymPoly,
    _newton_step,
    _odot_closed,
    _orbit,
    _p_cell,
    _p_packing,
    _row_orbits,
    form_id,
    identity_form,
    odot_closed,
    p_polynomial,
    permutation_form,
    uv_symbols,
)
from dtmoments import genfun, ratfun
from conftest import CLONES, ZW2, ZW3, assert_frozen
from oracles import (
    _div_linear,
    _odot_pair_by_products,
    _row_product,
    _swapped,
    expand_by_geometric,
    odot_closed_by_products,
    p_by_window,
    q_polynomial,
    with_symbols,
)


def sp(m, n, data):
    """Fixture helper: SymPoly over u1..um,v1..vn from {'u1^2 v3': coeff}."""
    syms = uv_symbols(m, n)
    terms = {}
    for mono, c in data.items():
        e = [0] * len(syms)
        for tok in mono.split():
            name, _, pow_s = tok.partition("^")
            e[syms.index(name)] += int(pow_s) if pow_s else 1
        terms[tuple(e)] = c
    return SymPoly(syms, terms)


# -- symbolic polynomial basics ---------------------------------------------------


def test_sympoly_arithmetic_and_pretty():
    p = sp(2, 2, {"": 2, "u1": -1, "u2": -1, "v1": -1, "v2": -1})
    q = sp(2, 2, {"u1": 1, "v2": 1})
    assert (p + q) == sp(2, 2, {"": 2, "u2": -1, "v1": -1})
    assert (p * SymPoly.one(p.symbols)) == p
    assert p.pretty() == "2 - u1 - u2 - v1 - v2"
    assert (2 * q).pretty() == "2u1 + 2v2"
    assert SymPoly.zero(p.symbols).pretty() == "0"


def test_sympoly_constructor_validates_every_term():
    with pytest.raises(ValueError, match="distinct"):
        SymPoly(("a", "a"))
    for exps in [(1,), (1, 0, 0), (-1, 1), (0.5, 0), ("1", 0)]:
        with pytest.raises(ValueError):
            SymPoly(("a", "b"), {exps: 1})
    with pytest.raises(TypeError):
        SymPoly(("a", "b"), {(1, 0): 0.5})
    assert SymPoly(("a", "b"), [((1, 0), 2), ((1, 0), -2), ((0, 1), 0)]).is_zero()


def test_single_term_refuses_a_bool_numerator():
    u = identity_form(ZW2)
    for flag in (True, False):
        with pytest.raises(TypeError, match="got bool"):
            RationalExpr.single(ZW2, (0,) * 4, flag, [u])
    assert RationalExpr.single(ZW2, (0,) * 4, 1, [u]) == RationalExpr.geometric_term(ZW2, u)


def test_sympoly_is_immutable():
    p = SymPoly.symbol(("a", "b"), "a")
    with pytest.raises(AttributeError, match="SymPoly is immutable"):
        p.terms = {}
    with pytest.raises(AttributeError):
        p.symbols = ("c", "d")


def _ratfun_values():
    e = genfun.f_rational(2)
    return [SymPoly.symbol(("a", "b"), "a"), e.terms[0], e]


@pytest.mark.parametrize("i", range(3), ids=["SymPoly", "RationalTerm", "RationalExpr"])
def test_every_slot_refuses_set_and_del(i):
    value = _ratfun_values()[i]
    assert_frozen(value)
    assert value == _ratfun_values()[i]


def test_del_cannot_empty_the_cached_rational_form():
    e = genfun.f_rational(3)
    terms, forms = e.terms, dict(e.table.forms)
    for slot in ("terms", "table"):
        with pytest.raises(AttributeError):
            delattr(e, slot)
    with pytest.raises(AttributeError):
        del e.terms[0].packed
    assert genfun.f_rational(3) is e
    assert e.terms is terms and e.table.forms == forms


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_copies_and_pickles_rebuild_equal_values(clone):
    for value in _ratfun_values():
        twin = clone(value)
        assert type(twin) is type(value) and twin == value
    e = genfun.f_rational(3)
    assert clone(e).expand(6) == e.expand(6)


def test_symbol_lists_from_outside_are_checked():
    with pytest.raises(ValueError, match="distinct"):
        SymPoly.zero(("a", "a"))
    with pytest.raises(ValueError, match="distinct"):
        SymPoly.symbol(("a", "a"), "a")


def test_rational_expr_keeps_the_terms_of_a_generator():
    e = genfun.f_rational(3)
    g = RationalExpr(e.registry, e.table, (t for t in e.terms))
    assert len(g.terms) == len(e.terms) and g == e


def test_callers_cannot_change_an_expression_through_its_table():
    e = genfun.f_rational(3)
    before = e.pretty()
    stray = Series(e.registry, 2, {(0, 0, 1, 0, 0, 1): 1})
    e.table.add(stray)
    assert genfun.f_rational(3).pretty() == before
    table = e.table
    g = RationalExpr(e.registry, table, e.terms)
    table.add(stray)
    assert g == e and g.pretty() == before
    assert "_table" in RationalExpr.__slots__
    assert_frozen(g)


def test_sympoly_with_symbols_can_merge():
    p = sp(1, 1, {"u1 v1": 3})
    merged = with_symbols(p, ("a",), {"u1": "a", "v1": "a"})
    assert merged == SymPoly(("a",), {(2,): 3})


def test_exact_division_helper_detects_remainders():
    # (u1 - u2) divides u1^2 - u2^2 but not u1^2 + u2^2; monomials are
    # packed ints, the total degree in the low 2-bit field, u1 in the next
    # one and u2 above it
    packing = _Packing(2, 2)
    u1, u2 = packing.mono((1, 0)), packing.mono((0, 1))
    ok = _div_linear({packing.mono((2, 0)): 1, packing.mono((0, 2)): -1}, packing, 0, 1)
    assert ok == {u1: 1, u2: 1}
    assert packing.unpack(ok) == {(1, 0): 1, (0, 1): 1}
    with pytest.raises(ExactDivisionError):
        _div_linear({packing.mono((2, 0)): 1, packing.mono((0, 2)): 1}, packing, 0, 1)


def test_exact_division_by_a_variable_difference_leaves_a_remainder():
    # u1^2 - u2 u3 = (u1 - u2)(u1 + u2) + u2^2 - u2 u3: the quotient's
    # pushes leave u2^2 - u2 u3 in bucket 0
    packing = _Packing(3, 2)
    u1_sq = packing.mono((2, 0, 0))
    with pytest.raises(ExactDivisionError):
        _div_linear({u1_sq: 1, packing.mono((0, 1, 1)): -1}, packing, 0, 1)
    # with u2 u3 replaced by u2^2 the same division is exact
    exact = _div_linear({u1_sq: 1, packing.mono((0, 2, 0)): -1}, packing, 0, 1)
    assert exact == {packing.mono((1, 0, 0)): 1, packing.mono((0, 1, 0)): 1}


def test_packed_exponent_overflow_raises_instead_of_wrapping():
    # a 2-bit field holds 0..3; 4 would carry into the next field
    packing = _Packing(2, 3)
    assert packing.width == 2
    assert packing.mono((3, 0)) == 3 + (3 << 2)
    assert packing.mono((0, 1)) == 1 + (1 << 4)
    with pytest.raises(OverflowError):
        packing.mono((4, 0))
    with pytest.raises(OverflowError):
        packing.mono((2, 2))  # each exponent fits, the degree does not
    with pytest.raises(OverflowError):
        packing.mono((0, -1))
    # the width rule: the fewest bits that hold every exponent up to the bound
    assert [_width(bound) for bound in (0, 1, 3, 4, 18)] == [1, 1, 2, 3, 5]


def assert_degree_fields_exact(terms, packing):
    for e in terms:
        exps = [(e >> s) & packing.mask for s in packing.shifts]
        assert e & packing.mask == sum(exps), (e, exps)


def test_p_kernel_keeps_the_degree_field_exact():
    rng = random.Random("p-kernel-degree-field")
    for _ in range(40):
        size = rng.randrange(2, 6)
        packing = _Packing(size, 6)
        f = {}
        for _ in range(rng.randrange(1, 8)):
            exps = [0] * size
            for _ in range(rng.randrange(0, 6)):
                exps[rng.randrange(size)] += 1
            f[packing.mono(exps)] = rng.choice((1, -1, 2, -3, 5))
        a, b = rng.sample(range(size), 2)
        linear = {packing.mono([int(i == a) for i in range(size)]): 1,
                  packing.mono([int(i == b) for i in range(size)]): -1}
        product = _pmul_trunc(f, linear, packing.mask, 6)
        quotient = _div_linear(product, packing, a, b)
        assert quotient == f
        swapped = _swapped(f, packing, a, b)
        assert _swapped(swapped, packing, a, b) == f
        for terms in (product, quotient, swapped):
            assert_degree_fields_exact(terms, packing)
    for m in range(1, 5):
        for n in range(1, 5):
            assert_degree_fields_exact(_row_product(m, n), _p_packing(m, n))
            assert_degree_fields_exact(_row_orbits(m, n), _p_packing(m, n))


def test_newton_step_equals_swap_subtract_divide():
    rng = random.Random("newton-step")
    kinds = Counter()
    for _ in range(60):
        size = rng.randrange(2, 6)
        b = rng.randrange(1, size)
        packing = _Packing(size, 2 * size)
        terms = {}
        for _ in range(rng.randrange(1, 10)):
            exps = [rng.randrange(3) for _ in range(size)]
            kind = rng.choice(("plain", "symmetric", "with its swap"))
            kinds[kind] += 1
            if kind == "symmetric":  # its own swap: the two parts cancel
                exps[b] = exps[0]
            terms[tuple(exps)] = rng.choice((1, -1, 2, -3, 5, Fraction(1, 2)))
            if kind == "with its swap":
                exps[0], exps[b] = exps[b], exps[0]
                terms[tuple(exps)] = rng.choice((1, -1, 4))
        window = packing.pack(terms, 2 * size)
        dividend = _swapped(window, packing, 0, b)
        _padd_into(dividend, window, -1)
        got = _newton_step(window, packing, b)
        assert got == _div_linear(dividend, packing, b, 0)
        assert_degree_fields_exact(got, packing)
    assert min(kinds.values()) > 20
    # a window of symmetric terms only is its own swap: the step gives 0
    packing = _Packing(3, 4)
    assert _newton_step({packing.mono((1, 2, 1)): 3, 0: 1}, packing, 2) == {}


# -- the universal numerator polynomials -------------------------------------------


def test_q_polynomial_smallest_case_is_one():
    assert q_polynomial(1, 1, 0, 0) == SymPoly.one(uv_symbols(1, 1))


def test_q_polynomial_rejects_bad_ranges():
    with pytest.raises(ValueError):
        q_polynomial(2, 2, 2, 0)
    with pytest.raises(ValueError):
        q_polynomial(2, 2, 0, -1)


def test_p_fixtures_two_by_two():
    assert p_polynomial(2, 2, 0, 1) == sp(
        2, 2, {"": 1, "u1 u2": -1, "v1": -1, "v2": -1, "v1 v2": 1}
    )
    assert p_polynomial(2, 2, 1, 1) == sp(
        2, 2, {"": 2, "u1": -1, "u2": -1, "v1": -1, "v2": -1}
    )


def test_p_fixture_2_3_balanced():
    expected = sp(
        2,
        3,
        {
            "": 2,
            "u1": -3,
            "u1^2": 1,
            "u2": -3,
            "u1 u2": 4,
            "u1^2 u2": -1,
            "u2^2": 1,
            "u1 u2^2": -1,
            "v1": -1,
            "u1 v1": 1,
            "u2 v1": 1,
            "u1 u2 v1": -1,
            "v2": -1,
            "u1 v2": 1,
            "u2 v2": 1,
            "u1 u2 v2": -1,
            "v3": -1,
            "u1 v3": 1,
            "u2 v3": 1,
            "u1 u2 v3": -1,
            "v1 v2 v3": 1,
        },
    )
    assert p_polynomial(2, 3, 1, 1) == expected


def test_p_fixture_2_3_unbalanced():
    # The printed display garbles one monomial ("- 2v_3 u_1v_3"); the v-symmetry
    # of the surrounding pattern fixes the reading as "- 2v_3 + u_1 v_3".
    expected = sp(
        2,
        3,
        {
            "": 3,
            "u1": -3,
            "u1^2": 1,
            "u2": -3,
            "u1 u2": 1,
            "u2^2": 1,
            "v1": -2,
            "u1 v1": 1,
            "u2 v1": 1,
            "v2": -2,
            "u1 v2": 1,
            "u2 v2": 1,
            "v1 v2": 1,
            "v3": -2,
            "u1 v3": 1,
            "u2 v3": 1,
            "v1 v3": 1,
            "v2 v3": 1,
        },
    )
    assert p_polynomial(2, 3, 1, 2) == expected


def test_p_single_denominator_families():
    # P^{k,0}_{m,1} = (1-v1)^{m-k-1} and P^{0,l}_{1,n} = (1-u1)^{n-l-1}
    for m in range(1, 5):
        for k in range(m):
            got = p_polynomial(m, 1, k, 0)
            binom = {
                (0,) * m + (j,): (-1) ** j * math.comb(m - k - 1, j)
                for j in range(m - k)
            }
            assert got == SymPoly(uv_symbols(m, 1), binom)
    for n in range(1, 5):
        for l in range(n):
            got = p_polynomial(1, n, 0, l)
            binom = {
                (j,) + (0,) * n: (-1) ** j * math.comb(n - l - 1, j)
                for j in range(n - l)
            }
            assert got == SymPoly(uv_symbols(1, n), binom)


def test_q_and_p_degree_bounds_small_range():
    # exhaustive at m,n <= 3 here, plus (2,4) and (4,2), whose inner cells
    # come from the cell recurrence at n = 4 and m = 4; the acceptance suite
    # pushes to 4.  Q is the oracle's direct sum, built without the packed
    # kernel behind P
    for m, n in [*product(range(1, 4), repeat=2), (2, 4), (4, 2)]:
        vd_deg = math.comb(m, 2) + math.comb(n, 2)
        syms = uv_symbols(m, n)
        vandermonde = SymPoly.one(syms)
        for block in (syms[:m], syms[m:]):
            for a, b in combinations(block, 2):
                vandermonde = vandermonde * (
                    SymPoly.symbol(syms, a) - SymPoly.symbol(syms, b)
                )
        for k in range(m):
            for l in range(n):
                q = q_polynomial(m, n, k, l)
                p = p_polynomial(m, n, k, l)
                assert q.degree() <= (m * n - k - l - 1) + vd_deg
                assert p.degree() <= m * n - k - l - 1
                # the defining fact: P * prod(u_p - u_q) * prod(v_r - v_s) = Q
                assert p * vandermonde == q, (m, n, k, l)


def test_p_swap_symmetry_small_range():
    # P^{k,l}_{m,n}(u;v) = P^{l,k}_{n,m}(v;u).  The package builds the
    # boundary cells with m > n as mirrors of the (n, m) cells, so those
    # cells are held to p_by_window instead, the full divided difference in
    # the (m, n) orientation on every term of the row product
    for m in range(1, 5):
        for n in range(1, 5):
            for k in range(m):
                for l in range(n):
                    p = p_polynomial(m, n, k, l)
                    if m > n:
                        assert p == p_by_window(m, n, k, l), (m, n, k, l)
                        continue
                    q = p_polynomial(n, m, l, k)
                    rename = {f"u{i}": f"v{i}" for i in range(1, n + 1)}
                    rename.update({f"v{j}": f"u{j}" for j in range(1, m + 1)})
                    assert p == with_symbols(q, uv_symbols(m, n), rename)


def test_row_orbits_are_the_non_increasing_terms_of_the_row_product():
    # (5, 5) is left out: the oracle's full row there has 1.6 million terms.
    # The uncached oracle keeps the large rows out of its cache
    for m in range(1, 6):
        for n in range(1, 6):
            if (m, n) == (5, 5):
                continue
            packing = _p_packing(m, n)
            v_shifts = packing.shifts[m:]
            want = {}
            for e, c in _row_product.__wrapped__(m, n).items():
                v = [(e >> s) & packing.mask for s in v_shifts]
                if v == sorted(v, reverse=True):
                    want[e] = c
            assert _row_orbits(m, n) == want, (m, n)


def test_orbit_lists_the_distinct_permutations_in_first_seen_order():
    for size in range(7):
        for v in combinations_with_replacement(range(3, -1, -1), size):
            assert _orbit(v, {}) == list(dict.fromkeys(permutations(v))), v
    # one permutation, not 12! of them
    assert _orbit((0,) * 12, {}) == [(0,) * 12]


def test_newton_steps_run_on_the_fewer_rows_and_one_term_per_v_orbit(monkeypatch):
    # a cold (4, 3) grid: its boundary cells mirror the (3, 4) cells, whose
    # steps use b = 1, 2 only and see windows of non-increasing v exponents
    seen = []

    def step(window, packing, b):
        assert len(packing.shifts) == 7 and b < 3, (len(packing.shifts), b)
        for e in window:
            v = [(e >> s) & packing.mask for s in packing.shifts[3:]]
            assert v == sorted(v, reverse=True), v
        seen.append(b)
        return newton_step(window, packing, b)

    newton_step = ratfun._newton_step
    monkeypatch.setattr(ratfun, "_newton_step", step)
    _p_cell.cache_clear()
    for k in range(4):
        for l in range(3):
            assert p_polynomial(4, 3, k, l).terms
    assert set(seen) == {1, 2}


def test_p_cells_equal_the_direct_route():
    # every cell of the benchmark's grids and two 4x4 cells, asked for from
    # a cold cache with the inner cells first, so that the recurrence builds
    # their neighbours on the way; p_by_window runs each cell's own full
    # divided difference
    _p_cell.cache_clear()
    cells = [
        (m, n, k, l)
        for m, n in ((3, 4), (4, 3))
        for l in range(n)
        for k in reversed(range(m))
    ]
    cells += [(4, 4, 3, 3), (4, 4, 0, 3)]
    for cell in cells:
        assert p_polynomial(*cell) == p_by_window(*cell), cell


def test_p_polynomial_returns_one_object_per_cell():
    assert p_polynomial(3, 3, 1, 0) is p_polynomial(3, 3, 1, 0)
    assert p_polynomial(3, 3, 1, 0) is _p_cell(3, 3, 1, 0)
    bad_args = (
        (2, 2, 2, 0), (2, 2, 0, 2), (2, 2, -1, 0), (2, 2, 0, -1), (0, 1, 0, 0),
        (2, 2, 1.0, 0), (2.0, 2, 0, 0), (2, 2, True, 0), (2, 2, 0, False), (2, 2, "1", 0),
    )
    # the same answer from a cold cache and once (2, 2, 1, 0) is cached
    _p_cell.cache_clear()
    for warm in (False, True):
        if warm:
            p_polynomial(2, 2, 1, 0)
        for bad in bad_args:
            with pytest.raises(ValueError):
                p_polynomial(*bad)

# -- concrete forms ------------------------------------------------------------------


def test_form_id_is_canonical():
    a = Series(ZW2, 2, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    b = Series(ZW2, 2, {(0, 0, 1, 1): 1, (1, 1, 0, 0): 1})
    assert form_id(a) == form_id(b) == "z1w1+z2w2"
    c = Series(ZW2, 2, {(1, 0, 0, 1): 1, (0, 1, 1, 0): 2})
    assert form_id(c) == "z1w2+2z2w1"
    with pytest.raises(ValueError):
        form_id(Series.zero(ZW2, 2))


def test_form_table_dedupes_and_aliases():
    table = FormTable(ZW2)
    u = identity_form(ZW2)
    v = permutation_form(ZW2, (1, 0))
    id_u = table.add(u)
    id_v = table.add(v)
    assert table.add(u) == id_u
    assert list(table.forms) == [id_u, id_v]
    assert table.display_names() == {id_u: "u1", id_v: "u2"}
    copy = table.copy()
    assert copy.forms == table.forms and copy.forms is not table.forms
    with pytest.raises(ValueError):
        table.add(geometric(u, 4))  # not homogeneous of degree 2


def test_form_table_stores_each_form_at_its_degree():
    # a form given with a wider bound is stored with bound N and the same
    # terms; a form that already has bound N is stored as given
    table = FormTable(ZW2)
    wide = Series(ZW2, 10, identity_form(ZW2).terms)
    stored = table.forms[table.add(wide)]
    assert stored.trunc == 2 and stored.terms == wide.terms
    assert stored.to_json_dict()["D"] == 2
    exact = permutation_form(ZW2, (1, 0))
    assert table.forms[table.add(exact)] is exact


def test_permutation_form_shapes():
    assert identity_form(ZW2).terms == {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}
    assert permutation_form(ZW2, (1, 0)).terms == {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1}
    with pytest.raises(ValueError):
        permutation_form(ZW2, (0, 0))


def test_form_doors_refuse_bools_and_other_registries():
    # True == 1 sorts into a permutation, and a non-registry had no pair_count
    for sigma in ([True, 0], (1, False), (1.0, 0)):
        with pytest.raises(ValueError, match="is not a permutation of 0..1$"):
            permutation_form(ZW2, sigma)
    for registry in ("x", None, ("z1", "w1")):
        for door in (identity_form, lambda r: permutation_form(r, (0,))):
            with pytest.raises(TypeError, match="a form needs a VariableRegistry, got "):
                door(registry)


# -- rational expressions --------------------------------------------------------------


def zw_mono(registry, pairs):
    """Exponent tuple for a product of z_i / w_j factors, 0-based indices."""
    e = [0] * registry.size
    for kind, i in pairs:
        e[2 * i + (1 if kind == "w" else 0)] += 1
    return tuple(e)


def test_geometric_term_expands_to_geometric_series():
    u = identity_form(ZW2)
    expr = RationalExpr.geometric_term(ZW2, u)
    assert expr.expand(8) == geometric(u, 8)


def test_odot_closed_two_geometrics():
    u = Series(ZW2, 2, {(1, 1, 0, 0): 1})
    v = Series(ZW2, 2, {(0, 0, 1, 1): 1})
    got = odot_closed(
        RationalExpr.geometric_term(ZW2, u), RationalExpr.geometric_term(ZW2, v)
    )
    assert len(got.terms) == 1
    t = got.terms[0]
    assert t.prefix == (0, 0, 0, 0)
    assert t.denominator == (form_id(u + v),)
    assert list(t.numerator.terms.values()) == [1]
    assert t.numerator.degree() == 0
    assert got.expand(10) == geometric(u + v, 10)


def test_odot_closed_prefixed_term_drops_numerator():
    # (z1w2 / ((1-u1)(1-u2))) (.) (1/(1-v)): one prefix pair against two
    # denominators leaves the universal numerator at the constant 1.
    u1 = Series(ZW2, 2, {(1, 1, 0, 0): 1})
    u2 = Series(ZW2, 2, {(0, 0, 1, 1): 1})
    v = Series(ZW2, 2, {(1, 0, 0, 1): 1})
    left = RationalExpr.single(ZW2, zw_mono(ZW2, [("z", 0), ("w", 1)]), 1, [u1, u2])
    right = RationalExpr.geometric_term(ZW2, v)
    got = odot_closed(left, right)
    assert len(got.terms) == 1
    t = got.terms[0]
    assert t.prefix == zw_mono(ZW2, [("z", 0), ("w", 1)])
    assert t.denominator == tuple(sorted([form_id(u1 + v), form_id(u2 + v)]))
    assert list(t.numerator.terms.items()) == [((0,) * len(t.numerator.symbols), 1)]
    assert got.expand(10) == left.expand(10).odot(right.expand(10))


def test_odot_closed_unprefixed_term_keeps_one_minus_v():
    # (1/((1-u1)(1-u2))) (.) (1/(1-v)) has numerator 1 - v
    u1 = Series(ZW2, 2, {(1, 1, 0, 0): 1})
    u2 = Series(ZW2, 2, {(0, 0, 1, 1): 1})
    v = Series(ZW2, 2, {(1, 0, 0, 1): 1})
    left = RationalExpr.single(ZW2, (0,) * 4, 1, [u1, u2])
    got = odot_closed(left, RationalExpr.geometric_term(ZW2, v))
    t = got.terms[0]
    idx = t.numerator.symbols.index(form_id(v))
    size = len(t.numerator.symbols)
    one = (0,) * size
    linear = tuple(1 if i == idx else 0 for i in range(size))
    assert t.numerator.terms == {one: 1, linear: -1}
    assert got.expand(10) == left.expand(10).odot(geometric(v, 10))


def test_odot_closed_chain_matches_series_route():
    # fold three factors, compare against the plain series product
    a = RationalExpr.geometric_term(ZW3, Series(ZW3, 2, {(1, 0, 0, 0, 0, 1): 1}))
    b = RationalExpr.geometric_term(ZW3, Series(ZW3, 2, {(0, 1, 1, 0, 0, 0): 1}))
    c = RationalExpr.geometric_term(ZW3, Series(ZW3, 2, {(0, 0, 0, 1, 1, 0): 1}))
    closed = odot_closed(odot_closed(a, b), c)
    D = 10
    series = a.expand(D).odot(b.expand(D)).odot(c.expand(D))
    assert closed.expand(D) == series


def test_odot_closed_distinctness_violation():
    left = RationalExpr.single(ZW2, (0,) * 4, 1, [Series(ZW2, 2, {(1, 1, 0, 0): 1}), Series(ZW2, 2, {(0, 0, 1, 1): 1})])
    right = RationalExpr.single(ZW2, (0,) * 4, 1, [Series(ZW2, 2, {(0, 0, 1, 1): 1}), Series(ZW2, 2, {(1, 1, 0, 0): 1})])
    with pytest.raises(DistinctnessViolation, match="z1w1\\+z2w2"):
        odot_closed(left, right)


def test_odot_closed_distinctness_violation_through_the_memo():
    # the first term pair is distinct and puts z1w1+z2w2 = u2 + v1 in the
    # memo; the second pair meets it again as u1 + v2 and as u2 + v1
    u1 = Series(ZW2, 2, {(1, 1, 0, 0): 1})
    u2 = Series(ZW2, 2, {(0, 0, 1, 1): 1})
    left = RationalExpr.single(ZW2, (0,) * 4, 1, [u1, u2])
    right = RationalExpr.geometric_term(ZW2, u1) + RationalExpr.single(
        ZW2, (0,) * 4, 1, [u1, u2]
    )
    assert [len(t.denominator) for t in right.terms] == [1, 2]
    with pytest.raises(DistinctnessViolation, match="collide: z1w1\\+z2w2$"):
        odot_closed(left, right)


# -- the closed product against the per-pair product route --------------------------


@pytest.mark.parametrize("n", range(2, 6))
def test_odot_closed_equals_the_product_route_in_f_rational(monkeypatch, n):
    products = []

    def checked(a, b, memo):
        # f_rational shares one product memo across its products; the
        # product route shares nothing
        got = _odot_closed(a, b, memo)
        assert got == odot_closed_by_products(a, b)
        products.append(len(got.terms))
        return got

    monkeypatch.setattr(genfun, "_odot_closed", checked)
    assert genfun.f_rational.__wrapped__(n) == genfun.f_rational(n)
    assert products


def _random_form(rng):
    """A degree-2 form over ZW3: every z_i w_j with a random nonzero weight."""
    terms = {}
    for i, j in product(range(3), range(3)):
        terms[zw_mono(ZW3, [("z", i), ("w", j)])] = rng.choice([-3, -2, -1, 1, 2, 3])
    return Series(ZW3, 2, terms)


def _random_expr(rng, pool, count):
    """A sum of ``count`` terms over forms from ``pool``: a random prefix of
    k z_i w_j pairs, m denominators, and a numerator holding every monomial
    of degree <= m-1-k in the denominator ids, so that several numerator
    terms share a degree."""
    expr = None
    for _ in range(count):
        m = rng.randint(1, 3)
        dens = rng.sample(pool, m)
        k = rng.randint(0, m - 1)
        prefix = zw_mono(ZW3, [(x, rng.randrange(3)) for _ in range(k) for x in "zw"])
        ids = tuple(sorted(form_id(f) for f in dens))
        terms = {
            e: Fraction(rng.choice([-5, -1, 1, 2, 7]), rng.choice([1, 1, 3]))
            for e in product(range(m - k), repeat=m)
            if sum(e) <= m - 1 - k
        }
        term = RationalExpr.single(ZW3, prefix, SymPoly(ids, terms), dens)
        expr = term if expr is None else expr + term
    return expr


def test_odot_closed_equals_the_product_route_on_seeded_pairs():
    # the two pools share one form, so a u and a v can be the same symbol,
    # yet no two pair sums collide: generic forms are linearly independent
    rng = random.Random(20261018)
    forms = [_random_form(rng) for _ in range(7)]
    left_pool, right_pool = forms[:4], forms[3:]
    reused = 0
    for _ in range(12):
        left = _random_expr(rng, left_pool, 3)
        right = _random_expr(rng, right_pool, 2)
        got = odot_closed(left, right)
        assert got == odot_closed_by_products(left, right)
        assert got.expand(6) == left.expand(6).odot(right.expand(6))
        reused += sum(
            len(t.numerator.terms) > len({sum(e) for e in t.numerator.terms})
            for t in left.terms
        )
    assert reused


# -- numerator-1 pairs from per-shape templates ----------------------------------------


def _ones(t1, t2):
    return t1.packed == t2.packed == {0: 1}


@pytest.mark.parametrize("n", range(2, 7))
def test_numerator_one_pairs_equal_the_product_route_in_f_rational(monkeypatch, n):
    for m in range(1, n):
        genfun.f_rational(m)
    pair, checked = ratfun._odot_pair, []

    def compared(registry, table, forms1, t1, forms2, t2, memo):
        got = pair(registry, table, forms1, t1, forms2, t2, memo)
        if _ones(t1, t2):
            scratch = FormTable(registry)
            assert got == _odot_pair_by_products(registry, scratch, forms1, t1, forms2, t2)
            checked.append(got)
        return got

    monkeypatch.setattr(ratfun, "_odot_pair", compared)
    assert genfun.f_rational.__wrapped__(n) == genfun.f_rational(n)
    assert checked


def test_f_rational_lays_out_each_numerator_one_shape_once(monkeypatch):
    # F_6's 1,646 term pairs include 1,373 whose numerators are both 1; they
    # need one layout per (m, n, k_pref, l_pref, coincidence pattern), 15 in all
    genfun.f_rational(5)
    pair, layout = ratfun._odot_pair, ratfun._pair_numerator
    pairs, layouts = [], []

    def counted_pair(*args):
        pairs.append(_ones(args[3], args[5]))
        return pair(*args)

    def counted_layout(memo, m, n, uv, ks, ls, k_pref, l_pref, t1, t2):
        if _ones(t1, t2):
            layouts.append((m, n, k_pref, l_pref, uv))
        return layout(memo, m, n, uv, ks, ls, k_pref, l_pref, t1, t2)

    monkeypatch.setattr(ratfun, "_odot_pair", counted_pair)
    monkeypatch.setattr(ratfun, "_pair_numerator", counted_layout)
    genfun.f_rational.__wrapped__(6)
    assert (len(pairs), sum(pairs)) == (1646, 1373)
    assert len(layouts) == len(set(layouts)) == 15
    # laid out on positions of u_ids + v_ids, not on ids
    assert all(uv == tuple(range(m + n)) for m, n, _, _, uv in layouts)


def _numerator_one_expr(rng, pool, count):
    """A sum of ``count`` terms with numerator 1 over forms from ``pool``,
    each with a random prefix shorter than its denominator."""
    expr = None
    for _ in range(count):
        m = rng.randint(1, 3)
        k = rng.randint(0, m - 1)
        prefix = zw_mono(ZW3, [(x, rng.randrange(3)) for _ in range(k) for x in "zw"])
        term = RationalExpr.single(ZW3, prefix, 1, rng.sample(pool, m))
        expr = term if expr is None else expr + term
    return expr


def test_numerator_one_templates_equal_the_product_route_on_seeded_pairs():
    # one memo across the products, as in f_rational; the pools share one
    # form, so a u and a v can be the same id, which a template's key tells
    rng = random.Random(20261021)
    forms = [_random_form(rng) for _ in range(7)]
    memo = ratfun._ProductMemo()
    for _ in range(16):
        left = _numerator_one_expr(rng, forms[:4], 3)
        right = _numerator_one_expr(rng, forms[3:], 2)
        got = _odot_closed(left, right, memo)
        assert got == odot_closed_by_products(left, right)
        assert list(got.table.forms) == list(odot_closed_by_products(left, right).table.forms)
    patterns = [key[4] for key in memo.templates]
    assert any(at != tuple(range(len(at))) for at in patterns)
    assert len(patterns) < 16 * 6


def test_odot_closed_rejects_long_prefix():
    u = Series(ZW2, 2, {(1, 1, 0, 0): 1})
    v = Series(ZW2, 2, {(0, 0, 1, 1): 1})
    left = RationalExpr.single(ZW2, (1, 1, 0, 0), 1, [u])  # k = 1 > m-1 = 0
    with pytest.raises(ValueError, match="shorter than the denominator"):
        odot_closed(left, RationalExpr.geometric_term(ZW2, v))


def test_odot_closed_rejects_empty_denominator():
    bare = RationalExpr.single(ZW2, (0,) * 4, 1, [])
    geom = RationalExpr.geometric_term(ZW2, identity_form(ZW2))
    with pytest.raises(ValueError, match="at least one denominator"):
        odot_closed(bare, geom)


def test_expression_sum_merges_matching_shapes():
    u = identity_form(ZW2)
    a = RationalExpr.geometric_term(ZW2, u)
    b = RationalExpr.geometric_term(ZW2, u)
    both = a + b
    assert len(both.terms) == 1
    assert both.terms[0].numerator.terms == {(): 2}
    assert both.expand(6) == geometric(u, 6).scale(2)


def test_with_denominator_appends_factor():
    u = identity_form(ZW2)
    v = permutation_form(ZW2, (1, 0))
    expr = RationalExpr.geometric_term(ZW2, u).with_denominator(v)
    assert expr.terms[0].denominator == tuple(sorted([form_id(u), form_id(v)]))
    assert expr.expand(8) == geometric(u, 8) * geometric(v, 8)


def test_expand_with_fractions_and_repeated_forms_equals_the_geometric_route():
    u = Series(ZW2, 2, {(1, 1, 0, 0): 2, (0, 0, 1, 1): Fraction(-1, 3)})
    v = permutation_form(ZW2, (1, 0))
    fu, fv = form_id(u), form_id(v)
    syms = tuple(sorted((fu, fv)))
    numerator = SymPoly(syms, {(0, 0): Fraction(3, 2), (1, 0): -2, (1, 1): Fraction(1, 7)})
    expr = RationalExpr.single(ZW2, (1, 0, 0, 1), numerator, [u, v, u])
    expr = expr + RationalExpr.single(ZW2, (0, 0, 0, 0), Fraction(2, 5), [v, v])
    for D in range(0, 10):
        assert expr.expand(D) == expand_by_geometric(expr, D), D


def test_expand_divides_once_by_a_shared_form_as_the_geometric_route_does():
    # u twice and v once sit in every denominator; w in one term only
    u = identity_form(ZW2)
    v = permutation_form(ZW2, (1, 0))
    w = Series(ZW2, 2, {(1, 1, 0, 0): 3, (1, 0, 0, 1): -1})
    fu, fw = form_id(u), form_id(w)
    expr = RationalExpr.single(ZW2, (0, 0, 0, 0), 2, [u, v, u])
    expr = expr + RationalExpr.single(
        ZW2, (1, 0, 0, 1), SymPoly((fu,), {(1,): Fraction(1, 2)}), [v, u, u, w]
    )
    expr = expr + RationalExpr.single(
        ZW2, (2, 0, 1, 1), SymPoly((fw,), {(0,): -1, (1,): 4}), [u, w, u, v]
    )
    # below D = 6 each part of `emptied` is truncated away before its
    # divisions (numerators of degree 4, prefixes of degree 2), and u, in
    # both denominators, then divides an empty sum
    uw = SymPoly(tuple(sorted((fu, fw))), {(1, 1): 1})
    uv = SymPoly(tuple(sorted((fu, form_id(v)))), {(1, 1): 1})
    emptied = RationalExpr.single(ZW2, (1, 0, 0, 1), uw, [u, w])
    emptied = emptied + RationalExpr.single(ZW2, (0, 1, 1, 0), uv, [u, v])
    for e in (expr, emptied):
        for D in range(0, 10):
            assert e.expand(D) == expand_by_geometric(e, D), D


def test_expand_without_a_shared_form_equals_the_geometric_route():
    u = identity_form(ZW2)
    v = permutation_form(ZW2, (1, 0))
    expr = RationalExpr.geometric_term(ZW2, u) + RationalExpr.geometric_term(ZW2, v)
    for D in range(0, 10):
        assert expr.expand(D) == expand_by_geometric(expr, D), D
    assert expr.expand(8) == geometric(u, 8) + geometric(v, 8)


def _expand_forms() -> list:
    """Degree-2 forms over z1, w1, z2, w2: the two permutation forms and
    three with other monomials and coefficients."""
    return [
        identity_form(ZW2),
        permutation_form(ZW2, (1, 0)),
        Series(ZW2, 2, {(1, 1, 0, 0): 3, (1, 0, 0, 1): -1}),
        Series(ZW2, 2, {(2, 0, 0, 0): 1, (0, 0, 0, 2): Fraction(1, 2)}),
        Series(ZW2, 2, {(0, 1, 1, 0): -2}),
    ]


def _random_term(rng, denominators) -> RationalExpr:
    """One term over ``denominators``: a random numerator over some of
    their ids, with terms of degree 0 to 4 in them, and a random prefix of
    degree 0, 2, 4 or 12 (past every bound tried)."""
    ids = sorted({form_id(f) for f in denominators})
    syms = tuple(rng.sample(ids, rng.randint(0, len(ids))))
    numerator = SymPoly(syms, {
        tuple(rng.randint(0, 2) for _ in syms): Fraction(rng.randint(1, 9), rng.randint(1, 3))
        for _ in range(rng.randint(1, 3))
    })
    prefix = [0] * 4
    for _ in range(rng.choice((0, 2, 4, 12))):
        prefix[rng.randrange(4)] += 1
    return RationalExpr.single(ZW2, prefix, numerator, denominators)


def _shared_ids(expr) -> set:
    return set.intersection(*(set(t.denominator) for t in expr.terms))


@pytest.mark.parametrize("seed", range(4))
def test_expand_on_seeded_sums_equals_the_geometric_route(seed):
    # D = 0..10 meets budgets of 0 (prefix degree = D), negative budgets
    # and numerator terms whose degree times N is exactly at the budget or
    # past it
    rng = random.Random(seed)
    forms = _expand_forms()
    u = forms[0]
    # no form in every denominator: one term holds only u, the others no u
    apart = _random_term(rng, [u, u])
    for _ in range(5):
        apart = apart + _random_term(rng, rng.choices(forms[1:], k=rng.randint(1, 3)))
    # u in every denominator, twice in one of them, and no other form in all
    around = _random_term(rng, [u, u])
    for _ in range(5):
        around = around + _random_term(rng, [u] + rng.choices(forms[1:], k=rng.randint(1, 3)))
    assert _shared_ids(apart) == set() and _shared_ids(around) == {form_id(u)}
    for expr in (apart, around):
        for D in range(11):
            assert expr.expand(D) == expand_by_geometric(expr, D), (seed, D)


def test_expand_keeps_a_numerator_term_exactly_at_the_budget():
    # u*v has degree 4 under the prefix z1w2: it fits D = 6 and is skipped below
    u, v = identity_form(ZW2), permutation_form(ZW2, (1, 0))
    syms = tuple(sorted((form_id(u), form_id(v))))
    expr = RationalExpr.single(ZW2, (1, 0, 0, 1), SymPoly(syms, {(1, 1): 1, (0, 0): 2}), [u, v])
    for D in range(11):
        assert expr.expand(D) == expand_by_geometric(expr, D), D
    # at D = 6 the top slice is z1w2 (uv + 2(u^2 + uv + v^2)), uv from the numerator
    u, v = u.with_trunc(6), v.with_trunc(6)
    top = Series(ZW2, 6, {e: c for e, c in expr.expand(6).terms.items() if sum(e) == 6})
    assert top == (u * v + (u * u + u * v + v * v).scale(2)).shift((1, 0, 0, 1))


def test_expand_of_an_empty_expression_is_zero():
    expr = RationalExpr(ZW2, FormTable(ZW2), [])
    for D in range(11):
        assert expr.expand(D) == Series.zero(ZW2, D) == expand_by_geometric(expr, D)


def test_public_constructor_validates_every_term():
    good = RationalExpr.geometric_term(ZW2, identity_form(ZW2))
    t = good.terms[0]
    assert RationalExpr(ZW2, good.table, [t]) == good
    bad = [
        (RationalTerm((1, 0, 0), t.numerator, t.denominator), "prefix exponents"),
        (RationalTerm((1, 0, 0, 0), t.numerator, t.denominator), "support constraint"),
        (RationalTerm((-1, 0, 0, 1), t.numerator, t.denominator), "nonnegative"),
        (RationalTerm((0.5, 0, 0, 1.5), t.numerator, t.denominator), "nonnegative"),
        (RationalTerm(t.prefix, t.numerator, ("z1w2+z2w1",)), "denominator id"),
        (RationalTerm(t.prefix, SymPoly.symbol(("z1w2+z2w1",), "z1w2+z2w1"), t.denominator),
         "numerator symbol"),
    ]
    for term, message in bad:
        with pytest.raises(ValueError, match=message):
            RationalExpr(ZW2, good.table, [term])
    stray = SymPoly.symbol(("z1w2+z2w1",), "z1w2+z2w1")
    with pytest.raises(ValueError, match="numerator symbol .* missing from the form table"):
        RationalExpr.single(ZW2, t.prefix, stray, [identity_form(ZW2)])
    for exps, message in [((-1, 0, 0, 1), "nonnegative"), ((1, 0, 0), "prefix exponents"),
                          ((1, 0, 0, 0), "support constraint")]:
        with pytest.raises(ValueError, match=message):
            good.scale_prefix(exps)


def test_terms_over_reordered_symbols_compare_equal_and_print_alike():
    # one numerator given over (b, a) and over (a, b): a term keeps its ids
    # once, in layout order, and displays them sorted
    u = identity_form(ZW2)
    v = permutation_form(ZW2, (1, 0))
    a, b = sorted((form_id(u), form_id(v)))
    p = SymPoly((b, a), {(0, 0): 2, (1, 0): -1, (1, 1): Fraction(1, 3), (0, 2): 5})
    e1 = RationalExpr.single(ZW2, (0, 0, 0, 0), p, [u, v])
    e2 = RationalExpr.single(ZW2, (0, 0, 0, 0), with_symbols(p, (a, b)), [u, v])
    assert e1.terms[0].fields == (b, a) and e2.terms[0].fields == (a, b)
    assert e1 == e2
    assert e1.pretty() == e2.pretty()
    assert e1.to_json_dict() == e2.to_json_dict()
    assert e1.expand(6) == e2.expand(6)
    for e in (e1, e2):
        (t,) = e.terms
        assert t.symbols == (a, b)
        assert t.numerator == with_symbols(p, sorted(p.symbols))
    assert "symbols" not in RationalTerm.__slots__


def test_substitute_into_larger_registry():
    u = Series(ZW2, 2, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    expr = RationalExpr.geometric_term(ZW2, u).scale_prefix((1, 0, 0, 1))
    sub = expr.substitute(ZW3, {"z1": "z1", "w1": "w2", "z2": "z3", "w2": "w3"})
    t = sub.terms[0]
    assert t.prefix == (1, 0, 0, 0, 0, 1)
    assert t.denominator == (form_id(Series(ZW3, 2, {(1, 0, 0, 1, 0, 0): 1, (0, 0, 0, 0, 1, 1): 1})),)


def test_substitute_checks_its_map_once_with_or_without_forms(monkeypatch):
    bare = RationalExpr.single(ZW2, (1, 0, 0, 1), 1, [])
    with pytest.raises(ValueError, match="injective"):
        bare.substitute(ZW2, {"z1": "z1", "w1": "z1", "z2": "z2", "w2": "z1"})
    with pytest.raises(ValueError, match="cover"):
        bare.substitute(ZW2, {"z1": "z1", "z2": "z2", "w2": "w2"})
    with pytest.raises(ValueError, match="unknown variable 'q'"):
        bare.substitute(ZW2, {"z1": "q", "w1": "w1", "z2": "z2", "w2": "w2"})
    calls = []
    check = ratfun._rename_positions
    monkeypatch.setattr(ratfun, "_rename_positions", lambda *a: calls.append(a) or check(*a))
    forms = [identity_form(ZW2), permutation_form(ZW2, (1, 0))]
    two_forms = RationalExpr.single(ZW2, (0, 0, 0, 0), 1, forms)
    swap = {"z1": "z2", "w1": "w2", "z2": "z1", "w2": "w1"}
    assert two_forms.substitute(ZW2, swap) == two_forms
    assert len(calls) == 1


def test_pretty_and_json_shape():
    u = identity_form(ZW2)
    v = permutation_form(ZW2, (1, 0))
    expr = RationalExpr.single(ZW2, zw_mono(ZW2, [("z", 0), ("w", 1)]), 1, [u, v])
    text = expr.pretty()
    assert "u1 = z1w1+z2w2" in text
    assert "u2 = z1w2+z2w1" in text
    assert "z1w2/((1-u1)(1-u2))" in text
    data = expr.to_json_dict()
    assert data["terms"][0]["prefix"] == {"z": [1], "w": [2]}
    assert data["terms"][0]["denominator"] == sorted([form_id(u), form_id(v)])
    assert set(data["forms"]) == {form_id(u), form_id(v)}


def test_pretty_orders_a_user_registry_by_its_zw_names():
    # the registry holds its z/w names out of zw_pairs order: monomials are
    # displayed z's by index, then w's, while ids and aliases keep their
    # table and sort order
    reg = VariableRegistry(("w2", "z1", "w1", "z2"))

    def form(*pairs):
        terms = {}
        for z, w in pairs:
            e = [0] * reg.size
            e[reg.index(z)] += 1
            e[reg.index(w)] += 1
            terms[tuple(e)] = 1
        return Series(reg, 2, terms)

    u = form(("z1", "w1"), ("z2", "w2"))
    v = form(("z1", "w2"), ("z2", "w1"))
    syms = tuple(sorted((form_id(u), form_id(v))))
    numerator = SymPoly(syms, {(0, 0): 2, (1, 0): -1, (0, 1): -1})
    prefix = [0] * reg.size
    prefix[reg.index("z2")] = 2
    prefix[reg.index("w1")] = 1
    prefix[reg.index("w2")] = 1
    expr = RationalExpr.single(reg, tuple(prefix), numerator, [u, v, form(("z2", "w1"))])
    assert expr.pretty() == (
        "u1 = z2w2+z1w1\n"
        "u2 = z1w2+z2w1\n"
        "u3 = z2w1\n"
        "z2^2w1w2(2 - u2 - u1)/((1-u2)(1-u3)(1-u1))"
    )
