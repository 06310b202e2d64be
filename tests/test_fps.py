import json
import math
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest

from dtmoments import fps
from dtmoments.fps import (
    QSeries,
    RegistryMismatch,
    Series,
    VariableRegistry,
    e_inverse,
    e_transform,
    _Packing,
    _pdiv_one_minus,
    _pmul_trunc,
    _podot,
    geometric,
    odot_many,
)
from dtmoments.genfun import f_rational, f_series
from dtmoments.ratfun import SymPoly, form_id
from conftest import (
    CLONES,
    ZW1,
    ZW2,
    ZW3,
    assert_frozen,
    assert_same_text,
    random_fractions,
    random_theta_series,
)
from oracles import (
    homogeneous_part,
    items_by_key,
    max_part_index,
    odot_many_direct,
    poly_pretty_by_items,
    qseries_text_by_items,
    series_text_by_items,
)


# -- registry and construction -------------------------------------------------


def test_registry_basics():
    reg = VariableRegistry.zw_pairs(2)
    assert reg.names == ("z1", "w1", "z2", "w2")
    assert reg.modulus == 2
    assert reg.size == 4
    assert reg.pair_count == 2
    assert reg.index("w2") == 3
    with pytest.raises(KeyError):
        reg.index("q")


def test_registry_rejects_bad_input():
    with pytest.raises(ValueError):
        VariableRegistry(("x", "x"))
    with pytest.raises(ValueError):
        VariableRegistry(("x",), modulus=0)
    for modulus in (1.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="modulus must be an integer"):
            VariableRegistry(("x",), modulus)
    with pytest.raises(ValueError):
        VariableRegistry.zw_pairs(0)


def test_zw_pairs_takes_only_ints():
    for bad in (2.0, "2", True):
        with pytest.raises(ValueError, match=rf"n must be an integer, got {bad!r}$"):
            VariableRegistry.zw_pairs(bad)
    assert VariableRegistry.zw_pairs(2) == ZW2


def test_construction_enforces_support_constraint():
    # degree 1 is not a multiple of N=2: error, never silent dropping
    with pytest.raises(ValueError, match="support constraint"):
        Series(ZW1, 4, {(1, 0): 1})
    # degree above the bound is truncation, not an error
    f = Series(ZW1, 2, {(1, 1): 3, (2, 2): 5})
    assert f.terms == {(1, 1): 3}
    # zero coefficients vanish
    assert Series(ZW1, 4, {(1, 1): 0}).is_zero()


def test_construction_rejects_malformed_terms():
    with pytest.raises(ValueError):
        Series(ZW1, 4, {(1, 1, 0): 1})
    with pytest.raises(ValueError):
        Series(ZW1, 4, {(-1, 1): 1})
    with pytest.raises(TypeError):
        Series(ZW1, 4, {(1, 1): 0.5})


def test_series_is_immutable():
    f = Series.one(ZW1, 4)
    with pytest.raises(AttributeError):
        f.trunc = 10


def _fps_values():
    f = Series.monomial(ZW1, 4, (1, 1), Fraction(3, 2))
    return [ZW1, f, e_transform(f)]


@pytest.mark.parametrize("i", range(3), ids=["VariableRegistry", "Series", "QSeries"])
def test_every_slot_refuses_set_and_del(i):
    value = _fps_values()[i]
    assert_frozen(value)
    assert value == _fps_values()[i]


def test_del_cannot_empty_the_cached_series():
    f = f_series(2, 4)
    terms = dict(f.terms)
    with pytest.raises(AttributeError):
        del f.terms
    with pytest.raises(AttributeError):
        f.terms = {}
    assert f_series(2, 4) is f
    assert f.terms == terms


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_copies_and_pickles_rebuild_equal_values(clone):
    for value in _fps_values():
        twin = clone(value)
        assert type(twin) is type(value) and twin == value
    registry = clone(ZW2)
    assert registry.index("w2") == 3 and hash(registry) == hash(ZW2)


def test_registry_equality_hash_and_repr():
    r = VariableRegistry(("z1", "w1"))
    assert repr(r) == "VariableRegistry(names=('z1', 'w1'), modulus=2)"
    assert repr(VariableRegistry(names=("a",), modulus=1)) == (
        "VariableRegistry(names=('a',), modulus=1)"
    )
    assert r == VariableRegistry(("z1", "w1"), 2) == ZW1
    assert hash(r) == hash((("z1", "w1"), 2)) == hash(ZW1)
    assert len({r, ZW1, VariableRegistry(("z1", "w1"), 1)}) == 2
    assert r != VariableRegistry(("z1", "w1"), 1)
    assert r != VariableRegistry(("w1", "z1"))
    assert r.__eq__((("z1", "w1"), 2)) is NotImplemented

    class Other(VariableRegistry):
        __slots__ = ()

    assert r.__eq__(Other(("z1", "w1"))) is NotImplemented


def test_registry_from_a_name_list_equals_the_tuple_built_one():
    r = VariableRegistry(["z1", "w1"])
    assert r.names == ("z1", "w1")
    assert r == ZW1 and hash(r) == hash(ZW1)
    assert form_id(Series(r, 2, {(1, 1): 1})) == "z1w1"


def test_values_compare_slot_by_slot():
    f = Series.monomial(ZW1, 4, (1, 1), 3)
    q = e_transform(f)
    p = SymPoly.symbol(("a", "b"), "a")
    for value, twin, other in (
        (f, Series.monomial(ZW1, 4, (1, 1), 3), Series.monomial(ZW1, 2, (1, 1), 3)),
        (q, e_transform(Series.monomial(ZW1, 4, (1, 1), 3)), e_transform(f.with_trunc(2))),
        (p, SymPoly(("a", "b"), {(1, 0): 1}), SymPoly(("b", "a"), {(1, 0): 1})),
    ):
        assert value == value and value == twin and not value != twin
        assert value != other
        # another class is never equal, not even a tuple of the same slot values
        assert value.__eq__(twin.__reduce__()[1]) is NotImplemented
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    assert f != q and q != p


def test_outside_bounds_are_checked():
    with pytest.raises(ValueError, match="truncation bound"):
        Series.zero(ZW1, -1)
    with pytest.raises(ValueError, match="truncation bound"):
        Series.one(ZW1, 4).with_trunc(-1)
    with pytest.raises(ValueError, match="order"):
        QSeries(ZW1, 4, -1, {})
    expr = f_rational(2)
    with pytest.raises(ValueError, match="truncation bound must be >= 0"):
        expr.expand(-1)
    # a bound that is not an int would be written as "# D: 2.5", which
    # from_text and from_json_dict refuse to read back
    for bad in (2.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="truncation bound must be an integer"):
            Series(ZW1, bad)
        with pytest.raises(ValueError, match="truncation bound must be an integer"):
            Series.one(ZW1, 4).with_trunc(bad)
        with pytest.raises(ValueError, match="truncation bound must be an integer"):
            QSeries(ZW1, bad, 1, {})
        with pytest.raises(ValueError, match="order must be an integer"):
            QSeries(ZW1, 4, bad, {})
        with pytest.raises(ValueError, match="truncation bound must be an integer"):
            expr.expand(bad)


# -- ring operations -----------------------------------------------------------


def test_add_mul_truncate_to_minimum():
    u = Series.monomial(ZW1, 8, (1, 1))
    v = Series.monomial(ZW1, 4, (2, 2))
    assert (u + v).trunc == 4
    assert (u * v).trunc == 4
    # a degree-6 product falls outside the joint bound
    w = Series.monomial(ZW1, 8, (2, 2))
    assert (u * w.with_trunc(4)).is_zero()


def test_registry_mismatch_raises():
    f = Series.one(ZW1, 4)
    g = Series.one(ZW2, 4)
    with pytest.raises(RegistryMismatch):
        f + g
    with pytest.raises(RegistryMismatch):
        f * g
    with pytest.raises(RegistryMismatch):
        f.odot(g)


def test_scale_and_neg():
    f = Series(ZW1, 4, {(1, 1): 2, (2, 2): -3})
    assert f.scale(Fraction(1, 2)).terms == {(1, 1): 1, (2, 2): Fraction(-3, 2)}
    assert (-f).terms == {(1, 1): -2, (2, 2): 3}
    assert (0 * f).is_zero()


def test_homogeneous_part_slices_and_recombines():
    rng = random.Random(11)
    f = random_theta_series(ZW2, 8, rng)
    acc = Series.zero(ZW2, 8)
    for k in range(max_part_index(f) + 1):
        p = homogeneous_part(f, k)
        assert all(sum(e) == 2 * k for e in p.terms)
        acc = acc + p
    assert acc == f
    # a slice past the truncation bound is empty
    assert homogeneous_part(f, max_part_index(f) + 1).is_zero()


# -- the graded product ----------------------------------------------------------


def test_odot_of_homogeneous_parts_is_binomial_weighted():
    # a, b homogeneous of degree N: a (.) b = 2ab
    a = Series.monomial(ZW2, 8, (1, 1, 0, 0))
    b = Series.monomial(ZW2, 8, (0, 0, 1, 1))
    assert a.odot(b) == (a * b).scale(2)


def test_odot_of_geometrics_is_geometric_of_sum():
    # 1/(1-u) (.) 1/(1-v) = 1/(1-u-v) for u = z1 w1, v = z2 w2
    u = Series.monomial(ZW2, 10, (1, 1, 0, 0))
    v = Series.monomial(ZW2, 10, (0, 0, 1, 1))
    assert geometric(u, 10).odot(geometric(v, 10)) == geometric(u + v, 10)


def test_odot_commutative_bilinear_associative():
    rng = random.Random(23)
    for _ in range(12):
        f = random_theta_series(ZW2, 10, rng)
        g = random_theta_series(ZW2, 10, rng)
        h = random_theta_series(ZW2, 10, rng)
        assert f.odot(g) == g.odot(f)
        assert f.odot(g + h) == f.odot(g) + f.odot(h)
        assert f.odot(g).odot(h) == f.odot(g.odot(h))


def test_odot_many_fold_matches_direct_multinomial():
    rng = random.Random(37)
    for count in (2, 3, 4):
        fs = [random_theta_series(ZW2, 8, rng, max_terms=4) for _ in range(count)]
        assert odot_many(fs) == odot_many_direct(fs)
    with pytest.raises(ValueError):
        odot_many([])


# -- the exponential transform ----------------------------------------------------


def test_e_transform_of_geometric():
    # E(1/(1-u)) has q^k coefficient u^k / k!
    u = Series.monomial(ZW2, 12, (1, 1, 0, 0)) + Series.monomial(ZW2, 12, (0, 0, 1, 1))
    h = e_transform(geometric(u, 12))
    power = Series.one(ZW2, 12)
    for k in range(h.order + 1):
        assert h.part(k) == power.scale(Fraction(1, math.factorial(k)))
        power = power * u


def test_e_transform_is_multiplicative():
    rng = random.Random(41)
    for _ in range(10):
        f = random_theta_series(ZW2, 10, rng)
        g = random_theta_series(ZW2, 10, rng)
        assert e_transform(f.odot(g)) == e_transform(f) * e_transform(g)


def test_e_transform_shifts_under_homogeneous_multiplier():
    # E(a f) part k+1 == a * (E f part k) / (k+1) for a of degree N
    rng = random.Random(43)
    a = Series.monomial(ZW2, 10, (1, 0, 0, 1), coeff=Fraction(3, 2))
    for _ in range(8):
        f = random_theta_series(ZW2, 10, rng)
        lhs = e_transform(a * f)
        rhs = e_transform(f)
        for k in range(rhs.order):
            assert lhs.part(k + 1) == (a * rhs.part(k)).scale(Fraction(1, k + 1))


def test_e_inverse_round_trip():
    rng = random.Random(47)
    for _ in range(10):
        f = random_theta_series(ZW2, 10, rng)
        assert e_inverse(e_transform(f)) == f


def test_qseries_validation():
    bad = Series.monomial(ZW1, 4, (1, 1))  # degree 2, claimed at part 2
    with pytest.raises(ValueError, match="homogeneous"):
        QSeries(ZW1, 4, 2, {2: bad})
    with pytest.raises(RegistryMismatch):
        QSeries(ZW2, 4, 2, {1: bad})


# -- the two scalar identities behind the partial-fraction E-transform -------------


def brute_power_sum(us, k):
    total = Fraction(0)
    r = len(us)
    for ks in product(range(k + 1), repeat=r):
        if sum(ks) != k:
            continue
        term = Fraction(1)
        for u, e in zip(us, ks):
            term *= u**e
        total += term
    return total


def test_sum_identity_for_scalars():
    rng = random.Random(53)
    for r in range(1, 6):
        us = random_fractions(rng, r, distinct=True)
        for k in range(0, 9):
            rhs = Fraction(0)
            for i in range(r):
                den = Fraction(1)
                for j in range(r):
                    if j != i:
                        den *= us[i] - us[j]
                rhs += us[i] ** (k + r - 1) / den
            assert brute_power_sum(us, k) == rhs


def test_vandermonde_identity_for_scalars():
    # The display drops the cofactor signs its own determinant expansion
    # introduces; the true identity alternates.  Checked here in both the
    # denominator form and the sign-corrected polynomial form.
    rng = random.Random(59)
    for r in range(2, 7):
        us = random_fractions(rng, r, distinct=True)
        rational = Fraction(0)
        for i in range(r):
            den = Fraction(1)
            for j in range(r):
                if j != i:
                    den *= us[i] - us[j]
            rational += us[i] ** (r - 2) / den
        assert rational == 0
        signed = Fraction(0)
        for i in range(r):
            prod = Fraction(1)
            for a, b in combinations(range(r), 2):
                if a != i and b != i:
                    prod *= us[b] - us[a]
            signed += (-1) ** i * us[i] ** (r - 2) * prod
        assert signed == 0


# -- structural helpers ------------------------------------------------------------


def test_geometric_requires_zero_constant_term():
    with pytest.raises(ValueError):
        geometric(Series.one(ZW1, 4), 4)


def test_rename_and_shift():
    f = Series.monomial(ZW1, 6, (2, 2))
    g = f.rename(ZW2, {"z1": "z2", "w1": "w1"})
    assert g.terms == {(0, 2, 2, 0): 1}
    shifted = g.shift((1, 0, 0, 1))
    assert shifted.terms == {(1, 2, 2, 1): 1}
    with pytest.raises(ValueError):
        g.shift((1, 0, 0, 0))  # odd degree breaks the support constraint
    with pytest.raises(ValueError):
        f.rename(ZW2, {"z1": "z2"})
    with pytest.raises(ValueError, match="injective"):
        f.rename(ZW2, {"z1": "z2", "w1": "z2"})
    with pytest.raises(ValueError, match="unknown variable 'q'"):
        f.rename(ZW2, {"z1": "q", "w1": "w1"})
    with pytest.raises(ValueError, match="modulus"):
        f.rename(VariableRegistry(("z1", "w1", "z2"), 1), {"z1": "z1", "w1": "w1"})


def test_with_trunc_drops_or_extends():
    f = Series(ZW1, 8, {(1, 1): 1, (3, 3): 2})
    assert f.with_trunc(4).terms == {(1, 1): 1}
    assert f.with_trunc(12).terms == f.terms


# -- packed-exponent kernel ----------------------------------------------------------


XY = VariableRegistry(("x", "y"), 1)


def random_form(registry, rng, degrees):
    """A form with no constant term, its degrees drawn from ``degrees``, with
    non-unit and Fraction coefficients."""
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        exps = [0] * registry.size
        for _ in range(rng.choice(degrees)):
            exps[rng.randrange(registry.size)] += 1
        terms[tuple(exps)] = rng.choice((1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))
    return Series(registry, max(degrees), terms)


def packed_round_trip(registry, D, op, *operands):
    """op on the packed operands, unpacked into a Series truncated at D."""
    packing = _Packing(registry.size, D)
    packed = [packing.pack(f.terms, D) for f in operands]
    return Series._make(registry, D, packing.unpack(op(*packed, packing.mask, D)))


@pytest.mark.parametrize(
    "registry, degrees", [(ZW1, (2,)), (ZW2, (2,)), (ZW3, (2,)), (XY, (1,)), (XY, (1, 2, 3))]
)
def test_packed_division_by_one_minus_u_matches_geometric(registry, degrees):
    rng = random.Random(f"divide-{registry.size}-{degrees}")
    for D in (0, 1, 2, 3, 7, 8, 15, 16):
        for _ in range(4):
            x = random_theta_series(registry, D, rng)
            u = random_form(registry, rng, degrees)
            got = packed_round_trip(registry, D, _pdiv_one_minus, x, u)
            assert got == x * geometric(u, D), (D, x.terms, u.terms)


def test_packed_division_rejects_a_constant_term():
    packing = _Packing(2, 4)
    with pytest.raises(ValueError):
        _pdiv_one_minus({0: 1}, {0: 1}, packing.mask, 4)


@pytest.mark.parametrize("size, bound", [(1, 128), (6, 255), (14, 200), (4, 256), (4, 127)])
def test_unpack_reads_byte_wide_fields_as_the_masked_walk_does(size, bound):
    # 128..255 give 8-bit fields, which unpack reads as bytes; 127 and 256
    # sit on both sides of that width and take the masked walk
    rng = random.Random(f"unpack-{size}-{bound}")
    packing = _Packing(size, bound)
    exps = {tuple(rng.randrange(bound // size + 1) for _ in range(size)) for _ in range(50)}
    exps |= {(0,) * size, (bound,) + (0,) * (size - 1), (0,) * (size - 1) + (bound,)}
    terms = {e: c for c, e in enumerate(exps, 1)}
    packed = packing.pack(terms, bound)
    assert packing.unpack(packed) == terms
    assert packing.unpack(packed, range(size)) == terms
    assert all(type(x) is int for e in packing.unpack(packed) for x in e)


@pytest.mark.parametrize("registry", [ZW1, ZW2, ZW3, XY])
def test_packed_products_match_series_products(registry):
    rng = random.Random(f"products-{registry.size}")

    def odot(a, b, mask, D):
        return _podot(a, b, mask, D, registry.modulus)

    for D in (0, 2, 6, 15, 16):
        for _ in range(4):
            a = random_theta_series(registry, D, rng)
            b = random_theta_series(registry, D, rng)
            assert packed_round_trip(registry, D, _pmul_trunc, a, b) == a * b
            assert packed_round_trip(registry, D, odot, a, b) == a.odot(b)


# -- serialization -----------------------------------------------------------------


def test_text_round_trip_is_exact():
    rng = random.Random(61)
    for _ in range(10):
        f = random_theta_series(ZW2, 10, rng)
        g = Series.from_text(f.to_text())
        assert g == f
        # stable output: serialize twice, byte-identical
        assert g.to_text() == f.to_text()


def test_text_header_errors_name_the_line():
    with pytest.raises(ValueError, match="line 2: degree bound 'x' is not an integer"):
        Series.from_text("# vars: z1 w1\n# D: x\n")
    with pytest.raises(ValueError, match="line 2: modulus '2.5' is not an integer"):
        Series.from_text("# vars: z1 w1\n# N: 2.5\n# D: 4\n")
    with pytest.raises(ValueError, match="line 1: term line before"):
        Series.from_text("1/1 z1 w1\n# vars: z1 w1\n# D: 4\n")
    # a header after the terms would re-bound the series and drop terms
    with pytest.raises(ValueError, match="line 4: header '# D: 2' after a term line"):
        Series.from_text("# vars: z1 w1\n# D: 4\n1/1 z1^2 w1^2\n# D: 2\n")
    with pytest.raises(ValueError, match="line 4: header '# N: 1' after a term line"):
        Series.from_text("# vars: z1 w1\n# D: 4\n1/1 z1 w1\n# N: 1\n")
    # plain comments may follow the terms
    assert Series.from_text("# vars: z1 w1\n# D: 4\n1/1 z1 w1\n# done\n") == Series(
        ZW1, 4, {(1, 1): 1}
    )


def test_json_round_trip_is_exact():
    rng = random.Random(67)
    for _ in range(10):
        f = random_theta_series(ZW2, 10, rng)
        assert Series.from_json_dict(f.to_json_dict()) == f
    # seeded round trips through JSON text, over several registries and
    # both coefficient kinds
    plain = VariableRegistry(("x", "y", "z"), 1)
    for seed in range(40):
        rng = random.Random(seed)
        registry = (ZW1, ZW2, ZW3, plain)[seed % 4]
        trunc = rng.randrange(0, 9)
        f = random_theta_series(registry, trunc, rng, fractional=seed % 3 != 0)
        g = Series.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
        assert g == f and g.trunc == f.trunc and g.registry == f.registry, seed


def _good_json():
    return {"vars": ["z1", "w1"], "N": 2, "D": 4, "terms": [
        {"exps": [0, 0], "num": 1, "den": 1},
        {"exps": [1, 1], "num": -2, "den": 3},
    ]}


def _broken(edit):
    data = _good_json()
    edit(data)
    return data


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "JSON object"),
        (_broken(lambda d: d.pop("vars")), "missing field 'vars'"),
        (_broken(lambda d: d.pop("D")), "missing field 'D'"),
        (_broken(lambda d: d.pop("terms")), "missing field 'terms'"),
        (_broken(lambda d: d.update(vars="z1 w1")), "field 'vars'"),
        (_broken(lambda d: d.update(vars=["z1", "z1"])), "distinct"),
        (_broken(lambda d: d.update(N="2")), "field 'N'"),
        (_broken(lambda d: d.update(D=4.0)), "field 'D'"),
        (_broken(lambda d: d.update(D=-2)), "field 'D'"),
        (_broken(lambda d: d.update(terms={})), "field 'terms'"),
        (_broken(lambda d: d["terms"].append(7)), "term 2"),
        (_broken(lambda d: d["terms"][1].pop("den")), "term 1: missing field 'den'"),
        (_broken(lambda d: d["terms"][0].pop("exps")), "term 0: missing field 'exps'"),
        (_broken(lambda d: d["terms"][1].update(den=0)), "term 1: zero denominator"),
        (_broken(lambda d: d["terms"][1].update(num=1.5)), "term 1: 'num'"),
        (_broken(lambda d: d["terms"][1].update(den=True)), "term 1: 'den'"),
        (_broken(lambda d: d["terms"][0].update(exps=[0, 0, 0])), "term 0: 'exps'"),
        (_broken(lambda d: d["terms"][1].update(exps=[2, -1])), "term 1: negative exponent"),
        (_broken(lambda d: d["terms"][1].update(exps=[1, "1"])), "term 1: exponent"),
        (_broken(lambda d: d["terms"][1].update(exps=[1, 0])), "term 1: degree 1"),
    ],
)
def test_json_malformed_input_is_a_value_error(data, message):
    with pytest.raises(ValueError, match=message):
        Series.from_json_dict(data)


def test_text_format_shape():
    f = Series(ZW1, 4, {(0, 0): Fraction(1, 3), (2, 2): -4})
    text = f.to_text()
    assert "# vars: z1 w1" in text
    assert "# D: 4" in text
    assert "1/3" in text.splitlines()
    assert "-4/1 z1^2 w1^2" in text.splitlines()


# -- rendering: key order, token tables and chunks ---------------------------------

NAMED = VariableRegistry(("alpha", "b_2", "z"), 1)
ONE = VariableRegistry(("x",), 1)


def random_coefficient(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randrange(1, 10**12)
    if kind == 1:
        return -rng.randrange(1, 50)
    return Fraction(rng.randrange(-99, 100) or 1, rng.randrange(2, 30))


def random_exponents(rng, size, degree):
    """A random exponent tuple of ``size`` entries summing to ``degree``."""
    cuts = sorted(rng.randrange(degree + 1) for _ in range(size - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


def random_wide_series(registry, D, rng, count):
    """A series whose exponents spread up to D, far past one digit."""
    N = registry.modulus
    terms = {}
    for _ in range(count):
        degree = N * rng.randrange(D // N + 1)
        terms[random_exponents(rng, registry.size, degree)] = random_coefficient(rng)
    return Series(registry, D, terms)


@pytest.mark.parametrize("registry", [ONE, NAMED, ZW1, ZW2, ZW3])
@pytest.mark.parametrize("D", [0, 1, 7, 12, 255, 256])
def test_text_renderers_write_the_item_oracles_bytes(registry, D):
    rng = random.Random(f"render-{registry.names}-{D}")
    size = registry.size
    values = [
        Series(registry, D, {}),
        Series(registry, D, {(0,) * size: Fraction(-3, 7)}),
        Series(registry, D, {(0,) * size: 5}),
    ]
    values += [random_wide_series(registry, D, rng, rng.randrange(1, 40)) for _ in range(6)]
    if D >= 100:
        assert any(max(e) >= 100 for f in values for e in f.terms)
    for f in values:
        text = f.to_text()
        assert text == series_text_by_items(f)
        assert "".join(f._text_chunks()) == text
        assert f.sorted_terms() == items_by_key(f.terms)
        h = e_transform(f)
        assert h.to_text() == qseries_text_by_items(h)
        hh = h * h
        assert hh.to_text() == qseries_text_by_items(hh)
    empty = QSeries(registry, D, D // registry.modulus, {})
    assert empty.to_text() == qseries_text_by_items(empty) == "\n"


@pytest.mark.parametrize("size", [0, 1, 2, 4])
def test_pretty_writes_the_item_oracles_bytes(size):
    rng = random.Random(f"pretty-{size}")
    symbols = tuple(f"s{i}" for i in range(size))
    names = {s: f"{s.upper()}'" for s in symbols}
    values = [SymPoly(symbols, {}), SymPoly(symbols, {(0,) * size: Fraction(-2, 9)})]
    for _ in range(20):
        degree = rng.choice([0, 1, 3, 12, 150])
        terms = {
            random_exponents(rng, size, degree) if size else (): random_coefficient(rng)
            for _ in range(rng.randrange(1, 30))
        }
        values.append(SymPoly(symbols, terms))
    values.append(SymPoly(symbols, {(0,) * size: -1, (1,) * size: 1}))
    for p in values:
        assert p.pretty() == poly_pretty_by_items(p)
        assert p.pretty(names) == poly_pretty_by_items(p, names)
        assert p.sorted_terms() == items_by_key(p.terms)
    assert SymPoly((), {(): 5}).pretty() == "5"
    assert SymPoly((), {}).pretty() == "0"


def test_series_text_renders_in_chunks_of_lines():
    f = f_series(3, 20)
    assert len(f.terms) == 12298 > fps._CHUNK
    chunks = list(f._text_chunks())
    assert len(chunks) == 1 + -(-len(f.terms) // fps._CHUNK)
    assert [c.count("\n") for c in chunks[1:-1]] == [fps._CHUNK] * (len(chunks) - 2)
    assert "".join(chunks) == f.to_text()
    assert_same_text(f.to_text(), series_text_by_items(f))
    h = e_transform(f)
    assert_same_text(h.to_text(), qseries_text_by_items(h))


@pytest.mark.parametrize(
    "names, bad",
    [(("a b", "c"), "a b"), (("x^2", "y"), "x^2"), (("x", "y\t"), "y\t"), (("^", "y"), "^")],
)
def test_text_refuses_a_name_it_could_not_read_back(names, bad):
    # as text, ("a b", "c") would read back as three variables and
    # ("x^2", "y") as an unknown variable 'x'
    registry = VariableRegistry(names, 2)
    f = Series(registry, 4, {(1, 1): 3, (2, 0): Fraction(1, 2)})
    message = re.escape(f"variable name {bad!r} holds whitespace or '^'")
    for value in (f, Series.zero(registry, 4), e_transform(f)):
        with pytest.raises(ValueError, match=message):
            value.to_text()
        # refused before the first piece is handed out
        with pytest.raises(ValueError, match=message):
            next(iter(value._text_chunks()))
    # JSON carries any name
    assert Series.from_json_dict(json.loads(json.dumps(f.to_json_dict()))) == f


def test_from_text_refuses_a_caret_in_a_name_at_its_line():
    with pytest.raises(ValueError, match="line 1: a variable name holds '\\^'"):
        Series.from_text("# vars: x^2 y\n# D: 4\n1/1 x^2^1 y^1\n")
    with pytest.raises(ValueError, match="line 2: a variable name holds '\\^'"):
        Series.from_text("# written by hand\n# vars: x y^\n# N: 1\n# D: 4\n")
