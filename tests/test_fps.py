import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

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
from conftest import ZW1, ZW2, ZW3, random_fractions, random_theta_series
from oracles import odot_many_direct


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
    with pytest.raises(ValueError):
        VariableRegistry.zw_pairs(0)


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
    for k in range(f.max_part_index() + 1):
        p = f.homogeneous_part(k)
        assert all(sum(e) == 2 * k for e in p.terms)
        acc = acc + p
    assert acc == f
    # a slice past the truncation bound is empty
    assert f.homogeneous_part(f.max_part_index() + 1).is_zero()


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
    return Series(registry, D, packing.unpack(op(*packed, packing.mask, D)), _checked=True)


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
