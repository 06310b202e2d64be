import math
import random
from fractions import Fraction
from itertools import product

import pytest

from dtmoments.moments import (
    MomentEngine,
    canonical_key,
    dihedral_min,
    moment,
    multinomial,
    n_value,
    nom,
    parse_key,
    validate_key,
)
from conftest import balanced_keys
from oracles import canonical_key_by_rotation, dihedral_min_by_rotation, raw_n_value


# -- key plumbing -------------------------------------------------------------------


def test_validate_key_shapes():
    assert validate_key([1, 2, 3, 4]) == (1, 2, 3, 4)
    assert validate_key((-1, -1)) == (-1, -1)
    for bad in [(), (1,), (1, 2, 3), (1, -2), (1, "x"), (1, True)]:
        with pytest.raises(ValueError):
            validate_key(bad)


def test_parse_key():
    assert parse_key("1,1,2,0") == (1, 1, 2, 0)
    assert parse_key(" 3 , 3 ") == (3, 3)
    with pytest.raises(ValueError):
        parse_key("1,2,x")
    with pytest.raises(ValueError):
        parse_key("1,2,3")


# -- the multinomial weight ----------------------------------------------------------


def test_nom_single_block_is_one():
    for j in range(1, 5):
        assert nom((3, 1, 4, 1), (j,)) == 1


def test_nom_worked_example():
    # blocks (l1 + l4, l2 + l3) = (2, 2)
    assert nom((1, 1, 1, 1), (2, 4)) == 6


def test_nom_all_zero():
    assert nom((0, 0, 0), (1, 3)) == 1


def test_nom_rejects_malformed():
    for js in [(), (0,), (5,), (2, 2), (3, 1)]:
        with pytest.raises(ValueError):
            nom((1, 1, 1, 1), js)
    with pytest.raises(ValueError):
        nom((1, -1, 1, 1), (2, 4))


def test_multinomial():
    assert multinomial([2, 2]) == 6
    assert multinomial([1, 1, 1]) == 6
    assert multinomial([5]) == 1
    assert multinomial([]) == 1


# -- base cases and anchor values ------------------------------------------------------


def test_single_pair_law():
    for k in range(11):
        assert n_value((k, k)) == 1
        assert moment((k, k)) == Fraction(1, math.factorial(k + 1))
    assert n_value((1, 0)) == 0
    assert n_value((0, 3)) == 0
    assert n_value((-1, -1)) == 1
    assert n_value((-1, 0)) == 0


def test_negative_entries_vanish_beyond_one_pair():
    assert n_value((-1, -1, 1, 1)) == 0
    assert n_value((2, -1, 0, 1)) == 0


def test_unbalanced_keys_vanish():
    assert n_value((1, 1, 1, 0)) == 0
    assert n_value((2, 0, 0, 1)) == 0
    assert n_value((1, 0, 0, 2, 1, 1)) == 0


def test_anchor_values():
    assert n_value((1, 1, 1, 1)) == 4
    assert n_value((2, 2, 2, 2)) == 16
    assert n_value((2, 1, 0, 1)) == 1
    assert moment((1, 1, 1, 1)) == Fraction(2, 3)


def test_all_k_two_pairs_is_power_of_four():
    engine = MomentEngine()
    for k in range(7):
        assert engine.n_value((k, k, k, k)) == 4**k


def test_moment_rejects_negative_entries():
    with pytest.raises(ValueError):
        moment((-1, -1))


# -- canonicalization -----------------------------------------------------------------


def test_dihedral_min_examples():
    assert dihedral_min((2, 1, 0, 1)) == (0, 1, 2, 1)
    assert dihedral_min((1, 1)) == (1, 1)


def test_canonical_key_rotation_and_reversal():
    assert canonical_key((1, 1, 2, 2)) == canonical_key((2, 2, 1, 1))
    key = (1, 2, 0, 1, 3, 1)
    rev = key[::-1]
    assert canonical_key(key) == canonical_key(rev)


def test_canonical_key_contracts_leading_zero():
    # (0, l1, k2, l2) reduces to the single pair (k2, l2 + l1)
    assert canonical_key((0, 1, 2, 2)) == canonical_key((2, 3))
    assert canonical_key((0, 0, 0, 0)) == (0, 0)


def canonicalization_range():
    """Every key of length <= 8 with entries 0..3, of length 10 with entries
    0..2 and of length 12 with entries 0..1."""
    for length, top in ((2, 3), (4, 3), (6, 3), (8, 3), (10, 2), (12, 1)):
        yield from product(range(top + 1), repeat=length)


def test_canonical_key_matches_rotation_oracle_exhaustively():
    count = 0
    for key in canonicalization_range():
        assert canonical_key(key) == canonical_key_by_rotation(key), key
        count += 1
    assert count == 133_049


def test_dihedral_min_matches_every_rotation():
    for key in canonicalization_range():
        assert dihedral_min(key) == dihedral_min_by_rotation(key), key


def test_canonical_key_rejects_negatives():
    with pytest.raises(ValueError):
        canonical_key((-1, -1))


def test_canonical_key_preserves_value_exhaustively():
    engine = MomentEngine()
    for n in (1, 2, 3):
        for m in range(5):
            for key in balanced_keys(n, m):
                assert engine.n_value(canonical_key(key)) == engine.n_value(key)


# -- symmetries as computed-value equalities --------------------------------------------


def rotate_pair(key):
    return key[2:] + key[:2]


def reverse_key(key):
    return key[::-1]


def test_symmetry_rotation_reversal_contraction():
    engine = MomentEngine()
    for n in (2, 3):
        for m in range(5):
            for key in balanced_keys(n, m):
                v = engine.n_value(key)
                assert engine.n_value(rotate_pair(key)) == v
                assert engine.n_value(reverse_key(key)) == v
                if key[0] == 0:
                    contracted = key[2:-1] + (key[-1] + key[1],)
                    assert engine.n_value(contracted) == v


# -- engine behaviour -------------------------------------------------------------------


def test_raw_and_canonical_memoization_agree():
    canonical = MomentEngine()
    for n in (1, 2, 3):
        for m in range(5):
            for key in balanced_keys(n, m):
                assert canonical.n_value(key) == raw_n_value(key)
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randrange(2, 5)
        key = tuple(rng.randrange(0, 4) for _ in range(2 * n))
        assert canonical.n_value(key) == raw_n_value(key)


def test_values_are_nonnegative_integers():
    engine = MomentEngine()
    for n in (1, 2, 3):
        for m in range(6):
            for key in balanced_keys(n, m):
                v = engine.n_value(key)
                assert isinstance(v, int) and v >= 0
