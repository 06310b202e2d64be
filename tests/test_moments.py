import math
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from dtmoments.moments import (
    MomentEngine,
    _contract,
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
from oracles import (
    canonical_key_by_rotation,
    contract_by_steps,
    dihedral_min_by_rotation,
    n_value_by_steps,
    raw_n_value,
)


# -- key plumbing -------------------------------------------------------------------


def test_validate_key_shapes():
    assert validate_key([1, 2, 3, 4]) == (1, 2, 3, 4)
    assert validate_key((-1, -1)) == (-1, -1)
    for bad in [(), (1,), (1, 2, 3), (1, -2), (1, "x"), (1, True)]:
        with pytest.raises(ValueError):
            validate_key(bad)


class _Count(int):
    """An int subclass other than bool."""


@pytest.mark.parametrize("entry", [True, False, -2, 1.0])
def test_validate_key_names_the_bad_entry(entry):
    with pytest.raises(ValueError, match=rf"integers >= -1, got {entry!r}$"):
        validate_key((1, 1, entry, 0))


def test_validate_key_takes_int_subclasses_but_not_bool():
    key = validate_key((_Count(2), 1, 1, _Count(2)))
    assert key == (2, 1, 1, 2)
    assert type(key[0]) is _Count


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
    assert multinomial(iter([2, 1])) == 3


def test_multinomial_weights_refuse_bools():
    # True == 1 gave 1 for each of these
    with pytest.raises(TypeError, match=r"multinomial parts must be ints, not bools, got \(True,\)$"):
        multinomial([True])
    with pytest.raises(TypeError, match="not bools"):
        multinomial((2, False))
    with pytest.raises(ValueError, match="split positions must be increasing"):
        nom([True], [True])
    with pytest.raises(ValueError, match="split positions must be increasing"):
        nom([1, 1], [True])
    with pytest.raises(ValueError, match="only defined for entries >= 0"):
        nom([True, 1], [1])
    assert nom([1, 1], [1]) == 1


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


def test_dihedral_min_rejects_the_empty_key():
    with pytest.raises(ValueError, match=r"nonempty key, got \(\)"):
        dihedral_min(())


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


def test_run_length_contraction_matches_the_stepwise_one_exhaustively():
    # the run lengths of the cyclic word are the stepwise contraction up to
    # rotation and reversal, and the same walk sums each letter
    for key in canonicalization_range():
        contracted, ks, ls = _contract(key)
        assert dihedral_min(contracted) == dihedral_min(contract_by_steps(key)), key
        assert (ks, ls) == (sum(key[0::2]), sum(key[1::2])), key
    # a zero at the wrap merges the last run with the first; two adjacent
    # zeros there leave the runs on either side apart
    assert _contract((1, 2, 1, 1, 3, 0))[0] == (4, 2, 1, 1)
    assert _contract((0, 2, 1, 1, 3, 1))[0] == (3, 1, 1, 3)
    assert _contract((0, 1, 2, 1, 0, 0, 1, 2, 1, 0))[0] == (1, 2, 1, 1, 2, 1)
    assert _contract((0, 0, 0, 0)) == ((0, 0), 0, 0)
    assert _contract((2, 0, 0, 0)) == ((2, 0), 2, 0)
    assert _contract((1, -1)) is None
    assert _contract((1, True)) is None
    assert _contract((_Count(1), 1)) is None


def test_door_matches_the_stepwise_route_exhaustively():
    # one fresh engine each for plain keys, for int-subclass entries and for
    # the stepwise route, which runs its own engine's recursion
    plain, counted, steps = MomentEngine(), MomentEngine(), MomentEngine()
    for key in canonicalization_range():
        expected = n_value_by_steps(key, steps._n)
        assert plain.n_value(key) == expected, key
        assert counted.n_value(tuple(map(_Count, key))) == expected, key
        value = Fraction(expected, math.factorial(sum(key[0::2]) + 1))
        assert plain.moment(key) == value, key
    assert plain.memo_size == steps.memo_size


def test_door_answers_minus_one_keys_by_the_stepwise_route():
    engine, steps = MomentEngine(), MomentEngine()
    count = 0
    for length in (2, 4, 6):
        for key in product(range(-1, 3), repeat=length):
            if -1 not in key:
                continue
            count += 1
            assert engine.n_value(key) == n_value_by_steps(key, steps._n), key
            assert engine.n_value(tuple(map(_Count, key))) == engine.n_value(key), key
            with pytest.raises(ValueError, match="^moment needs nonnegative entries$"):
                engine.moment(key)
    assert count == 4**2 + 4**4 + 4**6 - 3**2 - 3**4 - 3**6
    assert engine.memo_size == 0 and not engine._orbits


SHAPE = "a moment key needs an even number of entries, at least two"


@pytest.mark.parametrize(
    "key, message",
    [
        ((), SHAPE),
        ((1,), SHAPE),
        ((1, 2, 3), SHAPE),
        ((1, True, 1), SHAPE),
        ((True, True), "key entries must be integers >= -1, got True"),
        ((1, 1, False, 0), "key entries must be integers >= -1, got False"),
        ((1, 1, 1.0, 0), "key entries must be integers >= -1, got 1.0"),
        ((1, 1, -2, 0), "key entries must be integers >= -1, got -2"),
        # a -1 or an int subclass before the bad entry does not hide it
        ((-1, 1, 1, 2.5), "key entries must be integers >= -1, got 2.5"),
        ((_Count(1), 1, True, 0), "key entries must be integers >= -1, got True"),
    ],
)
def test_door_keeps_the_messages_of_validate_key(key, message):
    for door in (MomentEngine().n_value, MomentEngine().moment, n_value, moment, canonical_key):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            door(key)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            door(list(key))


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


def _random_balanced_key(rng, n, m):
    """A flat key whose k-entries and l-entries are random compositions of m
    into n parts, zero parts included."""

    def composition():
        cuts = sorted(rng.randint(0, m) for _ in range(n - 1))
        return [b - a for a, b in zip([0] + cuts, cuts + [m])]

    return tuple(e for pair in zip(composition(), composition()) for e in pair)


def test_grouped_split_sum_matches_subset_oracle():
    # The engine sums the splits grouped by their first and last position;
    # the oracle enumerates every split set and weighs it with nom.  Four to
    # seven pairs give chains of three to six inner blocks, past the
    # exhaustive three-pair keys above; zero entries give the oracle inner keys with
    # -1 entries and give the engine keys to contract.
    engine = MomentEngine()
    for m in range(4):
        for key in balanced_keys(4, m):
            assert engine.n_value(key) == raw_n_value(key), key
    rng = random.Random(12)
    for n, m in ((5, 6), (6, 5), (7, 4)):
        for _ in range(15):
            key = _random_balanced_key(rng, n, m)
            assert engine.n_value(key) == raw_n_value(key), key


def test_recursion_receives_only_nonnegative_balanced_keys():
    # The recursion runs no sign or balance check: every key it is handed,
    # by the door or by a split of its own, must already pass both.
    engine = MomentEngine()
    recurse = engine._n
    received = []

    def spy(key):
        value = recurse(key)
        received.append((key, value))
        return value

    engine._n = spy
    keys = [
        key for n in (2, 3, 4) for m in range(4) for key in balanced_keys(n, m) if 0 in key
    ]
    rng = random.Random(14)
    keys += [_random_balanced_key(rng, n, m) for n, m in ((5, 6), (6, 5), (7, 4)) for _ in range(5)]
    for key in keys:
        assert engine.n_value(key) == raw_n_value(key), key
    # the splits hand the recursion keys with zero entries to contract
    assert any(0 in key for key, _ in received)
    for key, value in received:
        assert min(key) >= 0 and sum(key[0::2]) == sum(key[1::2]), key
        assert value == raw_n_value(key), key


def test_door_answers_negative_and_unbalanced_keys_without_recursing():
    for key in ((-1, -1, 1, 1), (2, -1, 0, 1), (1, 0, 0, 2, 1, 1), (3, 1, 1, 2)):
        engine = MomentEngine()
        assert engine.n_value(key) == 0, key
        assert engine.memo_size == 0 and not engine._orbits, key


def test_cached_orbits_give_fresh_engine_values():
    # The first call on each key fills the orbit table, the second reads it.
    engine = MomentEngine()
    for key in canonicalization_range():
        if len(key) > 8:
            continue
        first = engine.n_value(key)
        assert engine.n_value(key) == first == MomentEngine().n_value(key), key
    assert engine._orbits
    for contracted, orbit in engine._orbits.items():
        assert orbit == canonical_key(contracted), contracted


def test_recursion_sub_keys_stay_out_of_the_orbit_table():
    # Only public keys enter the orbit table, so it grows with the distinct
    # keys asked for, not with the recursion's sub-keys.
    engine = MomentEngine()
    assert engine.n_value((3,) * 10) == 5**15
    assert len(engine._orbits) <= 1
    assert engine.memo_size > 1
    for key in engine._memo:
        assert canonical_key(key) == key, key


@pytest.mark.parametrize("n, m", [(2, 30), (3, 12), (4, 8)])
def test_level_sums_match_the_all_pairs_equal_law(n, m):
    # the recursion's side of tests/test_genfun.py's level-sum law: every
    # balanced key of level m, zero entries included, on a fresh engine
    engine = MomentEngine()
    total = sum(engine.n_value(key) for key in balanced_keys(n, m))
    assert total == n**m * math.comb(m + n - 1, n - 1)


def test_values_are_nonnegative_integers():
    engine = MomentEngine()
    for n in (1, 2, 3):
        for m in range(6):
            for key in balanced_keys(n, m):
                v = engine.n_value(key)
                assert isinstance(v, int) and v >= 0
