import copy
import pickle
import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from dtmoments.fps import Series, VariableRegistry


def random_theta_series(registry, trunc, rng, max_terms=6, fractional=True):
    """A random series respecting the registry's degree-modulus constraint."""
    N = registry.modulus
    size = registry.size
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        level = rng.randrange(0, trunc // N + 1)
        exps = [0] * size
        for _ in range(level * N):
            exps[rng.randrange(size)] += 1
        if fractional:
            c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        else:
            c = rng.randrange(-9, 10)
        if c:
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + c
    return Series(registry, trunc, {e: c for e, c in terms.items() if c})


def random_fractions(rng, count, distinct=True):
    out = []
    seen = set()
    while len(out) < count:
        f = Fraction(rng.randrange(-20, 21), rng.randrange(1, 11))
        if distinct:
            if f in seen:
                continue
            seen.add(f)
        out.append(f)
    return out


ZW1 = VariableRegistry.zw_pairs(1)
ZW2 = VariableRegistry.zw_pairs(2)
ZW3 = VariableRegistry.zw_pairs(3)


def compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def balanced_keys(n, m):
    """All flat keys (k1,l1,...,kn,ln) with sum(k) = sum(l) = m."""
    for ks in compositions(m, n):
        for ls in compositions(m, n):
            key = []
            for k, l in zip(ks, ls):
                key.append(k)
                key.append(l)
            yield tuple(key)


CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


def assert_frozen(value):
    """Setting or deleting any slot of a value type raises AttributeError."""
    name = type(value).__name__
    for slot in type(value).__slots__:
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            setattr(value, slot, None)
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            delattr(value, slot)


def assert_same_text(got: str, expected: str) -> None:
    """got == expected, compared line by line: a failure names the first
    line that differs instead of diffing megabytes of text."""
    lines = zip_longest(got.splitlines(True), expected.splitlines(True))
    for lineno, (a, b) in enumerate(lines, start=1):
        assert a == b, f"line {lineno}"
