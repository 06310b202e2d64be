"""Renormalized *-moments of the quasi-nilpotent DT-operator.

N(k1,l1,...,kn,ln) is (m+1)! times the trace of the alternating word
(T*)^k1 T^l1 ... (T*)^kn T^ln, where m is the common value of sum(k) and
sum(l); it is always a nonnegative integer.  The computation runs a
memoized recursion on the flat key: every term removes one T* and one T,
splits the cyclic word into independent subwords, and weights the split
by a multinomial coefficient in the l-entries.

Keys are flat even-length tuples.  Entries of -1 are admitted (they arise
inside the recursion); the only nonzero key containing one is the single
pair (-1, -1), which counts 1 like every balanced single pair.
"""

import math
from fractions import Fraction
from itertools import combinations

__all__ = [
    "MomentEngine",
    "canonical_key",
    "dihedral_min",
    "moment",
    "multinomial",
    "n_value",
    "nom",
    "parse_key",
    "validate_key",
]


def validate_key(key) -> tuple:
    """Check the flat-tuple shape: even length >= 2, integer entries >= -1."""
    key = tuple(key)
    if len(key) < 2 or len(key) % 2:
        raise ValueError("a moment key needs an even number of entries, at least two")
    for e in key:
        if not isinstance(e, int) or isinstance(e, bool) or e < -1:
            raise ValueError(f"key entries must be integers >= -1, got {e!r}")
    return key


def parse_key(text: str) -> tuple:
    """Parse the CLI syntax 'k1,l1,k2,l2,...' into a validated key."""
    try:
        entries = tuple(int(piece.strip()) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse moment key {text!r}") from None
    return validate_key(entries)


def multinomial(parts) -> int:
    """(sum parts)! / prod(part!), exactly."""
    total, out = 0, 1
    for p in parts:
        total += p
        out *= math.comb(total, p)
    return out


def nom(ls, js) -> int:
    """The multinomial weight of a split.

    ``ls`` holds the l-entries (l1, ..., ln); ``js`` is the increasing
    1-based tuple of split positions j(1) < ... < j(r).  The blocks are
    the wrap-around run l1+...+l_{j(1)-1} + l_{j(r)}+...+ln followed by
    the runs between consecutive split positions.
    """
    ls = tuple(ls)
    js = tuple(js)
    n = len(ls)
    if not js or list(js) != sorted(set(js)) or js[0] < 1 or js[-1] > n:
        raise ValueError(f"split positions must be increasing in 1..{n}, got {js}")
    if any(not isinstance(e, int) or e < 0 for e in ls):
        raise ValueError("the multinomial weight is only defined for entries >= 0")
    blocks = [sum(ls[: js[0] - 1]) + sum(ls[js[-1] - 1 :])]
    for a, b in zip(js, js[1:]):
        blocks.append(sum(ls[a - 1 : b - 1]))
    return multinomial(blocks)


def dihedral_min(key) -> tuple:
    """Lexicographic minimum over all rotations of the key and of its
    reversal.  Rotating the flat tuple by one entry swaps the T*/T roles;
    both operations preserve the moment value.  Only rotations that start
    at a minimum entry are formed."""
    key = tuple(key)
    n = len(key)
    lo = min(key)
    kk = key + key
    rr = kk[::-1]
    return min(
        [kk[s : s + n] for s in range(n) if kk[s] == lo]
        + [rr[s : s + n] for s in range(n) if rr[s] == lo]
    )


def _canonical(key: tuple) -> tuple:
    """canonical_key without the validation, for keys known to be valid
    and nonnegative."""
    while len(key) > 2 and 0 in key:
        s = key.index(0)
        if s:
            key = key[s:] + key[:s]
        # the leading zero goes and its two neighbours merge
        key = key[2:-1] + (key[-1] + key[1],)
    return dihedral_min(key)


def canonical_key(key) -> tuple:
    """A canonical orbit representative under rotation and reversal.

    Every zero entry is contracted first (a zero block merges its two
    neighbours into one entry) until no zero is left or two entries
    remain; then the least rotation of the key or of its reversal is
    taken.  Value-preserving: n_value(key) == n_value(canonical_key(key)).
    """
    key = validate_key(key)
    if min(key) < 0:
        raise ValueError("canonical_key needs nonnegative entries")
    return _canonical(key)


class MomentEngine:
    """Memoized evaluator for the moment recursion.

    Memo keys are canonicalized, so one cached value serves a whole
    symmetry orbit, and every computed value is kept.  Lookups are pure, so
    concurrent use is safe at worst at the price of duplicate work.

    The recursion takes one stack frame per level, and each level removes
    one T* and one T, so the depth follows m, the sum of the k-entries, not
    the largest entry: keys with m near 1000 exceed the interpreter's
    default recursion limit and raise RecursionError, which the CLI reports
    as a one-line computation failure with exit code 1.  (490, 490, 490,
    490) with m = 980 still works; (500, 500, 500, 500) with m = 1000 does
    not.
    """

    def __init__(self):
        self._memo: dict[tuple, int] = {}

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def n_value(self, key) -> int:
        """The integer N of a flat key."""
        return self._n(validate_key(key))

    def moment(self, key) -> Fraction:
        """The renormalized trace N/(m+1)! with m = sum of the k-entries."""
        key = validate_key(key)
        if min(key) < 0:
            raise ValueError("moment needs nonnegative entries")
        m = sum(key[0::2])
        return Fraction(self._n(key), math.factorial(m + 1))

    # -- recursion --

    def _n(self, key: tuple) -> int:
        if len(key) == 2:
            return 1 if key[0] == key[1] else 0
        if min(key) < 0:
            return 0
        if sum(key[0::2]) != sum(key[1::2]):
            return 0
        mk = _canonical(key)
        if len(mk) == 2:
            return 1 if mk[0] == mk[1] else 0
        hit = self._memo.get(mk)
        if hit is not None:
            return hit
        n = len(mk) // 2
        pre = [0]  # prefix sums of the l-entries, for the split weights
        for l in mk[1::2]:
            pre.append(pre[-1] + l)
        m = pre[-1]
        total = 0
        for r in range(1, n + 1):
            for js in combinations(range(n), r):
                j0, jr = js[0], js[-1]
                outer = mk[: 2 * j0] + (mk[2 * j0] - 1, mk[2 * jr + 1] - 1) + mk[2 * jr + 2 :]
                prod = self._n(outer)
                if prod == 0:
                    continue
                for a, b in zip(js, js[1:]):
                    inner = list(mk[2 * a + 1 : 2 * b + 1])
                    inner[0] -= 1
                    inner[-1] -= 1
                    prod *= self._n(tuple(inner))
                    if prod == 0:
                        break
                if prod == 0:
                    continue
                # nom(l-entries, js + 1): the wrap-around block first, then
                # the blocks between consecutive split positions
                t = m - pre[jr] + pre[j0]
                w = 1
                for a, b in zip(js, js[1:]):
                    p = pre[b] - pre[a]
                    t += p
                    w *= math.comb(t, p)
                total += w * prod
        self._memo[mk] = total
        return total


_default_engine = MomentEngine()


def n_value(key) -> int:
    """Module-level convenience backed by a shared memo table."""
    return _default_engine.n_value(key)


def moment(key) -> Fraction:
    """Module-level convenience backed by a shared memo table."""
    return _default_engine.moment(key)
