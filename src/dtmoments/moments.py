"""Renormalized *-moments of the quasi-nilpotent DT-operator.

N(k1,l1,...,kn,ln) is (m+1)! times the trace of the alternating word
(T*)^k1 T^l1 ... (T*)^kn T^ln, where m is the common value of sum(k) and
sum(l); it is always a nonnegative integer.  The computation runs a
memoized recursion on the flat key: every term removes one T* and one T,
splits the cyclic word into independent subwords, and weights the split
by a multinomial coefficient in the l-entries.

The split sum runs over every set of split positions j(1) < ... < j(r), but
its outer subword depends only on (j(1), j(r)) and each inner subword only
on one consecutive pair of splits, and the weight factors the same way.  So
each node groups the sum by its first and last split: for each first split
a chain table adds the inner blocks one at a time, and each outer subword
is looked up once, only where its chain is nonzero.  A node with n pairs
makes O(n^2) sub-lookups and O(n^3) big-int products, against n*2^(n-1)
lookups when every split set is enumerated.

Keys are flat even-length tuples.  Entries of -1 are admitted only in keys
from outside, and the engine answers them before any recursion: 1 for a
balanced single pair such as (-1, -1), 0 otherwise.  The recursion's
sub-keys never carry them.
"""

import math
from fractions import Fraction

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
    """(sum parts)! / prod(part!), exactly; a part must be an int >= 0, not a bool."""
    parts = tuple(parts)
    if bool in map(type, parts):
        raise TypeError(f"multinomial parts must be ints, not bools, got {parts}")
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
    if not js or list(js) != sorted(set(js)) or js[0] < 1 or js[-1] > n or bool in map(type, js):
        raise ValueError(f"split positions must be increasing in 1..{n}, got {js}")
    if bool in map(type, ls) or any(not isinstance(e, int) or e < 0 for e in ls):
        raise ValueError("the multinomial weight is only defined for entries >= 0")
    blocks = [sum(ls[: js[0] - 1]) + sum(ls[js[-1] - 1 :])]
    for a, b in zip(js, js[1:]):
        blocks.append(sum(ls[a - 1 : b - 1]))
    return multinomial(blocks)


def dihedral_min(key) -> tuple:
    """Lexicographic minimum over all rotations of the key and of its
    reversal.  Rotating the flat tuple by one entry swaps the T*/T roles;
    both operations preserve the moment value.

    Only readings that start at a minimum entry can win.  For each position
    p of one, in kk = key + key, the rotation is kk[p:p+n] and the reversal
    read backwards from there is kk[p+n:p:-1] (key[p], key[p-1], ...,
    wrapping round to key[p+1]); a running minimum keeps the least."""
    key = tuple(key)
    n = len(key)
    if not n:
        raise ValueError("dihedral_min needs a nonempty key, got ()")
    lo = min(key)
    kk = key + key
    best = key  # rotation 0 is a reading too
    p = -1
    for _ in range(key.count(lo)):
        p = key.index(lo, p + 1)
        if kk[p : p + n] < best:
            best = kk[p : p + n]
        if kk[p + n : p : -1] < best:
            best = kk[p + n : p : -1]
    return best


def _contract(key: tuple):
    """One walk over the (k, l) pairs of a key of even length >= 2.

    Returns (contracted key, k-sum, l-sum), or None at the first entry that
    is not an exact int >= 0.  The contracted key is the run lengths of the
    cyclic word (T*)^k1 T^l1 ... (T*)^kn T^ln: a zero entry drops out and
    its two neighbours, which spell the same letter, merge into one run,
    and the first run merges with the last where the word wraps round with
    one letter.  A word with fewer than three runs contracts to the single
    pair (k-sum, l-sum).  The result agrees with contracting one zero at a
    time up to rotation and reversal, which is all that dihedral_min sees.
    """
    runs = []
    cur = 0  # the open run, of T* while star; a leading zero run is dropped below
    star = True
    ks = ls = 0
    it = iter(key)
    for k, l in zip(it, it):
        if type(k) is not int or type(l) is not int or k < 0 or l < 0:
            return None
        if k:
            ks += k
            if star:
                cur += k
            else:
                runs.append(cur)
                cur, star = k, True
        if l:
            ls += l
            if star:
                runs.append(cur)
                cur, star = l, False
            else:
                cur += l
    runs.append(cur)
    if not runs[0]:
        del runs[0]
    if len(runs) < 3:
        return (ks, ls), ks, ls
    if len(runs) % 2:  # first and last run spell the same letter
        runs[0] += runs.pop()
    return tuple(runs), ks, ls


def canonical_key(key) -> tuple:
    """A canonical orbit representative under rotation and reversal.

    The zero entries are contracted first (a zero merges its two
    neighbours into one entry), which leaves the run lengths of the cyclic
    word, or the single pair (k-sum, l-sum) when fewer than three runs are
    left; then the least rotation of the key or of its reversal is taken.
    Value-preserving: n_value(key) == n_value(canonical_key(key)).
    """
    key = validate_key(key)
    if min(key) < 0:
        raise ValueError("canonical_key needs nonnegative entries")
    walked = _contract(key)
    if walked is None:  # int subclasses, which the walk does not take
        walked = _contract(tuple(map(int, key)))
    return dihedral_min(walked[0])


class MomentEngine:
    """Memoized evaluator for the moment recursion.

    Memo keys are canonicalized, so one cached value serves a whole
    symmetry orbit, and every computed value is kept.  Lookups are pure, so
    concurrent use is safe at worst at the price of duplicate work.

    Keys from outside (n_value, moment) pass one door, _door, which walks
    the key's (k, l) pairs once (_contract): it checks that each entry is an
    exact int >= 0, sums the k-entries and the l-entries, and builds the
    contracted key, the run lengths of the cyclic word.  A key with any
    other entry goes to validate_key, for its message; what that passes
    holds a -1, answered by the single-pair law (1 for a balanced single
    pair such as (-1, -1), 0 otherwise), or int subclasses, walked again as
    plain ints.  Then an unequal k-sum and l-sum gives 0, a contracted
    single pair gives 1, and the orbit table maps each contracted outside
    key to its canonical key; it grows only with the distinct keys asked
    for.  The canonical key then goes to _n, whose first memo probe finds
    any value already known.  The recursion _n takes trusted keys: its
    sub-keys are nonnegative, since it splits only zero-free keys, and
    balanced, since the split sum skips every inner subword whose k-sum and
    l-sum differ and the outer subword of a nonzero chain is then balanced
    too.  It probes the memo, contracts zeros and takes the dihedral_min of
    each key it meets.

    Each node makes O(n^2) sub-lookups and O(n^3) big-int products for n
    pairs (see the module docstring); the values of its inner subwords live
    in a table that is dropped when the node returns.

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
        # contracted public key -> its dihedral_min; the recursion's
        # sub-keys never enter it
        self._orbits: dict[tuple, tuple] = {}

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def n_value(self, key) -> int:
        """The integer N of a flat key."""
        return self._door(key)[0]

    def moment(self, key) -> Fraction:
        """The renormalized trace N/(m+1)! with m = sum of the k-entries."""
        value, m = self._door(key)
        if m is None:
            raise ValueError("moment needs nonnegative entries")
        return Fraction(value, math.factorial(m + 1))

    def _door(self, key) -> tuple:
        """(N, k-sum) of a key from outside, the k-sum None for a key with
        a -1 entry; the only reader and writer of the orbit table."""
        key = tuple(key)
        walked = _contract(key) if len(key) >= 2 and not len(key) % 2 else None
        if walked is None:
            # validate_key raises on a bad key with its message; what it
            # passes holds a -1 or an int subclass
            key = validate_key(key)
            if min(key) < 0:
                return (1 if len(key) == 2 and key[0] == key[1] else 0), None
            walked = _contract(tuple(map(int, key)))
        key, ks, ls = walked
        if ks != ls:
            return 0, ks
        if len(key) == 2:
            return 1, ks
        mk = self._orbits.get(key)
        if mk is None:
            mk = self._orbits[key] = dihedral_min(key)
        return self._n(mk), ks

    # -- recursion --

    def _n(self, key: tuple) -> int:
        """N of a nonnegative balanced key."""
        if len(key) == 2:
            return 1 if key[0] == key[1] else 0
        # memo keys are canonical, so a hit on the key as given is its value
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if 0 in key:
            key = _contract(key)[0]
            if len(key) == 2:  # (k-sum, l-sum) of a balanced key
                return 1
        mk = dihedral_min(key)
        hit = self._memo.get(mk)
        if hit is not None:
            return hit
        n = len(mk) // 2
        pre = [0]  # prefix sums of the l-entries, for the split weights
        for l in mk[1::2]:
            pre.append(pre[-1] + l)
        kpre = [0]  # prefix sums of the k-entries, for the balance of inner blocks
        for k in mk[0::2]:
            kpre.append(kpre[-1] + k)
        m = pre[-1]
        # The split sum grouped by its first split j0 and last split jr.  The
        # weight nom(l-entries, js + 1) is C(m, pre[jr] - pre[j0]) for the
        # wrap-around block times the multinomial of the blocks between
        # consecutive splits.  chain[b] sums, over the split chains from j0
        # to b, the product of their inner values times that multinomial;
        # each first split rewrites chain[j0:], the only part it reads.  An
        # inner block whose l-sum and k-sum differ is 0 without a lookup;
        # a nonzero chain[jr] makes its outer subword balanced.
        inner = [None] * (n * n)  # N of the subword between splits a < b at a*n + b
        chain = [0] * n
        total = 0
        for j0 in range(n):
            chain[j0] = 1
            for b in range(j0 + 1, n):
                s = 0
                for a in range(j0, b):
                    if chain[a]:
                        v = inner[a * n + b]
                        if v is None:
                            if pre[b] - pre[a] != kpre[b + 1] - kpre[a + 1]:
                                v = 0
                            else:
                                sub = list(mk[2 * a + 1 : 2 * b + 1])
                                sub[0] -= 1
                                sub[-1] -= 1
                                v = self._n(tuple(sub))
                            inner[a * n + b] = v
                        if v:
                            s += chain[a] * v * math.comb(pre[b] - pre[j0], pre[b] - pre[a])
                chain[b] = s
            for jr in range(j0, n):
                if chain[jr]:
                    outer = mk[: 2 * j0] + (mk[2 * j0] - 1, mk[2 * jr + 1] - 1) + mk[2 * jr + 2 :]
                    v = self._n(outer)
                    if v:
                        total += v * chain[jr] * math.comb(m, pre[jr] - pre[j0])
        self._memo[mk] = total
        return total


_default_engine = MomentEngine()


def n_value(key) -> int:
    """Module-level convenience backed by a shared memo table."""
    return _default_engine.n_value(key)


def moment(key) -> Fraction:
    """Module-level convenience backed by a shared memo table."""
    return _default_engine.moment(key)
