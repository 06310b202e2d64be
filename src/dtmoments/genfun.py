"""Generating functions of the renormalized *-moments.

F_n collects N(k1,l1,...,kn,ln) over the monomials z1^k1 w1^l1 ... zn^kn
wn^ln.  It satisfies a recursion: (1 - z1w1 - ... - znwn) F_n is a sum,
over subsets of split positions, of graded products of prefixed lower-
order F's on re-wired variable pairs.  Each factor is placed by registry
position (z_i at 2i - 2, w_i at 2i - 1) and multiplied by its prefix, an
exponent tuple that is zero for a single-pair factor, so every factor is
one rename and one shift.  This module evaluates that recursion in two
independent modes -- truncated series (fps core) and closed rational form
(ratfun core) -- and extracts the diagonal series plus the conjecture
checkers built on them.

The series mode groups the split sum by first and last split, as the moment
recursion does: a term is an outer subword, fixed by its first and last
split, times the inner subwords between consecutive splits, so a chain
table per first split adds the inner factors one at a time.  That takes
C(n,3) + C(n,2) graded products (56 at n = 7) against one per factor pair
of every split set (321), and places each blueprint once per order.  One
call packs every order in one layout, _Packing(2n, max(D, 255)): every
field has one width, a byte up to D = 255, the degree in the lowest, so
F_m on the first 2m variables is the same dict of ints there as in its own
layout.  The closed form walks the split sets one by one, in the term
order it shows, over tables of the outer and inner factors that place
each blueprint once per call.
"""

from functools import lru_cache
from itertools import combinations

from .fps import (
    Series,
    VariableRegistry,
    _json_int,
    _Packing,
    _padd_into,
    _pdiv_one_minus,
    _podot,
    _premap,
    _pshift,
)
from .moments import multinomial, n_value
from .ratfun import RationalExpr, _odot_closed, _ProductMemo, identity_form

__all__ = [
    "check_conjecture",
    "check_n3_identity",
    "f_rational",
    "f_series",
    "g_diagonal",
    "h_diagonal",
]


@lru_cache(maxsize=None)
def _registry(n: int) -> VariableRegistry:
    return VariableRegistry.zw_pairs(n)


def _blueprint(n: int, where: tuple, p: int, q: int) -> tuple:
    """(where, prefix) for a lower-order F placed on n pairs.

    ``where`` holds the registry positions that the F's variables go to, in
    its own order z1, w1, z2, w2, ...; z_i sits at 2i - 2 and w_i at 2i - 1,
    as in VariableRegistry.zw_pairs.  ``prefix`` is the exponent tuple of
    the two-variable monomial in front, at positions p and q.  A single-pair
    factor is F_1 placed on its pair with the zero prefix: there the prefix
    and the geometric pole cancel.  Every factor is thus placed by one
    rename and one shift.
    """
    prefix = [0] * (2 * n)
    if len(where) > 2:  # the one place a single pair is told apart
        prefix[p] = prefix[q] = 1
    return where, tuple(prefix)


def _outer(n: int, a: int, b: int) -> tuple:
    """The blueprint of the outer subword of a split set whose first split
    is a and whose last is b (0-based pair indices)."""
    where = (*range(2 * a), 2 * a, 2 * b + 1, *range(2 * b + 2, 2 * n))
    return _blueprint(n, where, 2 * a, 2 * b + 1)


def _inner(n: int, a: int, b: int) -> tuple:
    """The blueprint of the inner subword between consecutive splits a < b."""
    return _blueprint(n, tuple(range(2 * a + 1, 2 * b + 1)), 2 * a + 1, 2 * b)


@lru_cache(maxsize=None, typed=True)
def f_series(n: int, D: int) -> Series:
    """The moment generating function on n variable pairs, truncated at
    total degree D.  Every coefficient equals the n_value of its key.

    Runs on packed exponents (the fps kernel).  The lower orders F_1 ..
    F_(n-1) are built in this call's one layout, _Packing(2n, max(D, 255)),
    which is exact (see _packed_f), in a memo that lives for this one call:
    its fields are a byte wide for D <= 255, so the final unpack reads each
    key's bytes, and have the width of D above that.  Each order is its
    recursion's right-hand side divided by 1 - (identity form) slice by
    slice in degree.  The right-hand side is grouped by first
    and last split in a chain table (_packed_rhs): C(n,3) + C(n,2) graded
    products, each lower-order factor placed once per order and only with
    the terms that its prefix shift keeps.  The tests check it against the
    direct route, which sums over every split set and multiplies by
    ``geometric(identity form, D)``.  n and D must be ints, not bools.
    """
    if _json_int(n, "n") < 1:
        raise ValueError("need at least one variable pair")
    if _json_int(D, "D") < 0:
        raise ValueError("degree bound must be >= 0")
    packing = _Packing(2 * n, max(D, 255))
    return Series._make(_registry(n), D, packing.unpack(_packed_f(n, D, packing, {})))


def _packed_f(n: int, D: int, packing: _Packing, memo: dict) -> dict:
    """F_n packed in ``packing``, a layout for degree at least D on at least
    2n variables; lower orders go to ``memo``.  Every such layout of one
    field width has the degree in the lowest field, so F_n is the same dict
    of ints in each of them."""
    if n not in memo:
        rhs = {0: 1} if n == 1 else _packed_rhs(n, D, packing, memo)
        form = identity_form(_registry(n))
        memo[n] = _pdiv_one_minus(rhs, packing.pack(form.terms, D), packing.mask, D)
    return memo[n]


def _packed_rhs(n: int, D: int, packing: _Packing, memo: dict) -> dict:
    """The recursion's right-hand side, grouped by first and last split.

    ⊙ is bilinear, associative and commutative, so the sum over split sets
    is the sum over a < b of outer(a, b) ⊙ Chain(a, b), where Chain(a, b) =
    inner(a, b) + the sum over a < c < b of Chain(a, c) ⊙ inner(c, b) sums
    every chain of inner subwords from a to b.  Each inner and outer factor
    is placed once, and the sum takes C(n, 3) + C(n, 2) ⊙ products.
    """
    mask, modulus = packing.mask, _registry(n).modulus

    def place(blueprint) -> dict:
        return _packed_factor(*blueprint, packing, D, memo)

    inner = {(a, b): place(_inner(n, a, b)) for a in range(n) for b in range(a + 1, n)}
    total: dict = {}
    for a in range(n):
        chain = {}  # b -> Chain(a, b), for this first split a
        for b in range(a + 1, n):
            acc = dict(inner[a, b])
            for c in range(a + 1, b):
                _padd_into(acc, _podot(chain[c], inner[c, b], mask, D, modulus))
            chain[b] = acc
            _padd_into(total, _podot(place(_outer(n, a, b)), acc, mask, D, modulus))
    return total


def _packed_factor(where, prefix, packing: _Packing, D: int, memo: dict) -> dict:
    room = D - sum(prefix)
    if room < 0:  # nothing survives the shift; the prefix would not fit the layout
        return {}
    mask = packing.mask
    # drop what the shift would push past D before moving it: most of F_m
    f = _packed_f(len(where) // 2, D, packing, memo)
    terms = {e: c for e, c in f.items() if e & mask <= room}
    return _pshift(_premap(terms, packing, packing, where), packing.mono(prefix), mask, D)


def _rational_factor(registry, where, prefix, memo: _ProductMemo) -> RationalExpr:
    return f_rational(len(where) // 2)._placed(registry, where, prefix, memo)


@lru_cache(maxsize=None, typed=True)
def f_rational(n: int) -> RationalExpr:
    """The same generating function as a closed rational expression: a sum
    of monomial-prefixed fractions over products of (1 - permutation form).

    The split sets are walked in the output's term order (r = 2..n splits,
    each r-subset in lexicographic order) over two tables that place every
    outer and inner factor once per call, each in one pass that renames and
    shifts together: n(n - 1) placements in all.

    Each term's numerator stays packed from the closed product to the
    renderer (see ratfun.RationalTerm).  A call keeps one memo for its
    placements and closed products and drops it when it returns: every
    form's id keyed by its terms, so each distinct form is rendered once
    per call, the pair sums also by (u_id, v_id), the packed pieces of P
    and the numerator layouts of pairs whose numerators are both 1.  A
    memo form still enters each table by key where it did before, so the
    u1, u2, ... aliases are as without the memo.

    Observed for n <= 7 by the tests, not proved here nor taken from the
    paper: the denominator forms are exactly the permutation forms
    sum_i z_i w_sigma(i) of the non-crossing permutations sigma (those with
    |sigma| + |sigma^-1 c| = n - 1 for the long cycle c(i) = i - 1 mod n),
    Catalan-many, and every form in the table has unit coefficients.

    May raise DistinctnessViolation if some graded product hits colliding
    denominator sums (not observed for n <= 7); series mode is unaffected.
    """
    if _json_int(n, "n") < 1:
        raise ValueError("need at least one variable pair")
    registry = _registry(n)
    if n == 1:
        return RationalExpr.geometric_term(registry, identity_form(registry))
    memo = _ProductMemo()
    pairs = list(combinations(range(n), 2))
    outer = {(a, b): _rational_factor(registry, *_outer(n, a, b), memo) for a, b in pairs}
    inner = {(a, b): _rational_factor(registry, *_inner(n, a, b), memo) for a, b in pairs}

    def split_terms():
        for r in range(2, n + 1):
            for js in combinations(range(n), r):
                term = outer[js[0], js[-1]]
                for a, b in zip(js, js[1:]):
                    term = _odot_closed(term, inner[a, b], memo)
                yield term

    return RationalExpr._sum(split_terms()).with_denominator(identity_form(registry))


# -- diagonals ---------------------------------------------------------------------


def g_diagonal(n: int, D: int) -> dict:
    """Coefficients of the diagonal generating function in x1..xn, read off
    f_series at the exponents with ki = li, up to total z/w-degree D: a
    dict {(k1, ..., kn): N(k1,k1,...,kn,kn)} over every multi-index with
    2(k1 + ... + kn) <= D.

    The multi-indices are listed directly, in lexicographic order: each
    sorted n-subset c of range(D // 2 + n) is one, with ki = ci - c(i-1) - 1
    (and c0 = -1), so none outside the bound is visited."""
    fs = f_series(n, D).terms
    out = {}
    for c in combinations(range(D // 2 + n), n):
        ks = tuple([b - a - 1 for a, b in zip((-1, *c), c)])
        out[ks] = fs.get(tuple([k for k in ks for _ in (0, 1)]), 0)
    return out


def h_diagonal(n: int, K: int) -> list:
    """The fully diagonal coefficients as a list [N(k,k,...,k) for k in
    0..K], computed through the moment recursion so large k stays cheap."""
    if _json_int(n, "n") < 1 or _json_int(K, "K") < 0:
        raise ValueError("need n >= 1 and K >= 0")
    return [n_value((k,) * (2 * n)) for k in range(K + 1)]


# -- conjecture checkers ------------------------------------------------------------


def check_conjecture(n: int, K: int) -> dict:
    """Compare N(k,...,k) on n pairs against n^(nk) for k <= K.

    Returns a report, never asserts.  The equality holds for every n: it
    was proved by P. Sniady, "Multinomial identities arising from free
    probability theory", J. Combin. Theory Ser. A 101 (2003).  The checker
    stays as a regression oracle for the moment recursion.
    """
    rows = []
    first = None
    for k, computed in enumerate(h_diagonal(n, K)):
        expected = n ** (n * k)
        match = computed == expected
        if not match and first is None:
            first = k
        rows.append(
            {"n": n, "k": k, "expected": expected, "computed": computed, "match": match}
        )
    return {
        "n": n,
        "K": K,
        "rows": rows,
        "all_match": first is None,
        "first_divergence": first,
    }


def check_n3_identity(p: int) -> bool:
    """The multinomial identity equivalent to the n = 3 conjecture at
    order p: 3^(3p) against a double family of multinomial products."""
    if _json_int(p, "p") < 1:
        raise ValueError("the identity is stated for p >= 1")
    rhs = 0
    for j in range(p + 1):
        k = p - j
        rhs += multinomial((j, j, j)) * multinomial((k, k, k))
    second = 0
    for j in range(p):
        for k in range(p - j):
            l = p - 1 - j - k
            for kp in range(k + l + 2):
                lp = k + l + 1 - kp
                for jp in range(j + l + 2):
                    lpp = j + l + 1 - jp
                    second += (
                        multinomial((j, j, jp))
                        * multinomial((k, k, kp))
                        * multinomial((l, lp, lpp))
                    )
    rhs += 3 * second
    return 3 ** (3 * p) == rhs
