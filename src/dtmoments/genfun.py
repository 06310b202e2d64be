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
"""

from functools import lru_cache
from itertools import combinations, product

from .fps import (
    Series,
    VariableRegistry,
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


def _split_factors(n: int):
    """Factor blueprints for every term of the recursion at n >= 2.

    Yields, per term, a tuple of (where, prefix) blueprints, one per lower-
    order F.  ``where`` holds the registry positions that the F's variables
    go to, in its own order z1, w1, z2, w2, ...; z_i sits at 2i - 2 and w_i
    at 2i - 1, as in VariableRegistry.zw_pairs.  ``prefix`` is the exponent
    tuple of the two-variable monomial in front.  A single-pair factor is F_1
    placed on its pair with the zero prefix: there the prefix and the
    geometric pole cancel.  Every factor is thus placed by one rename and
    one shift.
    """

    def blueprint(where: tuple, p: int, q: int) -> tuple:
        prefix = [0] * (2 * n)
        if len(where) > 2:  # the one place a single pair is told apart
            prefix[p] = prefix[q] = 1
        return where, tuple(prefix)

    for r in range(2, n + 1):
        for js in combinations(range(n), r):
            j0, jr = js[0], js[-1]
            outer = (*range(2 * j0), 2 * j0, 2 * jr + 1, *range(2 * jr + 2, 2 * n))
            yield (
                blueprint(outer, 2 * j0, 2 * jr + 1),
                *(blueprint(tuple(range(2 * a + 1, 2 * b + 1)), 2 * a + 1, 2 * b)
                  for a, b in zip(js, js[1:])),
            )


@lru_cache(maxsize=None)
def f_series(n: int, D: int) -> Series:
    """The moment generating function on n variable pairs, truncated at
    total degree D.  Every coefficient equals the n_value of its key.

    Runs on packed exponents (the fps kernel).  The lower orders F_1 ..
    F_(n-1) are built packed, in a memo that lives for this one call, and
    each order is its recursion's right-hand side divided by 1 - (identity
    form) slice by slice in degree.  The tests check it against the direct
    route, multiplication by ``geometric(identity form, D)``.
    """
    if n < 1:
        raise ValueError("need at least one variable pair")
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    terms = _packed_f(n, D, {})
    return Series._make(_registry(n), D, _Packing(2 * n, D).unpack(terms))


def _packed_f(n: int, D: int, memo: dict) -> dict:
    """F_n packed in the _Packing(2n, D) layout; lower orders go to ``memo``."""
    if n not in memo:
        packing = _Packing(2 * n, D)
        rhs = {0: 1} if n == 1 else _packed_rhs(n, D, memo)
        form = identity_form(_registry(n))
        memo[n] = _pdiv_one_minus(rhs, packing.pack(form.terms, D), packing.mask, D)
    return memo[n]


def _packed_rhs(n: int, D: int, memo: dict) -> dict:
    packings = {m: _Packing(2 * m, D) for m in range(1, n + 1)}  # F_m's layout
    mask, modulus = packings[n].mask, _registry(n).modulus
    total: dict = {}
    for factors in _split_factors(n):
        part = None
        for where, prefix in factors:
            factor = _packed_factor(where, prefix, packings, D, memo)
            part = factor if part is None else _podot(part, factor, mask, D, modulus)
        _padd_into(total, part)
        del part  # free this part before the next one is built: it sets the peak memory
    return total


def _packed_factor(where, prefix, packings, D: int, memo: dict) -> dict:
    if sum(prefix) > D:  # nothing survives the shift; the prefix would not fit the layout
        return {}
    packing = packings[len(prefix) // 2]  # the prefix spans the target registry
    m = len(where) // 2
    inner = _premap(_packed_f(m, D, memo), packings[m], packing, where)
    return _pshift(inner, packing.mono(prefix), packing.mask, D)


def _rational_factor(registry, where, prefix) -> RationalExpr:
    inner = f_rational(len(where) // 2)
    mapping = dict(zip(inner.registry.names, [registry.names[p] for p in where]))
    return inner.substitute(registry, mapping).scale_prefix(prefix)


@lru_cache(maxsize=None)
def f_rational(n: int) -> RationalExpr:
    """The same generating function as a closed rational expression: a sum
    of monomial-prefixed fractions over products of (1 - permutation form).

    Each term's numerator stays packed from the closed product to the
    renderer (see ratfun.RationalTerm).  A call keeps one memo for its
    closed products and drops it when it returns: the pair-sum ids, keyed
    by (u_id, v_id), and the packed pieces of P.  A pair sum found in the
    memo still enters each product's table by key where it did before, so
    the u1, u2, ... aliases are as without the memo.

    Observed for n <= 7 by the tests, not proved here nor taken from the
    paper: the denominator forms are exactly the permutation forms
    sum_i z_i w_sigma(i) of the non-crossing permutations sigma (those with
    |sigma| + |sigma^-1 c| = n - 1 for the long cycle c(i) = i - 1 mod n),
    Catalan-many, and every form in the table has unit coefficients.

    May raise DistinctnessViolation if some graded product hits colliding
    denominator sums (not observed for n <= 7); series mode is unaffected.
    """
    if n < 1:
        raise ValueError("need at least one variable pair")
    registry = _registry(n)
    if n == 1:
        return RationalExpr.geometric_term(registry, identity_form(registry))
    memo = _ProductMemo()

    def split_terms():
        for factors in _split_factors(n):
            term = None
            for where, prefix in factors:
                factor = _rational_factor(registry, where, prefix)
                term = factor if term is None else _odot_closed(term, factor, memo)
            yield term

    return RationalExpr._sum(split_terms()).with_denominator(identity_form(registry))


# -- diagonals ---------------------------------------------------------------------


def g_diagonal(n: int, D: int) -> dict:
    """Coefficients of the diagonal generating function in x1..xn, read off
    f_series at the exponents with ki = li, up to total z/w-degree D: a
    dict {(k1, ..., kn): N(k1,k1,...,kn,kn)} over every multi-index with
    2(k1 + ... + kn) <= D."""
    fs = f_series(n, D)
    out = {}
    for ks in product(range(D // 2 + 1), repeat=n):
        if 2 * sum(ks) > D:
            continue
        exps = []
        for k in ks:
            exps.append(k)
            exps.append(k)
        out[ks] = fs.terms.get(tuple(exps), 0)
    return out


def h_diagonal(n: int, K: int) -> list:
    """The fully diagonal coefficients as a list [N(k,k,...,k) for k in
    0..K], computed through the moment recursion so large k stays cheap."""
    if n < 1 or K < 0:
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
    if p < 1:
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
