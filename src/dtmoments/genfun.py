"""Generating functions of the renormalized *-moments.

F_n collects N(k1,l1,...,kn,ln) over the monomials z1^k1 w1^l1 ... zn^kn
wn^ln.  It satisfies a recursion: (1 - z1w1 - ... - znwn) F_n is a sum,
over subsets of split positions, of graded products of prefixed lower-
order F's on re-wired variable pairs.  This module evaluates that
recursion in two independent modes -- truncated series (fps core) and
closed rational form (ratfun core) -- and extracts the diagonal series
plus the conjecture checkers built on them.
"""

from dataclasses import dataclass
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
from .ratfun import RationalExpr, identity_form, odot_closed

__all__ = [
    "DiagonalSeries",
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


def _mono_exps(registry: VariableRegistry, names) -> tuple:
    e = [0] * registry.size
    for name in names:
        e[registry.index(name)] += 1
    return tuple(e)


def _pair_form(registry: VariableRegistry, x: str, y: str) -> Series:
    return Series(registry, 2, {_mono_exps(registry, (x, y)): 1})


def _split_factors(n: int):
    """Factor blueprints for every term of the recursion at n >= 2.

    Yields, per term, the list of (pairs, prefix) blueprints: ``pairs`` is
    the ordered variable-pair list the lower-order F is evaluated on, and
    ``prefix`` is the two-variable monomial in front (unused when the
    factor is a single pair, where the prefix and the geometric pole
    cancel).  Variable names are 1-based like the registry's.
    """
    for r in range(2, n + 1):
        for js in combinations(range(n), r):
            j0, jr = js[0], js[-1]
            outer = [(f"z{a + 1}", f"w{a + 1}") for a in range(j0)]
            outer.append((f"z{j0 + 1}", f"w{jr + 1}"))
            outer.extend((f"z{b + 1}", f"w{b + 1}") for b in range(jr + 1, n))
            factors = [(outer, (f"z{j0 + 1}", f"w{jr + 1}"))]
            for a, b in zip(js, js[1:]):
                inner = [(f"w{i + 1}", f"z{i + 2}") for i in range(a, b)]
                factors.append((inner, (f"w{a + 1}", f"z{b + 1}")))
            yield factors


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
    return Series(_registry(n), D, _Packing(2 * n, D).unpack(terms), _checked=True)


def _packed_f(n: int, D: int, memo: dict) -> dict:
    """F_n packed in the _Packing(2n, D) layout; lower orders go to ``memo``."""
    if n not in memo:
        registry = _registry(n)
        packing = _Packing(2 * n, D)
        if n == 1:
            rhs = {0: 1}
            form = _pair_form(registry, "z1", "w1")
        else:
            rhs = _packed_rhs(n, D, memo)
            form = identity_form(registry)
        memo[n] = _pdiv_one_minus(rhs, packing.pack(form.terms, D), packing.top, D)
    return memo[n]


def _packed_rhs(n: int, D: int, memo: dict) -> dict:
    registry = _registry(n)
    top = _Packing(2 * n, D).top
    total: dict = {}
    for factors in _split_factors(n):
        part = None
        for pairs, prefix in factors:
            factor = _packed_factor(registry, pairs, prefix, D, memo)
            part = factor if part is None else _podot(part, factor, top, D, registry.modulus)
        _padd_into(total, part)
        del part  # free this part before the next one is built: it sets the peak memory
    return total


def _packed_factor(registry, pairs, prefix, D: int, memo: dict) -> dict:
    packing = _Packing(registry.size, D)
    if len(pairs) == 1:
        form = {packing.mono(_mono_exps(registry, pairs[0])): 1}
        return _pdiv_one_minus({0: 1}, form, packing.top, D)
    m = len(pairs)
    where = [registry.index(name) for pair in pairs for name in pair]
    inner = _premap(_packed_f(m, D, memo), _Packing(2 * m, D), packing, where)
    return _pshift(inner, packing.mono(_mono_exps(registry, prefix)), packing.top, D)


def _rational_factor(registry, pairs, prefix) -> RationalExpr:
    if len(pairs) == 1:
        x, y = pairs[0]
        return RationalExpr.geometric_term(registry, _pair_form(registry, x, y))
    mapping = {}
    for i, (x, y) in enumerate(pairs, start=1):
        mapping[f"z{i}"] = x
        mapping[f"w{i}"] = y
    inner = f_rational(len(pairs)).substitute(registry, mapping)
    return inner.scale_prefix(_mono_exps(registry, prefix))


@lru_cache(maxsize=None)
def f_rational(n: int) -> RationalExpr:
    """The same generating function as a closed rational expression: a sum
    of monomial-prefixed fractions over products of (1 - permutation form).

    May raise DistinctnessViolation if some graded product hits colliding
    denominator sums (not observed for n <= 7); series mode is unaffected.
    """
    if n < 1:
        raise ValueError("need at least one variable pair")
    registry = _registry(n)
    if n == 1:
        return RationalExpr.geometric_term(registry, _pair_form(registry, "z1", "w1"))
    acc = None
    for factors in _split_factors(n):
        term = None
        for pairs, prefix in factors:
            factor = _rational_factor(registry, pairs, prefix)
            term = factor if term is None else odot_closed(term, factor)
        acc = term if acc is None else acc + term
    return acc.with_denominator(identity_form(registry))


# -- diagonals ---------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalSeries:
    """Diagonal coefficient data: for kind 'g' a mapping multi-index ->
    N(k1,k1,...,kn,kn); for kind 'h' the list over k of N(k,...,k)."""

    n: int
    kind: str
    coefficients: object


def g_diagonal(n: int, D: int) -> DiagonalSeries:
    """Coefficients of the diagonal generating function in x1..xn, read off
    f_series at the exponents with ki = li, up to total z/w-degree D."""
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
    return DiagonalSeries(n, "g", out)


def h_diagonal(n: int, K: int) -> DiagonalSeries:
    """The fully diagonal coefficients N(k,k,...,k) for k <= K, computed
    through the moment recursion so large k stays cheap."""
    if n < 1 or K < 0:
        raise ValueError("need n >= 1 and K >= 0")
    coeffs = [n_value((k,) * (2 * n)) for k in range(K + 1)]
    return DiagonalSeries(n, "h", coeffs)


# -- conjecture checkers ------------------------------------------------------------


def check_conjecture(n: int, K: int) -> dict:
    """Compare N(k,...,k) on n pairs against n^(nk) for k <= K.

    Returns a report, never asserts.  The equality holds for every n: it
    was proved by P. Sniady, "Multinomial identities arising from free
    probability theory", J. Combin. Theory Ser. A 101 (2003).  The checker
    stays as a regression oracle for the moment recursion.
    """
    if n < 1 or K < 0:
        raise ValueError("need n >= 1 and K >= 0")
    rows = []
    first = None
    for k in range(K + 1):
        computed = n_value((k,) * (2 * n))
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
