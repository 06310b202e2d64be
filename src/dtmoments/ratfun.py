"""Closed rational forms for graded products of geometric series.

A term a_1...a_k / ((1-u_1)...(1-u_m)) with degree-N forms u_i multiplies
under the graded product into a single fraction whose denominator collects
all pairwise sums u_i + v_j and whose numerator is a universal polynomial
P^{k,l}_{m,n} in abstract u/v symbols.  This module builds that polynomial
by exact division, applies it to concrete forms, and expands the resulting
rational expressions back into truncated series.
"""

import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, product
from operator import add, itemgetter, or_

from .fps import (
    Series,
    VariableRegistry,
    _clean_terms,
    _json_int,
    _in_key_order,
    _json_terms,
    _Packing,
    _padd_into,
    _pdiv_one_minus,
    _pmul_trunc,
    _poly_pretty,
    _premap,
    _pshift,
    _rename_positions,
    _tmover,
    _tmul,
    _tremap,
    _tscale,
    _Value,
)


class ExactDivisionError(ArithmeticError):
    """A division that must be remainder-free left a remainder (a bug)."""


class DistinctnessViolation(ValueError):
    """The pairwise sums u_i + v_j of a closed product are not distinct."""


# -- the P kernel on packed dicts ---------------------------------------------------
#
# Building P runs in the fps._Packing layout; the exact linear division
# lives here, next to ExactDivisionError.  Every helper keeps the degree
# field exact.


def _power(packing: _Packing, i: int, x: int = 1) -> int:
    """The packed monomial x_i^x."""
    return packing.mono([x if j == i else 0 for j in range(len(packing.shifts))])


def _div_walk(buckets: list, packing: _Packing, main: int, other: int) -> dict:
    """The synthetic division by x_main - x_other of a dividend already
    split into ``buckets`` by its degree in x_main.

    The buckets are walked from the top degree down.  Bucket d, once the
    higher buckets have pushed into it, divided by x_main is the quotient's
    part of degree d-1 in x_main; that part times x_other is added to
    bucket d-1.  What is left in bucket 0 is the remainder, and a nonzero
    remainder raises ExactDivisionError.  Zero coefficients in a bucket are
    skipped.
    """
    unit = _power(packing, main)
    other_unit = _power(packing, other)
    quot: dict = {}
    for d in range(len(buckets) - 1, 0, -1):
        lower = buckets[d - 1]
        get = lower.get
        for e, c in buckets[d].items():
            if c:
                q = e - unit
                quot[q] = c
                key = q + other_unit
                lower[key] = get(key, 0) + c
    if any(buckets[0].values()):
        raise ExactDivisionError("division expected to be exact left a remainder")
    return quot


def _newton_step(window: dict, packing: _Packing, b: int) -> dict:
    """(swap(window) - window) / (x_b - x_0), where swap exchanges the
    exponents of x_0 and x_b, in one pass over the window.

    Each term c*e puts -c at e and +c at swap(e) straight into the buckets
    of _div_walk, by their degree in x_b (e's x_b exponent and e's x_0
    exponent); a term whose two exponents are equal is its own swap and
    cancels, so it is skipped.  The swap keeps the total degree, and so the
    degree field, unchanged.
    """
    mask = packing.mask
    s0 = packing.shifts[0]
    sb = packing.shifts[b]
    delta = (1 << s0) - (1 << sb)
    buckets: list = [{} for _ in range(mask + 1)]
    for e, c in window.items():
        x0 = (e >> s0) & mask
        xb = (e >> sb) & mask
        if x0 != xb:
            here = buckets[xb]
            here[e] = here.get(e, 0) - c
            swapped = e + (xb - x0) * delta
            there = buckets[x0]
            there[swapped] = there.get(swapped, 0) + c
    return _div_walk(buckets, packing, b, 0)


# -- symbolic polynomials ------------------------------------------------------------


class SymPoly(_Value):
    """Sparse polynomial in named abstract symbols with exact coefficients."""

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols, terms=()):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise ValueError("symbols must be distinct")
        self._fill(symbols, _clean_terms(terms, len(symbols)))

    # -- constructors --

    @classmethod
    def constant(cls, symbols, c) -> "SymPoly":
        return cls(symbols, {(0,) * len(tuple(symbols)): c})

    @classmethod
    def one(cls, symbols) -> "SymPoly":
        return cls.constant(symbols, 1)

    @classmethod
    def zero(cls, symbols) -> "SymPoly":
        return cls(symbols, {})

    @classmethod
    def symbol(cls, symbols, name) -> "SymPoly":
        symbols = tuple(symbols)
        e = [0] * len(symbols)
        e[symbols.index(name)] = 1
        return cls(symbols, {tuple(e): 1})

    # -- basics --

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self):
        return list(_in_key_order(self.terms))

    def _require_same(self, other: "SymPoly") -> None:
        if self.symbols != other.symbols:
            raise ValueError("operands use different symbol tuples")

    def __repr__(self):
        return f"SymPoly({self.pretty()})"

    # -- arithmetic --

    def __add__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        self._require_same(other)
        terms = dict(self.terms)
        _padd_into(terms, other.terms)
        return SymPoly._make(self.symbols, terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            terms = _tscale(self.terms, other, len(self.symbols))
            return SymPoly._make(self.symbols, terms)
        if not isinstance(other, SymPoly):
            return NotImplemented
        self._require_same(other)
        return SymPoly._make(self.symbols, _tmul(self.terms, other.terms))

    __rmul__ = __mul__

    # -- rendering --

    def pretty(self, names=None) -> str:
        """Human form, e.g. '2 - u1 - u2 - v1 - v2'."""
        return _poly_pretty(self.symbols, self.terms, names)

    def to_json_dict(self) -> dict:
        return {"symbols": list(self.symbols), "terms": _json_terms(self.terms)}


# -- the universal numerator polynomials ----------------------------------------------


@lru_cache(maxsize=None)
def uv_symbols(m: int, n: int) -> tuple:
    return tuple(f"u{i}" for i in range(1, m + 1)) + tuple(
        f"v{j}" for j in range(1, n + 1)
    )


def _p_packing(m: int, n: int) -> _Packing:
    # node values have degree K + L + (m-1)n, largest at k = l = 0, and the
    # Newton table only lowers degrees
    return _Packing(m + n, (m - 1) * n + (m - 1) + (n - 1))


@lru_cache(maxsize=None)
def _row_orbits(m: int, n: int) -> dict:
    """The terms of prod of (1 - u_i - v_j) over all cells outside row 0
    whose v exponents do not increase, packed in _p_packing(m, n): one
    term per orbit of the v permutations, which fix the product.

    The product is prod_j h(v_j) with h(y) = prod_{i>=1}(1 - u_i - y)
    = sum_r a_r(u) y^r, so the coefficient of v^lam is prod_j a_{lam_j}:
    one small product of the a_r per non-increasing lam, C(n+m-1, n) in
    all.  No term is dropped: the product's degree is (m-1)n.
    """
    packing = _p_packing(m, n)
    mask = packing.mask
    limit = (m - 1) * n
    a = [{0: 1}]  # a[r]: the coefficient of y^r in h(y), so far
    for i in range(1, m):
        u_i = _power(packing, i)
        a.append({})
        for r in range(len(a) - 1, -1, -1):
            # a[r] <- a[r] (1 - u_i) - a[r-1]
            _padd_into(a[r], _pshift(a[r], u_i, mask, limit), -1)
            if r:
                _padd_into(a[r], a[r - 1], -1)
    out = {}
    for lam in combinations_with_replacement(range(m - 1, -1, -1), n):
        shift = packing.mono((0,) * m + lam)
        coeff = reduce(lambda p, r: _pmul_trunc(p, a[r], mask, limit), lam, {0: 1})
        for e, c in coeff.items():
            out[e + shift] = c
    return out


def _orbit(v: tuple, orbits: dict) -> list:
    """The distinct permutations of the non-increasing tuple v in
    decreasing lexicographic order, the order dict.fromkeys(permutations(v))
    lists them in, without walking all len(v)! permutations.  ``orbits``
    holds the ones already built, by v."""
    orbit = orbits.get(v)
    if orbit is None:
        orbit = [] if v else [()]
        for i, x in enumerate(v):
            if not i or x != v[i - 1]:  # each distinct value once, largest first
                orbit.extend([(x,) + w for w in _orbit(v[:i] + v[i + 1 :], orbits)])
        orbits[v] = orbit
    return orbit


def _spread(window: dict, packing: _Packing, m: int) -> dict:
    """The v-symmetric polynomial whose terms with non-increasing v
    exponents are ``window``, unpacked: each term goes to every distinct
    permutation of its v exponents, in _orbit's order."""
    mask = packing.mask
    u_shifts = packing.shifts[:m]
    v_shifts = packing.shifts[m:]
    orbits: dict = {}
    out = {}
    for e, c in window.items():
        u = tuple([(e >> s) & mask for s in u_shifts])
        for w in _orbit(tuple([(e >> s) & mask for s in v_shifts]), orbits):
            out[u + w] = c
    return out


def p_polynomial(m: int, n: int, k: int, l: int) -> SymPoly:
    """The closed-form product numerator: the signed double sum

        Q = sum_{i,j} (-1)^(i+j) u_i^K v_j^L prod_{(i',j')!=(i,j)}(1 - u_i' - v_j')
                  * prod_{p<q; p,q!=i}(u_p - u_q) * prod_{r<s; r,s!=j}(v_r - v_s)

    divided exactly by both difference products prod_{p<q}(u_p-u_q) and
    prod_{r<s}(v_r-v_s), with K = m-k-1, L = n-l-1.

    Summing that double sum over each column in closed form first
    collapses the quotient to a single sum over rows,

        P = sum_i u_i^K (1-u_i)^L prod_{i'!=i, j}(1 - u_i' - v_j)
                  / prod_{p!=i}(u_i - u_p).

    The column sum is a divided difference of y^L/(1-x-y) over the v's,
    which kills the polynomial part of degree <= n-2 and turns the pole
    into prod_j(1-x-v_j).  The remaining row sum
    is the (m-1)-st divided difference D[0..m-1] over the u's of the node
    values N_i = u_i^K (1-u_i)^L prod_{i'!=i, j}(1 - u_i' - v_j), reached
    along the Newton recurrence

        D[0..b] = (D[1..b] - D[0..b-1]) / (u_b - u_0).

    N_i is N_0 with u_0 and u_i exchanged, so exchanging u_0 and u_b turns
    the window sum D[0..b-1] into D[1..b].  Each step therefore divides
    swap(D) - D, which changes sign under that exchange and so is divisible
    by u_b - u_0: m-1 exact linear divisions in all.  Compared with dividing
    Q directly this keeps intermediates near the size of P itself instead
    of the size of Q.

    P is linear in the window u_0^K (1-u_0)^L prod_{i'!=0, j}(1 - u_i' - v_j),
    and u^K (1-u)^L = u^K (1-u)^(L-1) - u^(K+1) (1-u)^(L-1), so for k >= 1
    and l <= n-2

        P(k, l) = P(k, l+1) - P(k-1, l+1).

    Only the boundary cells, the row l = n-1 and the column k = 0, run the
    Newton steps; every other cell of the (m, n) grid is one subtraction of
    two neighbours.  Two exact symmetries cut the boundary cells' work:

    - The window is fixed by every permutation of v_1..v_n, and a Newton
      step touches only the u_0 and u_b exponents, so it commutes with
      those permutations and never mixes terms of different v exponents.
      The steps therefore run on the terms whose v exponents do not
      increase alone, and P is read off by spreading each over the
      permutations of its v exponents.
    - The double sum Q and both difference products are unchanged when
      (u, m, K) and (v, n, L) trade places, so
      P^{k,l}_{m,n}(u; v) = P^{l,k}_{n,m}(v; u).  For m > n a boundary cell
      is the mirror of the (n, m) cell, whose n-1 steps run on a row
      product of fewer factors.

    Each cell is built once and cached, so repeated calls return the same
    object.  Every argument must be an int (not a bool).
    """
    for name, x in zip("mnkl", (m, n, k, l)):
        _json_int(x, name)
    if not (0 <= k <= m - 1 and 0 <= l <= n - 1):
        raise ValueError("need 0 <= k <= m-1 and 0 <= l <= n-1")
    return _p_cell(m, n, k, l)


@lru_cache(maxsize=None)
def _p_cell(m: int, n: int, k: int, l: int) -> SymPoly:
    """p_polynomial without the argument check: an inner cell by the cell
    recurrence, a boundary cell with m > n as the mirror of the (n, m)
    cell, and any other boundary cell by divided differences on one term
    per v-orbit."""
    symbols = uv_symbols(m, n)
    if k and l < n - 1:
        terms = dict(_p_cell(m, n, k, l + 1).terms)
        _padd_into(terms, _p_cell(m, n, k - 1, l + 1).terms, -1)
        return SymPoly._make(symbols, terms)
    if m > n:
        mirror = _p_cell(n, m, l, k).terms
        return SymPoly._make(symbols, {e[n:] + e[:n]: c for e, c in mirror.items()})
    K = m - k - 1
    L = n - l - 1
    packing = _p_packing(m, n)
    row = _row_orbits(m, n)
    limit = K + L + (m - 1) * n  # the window's degree: no term is dropped
    # window = u_0^K (1 - u_0)^L * row, one shifted copy of row per power of u_0
    window = _pshift(row, _power(packing, 0, K), packing.mask, limit)
    for t in range(1, L + 1):
        mono = _power(packing, 0, K + t)
        _padd_into(window, _pshift(row, mono, packing.mask, limit), (-1) ** t * math.comb(L, t))
    for b in range(1, m):
        window = _newton_step(window, packing, b)
    return SymPoly._make(symbols, _spread(window, packing, m))


# -- concrete degree-N forms and rational expressions -----------------------------------


_ZW_NAME = re.compile(r"^([zw])([0-9]+)$")


@lru_cache(maxsize=None)
def _display_order(registry: VariableRegistry) -> tuple:
    """Variable positions in display order: all z's by index, then all w's,
    when the names follow the z/w convention; plain registry order else."""
    keys = []
    for pos, name in enumerate(registry.names):
        m = _ZW_NAME.match(name)
        if not m:
            return tuple(range(registry.size))
        keys.append((0 if m.group(1) == "z" else 1, int(m.group(2)), pos))
    return tuple(pos for _, _, pos in sorted(keys))


def _display_mono(registry: VariableRegistry, exps) -> str:
    names = registry.names
    order = _display_order(registry)
    return "".join(
        [names[p] if exps[p] == 1 else f"{names[p]}^{exps[p]}" for p in order if exps[p]]
    )


def form_id(form: Series) -> str:
    """Canonical identifier of a form: its canonical rendering.  Equal
    polynomials get equal ids, term order is fixed by sorted_terms."""
    if form.is_zero():
        raise ValueError("the zero polynomial cannot be a denominator form")
    pieces = []
    for exps, c in form.sorted_terms():
        mono = _display_mono(form.registry, exps)
        num, den = c.numerator, c.denominator
        if den != 1:
            body = f"{num}/{den}{mono}"
        elif num == 1:
            body = mono or "1"
        elif num == -1:
            body = f"-{mono or '1'}"
        else:
            body = f"{num}{mono}"
        pieces.append(body)
    return "+".join(pieces).replace("+-", "-")


class FormTable:
    """Insertion-ordered registry of concrete degree-N forms keyed by their
    canonical ids.  ``add`` is the only place the package renders an id, so
    every key equals form_id of its form; a form already in some table moves
    to another by its key, never rendered again."""

    def __init__(self, registry: VariableRegistry):
        self.registry = registry
        self.forms: dict[str, Series] = {}

    def add(self, form: Series) -> str:
        if form.registry != self.registry:
            raise ValueError("form registry differs from the table registry")
        N = self.registry.modulus
        if any(sum(e) != N for e in form.terms):
            raise ValueError(f"denominator forms must be homogeneous of degree {N}")
        fid = form_id(form)
        if fid not in self.forms:
            # every term has degree N, so only the bound may need changing
            self.forms[fid] = (
                form if form.trunc == N else Series._make(self.registry, N, form.terms)
            )
        return fid

    def copy(self) -> "FormTable":
        """A new table with this table's forms, copied by key without
        rendering any id again."""
        out = FormTable(self.registry)
        out.forms.update(self.forms)
        return out

    def __contains__(self, fid: str) -> bool:
        return fid in self.forms

    def display_names(self) -> dict[str, str]:
        """Stable short aliases u1, u2, ... in insertion order."""
        return {fid: f"u{i}" for i, fid in enumerate(self.forms, start=1)}


def _check_prefix(registry: VariableRegistry, prefix: tuple) -> None:
    if len(prefix) != registry.size:
        raise ValueError("prefix exponents do not match the registry")
    if any(not isinstance(x, int) or x < 0 for x in prefix):
        raise ValueError(f"prefix exponents must be nonnegative integers, got {prefix}")
    if sum(prefix) % registry.modulus != 0:
        raise ValueError("prefix degree breaks the support constraint")


# -- packed numerators ------------------------------------------------------------------


class RationalTerm(_Value):
    """prefix * numerator / prod_{id in denominator} (1 - form_id).

    The numerator is kept packed in the fps._Packing layout: ``fields`` are
    its form ids in layout order, ``packing`` the layout over them, and
    ``packed`` maps packed monomials to nonzero coefficients.  The
    ``symbols`` property gives the same ids sorted, the order in which the
    numerator is displayed, whatever the layout order.  The closed product,
    merging, renaming, expansion and rendering read the packed form; the
    ``numerator`` property builds the SymPoly over ``symbols`` on demand.
    Terms compare by prefix, denominator and numerator, whichever way
    their numerators are laid out.
    """

    __slots__ = ("prefix", "denominator", "fields", "packing", "packed")

    def __init__(self, prefix, numerator: SymPoly, denominator):
        if not isinstance(numerator, SymPoly):
            raise TypeError("a term's numerator must be a SymPoly")
        degree = numerator.degree()
        packing = _Packing(len(numerator.symbols), degree)
        packed = packing.pack(numerator.terms, degree)
        self._fill(prefix, denominator, numerator.symbols, packing, packed)

    def _with(self, prefix, denominator) -> "RationalTerm":
        """The same numerator over another prefix and denominator."""
        return self._make(prefix, denominator, self.fields, self.packing, self.packed)

    @property
    def symbols(self) -> tuple:
        return tuple(sorted(self.fields))

    def _numerator_terms(self) -> dict:
        """The numerator's terms, keyed by exponent tuples over symbols."""
        return self.packing.unpack(self.packed, [self.fields.index(s) for s in self.symbols])

    @property
    def numerator(self) -> SymPoly:
        return SymPoly._make(self.symbols, self._numerator_terms())

    def __eq__(self, other):
        if not isinstance(other, RationalTerm):
            return NotImplemented
        return (self.prefix, self.denominator, self.symbols, self._numerator_terms()) == (
            other.prefix, other.denominator, other.symbols, other._numerator_terms()
        )

    def __repr__(self):
        return (
            f"RationalTerm(prefix={self.prefix!r}, numerator={self.numerator!r}, "
            f"denominator={self.denominator!r})"
        )


def _added(a: RationalTerm, b: RationalTerm) -> RationalTerm:
    """a + b for two terms of one prefix and denominator: the numerators add
    over the union of their fields, a's first, in the wider of the two
    layouts.  The fields, and so the symbols, keep the whole union, even
    where the sum cancels one of them."""
    fields = a.fields + tuple(s for s in b.fields if s not in a.fields)
    # a layout's mask is the largest degree it holds
    packing = _Packing(len(fields), max(a.packing.mask, b.packing.mask))
    slot = {s: i for i, s in enumerate(fields)}
    packed = _premap(a.packed, a.packing, packing, range(len(a.fields)))
    _padd_into(packed, _premap(b.packed, b.packing, packing, [slot[s] for s in b.fields]))
    return RationalTerm._make(a.prefix, a.denominator, fields, packing, packed)


class RationalExpr(_Value):
    """A sum of rational terms over a shared form table.

    The expression owns its table: the constructor keeps a copy of the
    table it is given, and ``table`` hands out a copy, so that no caller can
    add a form to an expression, cached or not.
    """

    __slots__ = ("registry", "_table", "terms")

    def __init__(self, registry: VariableRegistry, table: FormTable, terms):
        terms = tuple(terms)
        if table.registry != registry:
            raise ValueError("form table registry differs from the expression registry")
        for t in terms:
            _check_prefix(registry, t.prefix)
            for fid in t.denominator:
                if fid not in table:
                    raise ValueError(f"denominator id {fid!r} missing from the form table")
            for s in t.fields:
                if s not in table:
                    raise ValueError(f"numerator symbol {s!r} missing from the form table")
        self._fill(registry, table.copy(), terms)

    # -- constructors --

    @classmethod
    def single(cls, registry, prefix, numerator, denominators) -> "RationalExpr":
        """One term.  ``numerator`` is a constant or a SymPoly whose symbols
        are canonical form ids; ``denominators`` are concrete form Series."""
        table = FormTable(registry)
        ids = sorted(table.add(f) for f in denominators)
        if isinstance(numerator, (int, Fraction)):
            numerator = SymPoly.constant((), numerator)
        term = RationalTerm(tuple(prefix), numerator, tuple(ids))
        return cls(registry, table, [term])

    @classmethod
    def geometric_term(cls, registry, form: Series) -> "RationalExpr":
        """1/(1 - form)."""
        return cls.single(registry, (0,) * registry.size, 1, [form])

    @property
    def table(self) -> FormTable:
        """A copy of the form table; adding to it leaves the expression as is."""
        return self._table.copy()

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return (
            self.registry == other.registry
            and self._table.forms == other._table.forms
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"RationalExpr({len(self.terms)} terms, {len(self._table.forms)} forms)"

    # -- algebra --

    @staticmethod
    def _merged(terms) -> tuple:
        keyed: dict = {}
        for t in terms:
            key = (t.prefix, t.denominator)
            old = keyed.get(key)
            keyed[key] = t if old is None else _added(old, t)
        return tuple(t for t in keyed.values() if t.packed)

    @classmethod
    def _sum(cls, exprs) -> "RationalExpr":
        """The sum of one or more expressions in one pass: every form joins
        one table by key and _merged walks every term once.  ``exprs`` may
        be a generator; each expression, its table included, is dropped once
        its terms are in."""
        exprs = iter(exprs)
        first = next(exprs)
        table = first._table.copy()

        def terms():
            yield from first.terms
            for e in exprs:
                if e.registry != first.registry:
                    raise ValueError("operands live over different variable registries")
                for fid, f in e._table.forms.items():
                    table.forms.setdefault(fid, f)
                yield from e.terms

        return cls._make(first.registry, table, cls._merged(terms()))

    def __add__(self, other):
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return RationalExpr._sum((self, other))

    def scale_prefix(self, exps) -> "RationalExpr":
        exps = tuple(exps)
        _check_prefix(self.registry, exps)
        terms = tuple(t._with(tuple(map(add, t.prefix, exps)), t.denominator) for t in self.terms)
        return RationalExpr._make(self.registry, self._table, terms)

    def with_denominator(self, form: Series) -> "RationalExpr":
        """Multiply the whole expression by 1/(1 - form)."""
        table = self._table.copy()
        fid = table.add(form)
        terms = tuple(t._with(t.prefix, tuple(sorted(t.denominator + (fid,)))) for t in self.terms)
        return RationalExpr._make(self.registry, table, terms)

    def substitute(self, target: VariableRegistry, name_map: dict) -> "RationalExpr":
        """Rename variables into another registry; form ids are recomputed.
        ``name_map`` runs Series.rename's checks once per call, so an
        expression without forms is checked too."""
        where = _rename_positions(self.registry, target, name_map)
        return self._placed(target, where, (0,) * target.size, _ProductMemo())

    def _placed(self, target, where, prefix: tuple, memo) -> "RationalExpr":
        """The expression with source variable i at position where[i] of
        ``target`` and every term times the monomial ``prefix``, in one
        unchecked pass: each distinct source prefix moves once, and a form
        whose terms ``memo`` holds is not rendered again.  Distinct forms
        stay distinct, so each numerator keeps its packed terms and only its
        fields are relabelled."""
        move = _tmover(where, target.size)
        table, rename, moved, terms = FormTable(target), {}, {}, []
        for fid, f in self._table.forms.items():
            rename[fid], form = memo.form(target, {move(e): c for e, c in f.terms.items()})
            table.forms[rename[fid]] = form
        for t in self.terms:
            if t.prefix not in moved:
                moved[t.prefix] = tuple(map(add, move(t.prefix), prefix))
            dens = tuple(sorted(map(rename.get, t.denominator)))
            syms = tuple(map(rename.get, t.fields))
            terms.append(RationalTerm._make(moved[t.prefix], dens, syms, t.packing, t.packed))
        return RationalExpr._make(target, table, tuple(terms))

    # -- evaluation --

    def expand(self, trunc: int) -> Series:
        """The expression as a series truncated at total degree ``trunc``.

        Runs on packed exponents in f_series's layout, _Packing(size,
        max(trunc, 255)), so the final unpack reads bytes.  Each numerator
        is evaluated at the packed forms (its terms of degree k give degree
        kN, so those past the budget are skipped, and a form is packed when
        first used) and shifted by its prefix.  Division by 1 - u is linear
        and commutes with the shift, so the parts are divided through a trie
        over the denominator ids, the ids every term holds first: terms that
        share a leading run of ids, adjacent in sorted order, sum before the
        division by each id of the run, and only the sums on one open path
        are alive at a time.  A part with no term of degree <= trunc - N is
        its own quotient.  The tests check it against ``geometric(u, D)``.
        ``trunc`` must be an int >= 0, not a bool.
        """
        if _json_int(trunc, "truncation bound") < 0:
            raise ValueError("truncation bound must be >= 0")
        packing = _Packing(self.registry.size, max(trunc, 255))
        mask = packing.mask
        N = self.registry.modulus
        low = trunc - N  # a part with no term of degree <= low is its own quotient
        # packed on first use: a term past its budget needs none of its forms
        form = lru_cache(maxsize=None)(lambda f: packing.pack(self._table.forms[f].terms, trunc))
        powers: dict = {}
        shift = lru_cache(maxsize=None)(packing.mono)

        def power(fid: str, k: int) -> dict:
            if (fid, k) not in powers:
                lower = {0: 1} if k == 1 else power(fid, k - 1)
                powers[fid, k] = _pmul_trunc(lower, form(fid), mask, trunc)
            return powers[fid, k]

        shared = set(self.terms[0].denominator if self.terms else ())
        shared.intersection_update(*(t.denominator for t in self.terms))

        def trie_path(t: RationalTerm) -> list:  # shared ids first, both runs still sorted
            return sorted(t.denominator, key=shared.__contains__, reverse=True)

        path, sums = [], [{}]  # the open trie nodes' ids, root first, and their sums

        def add(part: dict) -> None:  # to the deepest open sum; the larger dict takes the other
            if len(part) > len(sums[-1]):
                part, sums[-1] = sums[-1], part
            _padd_into(sums[-1], part)

        def close(depth: int) -> None:
            while len(path) > depth:
                fid, part = path.pop(), sums.pop()
                if any(e & mask <= low for e in part):
                    part = _pdiv_one_minus(part, form(fid), mask, trunc)
                add(part)

        for ids, t in sorted(zip(map(trie_path, self.terms), self.terms), key=itemgetter(0)):
            budget = trunc - sum(t.prefix)
            fmask = t.packing.mask
            fields = list(zip(t.fields, t.packing.shifts))
            part: dict = {}
            for e, c in t.packed.items() if budget >= 0 else ():
                if (e & fmask) * N <= budget:
                    factors = [power(s, x) for s, w in fields if (x := (e >> w) & fmask)]
                    mono = factors[0] if factors else {0: 1}
                    for f in factors[1:]:
                        mono = _pmul_trunc(mono, f, mask, budget)
                    _padd_into(part, mono, c)
            if part:  # so budget >= 0; the shift drops what lies above it
                pairs = enumerate(zip(path, ids))
                close(next((i for i, (a, b) in pairs if a != b), min(len(path), len(ids))))
                sums += [{} for _ in ids[len(path):]]
                path += ids[len(path):]
                add(_pshift(part, shift(t.prefix), mask, trunc))
        close(0)
        return Series._make(self.registry, trunc, packing.unpack(sums[0]))

    # -- rendering --

    def pretty(self) -> str:
        return "".join(self._pretty_chunks())

    def _pretty_chunks(self):
        """pretty() piece by piece: each form line, then each term, so that
        a caller can write out a large expression without holding its text."""
        alias = self._table.display_names()
        for fid in self._table.forms:
            yield f"{alias[fid]} = {fid}\n"
        if not self.terms:
            yield "0"
        for i, t in enumerate(self.terms):
            mono = _display_mono(self.registry, t.prefix)
            terms = t._numerator_terms()
            num = _poly_pretty(t.symbols, terms, alias)
            if num == "1":
                top = mono or "1"
            elif len(terms) > 1 or mono:
                top = f"{mono}({num})" if mono else f"({num})"
            else:
                top = num
            den = "".join(f"(1-{alias[fid]})" for fid in t.denominator)
            if len(t.denominator) > 1:
                den = f"({den})"
            yield (" + " if i else "") + (f"{top}/{den}" if den else top)

    def to_json_dict(self) -> dict:
        return {"terms": [self._json_term(t) for t in self.terms], "forms": self._json_forms()}

    def _json_forms(self) -> dict:
        return {fid: f.to_json_dict() for fid, f in self._table.forms.items()}

    def _json_term(self, t: RationalTerm) -> dict:
        """One entry of to_json_dict's terms, so that a caller can write the
        terms out one at a time."""
        zs: list[int] = []
        ws: list[int] = []
        for i in range(self.registry.pair_count):
            zs.extend([i + 1] * t.prefix[2 * i])
            ws.extend([i + 1] * t.prefix[2 * i + 1])
        return {
            "prefix": {"z": zs, "w": ws},
            "numerator": {
                "symbols": list(t.symbols),
                "terms": _json_terms(t._numerator_terms()),
            },
            "denominator": list(t.denominator),
        }


# -- the closed product ------------------------------------------------------------------


class _ProductMemo:
    """What the closed products and placements over one registry may share:
    each form's id and form keyed by its terms, so each distinct form is
    rendered once, and each pair sum's by (u_id, v_id) as well (ids fix
    forms within a registry); P's shapes and packed pieces; the numerator
    layouts of pairs whose numerators are both 1, one template per shape
    (see _odot_pair); and one int object per packed monomial value for the
    numerators' keys.  f_rational keeps one for the length of a call;
    odot_closed and substitute make one per call."""

    __slots__ = ("sums", "shapes", "packed", "templates", "keys")

    def __init__(self):
        self.sums, self.shapes, self.packed, self.templates, self.keys = {}, {}, {}, {}, {}

    def form(self, registry: VariableRegistry, terms: dict) -> tuple:
        """(id, form) of the degree-N form with ``terms``, rendered once."""
        content = frozenset(terms.items())
        if content not in self.sums:
            form = Series._make(registry, registry.modulus, terms)
            self.sums[content] = FormTable(registry).add(form), form
        return self.sums[content]

    def shape(self, m: int, n: int, ks: frozenset, ls: frozenset) -> tuple:
        """(degree, used) over the pieces P^{k,l}_{m,n}, k in ks and l in ls:
        the largest degree among them and the positions of the u/v symbols
        any of them uses, in u1..um, v1..vn order."""
        key = (m, n, ks, ls)
        if key not in self.shapes:
            polys = [p_polynomial(m, n, k, l) for k in ks for l in ls]
            used = [p for p in range(m + n) if any(e[p] for q in polys for e in q.terms)]
            self.shapes[key] = max((q.degree() for q in polys), default=0), used
        return self.shapes[key]

    def packed_piece(self, m: int, n: int, k: int, l: int, packing: _Packing, where) -> dict:
        """P^{k,l}_{m,n} packed in ``packing``, its u/v position p at variable
        where[p]; positions that share a variable add.  A packed monomial
        depends on the layout only through its width and ``where``.  The
        keys are the memo's shared ints, so that a product whose numerators
        are both 1 can keep the piece itself."""
        key = (m, n, k, l, packing.width, where)
        if key not in self.packed:
            terms = _tremap(p_polynomial(m, n, k, l).terms, where, len(packing.shifts))
            packed = packing.pack(terms, packing.mask)
            self.packed[key] = {self.keys.setdefault(e, e): c for e, c in packed.items()}
        return self.packed[key]


def _odot_pair(
    registry, table, forms1, t1: RationalTerm, forms2, t2: RationalTerm, memo: _ProductMemo
) -> RationalTerm:
    """One term pair of the closed product: the id part here, the numerator
    part in _pair_numerator.

    Each pair sum comes from ``memo``, built and rendered there the first
    time the call meets it, and all of them enter ``table`` by key where
    table.add would have put them, so the table keeps its row-major order:
    this pair's sums, then its numerator symbols, which move over from the
    operand tables by id.  A pair whose numerators are both 1 reads its
    numerator part off a template that the memo keeps per (m, n, k_pref,
    l_pref, which of u_ids + v_ids coincide), laid out once on the
    positions of u_ids + v_ids in place of their ids.
    """
    m = len(t1.denominator)
    n = len(t2.denominator)
    if m == 0 or n == 0:
        raise ValueError("closed products need at least one denominator factor per side")
    N = registry.modulus
    u_ids = t1.denominator
    v_ids = t2.denominator
    known = list(map(memo.sums.get, product(u_ids, v_ids)))
    for i, (a, b) in enumerate(product(u_ids, v_ids)):
        if known[i] is None:
            terms = dict(forms1[a].terms)
            _padd_into(terms, forms2[b].terms)
            known[i] = memo.sums[a, b] = memo.form(registry, terms)
    table.forms.update(known)
    flat, _ = zip(*known)
    if len(set(flat)) != m * n:
        collisions = sorted(fid for fid, cnt in Counter(flat).items() if cnt > 1)
        raise DistinctnessViolation(
            "pairwise denominator sums collide: " + "; ".join(collisions)
        )

    k_pref = sum(t1.prefix) // N
    l_pref = sum(t2.prefix) // N
    ks = frozenset([k_pref + (e & t1.packing.mask) for e in t1.packed])
    ls = frozenset([l_pref + (e & t2.packing.mask) for e in t2.packed])
    if ks and ls and (max(ks) > m - 1 or max(ls) > n - 1):
        raise ValueError("closed product needs (prefix + numerator) shorter than the denominator")
    uv = u_ids + v_ids
    if t1.packed == t2.packed == {0: 1}:  # no one changes a term's packed dict
        at = tuple(map(uv.index, uv))  # each id's first position in uv
        key = (m, n, k_pref, l_pref, at)
        if key not in memo.templates:
            memo.templates[key] = _pair_numerator(memo, m, n, at, ks, ls, k_pref, l_pref, t1, t2)
        fields, packing, acc = memo.templates[key]
        fields = list(map(uv.__getitem__, fields))
    else:
        fields, packing, acc = _pair_numerator(memo, m, n, uv, ks, ls, k_pref, l_pref, t1, t2)
    # in sorted order: the table's insertion order sets its u1, u2, ... aliases
    for s in sorted(fields):
        table.forms.setdefault(s, forms1[s] if s in forms1 else forms2[s])
    prefix = tuple(map(add, t1.prefix, t2.prefix))
    return RationalTerm._make(prefix, tuple(sorted(flat)), tuple(fields), packing, acc)


def _pair_numerator(memo, m, n, uv, ks, ls, k_pref, l_pref, t1, t2) -> tuple:
    """(fields, packing, packed): one pair's numerator over the u/v symbols
    ``uv``, from the pieces P^{k,l}_{m,n}, k in ks and l in ls, and the
    numerators of t1 and t2.

    The layout puts the u/v symbols that the needed pieces use first, in
    u/v order, then the operands' other fields, sorted, so that most pairs
    meet the pieces the memo already packed.  Two numerators 1 give the
    piece itself; else every numerator term pair adds its base monomial
    e1 + e2 to the piece's terms and scales them by c1 * c2.  A field that
    no output term uses is dropped at the end.
    """
    degree, used = memo.shape(m, n, ks, ls)
    # an output term has degree <= deg P + deg num1 + deg num2
    bound = degree + max(ks, default=k_pref) - k_pref + max(ls, default=l_pref) - l_pref
    fields = list(dict.fromkeys(map(uv.__getitem__, used)))
    fields += sorted((set(t1.fields) | set(t2.fields)) - set(fields))
    slot = {s: i for i, s in enumerate(fields)}
    packing = _Packing(len(fields), bound)
    where = tuple(map(slot.get, uv))

    mask = packing.mask
    # equal monomials recur across the products of one memo, so the output
    # keys share one int object per value: at n = 7 the 4.76 M numerator
    # terms of F_7 have 84,528 distinct keys
    share = memo.keys.setdefault
    if t1.packed == t2.packed == {0: 1}:
        acc = memo.packed_piece(m, n, k_pref, l_pref, packing, where)
    else:
        pieces = {(k, l): memo.packed_piece(m, n, k, l, packing, where) for k in ks for l in ls}
        right = _premap(t2.packed, t2.packing, packing, [slot[s] for s in t2.fields])
        # per k_eff, the right terms with the piece each one meets
        rows = {
            k: [(b2, c2, pieces[k, l_pref + (b2 & mask)].items()) for b2, c2 in right.items()]
            for k in ks
        }
        acc = {}
        get = acc.get
        left = _premap(t1.packed, t1.packing, packing, [slot[s] for s in t1.fields])
        for b1, c1 in left.items():
            for b2, c2, piece in rows[k_pref + (b1 & mask)]:
                base = b1 + b2
                c = c1 * c2
                for e, pc in piece:
                    e += base
                    acc[e] = get(e, 0) + c * pc
        acc = {share(e, e): c for e, c in acc.items() if c}
    seen = reduce(or_, acc, 0)
    kept = [s for s in fields if (seen >> packing.shifts[slot[s]]) & mask]
    if len(kept) < len(fields):
        narrow = _Packing(len(kept), bound)
        at = {s: i for i, s in enumerate(kept)}
        acc = _premap(acc, packing, narrow, [at.get(s) for s in fields])
        acc = {share(e, e): c for e, c in acc.items()}
        fields, packing = kept, narrow
    return fields, packing, acc


def odot_closed(e1: RationalExpr, e2: RationalExpr) -> RationalExpr:
    """Graded product of two rational expressions in closed form.

    Works term pair by term pair; every pair must satisfy the distinctness
    precondition (all sums u_i + v_j different), otherwise
    DistinctnessViolation propagates to the caller and the call's table is
    dropped.  Each distinct sum u + v is built and its form id rendered
    once per call.
    """
    return _odot_closed(e1, e2, _ProductMemo())


def _odot_closed(e1: RationalExpr, e2: RationalExpr, memo: _ProductMemo) -> RationalExpr:
    """odot_closed over a ``memo`` that earlier products over the same
    registry filled: f_rational shares one across its products, so a pair
    sum or a packed piece of P that one product made serves the others.
    Every pair still runs all of its checks."""
    if e1.registry != e2.registry:
        raise ValueError("operands live over different variable registries")
    table = FormTable(e1.registry)
    terms = [
        _odot_pair(e1.registry, table, e1._table.forms, t1, e2._table.forms, t2, memo)
        for t1 in e1.terms
        for t2 in e2.terms
    ]
    return RationalExpr._make(e1.registry, table, RationalExpr._merged(terms))


def permutation_form(registry: VariableRegistry, sigma) -> Series:
    """The degree-2 form sum_i z_i w_{sigma(i)} for a permutation of
    0..n-1 given as a tuple of int images (not bools)."""
    if not isinstance(registry, VariableRegistry):
        raise TypeError(f"a form needs a VariableRegistry, got {type(registry).__name__}")
    n = registry.pair_count
    sigma = tuple(sigma)
    if any(type(s) is not int for s in sigma) or sorted(sigma) != list(range(n)):
        raise ValueError(f"{sigma} is not a permutation of 0..{n-1}")
    terms: dict = {}
    for i in range(n):
        e = [0] * registry.size
        e[2 * i] = 1
        e[2 * sigma[i] + 1] = 1
        terms[tuple(e)] = 1
    return Series(registry, 2, terms)


def identity_form(registry: VariableRegistry) -> Series:
    if not isinstance(registry, VariableRegistry):
        raise TypeError(f"a form needs a VariableRegistry, got {type(registry).__name__}")
    return permutation_form(registry, range(registry.pair_count))
