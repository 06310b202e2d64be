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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .fps import (
    Series,
    VariableRegistry,
    _clean_terms,
    _immutable,
    _json_terms,
    _order_key,
    _Packing,
    _padd_into,
    _pdiv_one_minus,
    _pmul_trunc,
    _pshift,
    _rename_positions,
    _split,
    _tmul,
    _tremap,
    _tscale,
)


class ExactDivisionError(ArithmeticError):
    """A division that must be remainder-free left a remainder (a bug)."""


class DistinctnessViolation(ValueError):
    """The pairwise sums u_i + v_j of a closed product are not distinct."""


# -- the P kernel on packed dicts ---------------------------------------------------
#
# Building P runs in the fps._Packing layout; the exact linear division
# lives here, next to ExactDivisionError.  Both helpers keep the degree
# field exact.


def _power(packing: _Packing, i: int, x: int = 1) -> int:
    """The packed monomial x_i^x."""
    return packing.mono([x if j == i else 0 for j in range(len(packing.shifts))])


def _swapped(terms: dict, packing: _Packing, a: int, b: int) -> dict:
    """The same polynomial with the exponents of x_a and x_b exchanged; the
    total degree, and so the degree field, is unchanged."""
    mask = packing.mask
    sa = packing.shifts[a]
    sb = packing.shifts[b]
    delta = (1 << sa) - (1 << sb)
    return {e + (((e >> sb) & mask) - ((e >> sa) & mask)) * delta: c for e, c in terms.items()}


def _div_linear(terms: dict, packing: _Packing, main: int, other: int) -> dict:
    """Exact division by x_main - x_other.

    Synthetic division on buckets: the dividend is split once by its degree
    in x_main, then the buckets are walked from the top degree down.  Bucket
    d, once the higher buckets have pushed into it, divided by x_main is the
    quotient's part of degree d-1 in x_main; that part times x_other is
    added to bucket d-1.  What is left in bucket 0 is the remainder, and a
    nonzero remainder raises ExactDivisionError.
    """
    shift = packing.shifts[main]
    mask = packing.mask
    unit = _power(packing, main)
    other_unit = _power(packing, other)
    buckets: list = [{} for _ in range(mask + 1)]
    for e, c in terms.items():
        buckets[(e >> shift) & mask][e] = c
    quot: dict = {}
    for d in range(mask, 0, -1):
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


# -- symbolic polynomials ------------------------------------------------------------


class SymPoly:
    """Sparse polynomial in named abstract symbols with exact coefficients."""

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols, terms=(), _checked=False):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise ValueError("symbols must be distinct")
        self.symbols = symbols
        self.terms = terms if _checked else _clean_terms(terms, len(symbols))

    __setattr__ = _immutable("terms")

    # -- constructors --

    @classmethod
    def constant(cls, symbols, c) -> "SymPoly":
        return cls(symbols, {(0,) * len(tuple(symbols)): c})

    @classmethod
    def one(cls, symbols) -> "SymPoly":
        return cls.constant(symbols, 1)

    @classmethod
    def zero(cls, symbols) -> "SymPoly":
        return cls(symbols, {}, _checked=True)

    @classmethod
    def symbol(cls, symbols, name) -> "SymPoly":
        symbols = tuple(symbols)
        e = [0] * len(symbols)
        e[symbols.index(name)] = 1
        return cls(symbols, {tuple(e): 1}, _checked=True)

    # -- basics --

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_order_key)

    def _require_same(self, other: "SymPoly") -> None:
        if self.symbols != other.symbols:
            raise ValueError("operands use different symbol tuples")

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.symbols == other.symbols and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"SymPoly({self.pretty()})"

    # -- arithmetic --

    def __add__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        self._require_same(other)
        terms = dict(self.terms)
        _padd_into(terms, other.terms)
        return SymPoly(self.symbols, terms, _checked=True)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            terms = _tscale(self.terms, other, len(self.symbols))
            return SymPoly(self.symbols, terms, _checked=True)
        if not isinstance(other, SymPoly):
            return NotImplemented
        self._require_same(other)
        return SymPoly(self.symbols, _tmul(self.terms, other.terms), _checked=True)

    __rmul__ = __mul__

    # -- structure --

    def with_symbols(self, symbols, rename=None) -> "SymPoly":
        """Re-express over another symbol tuple.  ``rename`` maps old names
        to new ones (identity by default); two old symbols may map to the
        same new symbol, in which case their exponents add."""
        symbols = tuple(symbols)
        rename = rename or {}
        where = []
        pos = {s: i for i, s in enumerate(symbols)}
        for s in self.symbols:
            t = rename.get(s, s)
            if t not in pos:
                raise ValueError(f"symbol {t!r} missing from the target tuple")
            where.append(pos[t])
        return SymPoly(symbols, _tremap(self.terms, where, len(symbols)), _checked=True)

    # -- rendering --

    def pretty(self, names=None) -> str:
        """Human form, e.g. '2 - u1 - u2 - v1 - v2'."""
        names = names or {s: s for s in self.symbols}
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            mono = "".join(
                f"{names[s]}" + (f"^{x}" if x > 1 else "")
                for s, x in zip(self.symbols, e)
                if x
            )
            num, den = _split(c)
            mag = abs(num)
            if den != 1:
                body = f"({mag}/{den}){mono}" if mono else f"{mag}/{den}"
            elif not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}{mono}"
            if not pieces:
                pieces.append(body if num > 0 else f"-{body}")
            else:
                pieces.append(("+ " if num > 0 else "- ") + body)
        return " ".join(pieces)

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
def _row_product(m: int, n: int) -> dict:
    """prod of (1 - u_i - v_j) over all cells outside row 0, packed in
    _p_packing(m, n)."""
    packing = _p_packing(m, n)
    limit = (m - 1) * n  # the product's degree: no term is dropped
    prod = {0: 1}
    for i in range(1, m):
        for j in range(n):
            cell = {0: 1, _power(packing, i): -1, _power(packing, m + j): -1}
            prod = _pmul_trunc(cell, prod, packing.top, limit)
    return prod


@lru_cache(maxsize=None)
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
    """
    if not (0 <= k <= m - 1 and 0 <= l <= n - 1):
        raise ValueError("need 0 <= k <= m-1 and 0 <= l <= n-1")
    K = m - k - 1
    L = n - l - 1
    packing = _p_packing(m, n)
    row = _row_product(m, n)
    limit = K + L + (m - 1) * n  # the window's degree: no term is dropped
    # window = u_0^K (1 - u_0)^L * row, one shifted copy of row per power of u_0
    window = _pshift(row, _power(packing, 0, K), packing.top, limit)
    for t in range(1, L + 1):
        mono = _power(packing, 0, K + t)
        _padd_into(window, _pshift(row, mono, packing.top, limit), (-1) ** t * math.comb(L, t))
    for b in range(1, m):
        dividend = _swapped(window, packing, 0, b)
        _padd_into(dividend, window, -1)
        window = _div_linear(dividend, packing, b, 0)
    return SymPoly(uv_symbols(m, n), packing.unpack(window), _checked=True)


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
    order = _display_order(registry)
    names = registry.names
    return "".join(
        f"{names[p]}" + (f"^{exps[p]}" if exps[p] > 1 else "")
        for p in order
        if exps[p]
    )


def form_id(form: Series) -> str:
    """Canonical identifier of a form: its canonical rendering.  Equal
    polynomials get equal ids, term order is fixed by sorted_terms."""
    if form.is_zero():
        raise ValueError("the zero polynomial cannot be a denominator form")
    pieces = []
    for exps, c in form.sorted_terms():
        mono = _display_mono(form.registry, exps)
        num, den = _split(c)
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
            self.forms[fid] = form.with_trunc(N)
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


@dataclass(frozen=True)
class RationalTerm:
    """prefix * numerator / prod_{id in denominator} (1 - form_id)."""

    prefix: tuple
    numerator: SymPoly
    denominator: tuple


class RationalExpr:
    """A sum of rational terms over a shared form table."""

    __slots__ = ("registry", "table", "terms")

    def __init__(self, registry: VariableRegistry, table: FormTable, terms, _checked=False):
        self.registry = registry
        self.table = table
        if _checked:
            self.terms = tuple(terms)
            return
        if table.registry != registry:
            raise ValueError("form table registry differs from the expression registry")
        for t in terms:
            _check_prefix(registry, t.prefix)
            for fid in t.denominator:
                if fid not in table:
                    raise ValueError(f"denominator id {fid!r} missing from the form table")
            for s in t.numerator.symbols:
                if s not in table:
                    raise ValueError(f"numerator symbol {s!r} missing from the form table")
        self.terms = tuple(terms)

    __setattr__ = _immutable("terms")

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

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return (
            self.registry == other.registry
            and self.table.forms == other.table.forms
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return f"RationalExpr({len(self.terms)} terms, {len(self.table.forms)} forms)"

    # -- algebra --

    @staticmethod
    def _merged(terms) -> list:
        keyed: dict = {}
        for t in terms:
            key = (t.prefix, t.denominator)
            if key in keyed:
                old = keyed[key]
                syms = tuple(sorted(set(old.numerator.symbols) | set(t.numerator.symbols)))
                num = old.numerator.with_symbols(syms) + t.numerator.with_symbols(syms)
                keyed[key] = RationalTerm(t.prefix, num, t.denominator)
            else:
                keyed[key] = t
        return [t for t in keyed.values() if not t.numerator.is_zero()]

    @classmethod
    def _sum(cls, exprs) -> "RationalExpr":
        """The sum of one or more expressions in one pass: every form joins
        one table by key and _merged walks every term once.  ``exprs`` may
        be a generator; each expression, its table included, is dropped once
        its terms are in."""
        exprs = iter(exprs)
        first = next(exprs)
        table = first.table.copy()

        def terms():
            yield from first.terms
            for e in exprs:
                if e.registry != first.registry:
                    raise ValueError("operands live over different variable registries")
                for fid, f in e.table.forms.items():
                    table.forms.setdefault(fid, f)
                yield from e.terms

        return cls(first.registry, table, cls._merged(terms()), _checked=True)

    def __add__(self, other):
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return RationalExpr._sum((self, other))

    def scale_prefix(self, exps) -> "RationalExpr":
        exps = tuple(exps)
        _check_prefix(self.registry, exps)
        terms = [
            RationalTerm(
                tuple(a + b for a, b in zip(t.prefix, exps)), t.numerator, t.denominator
            )
            for t in self.terms
        ]
        return RationalExpr(self.registry, self.table, terms, _checked=True)

    def with_denominator(self, form: Series) -> "RationalExpr":
        """Multiply the whole expression by 1/(1 - form)."""
        table = self.table.copy()
        fid = table.add(form)
        terms = [
            RationalTerm(t.prefix, t.numerator, tuple(sorted(t.denominator + (fid,))))
            for t in self.terms
        ]
        return RationalExpr(self.registry, table, terms, _checked=True)

    def substitute(self, target: VariableRegistry, name_map: dict) -> "RationalExpr":
        """Rename variables into another registry; form ids are recomputed.
        ``name_map`` runs Series.rename's checks once per call, so an
        expression without forms is checked too."""
        where = _rename_positions(self.registry, target, name_map)
        table = FormTable(target)
        rename: dict[str, str] = {}
        for fid, f in self.table.forms.items():
            form = Series(target, f.trunc, _tremap(f.terms, where, target.size), _checked=True)
            rename[fid] = table.add(form)
        terms = []
        for t in self.terms:
            # the prefix is one monomial: remapped as a one-term dict
            (prefix,) = _tremap({t.prefix: 1}, where, target.size)
            new_syms = tuple(sorted({rename[s] for s in t.numerator.symbols}))
            num = t.numerator.with_symbols(new_syms, rename)
            den = tuple(sorted(rename[fid] for fid in t.denominator))
            terms.append(RationalTerm(prefix, num, den))
        return RationalExpr(target, table, terms, _checked=True)

    # -- evaluation --

    def expand(self, trunc: int) -> Series:
        """The expression as a series truncated at total degree ``trunc``.

        Runs on packed exponents (the fps kernel): each numerator is
        evaluated at the packed forms, divided by each denominator 1 - u
        slice by slice in degree, and shifted by its prefix; the sum is
        unpacked once at the end.  A form that every term's denominator
        holds (f_rational puts the identity form in all of them) divides
        the summed parts once instead of each part: division by 1 - u is
        linear and commutes with the prefix shift.  The tests check it
        against the direct route, multiplication by ``geometric(u, D)``.
        """
        packing = _Packing(self.registry.size, trunc)
        top = packing.top
        forms = {fid: packing.pack(f.terms, trunc) for fid, f in self.table.forms.items()}
        powers: dict = {}

        def power(fid: str, k: int) -> dict:
            if (fid, k) not in powers:
                lower = {0: 1} if k == 1 else power(fid, k - 1)
                powers[fid, k] = _pmul_trunc(lower, forms[fid], top, trunc)
            return powers[fid, k]

        shared = Counter(self.terms[0].denominator) if self.terms else Counter()
        for t in self.terms[1:]:
            shared &= Counter(t.denominator)
        acc: dict = {}
        for t in self.terms:
            budget = trunc - sum(t.prefix)
            if budget < 0:
                continue
            # part may keep terms above the budget: the division by each
            # 1 - u and the prefix shift drop them
            part: dict = {}
            for e, c in t.numerator.terms.items():
                factors = [power(s, x) for s, x in zip(t.numerator.symbols, e) if x]
                mono = factors[0] if factors else {0: 1}
                for f in factors[1:]:
                    mono = _pmul_trunc(mono, f, top, budget)
                _padd_into(part, mono, c)
            for fid in (Counter(t.denominator) - shared).elements():
                if not part:
                    break
                part = _pdiv_one_minus(part, forms[fid], top, budget)
            _padd_into(acc, _pshift(part, packing.mono(t.prefix), top, trunc))
        for fid in shared.elements():
            if not acc:
                break
            acc = _pdiv_one_minus(acc, forms[fid], top, trunc)
        return Series(self.registry, trunc, packing.unpack(acc), _checked=True)

    # -- rendering --

    def pretty(self) -> str:
        alias = self.table.display_names()
        lines = [f"{alias[fid]} = {fid}" for fid in self.table.forms]
        pieces = []
        for t in self.terms:
            mono = _display_mono(self.registry, t.prefix)
            num = t.numerator.pretty(names=alias)
            if num == "1":
                top = mono or "1"
            elif len(t.numerator.terms) > 1 or mono:
                top = f"{mono}({num})" if mono else f"({num})"
            else:
                top = num
            den = "".join(f"(1-{alias[fid]})" for fid in t.denominator)
            if len(t.denominator) > 1:
                den = f"({den})"
            pieces.append(f"{top}/{den}" if den else top)
        lines.append(" + ".join(pieces) if pieces else "0")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        pairs = self.registry.pair_count
        terms = []
        for t in self.terms:
            zs: list[int] = []
            ws: list[int] = []
            for i in range(pairs):
                zs.extend([i + 1] * t.prefix[2 * i])
                ws.extend([i + 1] * t.prefix[2 * i + 1])
            terms.append(
                {
                    "prefix": {"z": zs, "w": ws},
                    "numerator": t.numerator.to_json_dict(),
                    "denominator": list(t.denominator),
                }
            )
        return {
            "terms": terms,
            "forms": {fid: f.to_json_dict() for fid, f in self.table.forms.items()},
        }


# -- the closed product ------------------------------------------------------------------


def _odot_pair(
    registry, table, forms1, t1: RationalTerm, forms2, t2: RationalTerm, sums: dict
) -> RationalTerm:
    """One term pair of the closed product.

    ``sums`` is the calling odot_closed's memo of pair sums, keyed by
    (u_id, v_id) with value the id of u + v; it lives for that one call,
    where the pair of ids fixes the sum.  A sum enters ``table`` through
    ``table.add`` when the memo first builds it, so the table keeps its
    row-major order: this pair's new sums, then its numerator symbols,
    which move over from the operand tables by id.

    The numerator is built on one packed dict over the output symbols: each
    P^{k,l}_{m,n} piece is renamed into the u/v positions once per
    (k_eff, l_eff), then every numerator term pair adds its base monomial
    e1 + e2 to the piece's terms and scales them by c1 * c2.
    """
    m = len(t1.denominator)
    n = len(t2.denominator)
    if m == 0 or n == 0:
        raise ValueError("closed products need at least one denominator factor per side")
    N = registry.modulus
    u_ids = t1.denominator
    v_ids = t2.denominator
    flat = []
    for a in u_ids:
        for b in v_ids:
            fid = sums.get((a, b))
            if fid is None:
                fid = sums[a, b] = table.add(forms1[a] + forms2[b])
            flat.append(fid)
    if len(set(flat)) != m * n:
        collisions = sorted(fid for fid, cnt in Counter(flat).items() if cnt > 1)
        raise DistinctnessViolation(
            "pairwise denominator sums collide: " + "; ".join(collisions)
        )

    k_pref = sum(t1.prefix) // N
    l_pref = sum(t2.prefix) // N
    num1 = t1.numerator
    num2 = t2.numerator
    out_syms = tuple(sorted(set(u_ids) | set(v_ids) | set(num1.symbols) | set(num2.symbols)))
    # an output term has degree <= deg P + deg num1 + deg num2, and deg P
    # is bounded as in _p_packing
    packing = _Packing(len(out_syms), (m - 1) * n + m + n - 2 + num1.degree() + num2.degree())
    # renaming P's terms is the hot loop, so it reads the layout directly:
    # a symbol's unit is one in its own field plus one in the degree field
    unit = {s: (1 << w) + (1 << packing.top) for s, w in zip(out_syms, packing.shifts)}

    def packed(symbols, exps) -> int:
        return sum([x * unit[s] for s, x in zip(symbols, exps) if x])

    uv = u_ids + v_ids
    right = [(sum(e2), packed(num2.symbols, e2), c2) for e2, c2 in num2.terms.items()]
    pieces: dict = {}
    acc: dict = {}
    get = acc.get
    for e1, c1 in num1.terms.items():
        k_eff = k_pref + sum(e1)
        b1 = packed(num1.symbols, e1)
        for d2, b2, c2 in right:
            l_eff = l_pref + d2
            if k_eff > m - 1 or l_eff > n - 1:
                raise ValueError(
                    "closed product needs (prefix + numerator) shorter than the denominator"
                )
            piece = pieces.get((k_eff, l_eff))
            if piece is None:
                piece = pieces[k_eff, l_eff] = [
                    (packed(uv, e), c) for e, c in p_polynomial(m, n, k_eff, l_eff).terms.items()
                ]
            base = b1 + b2
            c = c1 * c2
            for e, pc in piece:
                e += base
                acc[e] = get(e, 0) + c * pc
    acc = {e: c for e, c in acc.items() if c}
    # unpack onto the fields that some term uses: OR-ing the keys shows them
    used = 0
    for e in acc:
        used |= e
    mask = packing.mask
    fields = [(s, w) for s, w in zip(out_syms, packing.shifts) if (used >> w) & mask]
    shifts = [w for _, w in fields]
    num = SymPoly(
        tuple(s for s, _ in fields),
        {tuple([(e >> w) & mask for w in shifts]): c for e, c in acc.items()},
        _checked=True,
    )

    for s in num.symbols:
        table.forms.setdefault(s, forms1[s] if s in forms1 else forms2[s])
    prefix = tuple(a + b for a, b in zip(t1.prefix, t2.prefix))
    return RationalTerm(prefix, num, tuple(sorted(flat)))


def odot_closed(e1: RationalExpr, e2: RationalExpr) -> RationalExpr:
    """Graded product of two rational expressions in closed form.

    Works term pair by term pair; every pair must satisfy the distinctness
    precondition (all sums u_i + v_j different), otherwise
    DistinctnessViolation propagates to the caller and the call's table is
    dropped.  Each sum u + v is built and its form id rendered once per
    call: a memo keyed by (u_id, v_id) holds the sum's id, lives for this
    call only and feeds every pair, which still runs all of its checks.
    """
    if e1.registry != e2.registry:
        raise ValueError("operands live over different variable registries")
    table = FormTable(e1.registry)
    sums: dict = {}
    terms = []
    for t1 in e1.terms:
        for t2 in e2.terms:
            terms.append(
                _odot_pair(e1.registry, table, e1.table.forms, t1, e2.table.forms, t2, sums)
            )
    return RationalExpr(e1.registry, table, RationalExpr._merged(terms), _checked=True)


def permutation_form(registry: VariableRegistry, sigma) -> Series:
    """The degree-2 form sum_i z_i w_{sigma(i)} for a permutation of
    0..n-1 given as a tuple of images."""
    n = registry.pair_count
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"{sigma} is not a permutation of 0..{n-1}")
    terms: dict = {}
    for i in range(n):
        e = [0] * registry.size
        e[2 * i] = 1
        e[2 * sigma[i] + 1] = 1
        terms[tuple(e)] = 1
    return Series(registry, 2, terms)


def identity_form(registry: VariableRegistry) -> Series:
    return permutation_form(registry, range(registry.pair_count))
