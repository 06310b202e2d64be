"""Reference routes the tests compare the package against.

Each one computes a quantity the package computes, by a route that shares
nothing with the code it checks beyond basic arithmetic: the undivided
numerator Q by a direct sum of tuple-keyed SymPoly products, the moment
recursion memoized on raw keys, the canonical moment key by brute force
over every rotation and its zero contraction one zero at a time, the
graded product of several series by the direct multinomial formula, the
closed product of two rational expressions term pair by term pair on
SymPoly products, and the two series pipelines (F_n
and the expansion of a rational expression) on tuple-keyed Series,
multiplying by geometric(u, D) where the package divides packed terms by
1 - u.  One route is narrower: p_by_window builds each P cell by its own
full divided difference, in the orientation asked for and on every term of
the row product (_row_product, one linear factor at a time), sharing only
the synthetic division _div_walk with the package, so it checks the cell
recurrence, the fused Newton step, the package's one term per v-orbit and
its mirror to the orientation with fewer rows.
Two evaluators specialize to all pairs equal, z_i = z and w_i = w with
t = zw: the closed form read through its public fields, and the recursion
run in one variable on the package's subword blueprints.  The two that sum
over every split set walk them here (split_factors), so they share no walk
with f_rational, which reads its own tables of placed factors.
The item-based renderers (series_text_by_items, qseries_text_by_items,
poly_pretty_by_items) write the package's text and human forms from the
(exponents, coefficient) pairs in one sort by an explicit per-term key,
one line or piece at a time, where the package orders the keys alone and
renders through token tables in chunks.
It also holds the helpers that only the tests need: the homogeneous slices
of a Series, a SymPoly re-expressed over other symbols, the packed
exponent swap and the exact division by a difference x_a - x_b.
"""

import math
from functools import lru_cache
from itertools import combinations, product

from dtmoments.fps import (
    Exponents,
    QSeries,
    Series,
    VariableRegistry,
    _Packing,
    _padd_into,
    _pmul_trunc,
    _pshift,
    geometric,
    odot_many,
)
from dtmoments.genfun import _inner, _outer
from dtmoments.moments import dihedral_min, nom, validate_key
from dtmoments.ratfun import (
    DistinctnessViolation,
    FormTable,
    RationalExpr,
    RationalTerm,
    SymPoly,
    _div_walk,
    _p_packing,
    _power,
    identity_form,
    p_polynomial,
    uv_symbols,
)


# -- test-only helpers over tuple terms ------------------------------------------------


def homogeneous_part(f: Series, k: int) -> Series:
    """The slice of f of total degree N*k (zero series when N*k > trunc)."""
    if k < 0:
        raise ValueError("part index must be >= 0")
    d = k * f.registry.modulus
    return Series(f.registry, f.trunc, {e: c for e, c in f.terms.items() if sum(e) == d})


def max_part_index(f: Series) -> int:
    """The largest k whose slice of degree N*k lies within f's bound."""
    return f.trunc // f.registry.modulus


def with_symbols(p: SymPoly, symbols, rename=None) -> SymPoly:
    """p re-expressed over another symbol tuple.  ``rename`` maps old names
    to new ones (identity by default); two old symbols may map to the same
    new symbol, in which case their exponents add."""
    symbols = tuple(symbols)
    rename = rename or {}
    pos = {s: i for i, s in enumerate(symbols)}
    where = []
    for s in p.symbols:
        t = rename.get(s, s)
        if t not in pos:
            raise ValueError(f"symbol {t!r} missing from the target tuple")
        where.append(pos[t])
    pairs = []
    for e, c in p.terms.items():
        out = [0] * len(symbols)
        for i, x in zip(where, e):
            out[i] += x
        pairs.append((out, c))
    return SymPoly(symbols, pairs)


# -- the undivided numerator Q ------------------------------------------------------


def _vandermonde(syms, block) -> SymPoly:
    """prod_{p<q} (x_p - x_q) over the symbols in ``block``, in order."""
    out = SymPoly.one(syms)
    for a, b in combinations(block, 2):
        out = out * (SymPoly.symbol(syms, a) - SymPoly.symbol(syms, b))
    return out


@lru_cache(maxsize=None)
def _q_cells(m: int, n: int) -> tuple:
    """Per cell (i, j), row-major: the k,l-independent factor of Q,
    (-1)^(i+j) prod_{(i',j') != (i,j)} (1 - u_i' - v_j') times the
    difference products over the u's without u_i and the v's without v_j."""
    syms = uv_symbols(m, n)
    us, vs = syms[:m], syms[m:]
    one = SymPoly.one(syms)
    cells = []
    for i, j in product(range(m), range(n)):
        cell = one if (i + j) % 2 == 0 else -one
        for i2, j2 in product(range(m), range(n)):
            if (i2, j2) != (i, j):
                cell = cell * (one - SymPoly.symbol(syms, us[i2]) - SymPoly.symbol(syms, vs[j2]))
        cell = cell * _vandermonde(syms, us[:i] + us[i + 1 :])
        cell = cell * _vandermonde(syms, vs[:j] + vs[j + 1 :])
        cells.append(cell)
    return tuple(cells)


def q_polynomial(m: int, n: int, k: int, l: int) -> SymPoly:
    """Q^{k,l}_{m,n}: the signed double sum over cells (i, j) of the cell
    factor times u_i^(m-k-1) v_j^(n-l-1).  P^{k,l}_{m,n} times both
    difference products prod_{p<q}(u_p - u_q) prod_{r<s}(v_r - v_s) is Q."""
    if not (0 <= k <= m - 1 and 0 <= l <= n - 1):
        raise ValueError("need 0 <= k <= m-1 and 0 <= l <= n-1")
    syms = uv_symbols(m, n)
    acc = SymPoly.zero(syms)
    for (i, j), cell in zip(product(range(m), range(n)), _q_cells(m, n)):
        e = [0] * (m + n)
        e[i] = m - k - 1
        e[m + j] = n - l - 1
        acc = acc + cell * SymPoly(syms, {tuple(e): 1})
    return acc


# -- P by its direct divided difference ------------------------------------------------


def _swapped(terms: dict, packing: _Packing, a: int, b: int) -> dict:
    """The same packed polynomial with the exponents of x_a and x_b
    exchanged; the total degree, and so the degree field, is unchanged."""
    mask = packing.mask
    sa = packing.shifts[a]
    sb = packing.shifts[b]
    delta = (1 << sa) - (1 << sb)
    return {e + (((e >> sb) & mask) - ((e >> sa) & mask)) * delta: c for e, c in terms.items()}


def _div_linear(terms: dict, packing: _Packing, main: int, other: int) -> dict:
    """Exact division by x_main - x_other: the dividend is split once by its
    degree in x_main and handed to the package's _div_walk."""
    shift = packing.shifts[main]
    mask = packing.mask
    buckets: list = [{} for _ in range(mask + 1)]
    for e, c in terms.items():
        buckets[(e >> shift) & mask][e] = c
    return _div_walk(buckets, packing, main, other)


@lru_cache(maxsize=None)
def _row_product(m: int, n: int) -> dict:
    """prod of (1 - u_i - v_j) over all cells outside row 0, packed in
    _p_packing(m, n): every term, one linear factor at a time."""
    packing = _p_packing(m, n)
    limit = (m - 1) * n  # the product's degree: no term is dropped
    prod = {0: 1}
    for i in range(1, m):
        for j in range(n):
            cell = {0: 1, _power(packing, i): -1, _power(packing, m + j): -1}
            prod = _pmul_trunc(cell, prod, packing.mask, limit)
    return prod


def p_by_window(m: int, n: int, k: int, l: int) -> SymPoly:
    """P^{k,l}_{m,n} from its own window u_0^K (1-u_0)^L * row, K = m-k-1,
    L = n-l-1, in L + 1 shifted copies of the row product, followed by m-1
    Newton steps, each a swap of u_0 and u_b, a subtraction and an exact
    division by u_b - u_0: every cell from scratch, with no neighbour and no
    cache."""
    K = m - k - 1
    L = n - l - 1
    packing = _p_packing(m, n)
    row = _row_product(m, n)
    limit = K + L + (m - 1) * n
    window = _pshift(row, _power(packing, 0, K), packing.mask, limit)
    for t in range(1, L + 1):
        mono = _power(packing, 0, K + t)
        _padd_into(window, _pshift(row, mono, packing.mask, limit), (-1) ** t * math.comb(L, t))
    for b in range(1, m):
        dividend = _swapped(window, packing, 0, b)
        _padd_into(dividend, window, -1)
        window = _div_linear(dividend, packing, b, 0)
    return SymPoly._make(uv_symbols(m, n), packing.unpack(window))


# -- the moment recursion on raw keys -------------------------------------------------


@lru_cache(maxsize=None)
def raw_n_value(key: tuple) -> int:
    """N of a flat key by the moment recursion, memoized on the key as given:
    no canonicalization, so a symmetry check run on it is not satisfied by
    construction."""
    if len(key) == 2:
        return 1 if key[0] == key[1] else 0
    if min(key) < 0 or sum(key[0::2]) != sum(key[1::2]):
        return 0
    n = len(key) // 2
    ls = key[1::2]
    total = 0
    for r in range(1, n + 1):
        for js in combinations(range(n), r):
            j0, jr = js[0], js[-1]
            prod = raw_n_value(
                key[: 2 * j0] + (key[2 * j0] - 1, key[2 * jr + 1] - 1) + key[2 * jr + 2 :]
            )
            for a, b in zip(js, js[1:]):
                if not prod:
                    break
                inner = list(key[2 * a + 1 : 2 * b + 1])
                inner[0] -= 1
                inner[-1] -= 1
                prod *= raw_n_value(tuple(inner))
            if prod:
                total += nom(ls, tuple(j + 1 for j in js)) * prod
    return total


# -- the canonical moment key ---------------------------------------------------------


def dihedral_min_by_rotation(key: tuple) -> tuple:
    """The least of every rotation of the key and of its reversal."""
    rev = key[::-1]
    n = len(key)
    return min([key[s:] + key[:s] for s in range(n)] + [rev[s:] + rev[:s] for s in range(n)])


def contract_by_steps(key: tuple) -> tuple:
    """Contract the zero entries of a nonnegative key one at a time, until
    no zero is left or two entries remain: rotate a zero to the front, drop
    it and merge its two neighbours into one entry."""
    while len(key) > 2 and 0 in key:
        s = key.index(0)
        if s:
            key = key[s:] + key[:s]
        key = key[2:-1] + (key[-1] + key[1],)
    return key


def n_value_by_steps(key, recursion) -> int:
    """N of a key from outside by the stepwise route: validate_key, the
    single-pair law, 0 for a negative entry or unequal k-sum and l-sum,
    contract_by_steps, the law again, then ``recursion`` (a MomentEngine's
    _n) on the dihedral_min."""
    key = validate_key(key)
    if len(key) == 2:
        return 1 if key[0] == key[1] else 0
    if min(key) < 0 or sum(key[0::2]) != sum(key[1::2]):
        return 0
    key = contract_by_steps(key)
    if len(key) == 2:
        return 1 if key[0] == key[1] else 0
    return recursion(dihedral_min(key))


def canonical_key_by_rotation(key: tuple) -> tuple:
    """The canonical key by brute force: the dihedral minimum of the key;
    while that starts with a zero (and more than two entries remain), drop
    the zero, merge its two neighbours into one entry and start over."""
    while True:
        key = dihedral_min_by_rotation(key)
        if len(key) > 2 and key[0] == 0:
            key = key[2:-1] + (key[-1] + key[1],)
            continue
        return key


# -- the item-based renderers -----------------------------------------------------------


def items_by_key(terms: dict) -> list:
    """(exponents, coefficient) pairs by total degree, then by exponent
    tuple with larger exponents of earlier variables first."""
    return sorted(terms.items(), key=lambda t: (sum(t[0]), [-x for x in t[0]]))


def _term_lines_by_items(f: Series, indent=""):
    names = f.registry.names
    for exps, c in items_by_key(f.terms):
        mono = " ".join(f"{name}^{e}" for name, e in zip(names, exps) if e)
        yield f"{indent}{c.numerator}/{c.denominator} {mono}".rstrip()


def series_text_by_items(f: Series) -> str:
    """Series.to_text, one line per term."""
    lines = [
        "# vars: " + " ".join(f.registry.names),
        f"# N: {f.registry.modulus}",
        f"# D: {f.trunc}",
    ]
    lines.extend(_term_lines_by_items(f))
    return "\n".join(lines) + "\n"


def qseries_text_by_items(h: QSeries) -> str:
    """QSeries.to_text, one line per part header and per term."""
    lines = []
    for k in sorted(h.parts):
        lines.append(f"q^{k}:")
        lines.extend(_term_lines_by_items(h.parts[k], "  "))
    return "\n".join(lines) + "\n"


def poly_pretty_by_items(p: SymPoly, names=None) -> str:
    """SymPoly.pretty, one piece per term."""
    labels = [names[s] for s in p.symbols] if names else p.symbols
    pieces = []
    for e, c in items_by_key(p.terms):
        mono = "".join([labels[i] if x == 1 else f"{labels[i]}^{x}" for i, x in enumerate(e) if x])
        num, den = c.numerator, c.denominator
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
    return " ".join(pieces) if pieces else "0"


# -- the graded product of several series ----------------------------------------------


def odot_many_direct(fs) -> Series:
    """Graded product by the direct multinomial formula.

    Slower than the fold; kept as an independent route so the two can be
    compared term by term.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("odot_many_direct needs at least one operand")
    registry = fs[0].registry
    for f in fs[1:]:
        fs[0]._require_same(f)
    N = registry.modulus
    D = min(f.trunc for f in fs)
    out: dict[Exponents, object] = {}
    term_lists = [
        [(e, sum(e), c) for e, c in f.terms.items() if sum(e) <= D] for f in fs
    ]
    for combo in product(*term_lists):
        total = sum(t[1] for t in combo)
        if total > D:
            continue
        levels = [t[1] // N for t in combo]
        w = math.factorial(sum(levels))
        for lv in levels:
            w //= math.factorial(lv)
        coeff = w
        for t in combo:
            coeff = coeff * t[2]
        key = tuple(sum(es) for es in zip(*(t[0] for t in combo)))
        v = out.get(key, 0) + coeff
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return Series._make(registry, D, out)


# -- the closed product by SymPoly products --------------------------------------------


def _odot_pair_by_products(registry, table, forms1, t1, forms2, t2) -> RationalTerm:
    """One term pair: every sum u_i + v_j built and added to the table afresh,
    and the numerator summed as P (renamed by with_symbols) times the two
    numerator monomials, per numerator term pair."""
    m = len(t1.denominator)
    n = len(t2.denominator)
    if m == 0 or n == 0:
        raise ValueError("closed products need at least one denominator factor per side")
    N = registry.modulus
    us = [forms1[fid] for fid in t1.denominator]
    vs = [forms2[fid] for fid in t2.denominator]
    sums = [[us[i] + vs[j] for j in range(n)] for i in range(m)]
    sum_ids = [[table.add(sums[i][j]) for j in range(n)] for i in range(m)]
    flat = [sum_ids[i][j] for i in range(m) for j in range(n)]
    if len(set(flat)) != m * n:
        collisions = sorted({fid for fid in flat if flat.count(fid) > 1})
        raise DistinctnessViolation(
            "pairwise denominator sums collide: " + "; ".join(collisions)
        )

    k_pref = sum(t1.prefix) // N
    l_pref = sum(t2.prefix) // N
    u_ids = t1.denominator
    v_ids = t2.denominator
    out_syms = tuple(
        sorted(set(u_ids) | set(v_ids) | set(t1.numerator.symbols) | set(t2.numerator.symbols))
    )
    rename = {f"u{i+1}": u_ids[i] for i in range(m)}
    rename.update({f"v{j+1}": v_ids[j] for j in range(n)})
    acc = SymPoly.zero(out_syms)
    for e1, c1 in t1.numerator.terms.items():
        for e2, c2 in t2.numerator.terms.items():
            k_eff = k_pref + sum(e1)
            l_eff = l_pref + sum(e2)
            if k_eff > m - 1 or l_eff > n - 1:
                raise ValueError(
                    "closed product needs (prefix + numerator) shorter than the denominator"
                )
            piece = with_symbols(p_polynomial(m, n, k_eff, l_eff), out_syms, rename)
            mono1 = with_symbols(SymPoly(t1.numerator.symbols, {e1: c1}), out_syms)
            mono2 = with_symbols(SymPoly(t2.numerator.symbols, {e2: c2}), out_syms)
            acc = acc + piece * mono1 * mono2

    # drop the symbols that no term uses
    used = [i for i in range(len(acc.symbols)) if any(e[i] for e in acc.terms)]
    acc = SymPoly(
        tuple(acc.symbols[i] for i in used),
        {tuple(e[i] for i in used): c for e, c in acc.terms.items()},
    )
    for s in acc.symbols:
        table.forms.setdefault(s, forms1[s] if s in forms1 else forms2[s])
    prefix = tuple(a + b for a, b in zip(t1.prefix, t2.prefix))
    return RationalTerm(prefix, acc, tuple(sorted(flat)))


def odot_closed_by_products(e1, e2):
    """The closed graded product of two rational expressions, term pair by
    term pair, with no memo shared between pairs."""
    if e1.registry != e2.registry:
        raise ValueError("operands live over different variable registries")
    table = FormTable(e1.registry)
    terms = [
        _odot_pair_by_products(e1.registry, table, e1.table.forms, t1, e2.table.forms, t2)
        for t1 in e1.terms
        for t2 in e2.terms
    ]
    return RationalExpr._make(e1.registry, table, RationalExpr._merged(terms))


# -- the series pipelines by geometric series ------------------------------------------


def split_factors(n: int):
    """Per split set of the recursion at n >= 2 (r = 2..n splits, each
    r-subset in lexicographic order), the (where, prefix) blueprints of its
    outer subword and of its inner subwords from left to right."""
    for r in range(2, n + 1):
        for js in combinations(range(n), r):
            yield (_outer(n, js[0], js[-1]), *(_inner(n, a, b) for a, b in zip(js, js[1:])))


def _accumulate(acc: dict, terms: dict, c=1) -> None:
    for e, v in terms.items():
        v = acc.get(e, 0) + v * c
        if v:
            acc[e] = v
        elif e in acc:
            del acc[e]


@lru_cache(maxsize=None)
def f_series_by_geometric(n: int, D: int) -> Series:
    """F_n truncated at D by the recursion on tuple-keyed Series: each
    lower-order factor is renamed into place and shifted by its prefix, the
    factors of a term are multiplied by odot_many, and the summed right-hand
    side is multiplied by geometric(identity form, D).  It shares no
    arithmetic with f_series, which groups the split sum by first and last
    split in a chain table: only the subword blueprints (genfun._outer and
    genfun._inner), which the moment recursion checks independently.  It
    walks the split sets itself (split_factors), so it shares no walk with
    f_rational either."""
    registry = VariableRegistry.zw_pairs(n)
    if n == 1:
        return geometric(Series(registry, 2, {(1, 1): 1}), D)
    total: dict = {}
    for factors in split_factors(n):
        series = []
        for where, prefix in factors:
            inner = f_series_by_geometric(len(where) // 2, D)
            mapping = dict(zip(inner.registry.names, [registry.names[p] for p in where]))
            series.append(inner.rename(registry, mapping).shift(prefix))
        _accumulate(total, odot_many(series).terms)
    return geometric(identity_form(registry), D) * Series(registry, D, total)


def _substitute(numerator: SymPoly, forms: dict, registry: VariableRegistry, D: int) -> Series:
    """The numerator evaluated at concrete forms, one per symbol, truncated at D."""
    acc: dict = {}
    for e, c in numerator.terms.items():
        term = Series.one(registry, D)
        for name, x in zip(numerator.symbols, e):
            for _ in range(x):
                term = term * forms[name].with_trunc(D)
        _accumulate(acc, term.terms, c)
    return Series(registry, D, acc)


def expand_by_geometric(expr, D: int) -> Series:
    """A RationalExpr as a series truncated at D: per term, the numerator
    substituted at the forms, times geometric(form, budget) for each
    denominator form, shifted by the prefix."""
    acc: dict = {}
    for t in expr.terms:
        budget = D - sum(t.prefix)
        if budget < 0:
            continue
        part = _substitute(t.numerator, expr.table.forms, expr.registry, budget)
        for fid in t.denominator:
            part = part * geometric(expr.table.forms[fid], budget)
        _accumulate(acc, part.with_trunc(D).shift(t.prefix).terms)
    return Series(expr.registry, D, acc)


# -- the all-pairs-equal specialization z_i = z, w_i = w, t = zw -------------------------


def _tpoly_mul(a: list, b: list) -> list:
    """The product of two polynomials in t, given as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _form_at_equal_pairs(form: Series) -> int:
    """a for a form that turns into a*t: each of its a terms is one z times
    one w with coefficient 1."""
    for exps, c in form.terms.items():
        assert c == 1, (exps, c)
        assert sum(exps[0::2]) == sum(exps[1::2]) == 1, exps
    return len(form.terms)


def closed_form_at_equal_pairs(expr) -> tuple:
    """(d_max, S) for a RationalExpr over z1, w1, ..., zn, wn, read through
    its public fields only.  Under z_i = z, w_i = w every form of its table
    becomes a*t, with a its term count, and every denominator form must
    become 1 - n*t.  A term of prefix level p, numerator num and d
    denominator factors is then t^p num(t) / (1 - n*t)^d; S is the
    coefficient list in t of the sum over the terms of
    t^p num(t) (1 - n*t)^(d_max - d), with d_max the largest d."""
    n = expr.registry.pair_count
    forms = expr.table.forms
    scale = {fid: _form_at_equal_pairs(f) for fid, f in forms.items()}
    d_max = max(len(t.denominator) for t in expr.terms)
    powers = [[1]]  # (1 - n*t)^i
    for _ in range(d_max):
        powers.append(_tpoly_mul(powers[-1], [1, -n]))
    total: list = []
    for t in expr.terms:
        assert all(scale[fid] == n for fid in t.denominator), t.denominator
        num = t.numerator
        values = [scale[s] for s in num.symbols]
        level = sum(t.prefix) // 2
        part: list = []
        for exps, c in num.terms.items():
            k = level + sum(exps)
            part.extend([0] * (k + 1 - len(part)))
            part[k] += c * math.prod(a**x for a, x in zip(values, exps))
        part = _tpoly_mul(part, powers[d_max - len(t.denominator)])
        total.extend([0] * (len(part) - len(total)))
        for i, x in enumerate(part):
            total[i] += x
    while total and not total[-1]:
        total.pop()
    return d_max, total


def series_at_equal_pairs(n: int, M: int) -> dict:
    """{k: G_k} for k = 1..n, where G_k is F_k under z_i = z, w_i = w, as
    its coefficients in t = zw up to t^M.  It runs the recursion specialized
    to one variable: (1 - k*t) G_k is the sum over split_factors(k)
    of the graded products of the placed factors, where a factor on j pairs
    with a prefix of level p becomes t^p G_j, and the graded product
    weights levels (i, l) by C(i + l, i).  Placed factors, and products of
    equal factor multisets, are built once."""
    series: dict = {}  # k -> G_k
    placed: dict = {}  # (k, p) -> t^p G_k
    products: dict = {(): [1] + [0] * M}  # sorted (k, p) tuple -> graded product

    def odot(f: list, g: list) -> list:
        return [
            sum(math.comb(m, i) * f[i] * g[m - i] for i in range(m + 1) if f[i])
            for m in range(M + 1)
        ]

    def product_of(key: tuple) -> list:
        if key not in products:
            k, p = key[-1]
            if (k, p) not in placed:
                placed[k, p] = ([0] * p + series[k])[: M + 1]
            products[key] = odot(product_of(key[:-1]), placed[k, p])
        return products[key]

    for order in range(1, n + 1):
        rhs = [int(order == 1)] + [0] * M  # (1 - t) G_1 = 1; no split at order 1
        for factors in split_factors(order):
            key = tuple(sorted((len(w) // 2, sum(p) // 2) for w, p in factors))
            for m, x in enumerate(product_of(key)):
                rhs[m] += x
        g = []
        for m in range(M + 1):  # G = rhs / (1 - order*t)
            g.append(rhs[m] + (order * g[m - 1] if m else 0))
        series[order] = g
    return series
