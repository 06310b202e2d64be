"""Exact sparse power series truncated in total degree.

Every series lives over a fixed finite variable registry and is supported on
total degrees divisible by the registry's modulus N (N = 2 for the z/w
generating functions, N = 1 for ordinary series).  Coefficients are exact
Python ints or Fractions; floats are rejected.  All operations are pure and
truncate to the smaller degree bound of their operands.

Two polynomial kernels live here, kept apart on purpose.  The tuple-term
core works on {exponent tuple: coefficient} dicts and backs the public API:
Series, QSeries and ratfun.SymPoly are thin methods over it, and the tests'
oracle routes are built on those types.  The packed kernel works on
{packed int: coefficient} dicts and runs the production pipelines
(genfun.f_series, RationalExpr.expand, the P numerators and the closed
product).  The two share no code beyond _padd_into, which never looks
inside its keys, so an oracle built on the first checks the second
independently.

The value types -- VariableRegistry, Series and QSeries here, SymPoly,
RationalTerm and RationalExpr in ratfun -- derive from one frozen base,
_Value.  Outside input goes through a type's constructor, which checks it;
the package builds a value from parts it has already checked with _make,
which checks nothing.  Either way every slot is set once and a later set or
del raises AttributeError, so a cached value (f_series and f_rational hand
every caller the same object) cannot be changed under its other holders.
Values compare by value in the base too: equal when they share a class and
their slots are equal.  RationalTerm and RationalExpr compare their own
way, since a term's numerator layout and an expression's table object are
not part of what they are.
"""

import math
from fractions import Fraction
from itertools import islice
from operator import add, getitem, itemgetter

Exponents = tuple[int, ...]
_CHUNK = 4096  # term lines per piece of rendered text


class RegistryMismatch(ValueError):
    """Operands were built over different variable registries."""


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


# -- tuple-term core ------------------------------------------------------------------
#
# Terms are {exponent tuple: coefficient} dicts with nonzero exact
# coefficients.  Series, QSeries and ratfun.SymPoly validate, multiply,
# remap, order and render their terms only through these functions, and
# none of them calls the packed kernel further down.


def _norm_coeff(c):
    """Normalize an exact coefficient; integral Fractions collapse to int.
    A bool is refused, not read as 0 or 1."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _clean_terms(terms, size: int, modulus: int = 1, limit=None) -> dict:
    """Validated terms from a mapping or from (exponents, coefficient) pairs.

    Every exponent tuple must have ``size`` int entries >= 0, not bools,
    and every coefficient must be exact (TypeError otherwise); zero terms
    and terms that cancel are dropped.  A nonzero term whose degree is not
    a multiple of ``modulus`` raises, one of degree > ``limit`` is dropped.
    """
    out: dict = {}
    for exps, c in terms.items() if hasattr(terms, "items") else terms:
        exps = tuple(exps)
        if len(exps) != size:
            raise ValueError(f"exponent tuple {exps} does not have {size} entries")
        if any(type(e) is not int or e < 0 for e in exps):
            raise ValueError(f"exponents must be nonnegative integers, got {exps}")
        c = _norm_coeff(c)
        if c == 0:
            continue
        deg = sum(exps)
        if deg % modulus:
            raise ValueError(
                f"term of degree {deg} violates the degree-modulus-{modulus} support constraint"
            )
        if limit is not None and deg > limit:
            continue
        v = out.get(exps, 0) + c
        if v:
            out[exps] = v
        else:
            del out[exps]
    return out


def _tslices(terms: dict, limit) -> dict:
    """degree -> the (exponents, coefficient) pairs of that degree <= limit."""
    out: dict = {}
    for e, c in terms.items():
        d = sum(e)
        if limit is None or d <= limit:
            if d in out:
                out[d].append((e, c))
            else:
                out[d] = [(e, c)]
    return out


def _tmul(a: dict, b: dict, limit=None, weight=None) -> dict:
    """a * b without the terms of degree > limit (no limit when None).  With
    ``weight``, a term pair of degrees (d1, d2) picks up weight(d1, d2)."""
    right = sorted(_tslices(b, limit).items())
    out: dict = {}
    get = out.get
    for d1, lterms in _tslices(a, limit).items():
        for d2, rterms in right:
            if limit is not None and d1 + d2 > limit:
                break
            w = 1 if weight is None else weight(d1, d2)
            for e1, c1 in lterms:
                c1 *= w
                for e2, c2 in rterms:
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _tscale(terms: dict, c, size: int) -> dict:
    """c * terms, as the product with the constant c."""
    return _tmul(terms, {(0,) * size: _norm_coeff(c)})


def _tremap(terms: dict, where, size: int) -> dict:
    """Send variable i to position where[i] of ``size`` positions.  Exponents
    that land on one position add, and so do the coefficients of terms that
    then coincide.  A variable absent from every term may map to None."""
    out: dict = {}
    get = out.get
    for e, c in terms.items():
        t = [0] * size
        for pos, x in zip(where, e):
            if x:
                t[pos] += x
        key = tuple(t)
        out[key] = get(key, 0) + c
    return {e: c for e, c in out.items() if c}


def _tmover(where, size: int):
    """The map that sends entry i of an exponent tuple to position where[i]
    of ``size`` positions, which must be distinct, and puts 0 elsewhere:
    one itemgetter over the tuple with a 0 appended."""
    inv = [len(where)] * size
    for i, pos in enumerate(where):
        inv[pos] = i
    # itemgetter of one index returns the item itself, not a 1-tuple
    pick = itemgetter(*inv) if size > 1 else itemgetter(slice(0, 1))
    return lambda e: pick(e + (0,))


def _rename_positions(source, target, mapping) -> list:
    """The target position of each source variable under ``mapping``, once
    the checks every renaming runs have passed: both registries share one
    modulus, the mapping covers exactly the source names, and it sends
    them to distinct names that the target holds."""
    if source.modulus != target.modulus:
        raise ValueError("variable renaming cannot change the degree modulus")
    if set(mapping) != set(source.names):
        raise ValueError("mapping must cover exactly the source variables")
    images = list(mapping.values())
    if len(set(images)) != len(images):
        raise ValueError("mapping must be injective")
    try:
        return [target.index(mapping[name]) for name in source.names]
    except KeyError as err:  # an image the target registry lacks
        raise ValueError(err.args[0]) from None


def _in_key_order(terms: dict):
    """The (exponents, coefficient) pairs of ``terms`` in the canonical order:
    by degree, then earlier variables and larger exponents first, sorted in C."""
    keys = sorted(terms, reverse=True)
    keys.sort(key=sum)
    return zip(keys, map(terms.__getitem__, keys))


class _Tokens(dict):
    """A variable's token per exponent, made on first use: "" for 0, ``one``
    for 1, else ``stem`` and x; a monomial is "".join(map(getitem, tables, e))."""

    __slots__ = ("stem",)

    def __init__(self, stem: str, one: str):
        super().__init__({0: "", 1: one})
        self.stem = stem

    def __missing__(self, x):
        self[x] = token = f"{self.stem}{x}"
        return token


def _text_lines(registry, terms: dict, head: str, indent=""):
    """``head``, then the 'num/den monomial' lines of ``terms`` in order,
    _CHUNK to a piece.  The format splits at whitespace and at '^', so a
    name holding either is refused before anything is yielded."""
    for name in registry.names:
        if "^" in name or name.split() != [name]:
            raise ValueError(f"variable name {name!r} holds whitespace or '^': no text form")
    tables = [_Tokens(f" {name}^", f" {name}^1") for name in registry.names]
    yield head
    items = _in_key_order(terms)
    while chunk := "".join([
        f"{indent}{c.numerator}/{c.denominator}{''.join(map(getitem, tables, e))}\n"
        for e, c in islice(items, _CHUNK)
    ]):
        yield chunk


def _poly_pretty(symbols, terms: dict, names=None) -> str:
    """The human form of ``terms`` over ``symbols``, in the canonical order;
    ``names`` maps a symbol to its display name (the symbol itself by
    default)."""
    labels = [names[s] for s in symbols] if names else symbols
    tables = [_Tokens(f"{label}^", label) for label in labels]
    pieces = []
    for e, c in _in_key_order(terms):
        mono = "".join(map(getitem, tables, e))
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


def _json_terms(terms: dict) -> list:
    """JSON rows of terms, in the canonical order."""
    return [
        {"exps": list(e), "num": c.numerator, "den": c.denominator}
        for e, c in _in_key_order(terms)
    ]


class _Value:
    """The frozen base of the value types (see the module docstring).  A
    checking constructor ends with one _fill; copies and pickles rebuild
    through _make.  Two values are equal when they share a class and their
    slots are equal, compared in __slots__ order."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each slot's own setter, which bypasses the __setattr__ that refuses
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _make(cls, *values):
        """An instance from trusted parts, given in __slots__ order."""
        self = cls.__new__(cls)
        self._fill(*values)
        return self

    def _fill(self, *values) -> None:
        for put, value in zip(self._setters, values):
            put(self, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    __hash__ = None

    def __reduce__(self):
        return type(self)._make, tuple(getattr(self, name) for name in self.__slots__)


class VariableRegistry(_Value):
    """Ordered variable names together with the homogeneity modulus N.

    A series over a registry with modulus N may only carry terms whose total
    degree is a multiple of N.
    """

    __slots__ = ("names", "modulus", "_positions")

    def __init__(self, names: tuple[str, ...], modulus: int = 2):
        names = tuple(names)
        if not names or len(set(names)) != len(names):
            raise ValueError("variable names must be nonempty and distinct")
        if not all(isinstance(s, str) and s for s in names):
            raise ValueError("variable names must be nonempty strings")
        if _json_int(modulus, "modulus") < 1:
            raise ValueError("modulus must be a positive integer")
        self._fill(names, modulus, {name: i for i, name in enumerate(names)})

    def __hash__(self) -> int:
        return hash((self.names, self.modulus))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(names={self.names!r}, modulus={self.modulus!r})"

    @classmethod
    def zw_pairs(cls, n: int) -> "VariableRegistry":
        """The registry z1, w1, ..., zn, wn with modulus 2; n must be an
        int, not a bool."""
        if _json_int(n, "n") < 1:
            raise ValueError("need at least one variable pair")
        names: list[str] = []
        for i in range(1, n + 1):
            names.append(f"z{i}")
            names.append(f"w{i}")
        return cls(tuple(names), 2)

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def pair_count(self) -> int:
        if self.size % 2 != 0:
            raise ValueError("registry is not made of z/w pairs")
        return self.size // 2

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None


class Series(_Value):
    """Truncated multivariate series with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients.  Invariants:
    every tuple has the registry's length with entries >= 0, every stored
    total degree is <= trunc and divisible by the registry modulus.  Terms
    above the truncation bound are dropped silently (that is what the bound
    means); a degree not divisible by N is an error, not a truncation.
    """

    __slots__ = ("registry", "trunc", "terms")

    def __init__(self, registry: VariableRegistry, trunc: int, terms=()):
        if _json_int(trunc, "truncation bound") < 0:
            raise ValueError("truncation bound must be >= 0")
        self._fill(registry, trunc, _clean_terms(terms, registry.size, registry.modulus, trunc))

    # -- basics ------------------------------------------------------------

    def _require_same(self, other: "Series") -> None:
        if self.registry != other.registry:
            raise RegistryMismatch("operands live over different variable registries")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps) -> object:
        exps = tuple(exps)
        if len(exps) != self.registry.size:
            raise ValueError("exponent tuple does not match registry size")
        return self.terms.get(exps, 0)

    def sorted_terms(self) -> list[tuple[Exponents, object]]:
        """Terms in the canonical order: by total degree, then by exponent
        tuple with earlier registry variables first."""
        return list(_in_key_order(self.terms))

    def __repr__(self) -> str:
        return f"Series({len(self.terms)} terms, vars={len(self.registry.names)}, D={self.trunc})"

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, registry: VariableRegistry, trunc: int) -> "Series":
        return cls(registry, trunc, {})

    @classmethod
    def one(cls, registry: VariableRegistry, trunc: int) -> "Series":
        return cls.monomial(registry, trunc, (0,) * registry.size)

    @classmethod
    def monomial(cls, registry: VariableRegistry, trunc: int, exps, coeff=1) -> "Series":
        return cls(registry, trunc, {tuple(exps): coeff})

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same(other)
        D = min(self.trunc, other.trunc)
        out = {e: c for e, c in self.terms.items() if sum(e) <= D}
        _padd_into(out, other.with_trunc(D).terms)
        return Series._make(self.registry, D, out)

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "Series":
        return Series._make(self.registry, self.trunc, _tscale(self.terms, c, self.registry.size))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same(other)
        D = min(self.trunc, other.trunc)
        return Series._make(self.registry, D, _tmul(self.terms, other.terms, D))

    __rmul__ = __mul__

    # -- graded structure ------------------------------------------------------

    def odot(self, other: "Series") -> "Series":
        """Graded product: sum over k,l of C(k+l,k) f_(k) g_(l).

        Equivalently an ordinary product where a term pair of levels (k, l)
        picks up the binomial weight C(k+l, k).
        """
        if not isinstance(other, Series):
            raise TypeError("odot needs a Series operand")
        self._require_same(other)
        N = self.registry.modulus
        D = min(self.trunc, other.trunc)

        def weight(d1, d2):
            return math.comb((d1 + d2) // N, d1 // N)

        return Series._make(self.registry, D, _tmul(self.terms, other.terms, D, weight))

    # -- structural helpers ------------------------------------------------------

    def with_trunc(self, trunc: int) -> "Series":
        """Re-bound the series.  Raising the bound asserts the caller knows
        the series is an exact polynomial (nothing was ever dropped)."""
        if _json_int(trunc, "truncation bound") < 0:
            raise ValueError("truncation bound must be >= 0")
        out = {e: c for e, c in self.terms.items() if sum(e) <= trunc}
        return Series._make(self.registry, trunc, out)

    def rename(self, target: VariableRegistry, mapping: dict[str, str]) -> "Series":
        """Inject the series into another registry by renaming variables.

        ``mapping`` sends each source name to a distinct target name; the
        degree structure is untouched, so both registries must share N.
        """
        where = _rename_positions(self.registry, target, mapping)
        return Series._make(target, self.trunc, _tremap(self.terms, where, target.size))

    def shift(self, exps, coeff=1) -> "Series":
        """Multiply by a single monomial (terms pushed past trunc drop off)."""
        registry = self.registry
        mono = _clean_terms({tuple(exps): coeff}, registry.size, registry.modulus)
        return Series._make(registry, self.trunc, _tmul(self.terms, mono, self.trunc))

    # -- serialization ------------------------------------------------------------

    def to_text(self) -> str:
        """Stable text form: header comments, then one 'num/den monomial'
        line per term in canonical order."""
        return "".join(self._text_chunks())

    def _text_chunks(self):
        """to_text() piece by piece, for a caller that writes it out."""
        reg = self.registry
        head = f"# vars: {' '.join(reg.names)}\n# N: {reg.modulus}\n# D: {self.trunc}\n"
        return _text_lines(reg, self.terms, head)

    @classmethod
    def from_text(cls, text: str) -> "Series":
        """Inverse of to_text.  Headers must precede the term lines; a
        malformed line raises ValueError naming its 1-based line number."""
        names: tuple[str, ...] | None = None
        modulus = 2
        trunc: int | None = None
        registry: VariableRegistry | None = None  # fixed by the first term line
        terms: dict[Exponents, object] = {}

        def integer(token: str, what: str, lineno: int) -> int:
            try:
                return int(token)
            except ValueError:
                raise ValueError(f"line {lineno}: {what} {token!r} is not an integer") from None

        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if registry is not None and body.startswith(("vars:", "N:", "D:")):
                    raise ValueError(f"line {lineno}: header {line!r} after a term line")
                if body.startswith("vars:"):
                    names = tuple(body[5:].split())
                    if any("^" in name for name in names):
                        raise ValueError(f"line {lineno}: a variable name holds '^'")
                elif body.startswith("N:"):
                    modulus = integer(body[2:].strip(), "modulus", lineno)
                elif body.startswith("D:"):
                    trunc = integer(body[2:].strip(), "degree bound", lineno)
                continue
            if registry is None:
                if names is None or trunc is None:
                    raise ValueError(f"line {lineno}: term line before '# vars:'/'# D:' headers")
                registry = VariableRegistry(names, modulus)
            parts = line.split()
            num_s, _, den_s = parts[0].partition("/")
            num = integer(num_s, "coefficient numerator", lineno)
            den = integer(den_s, "coefficient denominator", lineno) if den_s else 1
            if den == 0:
                raise ValueError(f"line {lineno}: zero denominator in {parts[0]!r}")
            coeff = Fraction(num, den)
            exps = [0] * len(names)
            seen = set()
            for tok in parts[1:]:
                name, _, pow_s = tok.partition("^")
                if name not in names:
                    raise ValueError(f"line {lineno}: unknown variable {name!r}")
                if name in seen:
                    raise ValueError(f"line {lineno}: variable {name!r} repeated")
                seen.add(name)
                exp = integer(pow_s, "exponent", lineno) if pow_s else 1
                if exp < 0:
                    raise ValueError(f"line {lineno}: negative exponent in {tok!r}")
                exps[names.index(name)] = exp
            if sum(exps) % modulus:
                raise ValueError(
                    f"line {lineno}: degree {sum(exps)} is not a multiple of N = {modulus}"
                )
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        if names is None or trunc is None:
            raise ValueError("missing '# vars:' or '# D:' header")
        return cls(registry or VariableRegistry(names, modulus), trunc, terms)

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.registry.names),
            "N": self.registry.modulus,
            "D": self.trunc,
            "terms": _json_terms(self.terms),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Series":
        """Inverse of to_json_dict.  Malformed input raises ValueError naming
        the field, or the index of the offending term."""
        if not isinstance(data, dict):
            raise ValueError("a series must be a JSON object")
        for field in ("vars", "D", "terms"):
            if field not in data:
                raise ValueError(f"missing field {field!r}")
        names = data["vars"]
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise ValueError("field 'vars' must be a list of names")
        registry = VariableRegistry(tuple(names), _json_int(data.get("N", 2), "field 'N'"))
        trunc = _json_int(data["D"], "field 'D'")
        if trunc < 0:
            raise ValueError("field 'D' must be >= 0")
        if not isinstance(data["terms"], list):
            raise ValueError("field 'terms' must be a list")
        size, mod = registry.size, registry.modulus
        terms = []
        for i, t in enumerate(data["terms"]):
            where = f"term {i}"
            if not isinstance(t, dict):
                raise ValueError(f"{where}: not an object")
            for field in ("exps", "num", "den"):
                if field not in t:
                    raise ValueError(f"{where}: missing field {field!r}")
            exps = t["exps"]
            if not isinstance(exps, list) or len(exps) != size:
                raise ValueError(f"{where}: 'exps' must list {size} exponents")
            for x in exps:
                if _json_int(x, f"{where}: exponent") < 0:
                    raise ValueError(f"{where}: negative exponent {x}")
            if sum(exps) % mod:
                raise ValueError(f"{where}: degree {sum(exps)} is not a multiple of N = {mod}")
            num = _json_int(t["num"], f"{where}: 'num'")
            den = _json_int(t["den"], f"{where}: 'den'")
            if den == 0:
                raise ValueError(f"{where}: zero denominator")
            terms.append((exps, Fraction(num, den)))
        return cls(registry, trunc, terms)


# -- free functions over Series ---------------------------------------------------


def odot_many(fs) -> Series:
    """Graded product of several series, folded left to right."""
    fs = list(fs)
    if not fs:
        raise ValueError("odot_many needs at least one operand")
    acc = fs[0]
    for f in fs[1:]:
        acc = acc.odot(f)
    return acc


def geometric(form: Series, trunc: int) -> Series:
    """1/(1 - form) truncated: 1 + form + form^2 + ...

    ``form`` must have zero constant term, otherwise the expansion is not a
    well-defined truncated series.  The form is taken as an exact polynomial:
    its own truncation bound is re-set to ``trunc`` before expanding.
    """
    if form.coefficient((0,) * form.registry.size) != 0:
        raise ValueError("geometric expansion needs a form with zero constant term")
    f = form.with_trunc(trunc)
    result = Series.one(form.registry, f.trunc)
    power = result
    while True:
        power = power * f
        if power.is_zero():
            break
        result = result + power
    return result


# -- packed-exponent kernel ---------------------------------------------------------
#
# Every packed dict in the package uses this one layout: the series
# pipelines (genfun.f_series, RationalExpr.expand), the P numerators
# (ratfun.p_polynomial) and the numerators of rational terms, which stay
# packed from the closed product to the renderer, run on plain
# {monomial: coefficient} dicts whose monomials are packed ints.  The
# series pipelines pack once on entry and unpack once on exit, so
# Series.terms and SymPoly.terms stay tuple-keyed.
#
# Layout for `size` variables and a degree bound D, with w = _width(D): the
# total degree sits in the lowest bit field [0, w) and variable i in the
# field [(i+1)*w, (i+2)*w).  A monomial product is one integer addition
# (the degree fields add along) and a degree read is one mask.  Since the
# degree sits at the bottom, a variable keeps its bits however many
# variables follow it.
#
# No field can wrap: every operation forms a product only when its total
# degree is <= D, and a total degree bounds every single exponent, so each
# field stays <= D < 2**w.  The one guard sits in _Packing.mono: it raises
# OverflowError on an exponent that is negative or on a monomial whose
# degree does not fit a field.


def _width(bound: int) -> int:
    """Bits per field for polynomials of total degree <= bound."""
    return max(1, bound.bit_length())


def _padd_into(acc: dict, terms: dict, c=1) -> None:
    """acc += c * terms in place, so a running sum is never copied.  It
    never looks inside its keys, so it serves packed and tuple keys alike."""
    for e, v in terms.items():
        v = acc.get(e, 0) + v * c
        if v:
            acc[e] = v
        elif e in acc:
            del acc[e]


class _Packing:
    """The packed layout for ``size`` variables of total degree <= bound.
    ``mask`` reads the degree field, and ``shifts[i]`` is where variable i
    starts."""

    __slots__ = ("width", "shifts", "mask")

    def __init__(self, size: int, bound: int):
        self.width = _width(bound)
        self.shifts = tuple(range(self.width, self.width * (size + 1), self.width))
        self.mask = (1 << self.width) - 1

    def mono(self, exps) -> int:
        key = sum(exps)
        if key > self.mask:
            raise OverflowError(f"degree {key} does not fit a {self.width}-bit field")
        for x, s in zip(exps, self.shifts):
            if x < 0:
                raise OverflowError(f"exponent {x} is negative")
            key += x << s
        return key

    def pack(self, terms: dict, limit: int) -> dict:
        """Tuple-keyed terms packed; terms of degree > limit are dropped."""
        return {self.mono(e): c for e, c in terms.items() if sum(e) <= limit}

    def unpack(self, terms: dict, order=None) -> dict:
        """Packed terms as tuples over the variables in ``order`` (all of
        them, in layout order, by default).  A layout of 8-bit fields in
        layout order reads each key as its little-endian bytes, the degree
        byte first."""
        if order is None and self.width == 8:
            nbytes = len(self.shifts) + 1
            return {tuple(e.to_bytes(nbytes, "little")[1:]): c for e, c in terms.items()}
        mask = self.mask
        shifts = self.shifts if order is None else [self.shifts[i] for i in order]
        return {tuple([(e >> s) & mask for s in shifts]): c for e, c in terms.items()}


def _slices(terms: dict, mask: int, limit: int) -> dict:
    """degree -> the (monomial, coefficient) pairs of that degree <= limit;
    ``mask`` is the layout's degree mask, as in every kernel function."""
    out: dict = {}
    for e, c in terms.items():
        d = e & mask
        if d <= limit:
            if d in out:
                out[d].append((e, c))
            else:
                out[d] = [(e, c)]
    return out


def _pmul_trunc(a: dict, b: dict, mask: int, limit: int, weight=None) -> dict:
    """a * b without the terms of degree > limit.  With ``weight``, a term
    pair of degrees (d1, d2) picks up the factor weight(d1, d2)."""
    right = _slices(b, mask, limit)
    out: dict = {}
    get = out.get
    for d1, lterms in _slices(a, mask, limit).items():
        for d2, rterms in right.items():
            if d1 + d2 > limit:
                continue
            w = 1 if weight is None else weight(d1, d2)
            for e1, c1 in lterms:
                c1 *= w
                for e2, c2 in rterms:
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _podot(a: dict, b: dict, mask: int, limit: int, modulus: int) -> dict:
    """The graded product: a term pair of levels (k, l) = (d1/N, d2/N)
    picks up C(k+l, k), read off the degree fields."""
    def weight(d1, d2):
        return math.comb((d1 + d2) // modulus, d1 // modulus)

    return _pmul_trunc(a, b, mask, limit, weight)


def _premap(terms: dict, src: _Packing, dst: _Packing, where) -> dict:
    """Send variable i of ``src`` to variable where[i] of ``dst``, which is
    None for a variable that no term uses.  The targets must be distinct
    and the degrees must fit ``dst``.  Where both layouts share one width,
    source variables that land on consecutive target variables move
    together, as one masked block."""
    runs = []  # [first source variable, first target variable, length]
    for i, t in enumerate(where):
        if t is None:
            continue
        last = runs[-1] if runs else None
        if last and src.width == dst.width and last[0] + last[2] == i and last[1] + last[2] == t:
            last[2] += 1
        else:
            runs.append([i, t, 1])
    width = src.width
    moves = [(src.shifts[i], (1 << (width * k)) - 1, dst.shifts[t]) for i, t, k in runs]
    mask = src.mask
    out = {}
    for e, c in terms.items():
        key = e & mask
        for s, block, t in moves:
            key += ((e >> s) & block) << t
        out[key] = c
    return out


def _pshift(terms: dict, mono: int, mask: int, limit: int) -> dict:
    """Multiply by one packed monomial, dropping terms pushed past limit."""
    room = limit - (mono & mask)
    return {e + mono: c for e, c in terms.items() if e & mask <= room}


def _pdiv_one_minus(f: dict, u: dict, mask: int, limit: int) -> dict:
    """f / (1 - u) truncated at degree limit; u must have no constant term.

    The quotient r satisfies r = f + u*r, so slice by slice in degree
    r_d = f_d + sum_t c_t * t * r_(d - deg t) over the terms c_t * t of u.
    Every r_(d - deg t) is complete before r_d is built, and the work is
    |r| * |u| rather than |f| * |1 + u + u^2 + ...|.
    """
    steps = [(t, c, t & mask) for t, c in u.items() if t & mask <= limit]
    if any(dt == 0 for _, _, dt in steps):
        raise ValueError("dividing by 1 - u needs u without a constant term")
    r: dict = {}  # degree -> slice of the quotient
    for e, c in f.items():
        d = e & mask
        if d <= limit:
            r.setdefault(d, {})[e] = c
    for d in range(min(r, default=limit + 1), limit + 1):
        acc = r.get(d, {})
        get = acc.get
        for t, ct, dt in steps:
            for e, c in r.get(d - dt, {}).items():
                e += t
                acc[e] = get(e, 0) + ct * c
        acc = {e: c for e, c in acc.items() if c}
        if acc:
            r[d] = acc
        else:
            r.pop(d, None)
    out: dict = {}
    for part in r.values():
        out.update(part)
    return out


# -- the q-side: exponential rearrangement ------------------------------------------


class QSeries(_Value):
    """Polynomial in an auxiliary variable q whose q^k coefficient is a
    homogeneous series of total degree N*k."""

    __slots__ = ("registry", "trunc", "order", "parts")

    def __init__(self, registry: VariableRegistry, trunc: int, order: int, parts):
        _json_int(trunc, "truncation bound")
        if _json_int(order, "order") < 0:
            raise ValueError("order must be >= 0")
        clean: dict[int, Series] = {}
        for k, part in dict(parts).items():
            if not 0 <= k <= order:
                raise ValueError(f"part index {k} outside 0..{order}")
            if part.registry != registry:
                raise RegistryMismatch("part registry differs from the q-series registry")
            d = k * registry.modulus
            if any(sum(e) != d for e in part.terms):
                raise ValueError(f"part {k} is not homogeneous of degree {d}")
            if not part.is_zero():
                clean[k] = part.with_trunc(trunc)
        self._fill(registry, trunc, order, clean)

    def part(self, k: int) -> Series:
        if k in self.parts:
            return self.parts[k]
        return Series.zero(self.registry, self.trunc)

    def __repr__(self) -> str:
        return f"QSeries(order={self.order}, parts={sorted(self.parts)})"

    def __mul__(self, other):
        """Cauchy product in q; the x-side products truncate as usual."""
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.registry != other.registry:
            raise RegistryMismatch("operands live over different variable registries")
        trunc = min(self.trunc, other.trunc)
        order = min(self.order, other.order)
        # part r has degree N*r, so a product kept here is never truncated
        sums: dict[int, dict] = {}
        for i, pa in self.parts.items():
            for j, pb in other.parts.items():
                r = i + j
                if r <= order and r * self.registry.modulus <= trunc:
                    _padd_into(sums.setdefault(r, {}), _tmul(pa.terms, pb.terms))
        parts = {r: Series._make(self.registry, trunc, t) for r, t in sums.items() if t}
        return QSeries._make(self.registry, trunc, order, parts)

    to_text = Series.to_text

    def _text_chunks(self):
        """to_text() piece by piece: each part's 'q^k:' line, then its terms."""
        if not self.parts:
            yield "\n"
        for k in sorted(self.parts):
            yield from _text_lines(self.registry, self.parts[k].terms, f"q^{k}:\n", "  ")

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.registry.names),
            "N": self.registry.modulus,
            "D": self.trunc,
            "order": self.order,
            "parts": {str(k): self.parts[k].to_json_dict() for k in sorted(self.parts)},
        }


def e_transform(f: Series) -> QSeries:
    """Rearrange f into sum_k f_(k) q^k / k! (the exponential transform)."""
    N = f.registry.modulus
    levels: dict[int, dict] = {}  # level k -> the terms of degree N*k
    for e, c in f.terms.items():
        levels.setdefault(sum(e) // N, {})[e] = c
    parts = {
        k: Series._make(f.registry, f.trunc, levels[k]).scale(Fraction(1, math.factorial(k)))
        for k in sorted(levels)
    }
    return QSeries._make(f.registry, f.trunc, f.trunc // N, parts)


def e_inverse(h: QSeries) -> Series:
    """Undo e_transform: replace q^k/k! by 1, i.e. sum k! * part_k."""
    acc: dict = {}
    for k, part in h.parts.items():
        _padd_into(acc, part.terms, math.factorial(k))
    return Series._make(h.registry, h.trunc, acc)
