"""Command-line front end.

Every command prints a deterministic report on standard output: text for
human reading, JSON (with an embedded version field) as the machine
contract.  Exit codes: 0 on success, 1 when a computation fails (e.g. a
distinctness collision in rational mode) or the reader closes standard
output early, 2 on usage errors.
"""

import argparse
import json
import os
import sys
from collections.abc import Iterator

from . import __version__
from .fps import Series, e_transform
from .genfun import (
    check_conjecture,
    check_n3_identity,
    f_rational,
    f_series,
    g_diagonal,
    h_diagonal,
)
from .moments import MomentEngine, parse_key
from .ratfun import DistinctnessViolation, ExactDivisionError, p_polynomial

__all__ = ["main"]


def _emit_json(payload: dict) -> None:
    """Write {"version": ..., **payload} as json.dumps(indent=2,
    sort_keys=True) would, plus a newline.  A value that is an iterator is
    written item by item as a JSON list, so a long report is never held
    whole."""
    _write_json(sys.stdout.write, {"version": __version__, **payload}, "")
    sys.stdout.write("\n")


def _write_json(write, value, indent: str) -> None:
    if isinstance(value, dict) and any(isinstance(v, Iterator) for v in value.values()):
        sep = "{"
        for key in sorted(value):
            write(f"{sep}\n{indent}  {json.dumps(key)}: ")
            _write_json(write, value[key], indent + "  ")
            sep = ","
        write(f"\n{indent}}}")
    elif isinstance(value, Iterator):
        sep = "["
        for item in value:
            write(f"{sep}\n{indent}  ")
            _write_json(write, item, indent + "  ")
            sep = ","
        write("[]" if sep == "[" else f"\n{indent}]")
    else:
        write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent))


def _emit_series(out: Series, output: str) -> None:
    if output == "json":
        _emit_json(out.to_json_dict())
    else:
        sys.stdout.write(out.to_text())


def _cmd_moment(args) -> None:
    key = parse_key(args.key)
    engine = MomentEngine()
    n = engine.n_value(key)
    m_frac = engine.moment(key) if min(key) >= 0 else None
    if args.output == "json":
        _emit_json(
            {
                "key": list(key),
                "n_value": n,
                "moment": None if m_frac is None else str(m_frac),
            }
        )
    elif m_frac is None:
        print(f"N={n}")
    else:
        print(f"N={n} M={m_frac}")


def _cmd_series(args) -> None:
    _emit_series(f_series(args.n, args.D), args.output)


def _cmd_rational(args) -> None:
    # written piece by piece: the form lines first, then term by term
    expr = f_rational(args.n)
    if args.output == "json":
        terms = map(expr._json_term, expr.terms)
        _emit_json({"n": args.n, "forms": expr._json_forms(), "terms": terms})
    else:
        for chunk in expr._pretty_chunks():
            sys.stdout.write(chunk)
        sys.stdout.write("\n")


def _read_series(path: str) -> Series:
    with open(path, "r", encoding="ascii") as fh:
        return Series.from_text(fh.read())


def _cmd_odot(args) -> None:
    f = _read_series(args.left)
    g = _read_series(args.right)
    _emit_series(f.odot(g), args.output)


def _cmd_etransform(args) -> None:
    _emit_series(e_transform(_read_series(args.series)), args.output)


def _cmd_ppoly(args) -> None:
    poly = p_polynomial(args.m, args.n, args.k, args.l)
    if args.output == "json":
        _emit_json(
            {"m": args.m, "n": args.n, "k": args.k, "l": args.l, **poly.to_json_dict()}
        )
    else:
        print(poly.pretty())


def _cmd_diagonal(args) -> None:
    if args.kind == "g":
        if args.D is None:
            raise ValueError("diagonal --kind g needs --D")
        rows = sorted(g_diagonal(args.n, args.D).items(), key=lambda kv: (sum(kv[0]), kv[0]))
        if args.output == "json":
            _emit_json(
                {
                    "n": args.n,
                    "kind": "g",
                    "D": args.D,
                    "coefficients": [
                        {"key": list(ks), "value": v} for ks, v in rows
                    ],
                }
            )
        else:
            for ks, v in rows:
                print(",".join(map(str, ks)) + f" {v}")
    else:
        if args.K is None:
            raise ValueError("diagonal --kind h needs --K")
        coeffs = h_diagonal(args.n, args.K)
        if args.output == "json":
            _emit_json({"n": args.n, "kind": "h", "K": args.K, "coefficients": coeffs})
        else:
            for k, v in enumerate(coeffs):
                print(f"{k} {v}")


def _cmd_check_conjecture(args) -> None:
    report = check_conjecture(args.n, args.K)
    if args.output == "text":
        for row in report["rows"]:
            print(
                f"k={row['k']} expected={row['expected']} "
                f"computed={row['computed']} match={str(row['match']).lower()}"
            )
        print(f"all_match={str(report['all_match']).lower()}")
    else:
        _emit_json(report)


def _cmd_check_identity(args) -> None:
    match = check_n3_identity(args.p)
    if args.output == "text":
        print(f"p={args.p} match={str(match).lower()}")
    else:
        _emit_json({"p": args.p, "match": match})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtmoments",
        description="Exact *-moments of the quasi-nilpotent DT-operator "
        "and their generating functions.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--output",
            choices=["text", "json"],
            default=None,
            help="report format (default: text; json for the checkers)",
        )
        p.set_defaults(func=func)
        return p

    p = add("moment", _cmd_moment, "N and M of one moment key")
    p.add_argument("--key", required=True, help="flat key, e.g. 1,1,2,0")

    p = add("series", _cmd_series, "truncated generating function")
    p.add_argument("--n", type=int, required=True, help="variable pairs")
    p.add_argument("--D", type=int, required=True, help="total-degree bound")

    p = add("rational", _cmd_rational, "closed rational generating function")
    p.add_argument("--n", type=int, required=True, help="variable pairs")

    p = add("odot", _cmd_odot, "graded product of two serialized series")
    p.add_argument("left", help="series file (text serialization)")
    p.add_argument("right", help="series file (text serialization)")

    p = add("etransform", _cmd_etransform, "E-transform of a serialized series")
    p.add_argument("series", help="series file (text serialization)")

    p = add("ppoly", _cmd_ppoly, "universal product numerator polynomial")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = add("diagonal", _cmd_diagonal, "diagonal coefficient family")
    p.add_argument("--kind", choices=["g", "h"], required=True)
    p.add_argument("--n", type=int, required=True, help="variable pairs")
    p.add_argument("--D", type=int, default=None, help="degree bound (kind g)")
    p.add_argument("--K", type=int, default=None, help="index bound (kind h)")

    p = add("check-conjecture", _cmd_check_conjecture, "compare N(k,...,k) to n^(nk)")
    p.add_argument("--n", type=int, required=True, help="variable pairs")
    p.add_argument("--K", type=int, required=True, help="largest k")

    p = add("check-identity", _cmd_check_identity, "the three-pair multinomial identity")
    p.add_argument("--p", type=int, required=True, help="identity order")

    return parser


_JSON_DEFAULT = {"check-conjecture", "check-identity"}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.output is None:
        args.output = "json" if args.command in _JSON_DEFAULT else "text"
    # exact integers of any size go in and out as decimal text: lift the
    # interpreter's int-digit cap for this run only, since callers may share it
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): no message, exit 1,
        # and stdout goes to devnull so that the flush at exit cannot fail
        # again (the recipe of the Python signal docs)
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # no file behind stdout
            pass
        return 1
    except (DistinctnessViolation, ExactDivisionError, RecursionError, OverflowError) as exc:
        print(f"dtmoments: computation failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"dtmoments: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)
    return 0
