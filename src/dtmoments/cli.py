"""Command-line front end.

Every command prints a deterministic report on standard output: text for
human reading, JSON (with an embedded version field) as the machine
contract.  Exit codes: 0 on success, 1 when a computation fails (e.g. a
distinctness collision in rational mode), 2 on usage errors.
"""

import argparse
import json
import sys
from fractions import Fraction

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
    payload = {"version": __version__, **payload}
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
                "moment": None if m_frac is None else str(Fraction(m_frac)),
            }
        )
    elif m_frac is None:
        print(f"N={n}")
    else:
        print(f"N={n} M={m_frac}")


def _cmd_series(args) -> None:
    fs = f_series(args.n, args.D)
    if args.output == "json":
        _emit_json(fs.to_json_dict())
    else:
        sys.stdout.write(fs.to_text())


def _cmd_rational(args) -> None:
    expr = f_rational(args.n)
    if args.output == "json":
        _emit_json({"n": args.n, **expr.to_json_dict()})
    else:
        print(expr.pretty())


def _read_series(path: str) -> Series:
    with open(path, "r", encoding="ascii") as fh:
        return Series.from_text(fh.read())


def _cmd_odot(args) -> None:
    f = _read_series(args.left)
    g = _read_series(args.right)
    out = f.odot(g)
    if args.output == "json":
        _emit_json(out.to_json_dict())
    else:
        sys.stdout.write(out.to_text())


def _cmd_etransform(args) -> None:
    f = _read_series(args.series)
    out = e_transform(f)
    if args.output == "json":
        _emit_json(out.to_json_dict())
    else:
        sys.stdout.write(out.to_text())


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
    try:
        args.func(args)
    except (DistinctnessViolation, ExactDivisionError, RecursionError) as exc:
        print(f"dtmoments: computation failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"dtmoments: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"dtmoments: error: {exc}", file=sys.stderr)
        return 2
    return 0
