"""Spans around calls into the package's public entry points.

The tracer lives in the benchmark, not in the package: it replaces each
entry point with a wrapper where the package looks it up.  A module-level
function is replaced in every ``dtmoments`` module that holds a binding to
it (so ``genfun.odot_closed`` and ``ratfun.odot_closed`` are both caught);
a method is replaced on its class.  Calls made from inside the package
therefore open spans too.

Each span records its name, start, end, parent span and job.  Spans stay in
memory (in flat arrays) until the pass ends; a span's self time is its
duration minus the durations of its direct children.

An entry point that no longer exists is recorded as missing, and the metrics
that depend on it are reported absent instead of failing the run.
"""

import gzip
import importlib
import sys
from array import array
from dataclasses import dataclass
from functools import wraps
from time import perf_counter

PACKAGE = "dtmoments"


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: the metric prefix, where it lives, and the
    counters its calls feed (metric suffix -> callback)."""

    prefix: str
    module: str
    path: str
    counters: tuple = ()


def _out_terms(tracer, prefix, args, result):
    tracer.add(prefix + ".out_terms", len(result.terms))


def _engine_seen(tracer, prefix, args, result):
    engine = args[0]
    tracer.job_engines[id(engine)] = engine


def _ppoly_seen(tracer, prefix, args, result):
    tracer.add(prefix + ".out_terms", len(result.terms))
    tracer.distinct_args.setdefault(prefix, set()).add(args)
    tracer.counters[prefix + ".distinct"] = len(tracer.distinct_args[prefix])


def _term_pairs(tracer, prefix, args, result):
    left, right = args[0], args[1]
    tracer.add(prefix + ".term_pairs", len(left.terms) * len(right.terms))


def _rational_built(tracer, prefix, args, result):
    # Only expressions handed back to a caller outside f_rational's own
    # recursion count as built.
    if not tracer.active(prefix):
        tracer.add("ratfun.forms", len(result.table.forms))
        tracer.add("ratfun.terms", len(result.terms))


TARGETS = (
    Target("moments.n_value", "dtmoments.moments", "MomentEngine.n_value",
           (("moments.memo_entries", _engine_seen),)),
    Target("moments.canonical_key", "dtmoments.moments", "canonical_key"),
    Target("fps.mul", "dtmoments.fps", "Series.__mul__", (("fps.mul.out_terms", _out_terms),)),
    Target("fps.odot", "dtmoments.fps", "Series.odot", (("fps.odot.out_terms", _out_terms),)),
    Target("fps.add", "dtmoments.fps", "Series.__add__"),
    Target("fps.geometric", "dtmoments.fps", "geometric"),
    Target("fps.to_text", "dtmoments.fps", "Series.to_text"),
    Target("fps.from_text", "dtmoments.fps", "Series.from_text"),
    Target("ratfun.p_polynomial", "dtmoments.ratfun", "p_polynomial",
           (("ratfun.p_polynomial.out_terms", _ppoly_seen),
            ("ratfun.p_polynomial.distinct", _ppoly_seen))),
    Target("ratfun.form_id", "dtmoments.ratfun", "form_id"),
    Target("ratfun.odot_closed", "dtmoments.ratfun", "odot_closed",
           (("ratfun.odot_closed.term_pairs", _term_pairs),)),
    Target("ratfun.expr_add", "dtmoments.ratfun", "RationalExpr.__add__"),
    Target("ratfun.substitute", "dtmoments.ratfun", "RationalExpr.substitute"),
    Target("ratfun.expand", "dtmoments.ratfun", "RationalExpr.expand",
           (("ratfun.expand.out_terms", _out_terms),)),
    Target("ratfun.pretty", "dtmoments.ratfun", "RationalExpr.pretty"),
    Target("genfun.f_series", "dtmoments.genfun", "f_series"),
    Target("genfun.f_rational", "dtmoments.genfun", "f_rational",
           (("ratfun.forms", _rational_built), ("ratfun.terms", _rational_built))),
    Target("cli.main", "dtmoments.cli", "main"),
)


class Tracer:
    """Span recorder for one pass in one process."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.job_ids: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.enabled = True
        self.counters: dict[str, int] = {}
        self.broken: set[str] = set()
        self.missing: list[str] = []
        self.job_engines: dict = {}
        self.distinct_args: dict = {}
        self._undo: list = []

    # -- installing wrappers --

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            if not self._install_one(target):
                self.missing.append(target.prefix)
                self.broken.update(name for name, _ in target.counters)
                continue
            for name, _ in target.counters:
                self.counters.setdefault(name, 0)

    def _install_one(self, target: Target) -> bool:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return False
        owner_name, _, attr = target.path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(target, raw.__func__))
            else:
                new = self._wrap(target, raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = self._wrap(target, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
        return True

    def restore(self) -> None:
        """Put every original entry point back."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, target: Target, fn):
        tracer = self
        prefix = target.prefix
        name_id = self._intern(prefix)
        callbacks = []
        for _, callback in target.counters:
            if callback not in callbacks:
                callbacks.append(callback)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.job.append(len(tracer.job_ids) - 1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.start[idx] = start
                tracer._stack.pop()
            for callback in callbacks:
                tracer._count(callback, target, args, result)
            return result

        return traced

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    # -- counters --

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def active(self, prefix: str) -> bool:
        """Whether a span named ``prefix`` is open."""
        name_id = self._name_ids.get(prefix)
        return any(self.name[i] == name_id for i in self._stack[1:])

    def _count(self, callback, target: Target, args, result) -> None:
        try:
            callback(self, target.prefix, args, result)
        except AttributeError:
            # The result or argument no longer has the attribute a counter
            # reads: report those counters absent.
            self.broken.update(name for name, cb in target.counters if cb is callback)

    def begin_job(self, job_id: str) -> None:
        self.job_ids.append(job_id)

    def end_job(self) -> None:
        """Close the current job: add the memo sizes of the engines it used."""
        if "moments.memo_entries" in self.counters:
            try:
                self.add("moments.memo_entries", sum(e.memo_size for e in self.job_engines.values()))
            except AttributeError:
                self.broken.add("moments.memo_entries")
        self.job_engines.clear()

    # -- results --

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus counters and what is absent."""
        n = len(self.start)
        child_time = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        calls = {name: 0 for name in self.span_names}
        self_s = {name: 0.0 for name in self.span_names}
        for i in range(n):
            name = self.span_names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child_time[i]
        return {
            "calls": calls,
            "self_s": self_s,
            "counters": {k: v for k, v in self.counters.items() if k not in self.broken},
            "missing": sorted(self.missing),
            "broken": sorted(self.broken),
            "spans": n,
        }

    def write_spans(self, path) -> None:
        """All spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tparent\tjob\tname\tstart\tend\n")
            for i in range(len(self.start)):
                job = self.job[i]
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.job_ids[job] if job >= 0 else ''}\t"
                    f"{self.span_names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
