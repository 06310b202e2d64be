"""dtmoments benchmark runner.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Runs a closed loop with one client: one pass after another, each pass a
fresh interpreter (``child.py``) or, on the cli workload, one fresh
interpreter per command, with at most this runner and one child alive.
Passes start while the next one is expected to finish within ``--seconds``;
the first always runs.  Every job's output is fingerprinted and compared
with ``reference.json``; a mismatch, an exception or a nonzero exit counts
as a failed job, never as a timing.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported.
With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones (spans around the package's entry
points, see ``bench_trace.py``); a metric whose entry point no longer
exists is left out.

The last line of stdout is the JSON result.  A full record (environment
header, every sample, every failure) goes to ``.perfbench_out/results/``
and the spans of traced passes to ``.perfbench_out/spans/``.  The
benchmark pins no CPU, drops no cache and changes no cgroup.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ".perfbench_out"
PROBES_PER_PASS = 2
RUN_LIMIT_S = 170.0


class SetupError(RuntimeError):
    """The tree cannot be benchmarked: sources or the package are missing."""


class ChildError(RuntimeError):
    """A child process failed as a whole (crash, timeout, unreadable output)."""


class Bench:
    """Spawns the children of one run against the sources under ``root``."""

    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = Path(root)
        self.workload = workload
        self.deadline = deadline
        self.package = self.root / "src" / "dtmoments"
        self.out = self.root / OUT_DIR
        self.workdir = self.out / "work" / workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(self.root / "src")
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)

    def _timeout(self) -> float:
        return max(5.0, self.deadline - time.monotonic())

    def _spawn(self, argv, **kwargs) -> tuple:
        start = time.monotonic()
        try:
            proc = subprocess.run(
                argv, cwd=self.root, env=self.env, timeout=self._timeout(), **kwargs
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildError(f"timed out: {' '.join(map(str, argv[3:]))[:200]}") from exc
        return proc, start, time.monotonic()

    def child(self, spec=None) -> dict:
        """Run child.py (a probe when ``spec`` is None) and read its result."""
        argv = [sys.executable, "-s", str(HERE / "child.py")]
        if spec is None:
            argv.append("--probe")
        proc, start, end = self._spawn(
            argv, input=json.dumps(spec) if spec else None, capture_output=True, text=True
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            raise ChildError(f"child exited with {proc.returncode}: {tail[0]}")
        try:
            data = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            raise ChildError("child printed no result") from exc
        if Path(data["package"]).resolve() != self.package.resolve():
            raise SetupError(f"imported dtmoments from {data['package']}, not {self.package}")
        data["setup_s"] = data["ready"] - start
        data["spawn_to_exit_s"] = end - start
        return data

    def probe(self) -> float:
        return self.child()["setup_s"]

    def warm_up(self) -> None:
        """Fill the bytecode caches once, outside any measurement."""
        try:
            self.probe()
        except ChildError as exc:
            raise SetupError(f"cannot import dtmoments from {self.package}: {exc}") from exc
        if self.workload == "cli":
            self._spawn([sys.executable, "-s", "-m", "dtmoments", "--version"], capture_output=True)

    # -- passes --

    def run_pass(self, jobs: list, trace: bool, spans_name: str) -> dict:
        probes = [self.probe() for _ in range(PROBES_PER_PASS)]
        if self.workload == "cli":
            result = self._cli_pass(jobs, trace, spans_name)
        else:
            result = self._library_pass(jobs, trace, spans_name)
        result.update(traced=trace, probe_setups=probes)
        return result

    def _spans_path(self, name: str):
        spans = self.out / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        return str(spans / f"{name}.tsv.gz")

    def _library_pass(self, jobs, trace, spans_name) -> dict:
        spec = {
            "mode": "jobs",
            "jobs": jobs,
            "trace": trace,
            "spans_out": self._spans_path(spans_name) if trace else None,
        }
        try:
            data = self.child(spec)
        except ChildError as exc:
            return _failed_pass(jobs, str(exc))
        return {
            "wall_s": data["wall_s"],
            "rss_mb": data["rss_kb"] / 1024,
            # The command a user waits for here is the whole pass process.
            "latencies_s": [data["spawn_to_exit_s"]],
            "outcomes": data["jobs"],
            "child_setups": [data["setup_s"]],
            "traces": [data["trace"]] if trace else [],
        }

    def _fresh_workdir(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def _cli_pass(self, jobs, trace, spans_name) -> dict:
        self._fresh_workdir()
        outcomes, latencies, setups, traces = [], [], [], []
        for i, job in enumerate(jobs):
            try:
                if trace:
                    spec = {
                        "mode": "cli",
                        "jobs": [job],
                        "trace": True,
                        "spans_out": self._spans_path(f"{spans_name}-cmd{i:02d}"),
                        "workdir": str(self.workdir),
                    }
                    data = self.child(spec)
                    outcome = data["jobs"][0]
                    seconds = data["spawn_to_exit_s"]
                    setups.append(data["setup_s"])
                    traces.append(data["trace"])
                else:
                    outcome, seconds = self._cli_command(job)
            except ChildError as exc:
                outcome, seconds = {"id": job["id"], "error": str(exc)}, None
            outcomes.append(outcome)
            if seconds is not None:
                latencies.append(seconds)
        return {
            "wall_s": sum(latencies) if len(latencies) == len(jobs) else None,
            "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "latencies_s": latencies,
            "outcomes": outcomes,
            "child_setups": setups,
            "traces": traces,
        }

    def _cli_command(self, job) -> tuple:
        argv = [sys.executable, "-s", "-m", "dtmoments"]
        argv += [
            str(self.workdir / a[1:]) if a.startswith(bench_jobs.FILE_MARK) else a
            for a in job["args"]
        ]
        target = job.get("stdout_to")
        if target:
            with open(self.workdir / target, "wb") as fh:
                proc, start, end = self._spawn(argv, stdout=fh, stderr=subprocess.PIPE)
            data = (self.workdir / target).read_bytes()
        else:
            proc, start, end = self._spawn(argv, capture_output=True)
            data = proc.stdout
        outcome = {"id": job["id"], "seconds": end - start, "error": None}
        if proc.returncode != 0:
            outcome["error"] = f"exit code {proc.returncode}"
        else:
            outcome.update(terms=data.count(b"\n"), sha256=bench_jobs.fingerprint(data), problem=None)
        return outcome, end - start


def _failed_pass(jobs, reason: str) -> dict:
    return {
        "wall_s": None,
        "rss_mb": None,
        "latencies_s": [],
        "outcomes": [{"id": job["id"], "error": reason} for job in jobs],
        "child_setups": [],
        "traces": [],
    }


def check_outcomes(outcomes: list, reference: dict) -> list:
    """The failure reasons, one per failed job (an empty list: all passed)."""
    failures = []
    for o in outcomes:
        ref = reference.get(o["id"])
        reasons = []
        if o.get("error"):
            reasons.append(o["error"])
        else:
            if o.get("problem"):
                reasons.append(o["problem"])
            if ref is None:
                reasons.append("no reference fingerprint")
            elif (o["terms"], o["sha256"]) != (ref["terms"], ref["sha256"]):
                reasons.append(
                    f"fingerprint mismatch: {o['terms']} terms {o['sha256'][:12]}, "
                    f"reference {ref['terms']} terms {ref['sha256'][:12]}"
                )
        if reasons:
            failures.append({"id": o["id"], "reasons": reasons})
    return failures


def measure(bench: Bench, jobs: list, seconds: float, traced: bool) -> list:
    """Passes until the next one would overrun ``seconds``.

    Untraced runs make plain passes.  Traced runs make rounds of one
    untraced and one traced pass, so both sides of the overhead ratio come
    from the same run.
    """
    if traced:
        # Keep the spans of the latest traced run of each workload only.
        for old in (bench.out / "spans").glob(f"{bench.workload}-pass*"):
            old.unlink()
    start = time.monotonic()
    passes = []
    longest = 0.0
    while True:
        t = time.monotonic()
        index = len(passes)
        for trace in (False, True) if traced else (False,):
            passes.append(bench.run_pass(jobs, trace, f"{bench.workload}-pass{index:02d}"))
        longest = max(longest, time.monotonic() - t)
        now = time.monotonic()
        if now - start + longest > seconds or now + longest > bench.deadline:
            return passes


def _median(values):
    return statistics.median(values) if values else None


def _p90(values):
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(passes: list) -> tuple:
    """The end-to-end metrics of untraced passes, with their sample counts.

    ``cmd_p90_ms`` goes to the record only: just the cli workload has the
    ten samples beyond p90 that make it meaningful.
    """
    walls = [p["wall_s"] for p in passes if p["wall_s"] is not None]
    setups = [s for p in passes for s in p["probe_setups"] + p["child_setups"]]
    latencies_ms = [1000 * s for p in passes for s in p["latencies_s"]]
    rss = [p["rss_mb"] for p in passes if p["rss_mb"] is not None]
    metrics = {
        "setup_s": _median(setups),
        "wall_s": _median(walls),
        "cmd_p50_ms": _median(latencies_ms),
        "cmd_p90_ms": _p90(latencies_ms),
        "peak_rss_mb": max(rss) if rss else None,
    }
    samples = {"passes": len(walls), "setup_spawns": len(setups), "commands": len(latencies_ms)}
    return metrics, samples


def _merge_traces(traces: list) -> dict:
    """Sum the summaries of several traced processes (one per cli command)."""
    merged = {"calls": {}, "self_s": {}, "counters": {}, "missing": set(), "broken": set()}
    for t in traces:
        for part in ("calls", "self_s", "counters"):
            for k, v in t[part].items():
                merged[part][k] = merged[part].get(k, 0) + v
        merged["missing"].update(t["missing"])
        merged["broken"].update(t["broken"])
    return merged


def per_layer(passes: list, names: list) -> tuple:
    """The per-layer metrics of a traced run, and whether every count repeated."""
    traced = [p for p in passes if p["traced"] and p["traces"] and p["wall_s"] is not None]
    plain = [p for p in passes if not p["traced"] and p["wall_s"] is not None]
    if not traced:
        return {}, False
    summaries = [_merge_traces(p["traces"]) for p in traced]
    first = summaries[0]
    repeated = all(
        (s["calls"], s["counters"]) == (first["calls"], first["counters"]) for s in summaries[1:]
    )
    out = {}
    for name in names:
        prefix, _, suffix = name.rpartition(".")
        if name == "trace.overhead_ratio":
            if plain:
                out[name] = _median([p["wall_s"] for p in traced]) / _median([p["wall_s"] for p in plain])
        elif name == "cli.spawn_s":
            # The set-up of the traced children themselves, not of the probes.
            out[name] = _median([s for p in traced for s in p["child_setups"]])
        elif suffix == "calls" and prefix in first["calls"]:
            out[name] = first["calls"][prefix]
        elif suffix == "self_s" and prefix in first["self_s"]:
            out[name] = _median([s["self_s"][prefix] for s in summaries])
        elif name in first["counters"] and name not in first["broken"]:
            out[name] = first["counters"][name]
    return out, repeated


# -- environment header ---------------------------------------------------------


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git; None
    outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, path by path."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "loop": "closed, one client, one job at a time, at most one child alive",
        "isolation": "no CPU pinning, no cache dropping, no cgroup changes",
    }


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())["jobs"]


def run(root: Path, args) -> dict:
    """One benchmark run; returns the full record."""
    if not (root / "src" / "dtmoments" / "__init__.py").is_file():
        raise SetupError(f"no package sources under {root / 'src'}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    reference = load_reference()
    start = time.monotonic()
    bench = Bench(root, args.workload, args.seed, start + RUN_LIMIT_S)
    jobs = bench_jobs.make_jobs(args.workload, args.seed)
    bench.warm_up()
    passes = measure(bench, jobs, args.seconds, traced=bool(args.trace))
    for p in passes:
        p["failures"] = check_outcomes(p["outcomes"], reference)
    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    record = {"environment": environment(root, args)}
    if args.trace:
        declared = spec["per_layer"]
        values, record["counts_repeated"] = per_layer(passes, [m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        values, record["samples"] = end_to_end(passes)
        record["cmd_p90_ms"] = values["cmd_p90_ms"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if values.get(m["name"]) is not None
    }
    # A layer whose entry point was renamed away is reported absent; every
    # end-to-end metric must be there.
    record["absent"] = [m["name"] for m in declared if m["name"] not in metrics]
    record.update(
        correct=failed == 0 and (bool(args.trace) or not record["absent"]),
        attempted=attempted,
        failed=failed,
        fail_ratio={"failed": failed, "attempted": attempted, "ratio": failed / attempted},
        metrics=metrics,
        failures=[f for p in passes for f in p["failures"]][:50],
        passes=[
            {
                k: p[k]
                for k in ("traced", "wall_s", "rss_mb", "probe_setups", "child_setups", "latencies_s", "traces")
            }
            for p in passes
        ],
        elapsed_s=time.monotonic() - start,
    )
    return record


def write_record(root: Path, record: dict) -> Path:
    env = record["environment"]
    results = root / OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that subprocess.run
    # kills and reaps the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run(ROOT, args)
    except (SetupError, ChildError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = write_record(ROOT, record)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {record['failed']}/{record['attempted']} "
        f"jobs failed, record in {path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
