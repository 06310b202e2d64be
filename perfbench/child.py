"""One cold pass of a benchmark workload, in a fresh interpreter.

Run by ``run.py``, never by hand.  The runner measures set-up as the time
from spawning this interpreter to the moment ``import dtmoments.cli`` has
finished, read on the shared monotonic clock, so that import comes first.

    child.py --probe     import, report, exit
    child.py             read a JSON spec on stdin, run it, print a JSON result

A spec is ``{"mode": "jobs" | "cli", "jobs": [...], "trace": bool,
"spans_out": path or null, "workdir": path}``.  Mode "jobs" runs library
jobs in this process; mode "cli" runs each job's argv through
``dtmoments.cli.main`` with stdout captured (the traced form of the cli
workload).  Fingerprints are taken after the timed region, with tracing
paused.
"""

import sys
import time

import dtmoments.cli  # the import whose cost set-up time measures

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import bench_jobs  # noqa: E402
import bench_trace  # noqa: E402


def _probe() -> dict:
    return {"ready": READY, "package": os.path.dirname(os.path.abspath(dtmoments.__file__))}


def _run_library_jobs(spec: dict, tracer) -> tuple:
    outcomes = []
    results = []
    wall = 0.0
    for job in spec["jobs"]:
        if tracer is not None:
            tracer.begin_job(job["id"])
        start = time.perf_counter()
        try:
            result, error = bench_jobs.run_job(dtmoments, job), None
        except Exception as exc:  # a failed job is counted, the pass goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        wall += seconds
        if tracer is not None:
            tracer.end_job()
        results.append(result)
        outcomes.append({"id": job["id"], "seconds": seconds, "error": error})
    # Rendering is not part of the work being timed or traced.
    if tracer is not None:
        tracer.enabled = False
    for job, result, outcome in zip(spec["jobs"], results, outcomes):
        if outcome["error"] is not None:
            continue
        try:
            text, terms, problem = bench_jobs.render(job, result)
        except Exception as exc:
            outcome["error"] = f"rendering failed: {type(exc).__name__}: {exc}"
            continue
        outcome.update(terms=terms, sha256=bench_jobs.fingerprint(text), problem=problem)
    return wall, outcomes


def _run_cli_jobs(spec: dict, tracer) -> tuple:
    outcomes = []
    wall = 0.0
    workdir = spec["workdir"]
    for job in spec["jobs"]:
        argv = [
            os.path.join(workdir, a[1:]) if a.startswith(bench_jobs.FILE_MARK) else a
            for a in job["args"]
        ]
        if tracer is not None:
            tracer.begin_job(job["id"])
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = dtmoments.cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except SystemExit as exc:
            error = f"exit code {exc.code}"
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        wall += seconds
        if tracer is not None:
            tracer.end_job()
        data = out.getvalue().encode("utf-8")
        if job.get("stdout_to"):
            with open(os.path.join(workdir, job["stdout_to"]), "wb") as fh:
                fh.write(data)
        outcome = {"id": job["id"], "seconds": seconds, "error": error}
        if error is None:
            outcome.update(terms=data.count(b"\n"), sha256=bench_jobs.fingerprint(data), problem=None)
        outcomes.append(outcome)
    return wall, outcomes


def main() -> int:
    if sys.argv[1:] == ["--probe"]:
        json.dump(_probe(), sys.stdout)
        return 0
    spec = json.load(sys.stdin)
    tracer = None
    if spec.get("trace"):
        tracer = bench_trace.Tracer()
        tracer.install()
    if spec["mode"] == "cli":
        wall, outcomes = _run_cli_jobs(spec, tracer)
    else:
        wall, outcomes = _run_library_jobs(spec, tracer)
    payload = {
        **_probe(),
        "wall_s": wall,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": outcomes,
        "trace": None,
    }
    if tracer is not None:
        tracer.enabled = False
        payload["trace"] = tracer.summary()
        if spec.get("spans_out"):
            tracer.write_spans(spec["spans_out"])
    json.dump(payload, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
