"""Regenerate reference.json: the fingerprint of every job any seed can draw.

    python3 perfbench/make_reference.py

Each job is run once, through the same child processes and renderings as a
benchmark pass.  The references pin the program's outputs: regenerate them
only in a change that means to alter an output, and say so in that change.
"""

import json
import platform
import sys
import time

import bench_jobs
import run


def main() -> int:
    reference = {}
    for workload in bench_jobs.WORKLOADS:
        jobs = bench_jobs.universe(workload)
        bench = run.Bench(run.ROOT, workload, 0, time.monotonic() + 3600)
        bench.warm_up()
        result = bench.run_pass(jobs, False, f"reference-{workload}")
        for outcome in result["outcomes"]:
            if outcome.get("error") or outcome.get("problem"):
                print(f"{outcome['id']}: {outcome.get('error') or outcome['problem']}", file=sys.stderr)
                return 1
            reference[outcome["id"]] = {"terms": outcome["terms"], "sha256": outcome["sha256"]}
        print(f"{workload}: {len(jobs)} jobs", file=sys.stderr)
    header = {
        "git_commit": run.git_commit(run.ROOT),
        "source_sha256": run.source_digest(run.ROOT),
        "python": platform.python_version(),
    }
    path = run.HERE / "reference.json"
    path.write_text(json.dumps({"generated_from": header, "jobs": reference}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} fingerprints to {path.relative_to(run.ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
