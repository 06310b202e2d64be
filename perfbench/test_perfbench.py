"""Tests of the benchmark itself: job generation, reference fingerprints,
failure accounting, exact trace counts and entry points that disappear.

They spawn the same child processes as a benchmark run, on small job lists.
"""

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import bench_jobs
import bench_trace
import run

REFERENCE = run.load_reference()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(workload, seed=1, root=run.ROOT):
    return run.Bench(root, workload, seed, time.monotonic() + 120)


def _counts(p):
    merged = run._merge_traces(p["traces"])
    return merged["calls"], merged["counters"]


def test_jobs_depend_only_on_the_seed():
    for workload in bench_jobs.WORKLOADS:
        jobs = bench_jobs.make_jobs(workload, 7)
        assert jobs == bench_jobs.make_jobs(workload, 7)
        assert {j["id"] for j in jobs} <= {j["id"] for j in bench_jobs.universe(workload)}
    for workload in ("oracle", "numerators", "cli"):
        assert bench_jobs.make_jobs(workload, 7) != bench_jobs.make_jobs(workload, 8)


def test_reference_covers_every_job_a_seed_can_draw():
    for workload in bench_jobs.WORKLOADS:
        missing = [j["id"] for j in bench_jobs.universe(workload) if j["id"] not in REFERENCE]
        assert missing == []


def test_expansion_and_series_fingerprints_agree_across_hash_seeds():
    jobs = [bench_jobs.library_job("expand", 5, 8), bench_jobs.library_job("series", 5, 8)]
    prints = set()
    for hash_seed in (1, 2, 3):
        result = _bench("closed_form", hash_seed).run_pass(jobs, False, "test")
        for outcome in result["outcomes"]:
            assert outcome["error"] is None and outcome["problem"] is None
            prints.add((outcome["terms"], outcome["sha256"]))
    assert len(prints) == 1
    assert prints == {(REFERENCE["expand:5:8"]["terms"], REFERENCE["expand:5:8"]["sha256"])}


def test_tampered_output_shows_up_in_fail_ratio(tmp_path):
    shutil.copytree(run.ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    with open(tmp_path / "src" / "dtmoments" / "genfun.py", "a") as fh:
        fh.write(
            "\n\n_untampered_f_series = f_series\n\n\n"
            "def f_series(n, D):\n"
            "    series = _untampered_f_series(n, D)\n"
            "    return series + series\n"
        )
    args = argparse.Namespace(workload="cli", seed=1, seconds=0.1, trace=0)
    record = run.run(tmp_path, args)
    failed_ids = {f["id"] for f in record["failures"]}
    assert "cli:series --n 2 --D 8" in failed_ids
    assert "cli:moment --key 1,1,1,1" not in failed_ids
    assert 0 < record["fail_ratio"]["failed"] < record["fail_ratio"]["attempted"]
    assert record["fail_ratio"]["ratio"] == record["failed"] / record["attempted"]
    assert record["correct"] is False
    reasons = [r for f in record["failures"] for r in f["reasons"]]
    assert any(r.startswith("fingerprint mismatch") for r in reasons)


def test_traced_counts_repeat_exactly():
    jobs = [
        bench_jobs.library_job("series", 3, 20),
        bench_jobs.library_job("conjecture", 5, 6),
        bench_jobs.library_job("rational", 5),
        bench_jobs.library_job("expand", 5, 8),
        bench_jobs.library_job("ppoly", 3, 4, 0, 0),
    ]
    bench = _bench("oracle")
    first = bench.run_pass(jobs, True, "test-a")
    second = bench.run_pass(jobs, True, "test-b")
    for p in (first, second):
        assert run.check_outcomes(p["outcomes"], REFERENCE) == []
    assert _counts(first) == _counts(second)
    calls, counters = _counts(first)
    assert calls["moments.n_value"] > 0 and calls["ratfun.form_id"] > 0
    for name in ("moments.memo_entries", "ratfun.forms", "ratfun.terms", "ratfun.p_polynomial.distinct"):
        assert counters[name] > 0


def test_numerator_jobs_touch_no_series_and_no_moments():
    jobs = [bench_jobs.library_job("ppoly", 3, 4, k, 0) for k in range(3)]
    p = _bench("numerators").run_pass(jobs, True, "test")
    assert run.check_outcomes(p["outcomes"], REFERENCE) == []
    calls, counters = _counts(p)
    assert calls["ratfun.p_polynomial"] == 3 and counters["ratfun.p_polynomial.distinct"] == 3
    assert calls["moments.n_value"] == calls["ratfun.form_id"] == calls["fps.mul"] == 0


def test_traced_cli_command_matches_the_untraced_one():
    jobs = [bench_jobs.cli_job(("rational", "--n", "3"))]
    bench = _bench("cli")
    plain = bench.run_pass(jobs, False, "test")
    first = bench.run_pass(jobs, True, "test-a")
    second = bench.run_pass(jobs, True, "test-b")
    for p in (plain, first, second):
        assert run.check_outcomes(p["outcomes"], REFERENCE) == []
    assert _counts(first) == _counts(second)
    assert _counts(first)[0]["cli.main"] == 1


def test_missing_entry_points_are_reported_absent():
    from dtmoments import fps, ratfun

    original = ratfun.form_id
    targets = (
        bench_trace.Target("ratfun.form_id", "dtmoments.ratfun", "form_id"),
        bench_trace.Target(
            "ratfun.renamed", "dtmoments.ratfun", "no_such_function",
            (("ratfun.renamed.out_terms", bench_trace._out_terms),),
        ),
        bench_trace.Target("fps.renamed", "dtmoments.fps", "Series.no_such_method"),
        bench_trace.Target("gone.f", "dtmoments.no_such_module", "f"),
    )
    tracer = bench_trace.Tracer()
    try:
        tracer.install(targets)
        assert ratfun.form_id is not original
        registry = fps.VariableRegistry.zw_pairs(1)
        form = fps.Series(registry, 2, {(1, 1): 1})
        ratfun.RationalExpr.geometric_term(registry, form)
    finally:
        tracer.restore()
    assert ratfun.form_id is original
    summary = tracer.summary()
    assert summary["missing"] == ["fps.renamed", "gone.f", "ratfun.renamed"]
    assert summary["calls"]["ratfun.form_id"] == 1
    traced = {"traced": True, "traces": [summary], "wall_s": 1.0, "child_setups": [0.1]}
    plain = {"traced": False, "traces": [], "wall_s": 1.0}
    names = ["ratfun.form_id.calls", "ratfun.renamed.calls", "ratfun.renamed.out_terms", "fps.renamed.self_s"]
    values, repeated = run.per_layer([plain, traced], names)
    assert values == {"ratfun.form_id.calls": 1}
    assert repeated


def test_per_layer_names_match_the_tracer():
    declared = {m["name"] for m in SPEC["per_layer"]}
    prefixes = {t.prefix for t in bench_trace.TARGETS}
    counters = {name for t in bench_trace.TARGETS for name, _ in t.counters}
    for name in declared - counters - {"cli.spawn_s", "trace.overhead_ratio"}:
        prefix, _, suffix = name.rpartition(".")
        assert suffix in ("calls", "self_s") and prefix in prefixes, name


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / run.OUT_DIR).exists()
