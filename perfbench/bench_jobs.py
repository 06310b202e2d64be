"""The jobs of one benchmark pass, and how a child process runs and renders them.

A job is a plain dict ``{"id": str, "kind": str, "args": list}`` so that the
runner can send it to a child process as JSON.  ``make_jobs`` draws the jobs
of a workload from its seed; ``universe`` lists every job any seed can draw,
which is what the reference fingerprints cover.

Library jobs look up the package's public API at call time (``dt.f_series``
rather than a name bound at import), so that the tracer's wrappers, which
replace those bindings, see the calls.  Only API that survives the planned
removal of test-only routes is used: ``Series.odot``, ``RationalExpr.expand``,
``f_series``, ``f_rational``, ``p_polynomial``, ``check_conjecture`` and a
canonicalizing ``MomentEngine``.
"""

import hashlib
import json
import random

WORKLOADS = ("oracle", "closed_form", "numerators", "cli")

# oracle: the two-pipeline cross-check.
SERIES_LADDER = ((3, 20), (4, 12), (5, 10), (6, 8), (7, 6))
CONJECTURE_LADDER = ((5, 6), (6, 5), (7, 4))
# Non-diagonal balanced keys (sum k = sum l = m on n pairs), beyond the
# degrees the series ladder covers.  The pool is fixed; a seed samples it.
KEY_STRATA = ((3, 16), (4, 12), (5, 8))
KEY_POOL_PER_STRATUM = 64
KEYS_PER_STRATUM = 16

# closed_form: the closed graded product and rational -> series expansion.
RATIONAL_N = (5, 6)
EXPANSIONS = ((5, 8), (6, 6))

# numerators: the divided-difference kernel behind p_polynomial.
PPOLY_GRIDS = ((3, 4), (4, 3))
PPOLY_EXTRA = ((4, 4, 3, 3), (4, 4, 0, 3))

# cli: the README commands, each in a fresh interpreter.
CLI_FIXED = (
    ("moment", "--key", "1,1,1,1"),
    ("series", "--n", "2", "--D", "8"),
    ("series", "--n", "2", "--D", "8", "--output", "json"),
    ("rational", "--n", "3"),
    ("rational", "--n", "5"),
    ("ppoly", "--m", "2", "--n", "2", "--k", "1", "--l", "1", "--output", "json"),
    ("ppoly", "--m", "3", "--n", "3", "--k", "0", "--l", "0", "--output", "json"),
    ("diagonal", "--kind", "g", "--n", "2", "--D", "8"),
    ("diagonal", "--kind", "h", "--n", "2", "--K", "8"),
    ("check-conjecture", "--n", "3", "--K", "3"),
    ("check-identity", "--p", "3"),
)
CLI_SERIES_N = (1, 2, 3)
CLI_SERIES_D = (4, 6, 8)
# An argument starting with FILE_MARK names a file in the run's work directory.
FILE_MARK = "@"


def library_job(kind: str, *args) -> dict:
    return {"id": ":".join([kind, *(_id_part(a) for a in args)]), "kind": kind, "args": list(args)}


def _id_part(arg) -> str:
    if isinstance(arg, (list, tuple)):
        return ",".join(str(a) for a in arg)
    return str(arg)


def cli_job(argv, stdout_to=None) -> dict:
    job = {"id": "cli:" + " ".join(argv), "kind": "cli", "args": list(argv)}
    if stdout_to is not None:
        job["id"] += " > " + FILE_MARK + stdout_to
        job["stdout_to"] = stdout_to
    return job


def _random_composition(rng: random.Random, total: int, parts: int) -> list:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def key_pool() -> list:
    """The fixed pool of non-diagonal balanced keys, stratum by stratum."""
    rng = random.Random("perfbench-oracle-keys")
    pool = []
    for n, m in KEY_STRATA:
        seen = set()
        stratum = []
        while len(stratum) < KEY_POOL_PER_STRATUM:
            ks = _random_composition(rng, m, n)
            ls = _random_composition(rng, m, n)
            key = tuple(x for pair in zip(ks, ls) for x in pair)
            if ks == ls or key in seen:
                continue
            seen.add(key)
            stratum.append(key)
        pool.append(stratum)
    return pool


def _series_file(n: int, D: int) -> str:
    return f"series-{n}-{D}.txt"


def _cli_pool_jobs(n: int, d1: int, d2: int) -> list:
    a, b = _series_file(n, d1), _series_file(n, d2)
    return [
        cli_job(("series", "--n", str(n), "--D", str(d1)), stdout_to=a),
        cli_job(("series", "--n", str(n), "--D", str(d2)), stdout_to=b),
        cli_job(("odot", FILE_MARK + a, FILE_MARK + b)),
        cli_job(("etransform", FILE_MARK + a)),
    ]


def make_jobs(workload: str, seed: int) -> list:
    """The jobs of one pass of ``workload``; the same seed gives the same jobs."""
    rng = random.Random(f"perfbench-{workload}-{seed}")
    if workload == "oracle":
        # Fixed order, so that which results are alive together (and so the
        # peak memory) does not depend on the seed.
        jobs = [library_job("series", n, D) for n, D in SERIES_LADDER]
        for stratum in key_pool():
            jobs.extend(library_job("key", key) for key in rng.sample(stratum, KEYS_PER_STRATUM))
        jobs.extend(library_job("conjecture", n, K) for n, K in CONJECTURE_LADDER)
        return jobs
    if workload == "closed_form":
        # Fixed order: f_rational(6) builds on f_rational(5), so the first job
        # pays for n = 5 from cold and the second for n = 6 on top of it.
        return [library_job("rational", n) for n in RATIONAL_N] + [
            library_job("expand", n, D) for n, D in EXPANSIONS
        ]
    if workload == "numerators":
        # The seed permutes the cells within each group; the groups keep their
        # order, small to large, so that the peak memory (set by the 4x4
        # cells on top of the cached grids) barely depends on the seed.
        groups = [
            [library_job("ppoly", m, n, k, l) for k in range(m) for l in range(n)]
            for m, n in PPOLY_GRIDS
        ]
        groups.append([library_job("ppoly", *cell) for cell in PPOLY_EXTRA])
        jobs = []
        for group in groups:
            rng.shuffle(group)
            jobs.extend(group)
        return jobs
    if workload == "cli":
        jobs = [cli_job(argv) for argv in CLI_FIXED]
        rng.shuffle(jobs)
        n = rng.choice(CLI_SERIES_N)
        d1, d2 = rng.sample(CLI_SERIES_D, 2)
        # The series files are written before the commands that read them.
        return jobs + _cli_pool_jobs(n, d1, d2)
    raise ValueError(f"unknown workload {workload!r}")


def universe(workload: str) -> list:
    """Every job that some seed can draw for ``workload``, without repeats."""
    if workload == "oracle":
        jobs = [library_job("series", n, D) for n, D in SERIES_LADDER]
        jobs.extend(library_job("key", key) for stratum in key_pool() for key in stratum)
        jobs.extend(library_job("conjecture", n, K) for n, K in CONJECTURE_LADDER)
    elif workload == "cli":
        jobs = [cli_job(argv) for argv in CLI_FIXED]
        for n in CLI_SERIES_N:
            for d1 in CLI_SERIES_D:
                for d2 in CLI_SERIES_D:
                    if d1 != d2:
                        jobs.extend(_cli_pool_jobs(n, d1, d2))
    else:
        jobs = make_jobs(workload, 0)
    unique = {}
    for job in jobs:
        unique.setdefault(job["id"], job)
    return list(unique.values())


# -- running library jobs inside a child process ---------------------------------


def run_job(dt, job: dict):
    """Do the work of one library job; ``dt`` is the imported package.

    Returns the job's raw result; ``render`` turns it into text afterwards,
    outside the timed region.
    """
    kind, args = job["kind"], job["args"]
    if kind == "series":
        fs = dt.f_series(*args)
        engine = dt.MomentEngine()
        mismatches = sum(1 for exps, c in fs.terms.items() if engine.n_value(exps) != c)
        return fs, mismatches
    if kind == "key":
        return dt.MomentEngine().n_value(tuple(args[0]))
    if kind == "conjecture":
        return dt.check_conjecture(*args)
    if kind == "rational":
        return dt.f_rational(*args)
    if kind == "expand":
        n, D = args
        return dt.f_rational(n).expand(D)
    if kind == "ppoly":
        return dt.p_polynomial(*args)
    raise ValueError(f"unknown job kind {kind!r}")


def render(job: dict, result) -> tuple:
    """(canonical text, term count, problem or None) of a job's result.

    A problem is a check the job itself failed, independent of the reference
    fingerprint: a series coefficient the recursion disagrees with, or a
    conjecture ladder that does not match.
    """
    kind = job["kind"]
    if kind == "series":
        fs, mismatches = result
        problem = f"{mismatches} coefficients differ from the recursion" if mismatches else None
        return fs.to_text(), len(fs.terms), problem
    if kind == "key":
        return str(result), 1, None
    if kind == "conjecture":
        problem = None if result["all_match"] else "the n^(nk) ladder does not match"
        return json.dumps(result, sort_keys=True), len(result["rows"]), problem
    if kind in ("rational", "ppoly"):
        return result.pretty(), len(result.terms), None
    if kind == "expand":
        return result.to_text(), len(result.terms), None
    raise ValueError(f"unknown job kind {kind!r}")


def fingerprint(text) -> str:
    """sha256 of a rendering (str) or of raw stdout bytes."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()
