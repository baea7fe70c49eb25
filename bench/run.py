"""The simplex-lab benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload scan-line --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines,
each starting with ``#``, record the environment, failures and the diff
against the pinned reference.

A run re-executes itself once with ``PYTHONHASHSEED=0``, times set-up in
fresh interpreters (median of several), makes one warm-up pass over the
workload's job list and then repeats the job list until ``--seconds`` have
passed, at least three times.  A fixed reference loop runs before and after
every job, so that times can be read at nominal machine speed (see
``speed.py``).  Every pass is checked (see ``workloads.py``) and must
reproduce the warm-up pass exactly.

``--trace 0`` reports the end-to-end metrics:

    wall_s             one pass over the job list: the sum over jobs of each
                       job's median wall time across passes, at nominal
                       machine speed (see ``speed.py``)
    setup_s            median cold import of simplex_lab plus job building,
                       at nominal machine speed
    peak_rss_mb        peak resident memory of the workload process
    open_bracket_frac  mean (upper - lower_bound) / (upper - lower) over the
                       bracketed rows (fermat, line-count)

Failed jobs over attempted jobs is ``failed``/``attempted`` of the result
line and is printed as ``# failed_ratio``; it is 0 on a correct program, so
it is not a metric with a relative bound.

``--trace 1`` runs untraced passes for a third of the time, then traced
passes (see ``tracing.py``), and reports the per-layer metrics.  Each should
move an end-to-end metric on a workload:

    catalog.eval_us.<entry>, catalog.eval_calls,
    catalog.eval_calls_per_candidate (n+1 on nondegenerate candidates)
                               -> wall_s on scan-line and verify
    core.candidate_us, core.candidate_share, core.share
                               -> wall_s on scan-line
    geometry.sec_us, geometry.count_lines_us, geometry.share,
    geometry.fermat_euclidean_us.{p50,tail,tail_pct,samples}
                               -> wall_s on scan-plane, nothing on scan-line
                                  (tail: highest percentile with at least
                                  ten samples beyond it, at tail_pct)
    analysis.scan_self_s, analysis.candidates, analysis.degenerate_frac,
    analysis.refine_s, analysis.share
                               -> wall_s on scan-line and scan-plane
    analysis.refine_gain, analysis.refine_improved_frac
                               -> open_bracket_frac
    analysis.sampled_win_frac  share of refined rows whose pre-refine best
                               came from neither the recipe nor the
                               structured families: are the seeded batches
                               worth their cost
    properties.check_s.<check>, properties.checked, properties.share,
    constructions.build_s, constructions.share, cli.report_s, cli.share
                               -> wall_s on verify
    catalog.share, bench.share self-time shares of the traced passes
    cpu_s                      median CPU time of an untraced pass, beside
                               wall_s; not end-to-end, so that parallel
                               work is not penalised
    tracing_overhead_frac      traced pass over untraced pass, minus one

Per-layer metrics of a layer that does no work on a workload read 0.

The rows of the warm-up pass at seed 42 are compared with
``reference.json``; changed bounds, witnesses and verdicts are listed, not
gated.  ``--write-reference`` rewrites that file from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
REFERENCE_SEED = 42
HASH_SEED = "0"
SETUP_SAMPLES = 9
MIN_PASSES = 3
MIN_TRACE_PASSES = 2

sys.path.insert(0, BENCH_DIR)
import speed  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = SRC
    return env


def log(line: str) -> None:
    print(f"# {line}", flush=True)


# ---------------------------------------------------------------------------
# passes


FAILED = object()  # result of a job that raised


def run_pass(jobs: list, seed: int):
    """Run the job list once.

    Returns (wall seconds per job, reference loop seconds before each job
    and after the last, CPU seconds of the jobs, results).
    """
    results, walls, refs = [], [], []
    clock = time.perf_counter
    cpu = 0.0
    for job in jobs:
        refs.append(speed.reference_loop())
        cpu0 = time.process_time()
        start = clock()
        try:
            results.append(job.run(seed))
        except Exception:  # a job that raises counts as failed, the run goes on
            results.append(FAILED)
            traceback.print_exc()
        walls.append(clock() - start)
        cpu += time.process_time() - cpu0
    refs.append(speed.reference_loop())
    return walls, refs, cpu, results


class Passes:
    """Timings and results of repeated passes over one job list."""

    def __init__(self):
        self.job_walls = []  # per pass, per job
        self.job_refs = []  # per pass: reference loop times between the jobs, one more than jobs
        self.cpus = []
        self.results = []

    @property
    def walls(self) -> list[float]:
        return [sum(w) for w in self.job_walls]

    def wall(self) -> float:
        """Typical pass at nominal machine speed (see ``speed.py``).

        The sum over jobs of each job's median, across passes, of its time
        over the mean of the reference loops run just before and after it,
        times the loop's nominal time.
        """
        per_job = zip(*(
            [speed.at_nominal_speed(t, (refs[j] + refs[j + 1]) / 2.0) for j, t in enumerate(walls)]
            for walls, refs in zip(self.job_walls, self.job_refs)
        ))
        return sum(statistics.median(times) for times in per_job)

    def raw_wall(self) -> float:
        """Typical pass as measured: the sum over jobs of each job's median time."""
        return sum(statistics.median(times) for times in zip(*self.job_walls))


def measure(jobs: list, seed: int, deadline: float, min_passes: int) -> Passes:
    """Repeat passes until the next one would end after ``deadline``."""
    p = Passes()
    while len(p.cpus) < min_passes or time.perf_counter() + statistics.median(p.walls) <= deadline:
        walls, refs, cpu, results = run_pass(jobs, seed)
        p.job_walls.append(walls)
        p.job_refs.append(refs)
        p.cpus.append(cpu)
        p.results.append(results)
    return p


class Checker:
    """Counts attempted and failed jobs; keeps the warm-up pass's rows."""

    def __init__(self, jobs: list):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.rows = None  # per job, from the first pass checked

    def check(self, results: list) -> None:
        rows = []
        for i, (job, res) in enumerate(zip(self.jobs, results)):
            self.attempted += 1
            if res is FAILED:
                failures, job_rows = [f"{job.name}: raised"], None
            else:
                try:
                    failures, job_rows = job.check(res), job.rows(res)
                except Exception as exc:  # a malformed result is a wrong answer
                    failures, job_rows = [f"{job.name}: result not checkable: {exc!r}"], None
                if self.rows is not None and job_rows != self.rows[i]:
                    failures.append(f"{job.name}: rows differ from the first pass")
            rows.append(job_rows)
            if failures:
                self.failed += 1
                for f in failures:
                    log(f"FAILED {f}")
        if self.rows is None:
            self.rows = rows


def open_bracket_frac(jobs: list, results: list) -> float:
    """Mean open fraction of the bracketed rows; 1 (no progress) when none came back."""
    fracs = []
    for job, res in zip(jobs, results):
        if res is FAILED:
            continue
        try:
            fracs += job.open_fractions(res)
        except (ValueError, KeyError, TypeError):  # malformed: already counted as failed
            continue
    return statistics.fmean(fracs) if fracs else 1.0


# ---------------------------------------------------------------------------
# set-up time, environment, reference


def setup_seconds(workload: str, scale: float) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload, repr(scale)],
            env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def write_out(name: str, doc: dict) -> str:
    """Write ``doc`` as JSON under the checkout's .bench_out; returns the path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def flat_rows(rows: list) -> dict:
    return {row["name"]: row for job_rows in rows if job_rows for row in job_rows}


def reference_diff(workload: str, rows: list) -> list[str]:
    """Rows whose bound, witness or verdict differs from the pinned reference."""
    with open(REFERENCE, encoding="utf-8") as fh:
        pinned = json.load(fh)["workloads"][workload]
    now = flat_rows(rows)
    diff = []
    for name in sorted(set(pinned) | set(now)):
        old, new = pinned.get(name), now.get(name)
        if old is None or new is None:
            diff.append(f"{name}: {'added' if old is None else 'missing'}")
            continue
        changed = [
            f"{key} {json.dumps(old.get(key))} -> {json.dumps(new.get(key))}"
            for key in sorted(set(old) | set(new))
            if old.get(key) != new.get(key)
        ]
        if changed:
            diff.append(f"{name}: " + "; ".join(changed))
    return diff


def write_reference() -> int:
    doc = {"seed": REFERENCE_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        jobs = workloads.build(workload)
        _, _, _, results = run_pass(jobs, REFERENCE_SEED)
        checker = Checker(jobs)
        checker.check(results)
        if checker.failed:
            log(f"{workload}: {checker.failed} failed jobs; reference not written")
            return 1
        doc["workloads"][workload] = flat_rows(checker.rows)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# the run


def traced_jobs(jobs: list, tracer) -> list:
    import dataclasses

    return [
        dataclasses.replace(job, entry=tracer.traced_entry(job.entry)) if hasattr(job, "entry") else job
        for job in jobs
    ]


def run(args) -> int:
    log(f"environment {json.dumps(environment())}")
    start = time.perf_counter()
    jobs = workloads.build(args.workload, args.scale)  # also compiles the package for the probes
    setup_s = setup_seconds(args.workload, args.scale)
    log(f"setup_s {setup_s!r} (median of {SETUP_SAMPLES} fresh interpreters; run set-up {time.perf_counter() - start:.3f} s)")

    checker = Checker(jobs)
    measure_start = time.perf_counter()
    deadline = measure_start + args.seconds
    _, _, _, warm = run_pass(jobs, args.seed)  # warm-up
    checker.check(warm)
    if args.seed == REFERENCE_SEED and args.scale == 1.0:
        diff = reference_diff(args.workload, checker.rows)
        log(f"reference diff at seed {REFERENCE_SEED}: {len(diff)} rows changed")
        for line in diff:
            log(f"  {line}")
    else:
        log(f"reference pinned at seed {REFERENCE_SEED} and scale 1; not compared")

    if not args.trace:
        timed = measure(jobs, args.seed, deadline, MIN_PASSES)
        for results in timed.results:
            checker.check(results)
        metrics = {
            "wall_s": (timed.wall(), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "open_bracket_frac": (open_bracket_frac(jobs, warm), "frac"),
        }
        path = write_out(f"passes-{args.workload}-{args.seed}.json", {
            "jobs": [job.name for job in jobs], "job_walls": timed.job_walls, "job_refs": timed.job_refs,
            "cpus": timed.cpus})
        log(f"passes {len(timed.cpus)}: {sorted(timed.walls)} s; as measured {timed.raw_wall()!r} s, "
            f"at nominal speed {timed.wall()!r} s; job times written to {path}")
    else:
        import tracing

        untraced_deadline = measure_start + args.seconds / 3.0
        untraced = measure(jobs, args.seed, untraced_deadline, MIN_TRACE_PASSES)
        tracer = tracing.Tracer()
        tracer.calibrate()
        tracer.install()
        try:
            traced = measure(traced_jobs(jobs, tracer), args.seed, deadline, MIN_TRACE_PASSES)
        finally:
            tracer.uninstall()
        tracer.calibrate()
        for results in untraced.results + traced.results:
            checker.check(results)
        metrics = tracer.metrics(
            len(traced.cpus), sum(traced.walls), traced.raw_wall() / untraced.raw_wall() - 1.0,
            statistics.median(untraced.cpus),
        )
        path = write_out(f"trace-{args.workload}-{args.seed}.json", tracer.document(
            {"workload": args.workload, "seed": args.seed, "environment": environment(),
             "traced_passes": len(traced.cpus)}))
        log(f"passes {len(untraced.cpus)} untraced, {len(traced.cpus)} traced; spans written to {path}")

    log(f"failed_ratio {checker.failed / checker.attempted!r} ({checker.failed} of {checker.attempted} jobs)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="budget multiplier, for smoke runs")
    parser.add_argument("--write-reference", action="store_true", help=f"rewrite reference.json at seed {REFERENCE_SEED}")
    args = parser.parse_args()
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    if not os.path.isfile(os.path.join(SRC, "simplex_lab", "__init__.py")):
        print(f"error: no simplex_lab package under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # fixed string hashing for the whole workload process
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], child_env())
    sys.path.insert(0, SRC)
    if args.write_reference:
        return write_reference()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
