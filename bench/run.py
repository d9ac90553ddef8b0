"""Benchmark for affcluster: end-to-end metrics, or per-layer metrics traced.

    python3 bench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Run from the repository root.  The package is imported from ``src/``; without
it the command fails before printing a result.

One run is one process and a closed loop with one client: the workload's job
list is run again and again, each job starting when the last has finished,
until ``--seconds`` have passed (at least one pass).  With ``--trace 0`` it
prints every end-to-end metric; with ``--trace 1`` it runs one untraced pass
and one traced pass and prints every per-layer metric, and writes the spans to
``.bench_out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every job's output was checked correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_BLOCK = 3  # set-ups timed before each pass and after the last

# Fresh interpreter: import the package, load the fixtures, build the first engine.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import affcluster; "
    "from affcluster import cli; "
    "matrices = [cli.load_matrix(f) for f in sys.argv[2:]]; "
    "affcluster.ThetaEngine(matrices[0].top())"
)

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


def run_cli(argv: Sequence[str]) -> Tuple[int, str, str, float]:
    """One job: ``affcluster.cli.main(argv)`` with its output captured.
    Returns (exit code, stdout, stderr, seconds); a raised exception is
    exit code -1 with the traceback as stderr."""
    from affcluster import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing job is a failed job, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


@dataclass
class Pass:
    wall: float
    cpu: float
    latencies: List[float]
    results: List[Tuple[int, str, str]]


def run_pass(jobs, tracer=None) -> Pass:
    """Run the job list once; only the jobs themselves are timed."""
    gc.collect()
    latencies, results = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, job in enumerate(jobs):
        if tracer is None:
            rc, out, err, secs = run_cli(job.argv)
        else:
            tracer.current_job = i
            idx = tracer.open("job." + job.command)
            try:
                rc, out, err, secs = run_cli(job.argv)
            finally:
                tracer.close(idx)
        latencies.append(secs)
        results.append((rc, out, err))
    return Pass(time.perf_counter() - wall0, time.process_time() - cpu0, latencies, results)


def count_failures(jobs, done: Pass, checker) -> int:
    failed = 0
    for job, (rc, out, err) in zip(jobs, done.results):
        reason = checker(job, rc, out)
        if reason is not None:
            failed += 1
            print(f"FAILED {job.key}: {reason}\n{err}", file=sys.stderr)
    done.results = []  # the outputs are checked; free them
    return failed


def time_setups(fixtures: Sequence[str], repeats: int = SETUP_BLOCK) -> List[float]:
    """Wall times of ``repeats`` fresh interpreters running SETUP_CODE."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child at up to 50 ms steps
        subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *fixtures],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def job_p90(latencies: Sequence[float]) -> float:
    """Nearest-rank 90th percentile of job latency.  Below 100 samples fewer
    than ten lie beyond it, so the median is reported instead."""
    ordered = sorted(latencies)
    if len(ordered) < 100:
        return statistics.median(ordered)
    return ordered[math.ceil(len(ordered) * 0.9) - 1]


def end_to_end(passes: List[Pass], setups: List[float], failed: int) -> dict:
    latencies = [x for p in passes for x in p.latencies]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": job_p90(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (len(latencies) - failed) / len(latencies),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: workloads.DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "affcluster" / "__init__.py").is_file():
        print(f"error: no affcluster sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import affcluster

    if Path(affcluster.__file__).resolve().parent != SRC / "affcluster":
        print(f"error: imported affcluster from {affcluster.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from checks import Checker

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    try:
        jobs = workloads.build_jobs(args.workload, seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checker = Checker.load()

    passes: List[Pass] = []
    failed = 0
    if args.trace:
        from tracing import PER_LAYER, Tracer

        untraced = run_pass(jobs)
        failed += count_failures(jobs, untraced, checker)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        failed += count_failures(jobs, traced, checker)
        passes = [untraced, traced]
        metrics = tracer.per_layer()
        metrics["trace.overhead_s"] = traced.wall - untraced.wall
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{seed}.json")
        units = dict(PER_LAYER)
    else:
        fixtures = workloads.setup_fixtures(args.workload)
        setups: List[float] = []
        while not passes or sum(p.wall for p in passes) < args.seconds:
            setups += time_setups(fixtures)
            passes.append(run_pass(jobs))
            failed += count_failures(jobs, passes[-1], checker)
        setups += time_setups(fixtures)
        metrics = end_to_end(passes, setups, failed)
        units = dict(END_TO_END)

    attempted = len(jobs) * len(passes)
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    print(f"{args.workload}: seed {seed}, {len(passes)} passes of {len(jobs)} jobs, "
          f"{attempted} attempted, {failed} failed; pass wall s: "
          + " ".join(f"{p.wall:.3f}" for p in passes))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
