"""Tests of the benchmark itself: span arithmetic, unwrapping after a traced
pass, failed checks, the seeded generator and the metric lists."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import affcluster  # noqa: E402
from affcluster import poly, seeds, theta  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402


def scripted_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_a_synthetic_nested_call():
    tracer = tracing.Tracer(clock=scripted_clock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    stats = tracer.stats()
    assert stats["outer.s"] == 10.0
    assert stats["outer.self_s"] == 10.0 - (3.0 - 1.0) - (7.0 - 4.0)
    assert stats["inner.calls"] == 2
    assert stats["inner.s"] == stats["inner.self_s"] == 5.0
    assert tracer.parent == [-1, 0, 0]


def test_recursion_is_not_counted_twice_in_inclusive_time():
    tracer = tracing.Tracer(clock=scripted_clock([0.0, 2.0, 5.0, 9.0]))
    calls = []

    def body():
        calls.append(1)
        if len(calls) == 1:
            wrapped()

    wrapped = tracer.wrap("f", body)
    wrapped()
    stats = tracer.stats()
    assert stats["f.calls"] == 2
    assert stats["f.s"] == 9.0
    assert stats["f.self_s"] == 9.0


def affcluster_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.split(".")[0] == "affcluster"
        for attr, value in vars(mod).items()
    }


def test_originals_are_restored_after_a_traced_pass():
    before = affcluster_bindings()
    mul, eq, init = poly.LaurentPoly.__mul__, poly.LaurentPoly.__eq__, theta.ThetaEngine.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # every alias of a module-level function is rebound to one wrapper
        assert theta.substitute is poly.substitute is affcluster.substitute
        assert theta.substitute.__wrapped__ is before[("affcluster.poly", "substitute")]
        assert theta.enumerate_gvector_frontier is seeds.enumerate_gvector_frontier
        assert poly.LaurentPoly.__mul__ is not mul
        jobs = [workloads.Job(("verify", "--matrix", "a2t"), "identities", "a2t")]
        done = run.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    after = affcluster_bindings()
    assert all(after[key] is value for key, value in before.items())
    assert poly.LaurentPoly.__mul__ is mul and poly.LaurentPoly.__eq__ is eq
    assert theta.ThetaEngine.__init__ is init
    assert not any(hasattr(v, "__wrapped__") for v in affcluster_bindings().values())
    assert run.count_failures(jobs, done, Checker.load()) == 0
    stats = tracer.per_layer()
    assert stats["poly.mul.calls"] > 0 and stats["seeds.gvec_search.states"] > 0
    assert stats["cli.run_identity.cheby.s"] > 0


def test_a_corrupted_expected_value_is_a_failed_job():
    eng = workloads.engine("a3t")
    point = workloads.stratum(eng, 1, 2)[0]
    theta_job, expand_job = workloads.point_jobs("a3t", eng, point)
    report = workloads.Job(("report", "--matrix", "a2t", "--format", "json"), "digest", "a2t")
    jobs = [report, theta_job, expand_job]
    checker = Checker.load()
    assert run.count_failures(jobs, run.run_pass(jobs), checker) == 0

    digests = dict(checker.digests)
    digests[report.key] = "0" * 64
    assert run.count_failures(jobs, run.run_pass(jobs), Checker(digests)) == 1

    wrong = workloads.Job(expand_job.argv, "expand", "a3t", expand_job.height, (point[0] + 1, point[1]))
    assert run.count_failures([wrong], run.run_pass([wrong]), checker) == 1


def test_a_job_that_exits_non_zero_is_a_failed_job():
    job = workloads.Job(("expand", "--matrix", "a3t", "--root=1"), "expand", "a3t")
    rc, _out, _err, _secs = run.run_cli(job.argv)
    assert rc != 0
    assert run.count_failures([job], run.run_pass([job]), Checker.load()) == 1


def test_job_p90_needs_ten_samples_beyond_it():
    assert run.job_p90([float(x) for x in range(1, 119)]) == 107.0
    assert run.job_p90([1.0, 2.0, 3.0, 10.0]) == 2.5


def test_seeded_sweep_is_reproducible_and_stratified():
    a = workloads.build_jobs("sweep", workloads.DEFAULT_SEED)
    assert a == workloads.build_jobs("sweep", workloads.DEFAULT_SEED)
    b = workloads.build_jobs("sweep", workloads.HELD_OUT_SEED)
    assert a != b and len(a) == len(b) >= 100
    for key in (lambda j: j.fixture, lambda j: j.command, lambda j: (j.fixture, j.command)):
        assert Counter(map(key, a)) == Counter(map(key, b))
    assert sum(j.height for j in a) == sum(j.height for j in b)


def test_every_drawable_job_has_a_recorded_check():
    digests = Checker.load().digests
    for fixture in workloads.tube_fixtures():
        eng = workloads.engine(fixture)
        for slot in workloads.SLOTS:
            for point in workloads.stratum(eng, *slot):
                theta_job, _expand = workloads.point_jobs(fixture, eng, point)
                assert theta_job.key in digests
    for job in workloads.sweep_fixed_jobs():
        assert job.check != "digest" or job.key in digests


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
