"""Job lists for the benchmark workloads.

A job is one call of ``affcluster.cli.main(argv)`` together with the check
applied to what it printed.  Job lists depend only on the workload name, the
seed and the bundled fixtures, so the same seed always gives the same list.

``sweep`` draws its ``theta``/``expand`` points by stratified sampling: every
fixture with tubes gets one point per slot in ``SLOTS``, and a slot fixes the
multiple of delta, the total arc multiplicity and the root height of the
point.  Only the choice of arcs and the job order depend on the seed, so every
seed gives the same job count per fixture and per command and the same total
root height.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from affcluster import affine, cli
from affcluster.theta import ThetaEngine

WORKLOADS = ("ray-d4t", "sweep")
DEFAULT_SEED = 20261017
HELD_OUT_SEED = 424242

RANK2 = ("a1t22", "a1t41", "a1t14")
HEAVY = ("d4t", "e6t")
SCATTER_ORDER = 12
# (multiple of delta, total arc multiplicity) of each sampled point
SLOTS = ((0, 1), (0, 2), (1, 1), (1, 2))

# A point of the imaginary wall: m_delta and sorted (tube, start, length, mult).
Point = Tuple[int, Tuple[Tuple[int, int, int, int], ...]]


@dataclass(frozen=True)
class Job:
    """One CLI call and how to check its output.

    ``check`` is one of ``identities``, ``digest``, ``expand`` or ``theta2``;
    ``point`` is the sampled point for ``theta``/``expand`` and ``k`` the
    multiple of nu_c(delta) for ``theta2``."""

    argv: Tuple[str, ...]
    check: str
    fixture: str
    height: int = 0
    point: Point = (0, ())
    k: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _argv(command: str, fixture: str, *extra: str) -> Tuple[str, ...]:
    return (command, "--matrix", fixture, *extra, "--format", "json")


def engine(fixture: str) -> ThetaEngine:
    return ThetaEngine(cli.load_matrix(fixture).top())


def _coords(vec) -> str:
    return ",".join(str(x) for x in vec.coords)


def point_root(eng: ThetaEngine, point: Point):
    m_delta, arcs = point
    vec = eng.data.delta.scale(m_delta)
    for tube, start, length, mult in arcs:
        arc = affine.TubeRoot(tube, start, length)
        vec = vec + affine.tube_root_vector(eng.tubes[tube], arc).scale(mult)
    return vec


def stratum(eng: ThetaEngine, m_delta: int, mult: int) -> List[Point]:
    """The candidates of one slot: pairwise compatible arc multisets of total
    multiplicity ``mult`` plus ``m_delta`` times delta, restricted to the most
    common root height (the lowest one on a tie)."""
    arcs = sorted(r for t in eng.tubes for r in affine.all_arcs(t))
    by_height: Dict[int, List[Point]] = {}
    for combo in itertools.combinations_with_replacement(arcs, mult):
        if not all(affine.compatible(eng.tubes, a, b) for a, b in itertools.combinations(combo, 2)):
            continue
        counts = Counter(combo)
        point = (m_delta, tuple((r.tube, r.start, r.length, counts[r]) for r in sorted(counts)))
        height = sum(point_root(eng, point).coords)
        by_height.setdefault(height, []).append(point)
    best = max(sorted(by_height), key=lambda h: len(by_height[h]))
    return by_height[best]


def point_jobs(fixture: str, eng: ThetaEngine, point: Point) -> List[Job]:
    """The ``theta`` and ``expand`` jobs at one point of the imaginary wall."""
    root = point_root(eng, point)
    height = sum(root.coords)
    return [
        Job(_argv("theta", fixture, "--target=" + _coords(eng.data.nu_c(root))),
            "digest", fixture, height, point),
        Job(_argv("expand", fixture, "--root=" + _coords(root)),
            "expand", fixture, height, point),
    ]


def sweep_fixed_jobs() -> List[Job]:
    """The seed-independent part of ``sweep``."""
    jobs: List[Job] = []
    for fixture in cli.BUNDLED:
        jobs.append(Job(_argv("report", fixture), "digest", fixture))
        jobs.append(Job(_argv("tube-info", fixture), "digest", fixture))
        ntubes = 0 if fixture in RANK2 else len(engine(fixture).tubes)
        for tube in range(ntubes):
            jobs.append(Job(_argv("gca-graph", fixture, "--tube", str(tube)), "digest", fixture))
        if ntubes:
            jobs.append(Job(_argv("gca-verify", fixture), "digest", fixture))
        if fixture not in HEAVY:
            jobs.append(Job(_argv("verify", fixture), "identities", fixture))
    for fixture in RANK2:
        order = str(SCATTER_ORDER)
        jobs.append(Job(_argv("scatter2", fixture, "--order", order), "digest", fixture))
        data = engine(fixture).data
        nu_delta = data.nu_c(data.delta)
        for k in range(1, 5):
            lam = "--lambda=" + _coords(nu_delta.scale(k))
            jobs.append(Job(_argv("theta2", fixture, "--order", order, lam), "theta2", fixture, k=k))
    return jobs


def tube_fixtures() -> List[str]:
    return [f for f in cli.BUNDLED if f not in RANK2]


def sweep_jobs(seed: int) -> List[Job]:
    rng = random.Random(seed)
    jobs = sweep_fixed_jobs()
    for fixture in tube_fixtures():
        eng = engine(fixture)
        for m_delta, mult in SLOTS:
            jobs.extend(point_jobs(fixture, eng, rng.choice(stratum(eng, m_delta, mult))))
    rng.shuffle(jobs)
    return jobs


def build_jobs(workload: str, seed: int) -> List[Job]:
    """The job list of one pass of ``workload``.  ``ray-d4t`` is a single
    fixed job, so the seed does not change it."""
    if workload == "ray-d4t":
        return [Job(("verify", "--matrix", "d4t"), "identities", "d4t")]
    if workload == "sweep":
        return sweep_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def setup_fixtures(workload: str) -> List[str]:
    """Fixtures the workload loads; set-up builds the engine of the first."""
    return ["d4t"] if workload == "ray-d4t" else list(cli.BUNDLED)
