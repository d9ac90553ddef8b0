"""Output checks for benchmark jobs.

Every job's standard output is checked after its pass, with the tracer
removed, so checking costs nothing in the timed region.  A check returns
``None`` when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

from affcluster import cli
from affcluster.poly import from_json_dict
from affcluster.theta import ThetaEngine

from workloads import SCATTER_ORDER, Job

EXPECTED = Path(__file__).resolve().parent / "expected.json"


class Checker:
    """Checks job outputs against recorded digests and exact oracles."""

    def __init__(self, digests: Dict[str, str]) -> None:
        self.digests = digests
        self._truncated: Dict[tuple, dict] = {}

    @classmethod
    def load(cls) -> "Checker":
        return cls(json.loads(EXPECTED.read_text())["digests"])

    def __call__(self, job: Job, rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        try:
            return getattr(self, "_" + job.check)(job, out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def _digest(self, job: Job, out: str) -> Optional[str]:
        want = self.digests.get(job.key)
        if want is None:
            return "no recorded digest"
        if hashlib.sha256(out.encode()).hexdigest() != want:
            return "output differs from the recorded digest"
        return None

    def _identities(self, job: Job, out: str) -> Optional[str]:
        status = dict(line.split(": ", 1) for line in out.splitlines() if not line.startswith(" "))
        if status != {name: "ok" for name in cli.IDENTITIES}:
            return f"identity families not all ok: {status}"
        return None

    def _expand(self, job: Job, out: str) -> Optional[str]:
        payload = json.loads(out)
        arcs = tuple(sorted((a["tube"], a["start"], a["length"], a["mult"]) for a in payload["arcs"]))
        if (payload["m_delta"], arcs) != job.point:
            return f"expansion {(payload['m_delta'], arcs)} is not the sampled {job.point}"
        return None

    def _theta2(self, job: Job, out: str) -> Optional[str]:
        """Broken-line theta at k*nu_c(delta) equals the engine's
        theta_k_delta truncated at the diagram order."""
        payload = json.loads(out)
        key = (job.fixture, job.k)
        if key not in self._truncated:
            eng = ThetaEngine(cli.load_matrix(job.fixture).top())
            poly = eng.theta_k_delta(job.k).poly
            self._truncated[key] = {
                e: c for e, c in poly.terms.items() if e[2] + e[3] <= SCATTER_ORDER
            }
        if from_json_dict(payload["json"]).terms != self._truncated[key]:
            return f"broken-line theta differs from theta_k_delta({job.k}) truncated"
        return None
