"""Record the expected output digests that ``sweep`` checks against.

Runs every digest-checked job any seed can draw (the fixed ``sweep`` jobs and
every candidate point of every slot) and writes the SHA-256 of its standard
output to ``bench/expected.json``.  Run it from the repository root, only on a
commit whose outputs are known to be right:

    python3 bench/record_expected.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import run_cli  # noqa: E402


def candidate_jobs():
    jobs = [j for j in workloads.sweep_fixed_jobs() if j.check == "digest"]
    for fixture in workloads.tube_fixtures():
        eng = workloads.engine(fixture)
        for m_delta, mult in workloads.SLOTS:
            for point in workloads.stratum(eng, m_delta, mult):
                jobs.extend(j for j in workloads.point_jobs(fixture, eng, point) if j.check == "digest")
    return jobs


def main() -> int:
    digests = {}
    for job in candidate_jobs():
        rc, out, _err, _secs = run_cli(job.argv)
        if rc != 0:
            print(f"{job.key}: exit {rc}", file=sys.stderr)
            return 1
        digests[job.key] = hashlib.sha256(out.encode()).hexdigest()
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
