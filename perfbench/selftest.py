"""Self-test: a wrong reference verdict must show up as failed jobs.

Usage, from the checkout root::

    python3 perfbench/selftest.py

For each workload it flips one hex digit of one job's reference digest,
runs the shortest timed run against the altered reference and requires
every run of that job, and only those, to count as failed.  Exits 0 when all
three workloads catch the flip.
"""

import sys

import run
from common import load_reference
from jobs import WORKLOADS, job_list

#: workload -> (job id, digest field flipped)
FLIPS = {
    "adversary": ("adversary rounds:5", "certificate_sha256"),
    "check": ("check rounds:3 10000", "stdout_sha256"),
    "service": ("service adversary rounds:4", "certificate_sha256"),
}


def flipped(job_id: str, field: str):
    reference = load_reference()
    digest = reference[job_id][field]
    last = "0" if digest[-1] != "0" else "1"
    reference[job_id] = dict(reference[job_id], **{field: digest[:-1] + last})
    return reference


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        job_id, field = FLIPS[workload]
        altered = flipped(job_id, field)
        run.load_reference = lambda: altered
        runner = run.RUNNERS[(workload, 0)]
        result = runner(workload, seed=0, seconds=0)
        one_pass = job_list(workload)
        copies = sum(1 for job in one_pass if job["id"] == job_id)
        expected = result["attempted"] // len(one_pass) * copies
        caught = (
            not result["correct"]
            and result["failed"] == expected
            and result["metrics"]["ok_frac"]["value"] < 1.0
        )
        ok = ok and caught
        print(f"{workload}: flipped {field} of {job_id!r}: "
              f"{result['failed']} of {result['attempted']} jobs failed "
              f"(expected {expected}) -> {'caught' if caught else 'MISSED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
