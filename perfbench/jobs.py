"""The three workloads' fixed job lists and their seeded order.

Every workload is a fixed multiset of jobs; ``--seed`` only shuffles the
order of each pass over it.  Keeping the mix fixed keeps medians
comparable across seeds while the order still varies which job follows
which (warm interpreter state, allocator state, ledger size).

A job is a dict with an ``id`` (the key into ``reference.json``) and
what the client needs to submit it: ``argv`` for the in-process CLI
workloads, ``kind``/``spec``/``params`` for the service.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

WORKLOADS = ("adversary", "check", "service")

#: ``repro adversary`` specs.  ``rounds:*`` overrides ``canonical_key``
#: (every novel kernel row goes through the protocol's Python
#: ``canonical_query_key_cached``); ``racing:*`` dedups packed rows
#: directly.  A packed-canonicalisation change should move the first
#: and leave the second flat.
ADVERSARY_SPECS = ("rounds:5", "rounds:6", "racing:5")

#: ``repro check`` specs with their ``--max-configs`` caps.  The clean
#: graphs are bounded (the checker's per-configuration ``path_to`` walk
#: makes cost grow with configs x depth); the broken protocols each end
#: in a pinned witness.
CHECK_SPECS = (
    ("randomized:2", 10_000),
    ("rounds:3", 10_000),
    ("racing:3", 10_000),
    ("split-brain:3", 10_000),
    ("shared:3:2", 10_000),
    ("optimistic:3", 10_000),
)

#: Regression-zoo specimens the service's ``absint`` jobs name by digest.
ZOO_DIGESTS = (
    "272bdf1f80aa24c0", "3631e573889e983a", "6dd5c33accfa8614",
    "78bed195682bf8fa", "8ac22a59a0879e46", "928be78d6868a31d",
    "b6961fb08e848107", "c371c72f747590cd", "c900cec9eaa38f15",
    "cffaa58fa81e17fe", "e020fb1e0902da69", "e384e7e8985d5e21",
)

#: Step budget that stops the service's budget job before its first
#: oracle query completes, so it must end ``partial``.
PARTIAL_BUDGET = 5

#: (kind, spec, params, copies per pass): 48 jobs per pass, so a run of
#: a few passes has well over 100 jobs.  By latency the jobs fall into
#: classes: 20 short ones (absint, budget, violations; 30-40 ms here),
#: 8 ``rounds:3`` (about 50 ms), 10 ``racing:3`` (about 100 ms) and 10
#: ``rounds:4`` (about 210 ms).  The counts put the median (slots 24 and
#: 25 of 48) in the middle of the ``rounds:3`` slots (21-28) and the p90
#: (slot 44) among the ``rounds:4`` ones.  With a class boundary at the
#: median (26 short jobs of 50 before), the p50 jumped between the two
#: classes' latencies from run to run (ten-run spread 0.15-0.27) while
#: each class's own latency stayed within a few percent.
SERVICE_MIX = (
    ("adversary", "rounds:3", {}, 8),
    ("adversary", "rounds:4", {}, 10),
    ("adversary", "racing:3", {}, 10),
    ("adversary", "split-brain:3", {}, 2),
    ("adversary", "optimistic:4", {}, 2),
    ("adversary", "rounds:3", {"budget": PARTIAL_BUDGET}, 4),
) + tuple(("absint", f"zoo:{digest}", {}, 1) for digest in ZOO_DIGESTS)


#: How the samples one job gets in a run are summed up into its time.
#: In-process jobs run 3 to 6 times a run and their times vary smoothly
#: with the host's CPU bursts; a mean wastes least of so few samples.
#: Service jobs run dozens of times a run with occasional stalls (fsync,
#: a late poll), which a median ignores.
SUMMARY = {"adversary": "mean", "check": "mean", "service": "median"}


def adversary_job(spec: str) -> Dict[str, Any]:
    return {"id": f"adversary {spec}", "argv": ["adversary", spec]}


def check_job(spec: str, cap: int) -> Dict[str, Any]:
    return {
        "id": f"check {spec} {cap}",
        "argv": ["check", spec, "--max-configs", str(cap)],
    }


def service_job(kind: str, spec: str, params: Dict[str, Any]):
    suffix = "".join(f" {key}={params[key]}" for key in sorted(params))
    return {
        "id": f"service {kind} {spec}{suffix}",
        "kind": kind,
        "spec": spec,
        "params": dict(params),
    }


def job_list(workload: str) -> List[Dict[str, Any]]:
    """One pass over ``workload``'s fixed jobs, in canonical order."""
    if workload == "adversary":
        return [adversary_job(spec) for spec in ADVERSARY_SPECS]
    if workload == "check":
        return [check_job(spec, cap) for spec, cap in CHECK_SPECS]
    if workload == "service":
        return [
            service_job(kind, spec, params)
            for kind, spec, params, copies in SERVICE_MIX
            for _ in range(copies)
        ]
    raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


def passes(workload: str, seed: int):
    """An endless sequence of passes, each the job list in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    base = job_list(workload)
    while True:
        order = list(base)
        rng.shuffle(order)
        yield order


def distinct_jobs(workload: str) -> List[Dict[str, Any]]:
    seen: Dict[str, Dict[str, Any]] = {}
    for job in job_list(workload):
        seen.setdefault(job["id"], job)
    return list(seen.values())
