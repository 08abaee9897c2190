"""E23: adversary as a service -- per-job overhead of the job queue.

Times one adversary job submitted to an in-process
:class:`~repro.service.JobQueue` (ledger row, live checkpoint journal,
per-job trace journal, terminal-state bookkeeping) against the same
job run directly through ``run_adversary_guarded``, and checks that the
ledgered certificate is byte-identical to the direct one before any
timing is believed.

Standalone:  python benchmarks/bench_service.py [repeats]
"""

import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.report import print_table
from repro.core.serialize import to_json
from repro.faults import run_adversary_guarded
from repro.model.system import System
from repro.protocols.consensus import CommitAdoptRounds
from repro.service import JobQueue, ResultLedger

SPECS = (3, 4)


def direct(n: int):
    start = time.perf_counter()
    outcome = run_adversary_guarded(System(CommitAdoptRounds(n)), kernel="compiled")
    return time.perf_counter() - start, to_json(outcome.certificate)


def via_queue(queue: JobQueue, n: int):
    start = time.perf_counter()
    key = queue.submit({"kind": "adversary", "spec": f"rounds:{n}"})
    while True:
        job = queue.ledger.job(key)
        if job["state"] not in ("queued", "running"):
            break
        time.sleep(0.001)
    elapsed = time.perf_counter() - start
    assert job["state"] == "certified", job
    (row,) = queue.ledger.results(job_key=key)
    return elapsed, row["certificate"]


def main(repeats: int = 5) -> None:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        ledger = ResultLedger(Path(tmp) / "ledger.sqlite")
        queue = JobQueue(ledger, tmp, job_workers=1)
        queue.start()
        try:
            for n in SPECS:
                direct_s, service_s = [], []
                for _ in range(repeats):
                    elapsed, reference = direct(n)
                    direct_s.append(elapsed)
                    elapsed, ledgered = via_queue(queue, n)
                    service_s.append(elapsed)
                    assert ledgered == reference, f"rounds:{n} certificate differs"
                d = statistics.median(direct_s)
                s = statistics.median(service_s)
                rows.append([
                    f"rounds:{n}", f"{d * 1e3:.1f}", f"{s * 1e3:.1f}",
                    f"{(s - d) * 1e3:.1f}", "identical",
                ])
        finally:
            queue.drain(grace=30.0)
    print_table(
        f"E23: adversary job via the service queue vs direct "
        f"(medians of {repeats}, compiled kernel, in-process)",
        ["workload", "direct (ms)", "service (ms)", "overhead (ms)",
         "certificate"],
        rows,
        note="service = submit -> terminal state (ledger, journals, "
        "queue hand-off); see EXPERIMENTS.md E23.",
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
