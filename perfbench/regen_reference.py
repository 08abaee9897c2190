"""Regenerate ``reference.json``: every job's verdict on the interpreter.

Usage, from the checkout root::

    python3 perfbench/regen_reference.py

Each distinct job of every workload runs once with ``--kernel interp``
(service jobs with ``"kernel": "interp"`` in their params), the
reference semantics the compiled kernel is differentially tested
against, so the timed runs never grade the compiled kernel against
itself.  ``repro check`` has no kernel choice: it always interprets.
"""

import json
import sys

from common import (
    REFERENCE,
    BenchError,
    fresh_dir,
    import_repro,
    remove,
    scrub_environ,
)
from jobs import distinct_jobs


def main() -> int:
    scrub_environ()
    import_repro()
    from inproc import run_cli
    from service import Daemon, run_job

    verdicts = {}
    work = fresh_dir("regen-")
    try:
        for workload in ("adversary", "check"):
            for job in distinct_jobs(workload):
                extra = ("--kernel", "interp") if workload == "adversary" else ()
                _, _, verdicts[job["id"]] = run_cli(job, work, extra)
                print(job["id"], verdicts[job["id"]], flush=True)
    finally:
        remove(work)
    daemon = Daemon().start()
    try:
        for job in distinct_jobs("service"):
            interp = dict(job, params={**job["params"], "kernel": "interp"})
            outcome = run_job(daemon, interp)
            if outcome["error"]:
                raise BenchError(f"{job['id']}: {outcome['error']}")
            verdicts[job["id"]] = outcome["verdict"]
            print(job["id"], verdicts[job["id"]], flush=True)
    finally:
        daemon.close()
    crashed = [job for job, verdict in verdicts.items()
               if verdict.get("exit_code") == 1]
    if crashed:
        raise BenchError(f"jobs exited 1 on the interpreter: {crashed}")
    REFERENCE.write_text(
        json.dumps(
            {
                "generated_by": "python3 perfbench/regen_reference.py",
                "engine": "interp",
                "jobs": verdicts,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(verdicts)} reference verdicts to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
