"""Set-up probe: import the CLI, build a workload's job list, say ``ready``.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>`` from the
checkout root; ``common.probe_setup`` times it from spawn to ``ready``.
The probe samples the host's speed while it sets up and prints, after
``ready``, the seconds the sampler itself took and its mean loop time.
"""

import sys

from speed import SpeedSampler

if __name__ == "__main__":
    speed = SpeedSampler().start()
    try:
        from common import import_repro, scrub_environ
        from jobs import passes

        scrub_environ()
        import_repro()
        import repro.cli  # noqa: F401  (the import users pay before any job)

        next(passes(sys.argv[1], int(sys.argv[2])))
    finally:
        speed.stop()
    own = sum(seconds for _, seconds in speed.samples)
    print(f"ready {own!r} {speed.loop_s()!r}", flush=True)
