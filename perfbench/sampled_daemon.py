"""Run ``repro serve start`` with the host-speed sampler on.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python3 perfbench/sampled_daemon.py <run-dir>

Runs ``repro serve start --port 0 --run-dir <run-dir>`` through
``repro.cli.main`` in this process while a ``speed.SpeedThread`` samples
the host's speed every ``speed.INTERVAL`` seconds, and on exit writes
the samples to ``<run-dir>/speed.json``.  The timed ``service`` runs use
it to scale each job's latency to reference speed.
"""

import sys
from pathlib import Path

from speed import SpeedThread

if __name__ == "__main__":
    speed = SpeedThread().start()
    from common import import_repro, scrub_environ

    scrub_environ()
    import_repro()
    from repro.cli import main

    run_dir = Path(sys.argv[1])
    try:
        code = main(["serve", "start", "--port", "0",
                     "--run-dir", str(run_dir)])
    finally:
        speed.stop()
        speed.dump(run_dir / "speed.json")
    sys.exit(code)
