"""Launch a ``repro serve`` daemon with the layer span wrappers installed.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python3 perfbench/traced_daemon.py <run-dir>

Equivalent to ``repro serve start --port 0 --run-dir <run-dir>`` except
that the wrappers of ``spans.TARGETS`` are in place while it serves.  On
exit it writes the span summary to ``<run-dir>/spans.json`` and every
span to ``<run-dir>/spans.tsv``.
"""

import sys
from pathlib import Path

from common import import_repro, scrub_environ
from spans import Recorder, write_summary

if __name__ == "__main__":
    scrub_environ()
    import_repro()
    import repro.cli  # noqa: F401  (loads every protocol class to wrap)
    from repro.service.daemon import Daemon

    run_dir = Path(sys.argv[1])
    recorder = Recorder()
    recorder.install()
    try:
        code = Daemon(run_dir).run()
    finally:
        recorder.uninstall()
        write_summary(recorder, str(run_dir / "spans.json"))
        recorder.dump(str(run_dir / "spans.tsv"))
    sys.exit(code)
