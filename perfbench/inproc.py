"""The ``adversary`` and ``check`` workloads: ``repro.cli.main`` in-process.

One client, closed loop: each job starts when the previous one has
returned.  The timed region is exactly the ``main(argv)`` call; the
certificate file is hashed and the verdict compared with the reference
after the clock stops.  Timed runs also sample the host's speed during
the call (``speed.SpeedSampler``) and scale the wall time by it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import job_failed, sha256_bytes, witness_in
from speed import SpeedSampler


def run_cli(
    job: Dict[str, Any],
    work: Path,
    extra_argv: Tuple[str, ...] = (),
    around: Callable[[], Any] = contextlib.nullcontext,
    speed: Optional[SpeedSampler] = None,
) -> Tuple[float, Optional[float], Dict[str, Any]]:
    """Run one job through ``repro.cli.main``.

    Returns (wall seconds, scaled seconds, verdict); the scaled time is
    None unless ``speed`` samples the host during the call.
    """
    from repro.cli import main

    argv = list(job["argv"])
    out: Optional[Path] = None
    if argv[0] == "adversary":
        out = work / "certificate.json"
        out.unlink(missing_ok=True)
        argv += ["--out", str(out)]
    argv += extra_argv
    stdout = io.StringIO()
    gc.collect()
    if speed is not None:
        speed.start()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), around():
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an unexpected crash is a failed job, not a bench abort
        stdout.write(traceback.format_exc())
        code = 1
    ended = time.perf_counter()
    scaled = None
    if speed is not None:
        speed.stop()
        scaled = speed.scaled(started, ended)
    verdict = verdict_of(argv[0], code, stdout.getvalue(), out)
    return ended - started, scaled, verdict


def verdict_of(
    command: str, code: int, stdout: str, out: Optional[Path]
) -> Dict[str, Any]:
    verdict: Dict[str, Any] = {"exit_code": code}
    if out is not None and out.is_file():
        verdict["certificate_sha256"] = sha256_bytes(out.read_bytes())
    witness = witness_in(stdout)
    if witness is not None:
        verdict["witness"] = witness
    if command == "check":
        verdict["stdout_sha256"] = sha256_bytes(stdout.encode("utf-8"))
    return verdict


def read_counters(path: Path) -> Dict[str, int]:
    """Counters from a ``--metrics-out`` snapshot (empty if absent)."""
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
    except OSError:
        return {}
    return dict(snapshot.get("counters", {}))


def add_counters(total: Dict[str, int], more: Dict[str, int]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


class FallbackProbe:
    """Counts compiled-kernel fallbacks without a metrics registry.

    ``Explorer._resolve_kernel`` returns None exactly when a compiled
    exploration falls back to the interpreter; wrapping it costs one
    call per explorer, so the timed runs can report fallbacks without
    switching the observability layer on.
    """

    def __init__(self) -> None:
        from repro.analysis.explorer import Explorer

        self.count = 0
        self._owner = Explorer
        self._original = Explorer._resolve_kernel
        probe = self
        original = self._original

        def resolve(explorer):
            first = not explorer._kernel_resolved
            result = original(explorer)
            if first and result is None:
                probe.count += 1
            return result

        Explorer._resolve_kernel = resolve

    def close(self) -> None:
        self._owner._resolve_kernel = self._original


def run_jobs(
    jobs: List[Dict[str, Any]],
    work: Path,
    reference: Dict[str, Dict[str, Any]],
    scale: bool = True,
) -> List[Tuple[str, float, float, Optional[str]]]:
    """Run ``jobs`` in order.

    Rows are (job id, wall, time, failure reason or None); the time is
    the scaled time, or the wall time when ``scale`` is false.
    """
    speed = SpeedSampler() if scale else None
    rows = []
    for job in jobs:
        wall, scaled, verdict = run_cli(job, work, speed=speed)
        why = job_failed(verdict, reference.get(job["id"]))
        rows.append((job["id"], wall, wall if scaled is None else scaled,
                     why))
    return rows
