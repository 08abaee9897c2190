"""Paths, the scrubbed environment, reference verdicts and statistics."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from speed import REFERENCE_LOOP_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
#: Scratch space for certificates, daemon run dirs and span dumps; the
#: benchmark reads and writes nothing outside the checkout.
WORK = ROOT / ".perfbench-work"

#: Knobs that change what the engine does; every workload runs with
#: them unset so it measures what a user gets by default.
SCRUBBED_ENV = (
    "REPRO_KERNEL_SPILL_THRESHOLD",
    "REPRO_KERNEL_FP_BITS",
    "REPRO_SERVE_DIR",
    "REPRO_ZOO_DIR",
)

#: The defaults the benchmark pins (CLI and daemon defaults).
ENGINE = {
    "kernel": "compiled",
    "incremental": True,
    "workers": 1,
    "por": False,
    "cache_dir": None,
    "job_workers": 1,
}

_WITNESS = re.compile(r"witness schedule \(\d+ steps\): (\[[0-9, ]*\])")


class BenchError(Exception):
    """The benchmark could not run (missing program, daemon died, ...)."""


def scrub_environ() -> None:
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work_dir())
    return env


def work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return WORK


def fresh_dir(prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=work_dir()))


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def import_repro():
    """Import the checkout's ``repro`` and refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tempfile.tempdir = str(work_dir())
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def witness_in(stdout: str) -> Optional[List[int]]:
    match = _WITNESS.search(stdout)
    return None if match is None else json.loads(match.group(1))


def load_reference(path: Path = REFERENCE) -> Dict[str, Dict[str, Any]]:
    if not path.is_file():
        raise BenchError(f"missing reference verdicts {path}")
    return json.loads(path.read_text(encoding="utf-8"))["jobs"]


def job_failed(verdict: Dict[str, Any], expected: Optional[Dict[str, Any]]):
    """Why a job's verdict counts as failed, or None when it is correct."""
    if expected is None:
        return "no reference verdict"
    if verdict.get("exit_code") == 1:
        return "exit 1"
    if verdict != expected:
        return f"verdict {verdict} != reference {expected}"
    return None


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(share * len(ordered), 9)))
    return float(ordered[min(rank, len(ordered)) - 1])


def probe_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Seconds from interpreter start to ready for the first job.

    Runs ``setup_probe.py`` in a fresh interpreter, which imports the
    CLI and builds the workload's job list, and times the span from
    spawning it to its ``ready`` line.  The probe samples the host's
    speed while it sets up (``speed.SpeedSampler``) and reports the
    sampler's own time and its mean loop time with ``ready``.  Returns
    (wall seconds, seconds without the sampler at reference speed).
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
         str(seed)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    finally:
        proc.stdout.close()
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    words = line.split()
    if code != 0 or len(words) != 3 or words[0] != "ready":
        raise BenchError(f"setup probe for {workload} exited {code}")
    own, loop = float(words[1]), float(words[2])
    return elapsed, (elapsed - own) * REFERENCE_LOOP_S / loop


def emit(result: Dict[str, Any]) -> None:
    print(json.dumps(result, sort_keys=True), flush=True)
