"""The ``service`` workload: one client against a ``repro serve`` daemon.

The daemon runs as a child process with a fresh run directory, so its
ledger starts empty every run.  One client runs a closed loop: POST a
job, then poll ``GET /jobs/<key>`` every ``POLL_INTERVAL`` seconds until
the job is in a terminal state.

The client keeps one connection.  The daemon's ``ThreadingHTTPServer``
sends each response as a header segment and a body segment, and with
Nagle's algorithm on its side the body waits for the client to ACK the
headers, which a client that delays its ACKs does only after about
40 ms: each request on a kept-alive connection took about 44 ms here.
The client therefore sets ``TCP_QUICKACK`` after sending each request,
so it ACKs the headers at once (0.7 ms a request, against 1.2 ms on a
fresh connection per request).  Without ``TCP_QUICKACK`` (not Linux)
the stall stays and shows in the latencies.

Timed runs pin the client and the daemon to one shared CPU, run the
daemon through ``sampled_daemon.py``, which samples the speed of that
CPU (``speed.SpeedThread``), and scale each job's latency by it.  On a
shared CPU no request wakes an idle second CPU, and every sample is of
the CPU all the job's work runs on.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from common import (
    BENCH_DIR,
    ROOT,
    BenchError,
    child_env,
    fresh_dir,
    job_failed,
    remove,
    sha256_bytes,
)
from speed import SpeedSampler

#: Poll period, well below the median job latency.
POLL_INTERVAL = 0.005
#: Terminal job states (the 0/2/3/1 exit contract).
TERMINAL = ("certified", "violation", "partial", "error")
#: Linux's ``TCP_QUICKACK`` (None elsewhere); see the module docstring.
QUICKACK = getattr(socket, "TCP_QUICKACK", None)
#: Upper bound on one job; a job that takes longer counts as failed.
JOB_TIMEOUT = 60.0
START_TIMEOUT = 60.0


class Daemon:
    """A ``repro serve start`` child on an ephemeral port.

    ``traced`` runs ``traced_daemon.py`` instead, which installs the
    span wrappers in the daemon process before serving and writes its
    span summary to ``<run dir>/spans.json`` on exit.  ``sampled`` runs
    ``repro serve start`` through ``sampled_daemon.py``, whose speed
    samples are in ``speed`` once the daemon has stopped.  ``cpu`` pins
    the daemon to that CPU.
    """

    def __init__(self, traced: bool = False, sampled: bool = False,
                 cpu: Optional[int] = None):
        self.traced = traced
        self.sampled = sampled
        self.cpu = cpu
        self.run_dir = fresh_dir("serve-")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.rusage = None
        self.speed: Optional[SpeedSampler] = None
        self._conn: Optional[http.client.HTTPConnection] = None

    def start(self) -> "Daemon":
        """Spawn the daemon and wait for a healthy ``GET /health``."""
        try:
            return self._start()
        except BaseException:
            self.close()
            raise

    def _start(self) -> "Daemon":
        if self.traced or self.sampled:
            launcher = "traced" if self.traced else "sampled"
            argv = [sys.executable, str(BENCH_DIR / f"{launcher}_daemon.py"),
                    str(self.run_dir)]
        else:
            argv = [sys.executable, "-m", "repro", "serve", "start",
                    "--port", "0", "--run-dir", str(self.run_dir)]
        with open(self.run_dir / "daemon.log", "wb") as log:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT, preexec_fn=self._pin,
            )
        deadline = time.monotonic() + START_TIMEOUT
        pidfile = self.run_dir / "daemon.pid"
        while not self.port:
            self._alive_or_raise(deadline)
            try:
                self.port = int(json.loads(pidfile.read_text())["port"])
            except (OSError, ValueError, KeyError):
                time.sleep(0.002)
        while True:
            self._alive_or_raise(deadline)
            try:
                status, _ = self.request("GET", "/health")
                if status == 200:
                    return self
            except OSError:
                time.sleep(0.002)

    def _pin(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})

    def _alive_or_raise(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise BenchError(
                f"daemon exited {self.proc.returncode} during start-up: "
                + (self.run_dir / "daemon.log").read_text(errors="replace")
            )
        if time.monotonic() > deadline:
            raise BenchError("daemon did not become healthy in time")

    def request(self, method: str, path: str, body: Any = None):
        """One request on the kept-alive connection; (status, JSON).

        The connection is dropped after any error and opened again by
        the next request.
        """
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=JOB_TIMEOUT
            )
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            if QUICKACK is not None and self._conn.sock is not None:
                self._conn.sock.setsockopt(socket.IPPROTO_TCP, QUICKACK, 1)
            response = self._conn.getresponse()
            data = response.read()
        except BaseException:
            self._drop_connection()
            raise
        return response.status, json.loads(data) if data else None

    def _drop_connection(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def stop(self) -> None:
        """Shut down over HTTP, reap the child and keep its rusage."""
        proc, self.proc = self.proc, None
        if proc is None or proc.returncode is not None:
            self._drop_connection()
            return  # never started, or already reaped after dying early
        try:
            self.request("POST", "/shutdown")
        except (OSError, http.client.HTTPException):
            proc.send_signal(signal.SIGTERM)
        self._drop_connection()
        deadline = time.monotonic() + 30.0
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, rusage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        # wait4 reaped the child; tell Popen so it does not try again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rusage = rusage
        if self.sampled:
            try:
                self.speed = SpeedSampler.load(self.run_dir / "speed.json")
            except (OSError, ValueError) as exc:
                raise BenchError(f"daemon left no speed samples: {exc}")

    def close(self) -> None:
        try:
            self.stop()
        finally:
            remove(self.run_dir)

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0  # Linux reports KiB


def pin_to_one_cpu() -> int:
    """Pin this process to one CPU and return it; daemons go there too."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def verdict_of(job_row: Dict[str, Any]) -> Dict[str, Any]:
    verdict: Dict[str, Any] = {
        "state": job_row["state"],
        "exit_code": job_row["exit_code"],
    }
    results = job_row.get("results") or []
    if results:
        result = results[0]
        if result.get("certificate") is not None:
            verdict["certificate_sha256"] = sha256_bytes(
                result["certificate"].encode("utf-8")
            )
        if result.get("witness") is not None:
            verdict["witness"] = json.loads(result["witness"])
    return verdict


def run_job(
    daemon: Daemon,
    job: Dict[str, Any],
    span: Callable[[str], Any] = lambda name: contextlib.nullcontext(),
) -> Dict[str, Any]:
    """Submit ``job`` and poll it to a terminal state.

    Returns the wall time and its ``started``/``ended`` clock readings,
    the verdict (None when an HTTP request was refused or the job never
    finished), the poll count and the final job row.
    """
    started = time.perf_counter()
    polls = 0
    row: Dict[str, Any] = {}
    body = {"kind": job["kind"], "spec": job["spec"], "params": job["params"]}
    try:
        with span("service.http"):
            status, reply = daemon.request("POST", "/jobs", body)
        if status != 202:
            return _refused(started, polls, f"POST /jobs -> {status} {reply}")
        path = f"/jobs/{reply['job_key']}"
        while True:
            with span("service.http"):
                status, row = daemon.request("GET", path)
            polls += 1
            if status != 200:
                return _refused(started, polls, f"GET {path} -> {status}")
            if row["state"] in TERMINAL:
                break
            if time.perf_counter() - started > JOB_TIMEOUT:
                return _refused(started, polls, f"{path} timed out")
            with span("service.poll_wait"):
                time.sleep(POLL_INTERVAL)
    except (OSError, http.client.HTTPException) as exc:
        return _refused(started, polls, f"HTTP error {exc!r}")
    ended = time.perf_counter()
    return {"wall": ended - started, "started": started, "ended": ended,
            "verdict": verdict_of(row), "polls": polls, "row": row,
            "error": None}


def _refused(started: float, polls: int, why: str) -> Dict[str, Any]:
    ended = time.perf_counter()
    return {"wall": ended - started, "started": started, "ended": ended,
            "verdict": None, "polls": polls, "row": {}, "error": why}


def run_jobs(
    daemon: Daemon,
    jobs: List[Dict[str, Any]],
    reference: Dict[str, Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Run ``jobs`` in order; each outcome carries its ``id`` and ``error``."""
    rows = []
    for job in jobs:
        outcome = run_job(daemon, job)
        if outcome["error"] is None:
            outcome["error"] = job_failed(
                outcome["verdict"], reference.get(job["id"])
            )
        outcome["id"] = job["id"]
        rows.append(outcome)
    return rows
