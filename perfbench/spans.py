"""Layer spans recorded from outside the program.

``install`` replaces the public functions and methods listed in
``TARGETS`` with thin wrappers that record one span per call: name,
start, end (monotonic ns), parent span and job.  Nothing inside
``src/repro`` is edited; the wrappers are put in place at run time and
``uninstall`` restores the originals.

Spans stay in memory in per-thread arrays (the service daemon runs its
HTTP handlers and its job worker on separate threads) and are written
out once, by ``Recorder.dump``, when the traced run ends.

A span's *self time* is its duration minus the durations of the spans
directly inside it.  Children always nest inside their parent on the
same thread, so the self times of all spans of one job add up to the
duration of that job's outermost span.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (layer span name, module, attribute path).  ``*`` as the class means
#: "every subclass of ``repro.model.process.Protocol`` that defines the
#: method itself"; ``System.step`` likewise covers overriding subclasses.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("kernel.explore", "repro.kernel.explore", "KernelExplorer.explore"),
    ("kernel.compile", "repro.kernel.compiler", "CompiledProgram.__init__"),
    ("protocols.canon_query", "repro.model.process",
     "*.canonical_query_key_cached"),
    ("protocols.canon_key", "repro.model.process", "*.canonical_key"),
    ("core.oracle", "repro.core.valency", "ValencyOracle.can_decide"),
    ("core.lemma3", "repro.core.lemmas", "lemma3"),
    ("core.lemma4", "repro.core.construction", "lemma4"),
    ("core.validate", "repro.core.certificate",
     "SpaceBoundCertificate.validate"),
    ("faults.guarded", "repro.faults.harness", "run_adversary_guarded"),
    ("analysis.check", "repro.analysis.checker",
     "check_consensus_exhaustive"),
    ("analysis.random", "repro.analysis.checker", "check_consensus_random"),
    ("model.step", "repro.model.system", "System.step"),
    ("resilience.journal_record", "repro.resilience.checkpoint",
     "CheckpointJournal.record"),
    ("obs.trace_emit", "repro.obs.trace", "JsonlSink.emit"),
    ("absint.certificate", "repro.absint.verdicts", "static_certificate"),
    ("service.run_one", "repro.service.queue", "JobQueue.run_one"),
    ("service.ledger_write", "repro.service.db", "ResultLedger.submit_job"),
    ("service.ledger_write", "repro.service.db", "ResultLedger.mark_running"),
    ("service.ledger_write", "repro.service.db", "ResultLedger.finish_job"),
    ("service.ledger_write", "repro.service.db", "ResultLedger.add_result"),
    ("service.ledger_read", "repro.service.db", "ResultLedger.job"),
    ("service.ledger_read", "repro.service.db", "ResultLedger.jobs"),
    ("service.ledger_read", "repro.service.db", "ResultLedger.results"),
    ("service.ledger_read", "repro.service.db", "ResultLedger.pending_jobs"),
)

#: Span names whose wrapped call's return value carries a count worth
#: keeping: name -> (counter name, extractor).
RESULT_COUNTS: Dict[str, Tuple[str, Callable[[Any], int]]] = {
    "analysis.check": ("analysis.configs_visited",
                       lambda result: int(result.configs_visited)),
}

#: The span that opens a daemon job; its second argument is the job key.
JOB_ROOT = "service.run_one"


class _Buffer:
    """One thread's spans, as parallel compact arrays."""

    def __init__(self) -> None:
        self.name = array.array("H")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.stack: List[int] = []


class Recorder:
    """Collects spans for one traced run and aggregates them at the end."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.jobs: List[str] = []
        self._job_ids: Dict[str, int] = {}
        self.job = -1  # job of root spans opened while no job span is open
        self.counts: Dict[str, int] = {}
        self._buffers: List[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- identities ----------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def job_id(self, job: str) -> int:
        with self._lock:
            if job not in self._job_ids:
                self._job_ids[job] = len(self.jobs)
                self.jobs.append(job)
            return self._job_ids[job]

    def set_job(self, job: Optional[str]) -> None:
        """Attribute root spans opened from now on to ``job``."""
        self.job = -1 if job is None else self.job_id(job)

    def _open(self, nid: int, job: Optional[int] = None):
        """Start a span on this thread's buffer; returns (buffer, index)."""
        try:
            buf = self._local.buf
        except AttributeError:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        stack = buf.stack
        index = len(buf.name)
        parent = stack[-1] if stack else -1
        if job is None:
            job = buf.job[parent] if parent >= 0 else self.job
        buf.name.append(nid)
        buf.parent.append(parent)
        buf.job.append(job)
        buf.end.append(0)
        stack.append(index)
        buf.start.append(time.perf_counter_ns())
        return buf, index

    @staticmethod
    def _close(buf: _Buffer, index: int) -> None:
        buf.end[index] = time.perf_counter_ns()
        buf.stack.pop()

    # -- wrapping ------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        recorder = self
        counted = RESULT_COUNTS.get(name)
        job_root = name == JOB_ROOT

        def traced(*args, **kwargs):
            job = recorder.job_id(str(args[1])) if job_root else None
            buf, index = recorder._open(nid, job)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(buf, index)
            if counted is not None:
                key, extract = counted
                recorder.counts[key] = recorder.counts.get(key, 0) + extract(
                    result
                )
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of the benchmark itself."""
        buf, index = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(buf, index)

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every ``TARGETS`` entry wherever ``repro`` refers to it."""
        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                base = getattr(
                    module, "Protocol" if owner_name == "*" else owner_name
                )
                for owner in [base, *_subclasses(base)]:
                    if attr in vars(owner):
                        self._patch(
                            owner, attr, self.wrap(name, vars(owner)[attr])
                        )
                continue
            # A module-level function: replace every module attribute
            # bound to it, so ``from x import f`` call sites see the wrapper.
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------
    def aggregate(self) -> Dict[str, Any]:
        """Per-name self and total time and calls, per-job self time.

        Times are in seconds.  A name's total time counts a span nested
        directly in a span of the same name (recursion, ``super()``)
        only once.  ``per_job_s`` maps each job to the sum of the self
        times of its spans, which equals the duration of the job's
        outermost spans.
        """
        self_ns: Dict[int, int] = {}
        total_ns: Dict[int, int] = {}
        calls: Dict[int, int] = {}
        per_job: Dict[int, int] = {}
        for buf in list(self._buffers):
            count = len(buf.end)
            child = [0] * count
            names, start, end = buf.name, buf.start, buf.end
            parent, job = buf.parent, buf.job
            for index in range(count):
                if end[index] == 0:
                    continue  # still open: the call never returned
                duration = end[index] - start[index]
                up = parent[index]
                if up >= 0:
                    child[up] += duration
                nid = names[index]
                if up < 0 or names[up] != nid:  # direct recursion counts once
                    total_ns[nid] = total_ns.get(nid, 0) + duration
            for index in range(count):
                if end[index] == 0:
                    continue
                own = end[index] - start[index] - child[index]
                nid = names[index]
                self_ns[nid] = self_ns.get(nid, 0) + own
                calls[nid] = calls.get(nid, 0) + 1
                per_job[job[index]] = per_job.get(job[index], 0) + own
        return {
            "self_s": {
                self.names[nid]: value / 1e9 for nid, value in self_ns.items()
            },
            "total_s": {
                self.names[nid]: value / 1e9 for nid, value in total_ns.items()
            },
            "calls": {self.names[nid]: value for nid, value in calls.items()},
            "per_job_s": {
                (self.jobs[jid] if jid >= 0 else ""): value / 1e9
                for jid, value in per_job.items()
            },
            "counts": dict(self.counts),
        }

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# thread\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for tid, buf in enumerate(list(self._buffers)):
                for index in range(len(buf.end)):
                    jid = buf.job[index]
                    handle.write(
                        f"{tid}\t{self.names[buf.name[index]]}\t"
                        f"{buf.start[index]}\t{buf.end[index]}\t"
                        f"{buf.parent[index]}\t"
                        f"{self.jobs[jid] if jid >= 0 else ''}\n"
                    )


def _subclasses(cls) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def write_summary(recorder: Recorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorder.aggregate(), handle, sort_keys=True)
