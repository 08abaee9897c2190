"""A supervised worker pool: crash-tolerant, deadline-tracked, degradable.

``multiprocessing.Pool.map`` has a failure mode the paper's own
adversary would exploit: a worker killed by the OS (OOM, signal) takes
its task's result with it, and the blocked ``map`` never returns.
:class:`SupervisedPool` replaces that dispatch with per-task supervision:

* **Per-task async dispatch.**  Each task is sent to one named worker
  through its private inbox queue; the coordinator records which worker
  holds which task, so a lost worker identifies exactly the shard that
  must be replayed.
* **Private result channels.**  Each worker reports on its own pipe,
  and the coordinator waits on every pipe plus every process sentinel
  (:func:`multiprocessing.connection.wait`).  No lock is shared across
  processes, so a worker dying at any instruction can tear only its own
  channel.  (A shared result ``Queue`` has a cross-process write lock;
  a worker killed while its feeder thread held it wedged every other
  worker's reports, and ``map`` polled forever.)
* **Liveness and deadline tracking.**  Every poll cycle checks each
  worker's OS-level liveness (``Process.is_alive`` -- the kernel is the
  heartbeat) and, when ``task_timeout`` is set, the dispatch deadline of
  its in-flight task; a wedged worker is killed and treated as dead.
* **Respawn + deterministic retry.**  Dead workers are respawned and
  their lost task is retried with deterministic capped exponential
  backoff (``min(cap, base * 2**(attempt-1))``, no jitter -- chaos runs
  stay reproducible).
* **Poison-task quarantine.**  A task that loses its worker more than
  ``max_retries`` times is quarantined: re-run *in this process*, so a
  genuine error propagates with its type and payload intact and the CLI
  exit-code contract (0/2/3/1) holds no matter what killed the workers.
* **Graceful degradation.**  After ``max_respawns`` replacement workers
  the pool stops respawning and shrinks; when the last worker is gone
  the pool degrades to sequential in-process execution -- slower, never
  stuck.

Every decision emits ``repro.obs`` metrics (``supervisor.*`` counters)
and trace events, so ``repro stats`` can reconstruct what the
supervision did to a campaign.

Determinism: task functions are pure (the sharded explorer's expansion
endpoints), so a retried task recomputes bit-identical events and
metric shards, and a supervised campaign's merged results equal the
undisturbed run's -- the chaos differential tests
(:mod:`repro.faults.chaos`) assert byte-equal certificates under
injected kills.

Fault injection: a :class:`repro.faults.chaos.ChaosPlan` passed as
``chaos`` lets the coordinator attach a consumed-once directive to a
dispatch (self-kill before/after computing, or hang); the directive is
enacted by the worker itself, so the injected failure is exactly an
abrupt process death or wedge as seen from the coordinator.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.runtime import get_metrics, get_tracer

#: Exit code a worker uses for an injected (chaos) self-kill; real
#: crashes surface as negative exit codes (signals) or OS-chosen ones.
KILL_EXIT_CODE = 77

#: Poll granularity of the supervision loop.  The wait wakes as soon as
#: a result arrives or a worker exits; the timeout only bounds how often
#: deadlines are re-checked between results.
DEFAULT_POLL_INTERVAL = 0.05


def _picklable_exception(exc: BaseException) -> BaseException:
    """The exception itself if it survives pickling, else a summary.

    The :mod:`repro.errors` hierarchy pickles losslessly (the repo
    self-lint enforces it); third-party or builtin exceptions with
    unpicklable payloads are summarised so the report queue never
    poisons itself.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling defect means "summarise"
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(worker_id: int, inbox, results) -> None:
    """The worker loop: serve task envelopes until the ``None`` pill.

    ``results`` is the write end of this worker's private result pipe;
    reports are sent synchronously, with no feeder thread and no shared
    lock.  Envelopes are ``(epoch, index, fn, payload, directive)``.  The
    ``directive`` enacts injected chaos: ``"kill-before"`` /
    ``"kill-after"`` are abrupt deaths (``os._exit``, no cleanup, no
    result report -- exactly what an OOM kill looks like from the
    coordinator), ``"hang"`` wedges the worker so deadline tracking has
    something real to kill.
    """
    while True:
        envelope = inbox.get()
        if envelope is None:
            break
        epoch, index, fn, payload, directive = envelope
        if directive == "kill-before":
            os._exit(KILL_EXIT_CODE)
        if directive == "hang":
            while True:
                time.sleep(3600)
        try:
            value = fn(payload)
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            results.send(
                (worker_id, epoch, index, "error", _picklable_exception(exc))
            )
            continue
        if directive == "kill-after":
            os._exit(KILL_EXIT_CODE)
        try:
            results.send((worker_id, epoch, index, "ok", value))
        except Exception as exc:  # noqa: BLE001 - unpicklable result
            results.send(
                (worker_id, epoch, index, "error", _picklable_exception(exc))
            )


class _Worker:
    """One supervised worker: process handle, inbox, result channel,
    in-flight task."""

    __slots__ = ("worker_id", "process", "inbox", "results", "task", "deadline")

    def __init__(self, worker_id: int, process, inbox, results):
        self.worker_id = worker_id
        self.process = process
        self.inbox = inbox
        #: Read end of the worker's result pipe; None once it hit EOF or
        #: a torn frame (the worker is gone or going).
        self.results = results
        #: ``(epoch, task_index)`` of the in-flight dispatch, or None.
        self.task: Optional[tuple] = None
        #: Monotonic deadline for the in-flight task, or None.
        self.deadline: Optional[float] = None


class SupervisedPool:
    """A pool of supervised workers with ``map``-compatible dispatch.

    ``map(fn, tasks)`` returns one result per task in task order, like
    ``multiprocessing.Pool.map`` -- but survives worker deaths, wedges
    and injected chaos, retrying lost tasks and quarantining poison
    ones.  ``fn`` must be a module-level (spawn-picklable) function and
    pure: retries recompute it, so impure tasks would diverge.
    """

    def __init__(
        self,
        workers: int,
        mp_context: str = "spawn",
        max_retries: int = 2,
        task_timeout: Optional[float] = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        backoff_base: float = 0.01,
        backoff_cap: float = 0.25,
        max_respawns: int = 8,
        close_timeout: float = 5.0,
        chaos=None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.mp_context = mp_context
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.poll_interval = poll_interval
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_respawns = max_respawns
        self.close_timeout = close_timeout
        #: Optional :class:`repro.faults.chaos.ChaosPlan`.
        self.chaos = chaos
        self._ctx = None
        self._workers: Dict[int, _Worker] = {}
        self._ids = itertools.count()
        self._epoch = 0
        self._dispatch_seq = 0
        self._respawns = 0
        self._degraded = False

    # -- lifecycle ----------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._ctx is None:
            self._ctx = multiprocessing.get_context(self.mp_context)
        while len(self._workers) < self.workers and not self._degraded:
            if not self._spawn_one():
                break

    def _spawn_one(self) -> bool:
        """Start one worker; False (and account the failure) if it can't."""
        worker_id = next(self._ids)
        reader = writer = None
        try:
            inbox = self._ctx.Queue()
            reader, writer = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, inbox, writer),
                daemon=True,
            )
            process.start()
        except Exception as exc:  # noqa: BLE001 - spawn failure = shrink
            for end in (reader, writer):
                if end is not None:
                    end.close()
            get_tracer().event(
                "supervisor.spawn_failed", worker=worker_id, error=str(exc)
            )
            self._note_shrink()
            return False
        # The child owns the write end now; closing ours lets the read
        # end see EOF the moment the worker dies.
        writer.close()
        self._workers[worker_id] = _Worker(worker_id, process, inbox, reader)
        return True

    def _note_shrink(self) -> None:
        """Record a lost pool slot; empty pool = degraded to sequential."""
        if not self._workers and not self._degraded:
            self._degraded = True
            get_metrics().counter("supervisor.degraded_to_sequential").inc()
            get_tracer().event(
                "supervisor.degraded", reason="no workers left"
            )

    def _retire(self, worker: _Worker, kill: bool = False) -> None:
        self._workers.pop(worker.worker_id, None)
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=self.close_timeout)
        self._close_channels(worker)

    @staticmethod
    def _close_channels(worker: _Worker) -> None:
        worker.inbox.close()
        # The feeder thread lives in this process; cancel instead of
        # joining -- the dead worker will never drain its inbox.
        worker.inbox.cancel_join_thread()
        if worker.results is not None:
            worker.results.close()
            worker.results = None

    def _replace(self, worker: _Worker, reason: str) -> None:
        """Retire a dead/wedged worker and (maybe) respawn a successor."""
        self._retire(worker, kill=True)
        get_metrics().counter("supervisor.worker_restarts").inc()
        get_tracer().event(
            "supervisor.worker_restart",
            worker=worker.worker_id,
            reason=reason,
            exitcode=worker.process.exitcode,
        )
        if self._respawns < self.max_respawns:
            self._respawns += 1
            if self._spawn_one():
                return
        self._note_shrink()

    def close(self) -> None:
        """Graceful shutdown: poison pills + join, terminate as fallback."""
        deadline = time.monotonic() + self.close_timeout
        for worker in self._workers.values():
            try:
                worker.inbox.put(None)
            except (OSError, ValueError):
                pass
        for worker in list(self._workers.values()):
            remaining = max(0.0, deadline - time.monotonic())
            worker.process.join(timeout=remaining)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=1.0)
            self._close_channels(worker)
        self._workers.clear()
        self._ctx = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- results ------------------------------------------------------------
    @staticmethod
    def _drain(worker: _Worker) -> List[tuple]:
        """Every complete report waiting on ``worker``'s channel.

        EOF or a torn frame (the worker died, possibly mid-send) retires
        the channel; the liveness sweep then recovers the worker's task.
        """
        messages: List[tuple] = []
        channel = worker.results
        if channel is None:
            return messages
        try:
            while channel.poll():
                messages.append(channel.recv())
        except (OSError, EOFError, pickle.UnpicklingError):
            channel.close()
            worker.results = None
        return messages

    def _receive(self) -> List[tuple]:
        """Wait up to one poll interval for reports or worker exits."""
        # Imported here, not at module level: processes that never run a
        # pool (the CLI, the service daemon) need not load it.
        from multiprocessing.connection import wait

        channels = {
            worker.results: worker
            for worker in self._workers.values()
            if worker.results is not None
        }
        sentinels = [worker.process.sentinel for worker in self._workers.values()]
        messages: List[tuple] = []
        for ready in wait([*channels, *sentinels], timeout=self.poll_interval):
            worker = channels.get(ready)
            if worker is not None:
                messages.extend(self._drain(worker))
        return messages

    # -- dispatch -----------------------------------------------------------
    def _dispatch(
        self, worker: _Worker, epoch: int, index: int, fn, payload
    ) -> None:
        directive = None
        if self.chaos is not None:
            directive = self.chaos.directive(self._dispatch_seq, index)
        self._dispatch_seq += 1
        get_metrics().counter("supervisor.tasks_dispatched").inc()
        worker.inbox.put((epoch, index, fn, payload, directive))
        worker.task = (epoch, index)
        worker.deadline = (
            time.monotonic() + self.task_timeout
            if self.task_timeout is not None
            else None
        )

    def map(self, fn: Callable[[Any], Any], tasks) -> List[Any]:
        """Run ``fn`` over ``tasks``; results in task order, or raises
        the first task-raised exception (type and payload preserved)."""
        tasks = list(tasks)
        if not tasks:
            return []
        if self._degraded:
            return [fn(task) for task in tasks]
        self._ensure_started()
        if not self._workers:
            return [fn(task) for task in tasks]
        self._epoch += 1
        epoch = self._epoch
        total = len(tasks)
        results: List[Any] = [None] * total
        done = [False] * total
        attempts = [0] * total
        not_before = [0.0] * total
        pending: List[int] = list(range(total))
        completed = 0

        def run_in_process(index: int) -> None:
            nonlocal completed
            results[index] = fn(tasks[index])
            done[index] = True
            completed += 1

        def accept(messages: List[tuple]) -> None:
            # Free every reporting worker before raising a task error,
            # so no worker stays marked busy with a finished task.
            nonlocal completed
            error = None
            for worker_id, repoch, index, status, payload in messages:
                owner = self._workers.get(worker_id)
                if owner is not None and owner.task == (repoch, index):
                    owner.task = None
                    owner.deadline = None
                if repoch != epoch or done[index]:
                    continue
                if status == "error":
                    if error is None:
                        error = payload
                    continue
                results[index] = payload
                done[index] = True
                completed += 1
            if error is not None:
                raise error

        while completed < total:
            if self._degraded or not self._workers:
                for index in pending:
                    if not done[index]:
                        run_in_process(index)
                pending.clear()
                continue
            now = time.monotonic()
            # Dispatch ready pending tasks to idle workers.
            idle = [w for w in self._workers.values() if w.task is None]
            for worker in idle:
                chosen = None
                for position, index in enumerate(pending):
                    if done[index]:
                        chosen = position
                        break
                    if not_before[index] <= now:
                        chosen = position
                        break
                if chosen is None:
                    break
                index = pending.pop(chosen)
                if done[index]:
                    continue
                self._dispatch(worker, epoch, index, fn, tasks[index])
            # Await reports (or time out into a liveness sweep).
            accept(self._receive())
            # Liveness + deadline sweep.
            now = time.monotonic()
            for worker in list(self._workers.values()):
                dead = not worker.process.is_alive()
                if dead:
                    # Reports sent just before the exit still count.
                    accept(self._drain(worker))
                wedged = (
                    not dead
                    and worker.task is not None
                    and worker.deadline is not None
                    and now > worker.deadline
                )
                if not dead and not wedged:
                    continue
                lost = worker.task
                self._replace(worker, reason="wedged" if wedged else "dead")
                if lost is None:
                    continue
                lost_epoch, lost_index = lost
                if lost_epoch != epoch or done[lost_index]:
                    continue
                attempts[lost_index] += 1
                if attempts[lost_index] > self.max_retries:
                    get_metrics().counter("supervisor.tasks_quarantined").inc()
                    get_tracer().event(
                        "supervisor.quarantine",
                        task=lost_index,
                        attempts=attempts[lost_index],
                    )
                    run_in_process(lost_index)
                    continue
                backoff = min(
                    self.backoff_cap,
                    self.backoff_base * (2 ** (attempts[lost_index] - 1)),
                )
                not_before[lost_index] = time.monotonic() + backoff
                pending.append(lost_index)
                get_metrics().counter("supervisor.tasks_retried").inc()
                get_tracer().event(
                    "supervisor.task_retry",
                    task=lost_index,
                    attempt=attempts[lost_index],
                    backoff=backoff,
                )
        return results

    # -- introspection ------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once the pool has fallen back to sequential execution."""
        return self._degraded

    def alive_workers(self) -> int:
        return sum(
            1 for w in self._workers.values() if w.process.is_alive()
        )
