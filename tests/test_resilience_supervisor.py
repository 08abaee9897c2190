"""The supervised pool must survive what ``Pool.map`` cannot.

Every test here injects a runtime fault -- a worker killed before or
after computing, a wedged worker, a poison task, a pool with no workers
left -- and asserts the map contract still holds: results in task order,
errors with their types and payloads intact, and (for the explorer
integration) exploration results bit-identical to the undisturbed
sequential run.  Task functions are module-level so spawn children can
import them.
"""

import math
import multiprocessing
import time

import pytest

from repro.errors import ExplorationLimitError
from repro.analysis.explorer import Explorer
from repro.faults.chaos import ChaosPlan, seeded_kill_plan
from repro.model.system import System
from repro.obs import MetricsRegistry, observe
from repro.parallel import ShardedExplorer, WorkerPool
from repro.protocols.consensus import CommitAdoptRounds
from repro.resilience import KILL_EXIT_CODE, SupervisedPool

BOUNDED = dict(max_configs=20_000, max_depth=12, strict=False)


def result_tuple(result):
    return (
        dict(result.decided),
        result.visited,
        result.complete,
        result.truncated,
    )


# -- spawn-picklable task functions ------------------------------------------


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.05)
    return x * x


def sqrt_or_raise(x):
    return math.sqrt(x)


def raise_limit(x):
    raise ExplorationLimitError(f"limit at {x}", visited=x)


# -- map contract under faults -----------------------------------------------


class TestSupervisedMap:
    def test_results_in_task_order(self):
        with SupervisedPool(2) as pool:
            assert pool.map(square, range(20)) == [i * i for i in range(20)]

    def test_empty_and_reuse(self):
        with SupervisedPool(2) as pool:
            assert pool.map(square, []) == []
            assert pool.map(square, [3]) == [9]
            assert pool.map(square, [4, 5]) == [16, 25]

    def test_error_type_and_payload_preserved(self):
        with SupervisedPool(2) as pool:
            with pytest.raises(ValueError):
                pool.map(sqrt_or_raise, [4.0, -1.0])
            with pytest.raises(ExplorationLimitError) as excinfo:
                pool.map(raise_limit, [7])
            assert excinfo.value.visited == 7
            # The pool survives a raised task and keeps serving.
            assert pool.map(square, [6]) == [36]

    @pytest.mark.parametrize("mode", ["kill-before", "kill-after"])
    def test_killed_worker_task_retried(self, mode):
        registry = MetricsRegistry()
        plan = ChaosPlan(kills={0: mode})
        with observe(metrics=registry):
            with SupervisedPool(2, chaos=plan) as pool:
                assert pool.map(square, range(8)) == [
                    i * i for i in range(8)
                ]
        counters = registry.snapshot()["counters"]
        assert counters["supervisor.worker_restarts"] >= 1
        assert counters["supervisor.tasks_retried"] >= 1
        assert plan.fired and plan.fired[0][2] == mode

    def test_seeded_kill_plan_is_reproducible(self):
        first = seeded_kill_plan(seed=5, kills=2, horizon=8)
        second = seeded_kill_plan(seed=5, kills=2, horizon=8)
        assert first.kills == second.kills
        with pytest.raises(ValueError):
            seeded_kill_plan(seed=0, kills=9, horizon=8)
        with pytest.raises(ValueError):
            seeded_kill_plan(seed=0, mode="segfault")

    def test_poison_task_quarantined_in_process(self):
        registry = MetricsRegistry()
        plan = ChaosPlan(poison={0})
        with observe(metrics=registry):
            with SupervisedPool(2, chaos=plan, max_retries=1) as pool:
                assert pool.map(square, range(6)) == [
                    i * i for i in range(6)
                ]
        counters = registry.snapshot()["counters"]
        assert counters["supervisor.tasks_quarantined"] >= 1
        # Every poison dispatch killed its worker with the chaos code.
        assert all(
            directive == "kill-after" for _, _, directive in plan.fired
        )

    def test_wedged_worker_killed_by_deadline(self):
        registry = MetricsRegistry()
        plan = ChaosPlan(hangs={0})
        with observe(metrics=registry):
            with SupervisedPool(
                2, chaos=plan, task_timeout=0.3, poll_interval=0.02
            ) as pool:
                assert pool.map(square, range(6)) == [
                    i * i for i in range(6)
                ]
        counters = registry.snapshot()["counters"]
        assert counters["supervisor.worker_restarts"] >= 1

    def test_degrades_to_sequential_when_respawns_exhausted(self):
        registry = MetricsRegistry()
        # One worker, no respawn budget: the first kill empties the pool.
        plan = ChaosPlan(kills={0: "kill-after"})
        with observe(metrics=registry):
            with SupervisedPool(1, chaos=plan, max_respawns=0) as pool:
                assert pool.map(square, range(5)) == [
                    i * i for i in range(5)
                ]
                assert pool.degraded
                # Degraded pools keep honouring the map contract.
                assert pool.map(square, [9]) == [81]
        counters = registry.snapshot()["counters"]
        assert counters["supervisor.degraded_to_sequential"] == 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SupervisedPool(0)

    def test_kill_exit_code_is_distinctive(self):
        # The chaos exit code must not collide with clean exit (0) or
        # the CLI contract codes (1/2/3).
        assert KILL_EXIT_CODE not in (0, 1, 2, 3)


# -- the poison-map hang: a dying worker must not wedge the others -----------


class TestPoisonMapNeverHangs:
    """Loop the poison-task map many times under one deadline.

    With one shared result ``Queue`` a worker killed by its poison
    directive could die while its feeder thread held the queue's
    cross-process write lock; every other worker's reports then blocked
    forever and ``map`` polled indefinitely (reproduced at iteration 11
    of a spawn loop and 199 of a forkserver loop).  Each worker now
    reports on a private pipe, so the loop must finish.  The forkserver
    context (with the supervisor preloaded) and the builtin ``abs`` task
    keep a worker start to a fork, so 200 maps fit in tier-1; several
    loops run concurrently for the same reason, and to add contention.
    """

    LOOPS = 4
    MAPS_PER_LOOP = 50
    DEADLINE_S = 100.0

    def test_poison_map_loop_completes(self):
        import threading

        multiprocessing.set_forkserver_preload(["repro.resilience.supervisor"])
        expected = [abs(x) for x in range(-3, 3)]
        completed = [0] * self.LOOPS
        errors = []

        def loop(slot):
            try:
                for _ in range(self.MAPS_PER_LOOP):
                    with SupervisedPool(
                        2,
                        mp_context="forkserver",
                        chaos=ChaosPlan(poison={0}),
                        max_retries=1,
                    ) as pool:
                        assert pool.map(abs, range(-3, 3)) == expected
                    completed[slot] += 1
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=loop, args=(slot,), daemon=True)
            for slot in range(self.LOOPS)
        ]
        deadline = time.monotonic() + self.DEADLINE_S
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        assert not errors, errors
        assert sum(completed) == self.LOOPS * self.MAPS_PER_LOOP, (
            f"poison map hung: {completed} of {self.MAPS_PER_LOOP} maps "
            f"per loop done after {self.DEADLINE_S:.0f}s"
        )


# -- graceful close: the S1 regression ---------------------------------------


class TestGracefulClose:
    # The tier-1 suite shares a session-scoped WorkerPool (conftest),
    # so "no zombies" means "no children beyond the ones alive before
    # this test's pool existed", not a globally empty children list.
    def _baseline(self):
        return {child.pid for child in multiprocessing.active_children()}

    def _assert_no_new_children(self, baseline):
        deadline = time.monotonic() + 5.0
        while True:
            leaked = [
                child
                for child in multiprocessing.active_children()
                if child.pid not in baseline
            ]
            if not leaked:
                return
            if time.monotonic() > deadline:
                raise AssertionError(f"zombie workers: {leaked}")
            time.sleep(0.02)

    def test_supervised_close_leaves_no_zombies(self):
        baseline = self._baseline()
        pool = WorkerPool(2)
        system = System(CommitAdoptRounds(3))
        root = system.initial_configuration([0, 1, 0])
        ShardedExplorer(system, workers=2, pool=pool, **BOUNDED).explore(
            root, frozenset({0, 1, 2})
        )
        pool.close()
        self._assert_no_new_children(baseline)

    def test_legacy_close_joins_before_terminate(self):
        baseline = self._baseline()
        pool = WorkerPool(2, supervise=False)
        system = System(CommitAdoptRounds(3))
        root = system.initial_configuration([0, 1, 0])
        ShardedExplorer(system, workers=2, pool=pool, **BOUNDED).explore(
            root, frozenset({0, 1, 2})
        )
        pool.close()
        self._assert_no_new_children(baseline)

    def test_close_idempotent_and_unstarted(self):
        baseline = self._baseline()
        pool = WorkerPool(2)
        pool.close()
        pool.close()
        with SupervisedPool(2) as supervised:
            supervised.map(square, [1])
        supervised.close()  # second close is a no-op
        self._assert_no_new_children(baseline)


# -- explorer integration: chaos must not change results ---------------------


class TestShardedUnderChaos:
    def test_exploration_identical_under_kills(self, workers):
        system = System(CommitAdoptRounds(3))
        root = system.initial_configuration([0, 1, 0])
        pids = frozenset({0, 1, 2})
        seq = Explorer(system, **BOUNDED).explore(root, pids)
        plan = seeded_kill_plan(seed=1, kills=2, horizon=12)
        with WorkerPool(workers, chaos=plan) as pool:
            par = ShardedExplorer(
                system, workers=workers, pool=pool, **BOUNDED
            ).explore(root, pids)
        assert result_tuple(seq) == result_tuple(par)
        assert par.witnesses_replay(System(CommitAdoptRounds(3)))

    def test_exploration_identical_when_degraded(self, workers):
        system = System(CommitAdoptRounds(3))
        root = system.initial_configuration([0, 1, 0])
        pids = frozenset({0, 1, 2})
        seq = Explorer(system, **BOUNDED).explore(root, pids)
        plan = ChaosPlan(kills={0: "kill-before", 1: "kill-before"})
        with WorkerPool(2, chaos=plan) as pool:
            pool._ensure()
            pool._pool.max_respawns = 0
            par = ShardedExplorer(
                system, workers=2, pool=pool, **BOUNDED
            ).explore(root, pids)
            assert pool.degraded
        assert result_tuple(seq) == result_tuple(par)
