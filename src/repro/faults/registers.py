"""Faulty shared memory: stale reads, lost writes, value corruption.

:class:`FaultyMemorySystem` decorates a :class:`~repro.model.system.System`
at its single shared-memory choke point (``_apply_shared``), perturbing
operations according to a seeded :class:`RegisterFaultPlan`.  The point
is *negative testing of the checkers*: a safety checker that never sees
a violation proves little, so campaigns inject memory faults into known
correct protocols and demand that the checker catches the damage.

Determinism is load-bearing.  Explorers replay steps from arbitrary
configurations, so fault decisions must be pure functions of the visible
step -- they hash (seed, object, pre-state, operation) with a stable CRC
(Python's own ``hash`` is salted per process and would make witnesses
non-replayable across runs).  The same plan over the same execution
always injects the same faults, so every violation witness found under
a plan replays under that plan.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from repro.model.operations import Operation, Read
from repro.model.process import Protocol
from repro.model.registers import apply_operation
from repro.model.system import System, Tape, zero_tape
from repro.obs.runtime import get_metrics


def _corrupt(value: Hashable) -> Hashable:
    """A deterministic wrong value of the same shape.

    Corruption is modelled as bit flips *within the value's domain*:
    integers get their low bit flipped, structured values are corrupted
    element-wise.  Shape preservation matters -- protocol automata
    pattern-match on what they read, and the interesting question is
    whether the *checker* catches semantically wrong values, not whether
    foreign types crash the protocol code.
    """
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ 1
    if isinstance(value, tuple):
        return tuple(_corrupt(item) for item in value)
    return value


@dataclass(frozen=True)
class RegisterFaultPlan:
    """A seeded plan deciding which shared-memory operations misbehave.

    Rates are per-operation probabilities drawn from a stable hash of
    (seed, object index, object pre-state, operation); ``targets``
    optionally restricts injection to a set of object indices.  A plan
    with all rates zero is the identity (used by the overhead benchmark).
    """

    seed: int = 0
    stale_read_rate: float = 0.0
    lost_write_rate: float = 0.0
    corrupt_rate: float = 0.0
    targets: Optional[Tuple[int, ...]] = None

    def _roll(self, salt: str, obj: int, state: Hashable, op: Operation) -> float:
        payload = repr((self.seed, salt, obj, state, op)).encode()
        return (zlib.crc32(payload) % 100_000) / 100_000.0

    def active_on(self, obj: int) -> bool:
        return self.targets is None or obj in self.targets

    def perturb(
        self,
        obj: int,
        state: Hashable,
        op: Operation,
        new_value: Hashable,
        response: Hashable,
        initial: Hashable,
    ) -> Tuple[Hashable, Hashable]:
        """Map a faithful (new value, response) to a possibly-faulty one.

        Fault decisions are counted in the metrics registry
        (``faults.stale_read`` / ``faults.lost_write`` /
        ``faults.corrupt_write`` for injections, ``faults.passed`` for
        rolls that spared the operation) -- but only on paths where a
        roll actually happens, so all-zero-rate plans (the overhead
        benchmark's identity plan) touch no instruments at all."""
        if not self.active_on(obj):
            return new_value, response
        if isinstance(op, Read):
            if self.stale_read_rate > 0.0:
                if self._roll("stale", obj, state, op) < self.stale_read_rate:
                    get_metrics().counter("faults.stale_read").inc()
                    return new_value, initial
                get_metrics().counter("faults.passed").inc()
            return new_value, response
        if not op.is_write:
            return new_value, response
        if self.lost_write_rate > 0.0:
            if self._roll("lost", obj, state, op) < self.lost_write_rate:
                get_metrics().counter("faults.lost_write").inc()
                return state, response
            get_metrics().counter("faults.passed").inc()
        if self.corrupt_rate > 0.0:
            if self._roll("corrupt", obj, state, op) < self.corrupt_rate:
                get_metrics().counter("faults.corrupt_write").inc()
                return _corrupt(new_value), response
            get_metrics().counter("faults.passed").inc()
        return new_value, response

    def describe(self) -> str:
        kinds = [
            f"{name}={rate}"
            for name, rate in (
                ("stale", self.stale_read_rate),
                ("lost", self.lost_write_rate),
                ("corrupt", self.corrupt_rate),
            )
            if rate > 0.0
        ]
        where = "all objects" if self.targets is None else f"objects {list(self.targets)}"
        return f"seed={self.seed} [{', '.join(kinds) or 'no faults'}] on {where}"


#: Plans the campaigns use by default, one per fault class.
def stale_read_plan(seed: int = 0, rate: float = 0.5) -> RegisterFaultPlan:
    return RegisterFaultPlan(seed=seed, stale_read_rate=rate)


def lost_write_plan(seed: int = 0, rate: float = 0.5) -> RegisterFaultPlan:
    return RegisterFaultPlan(seed=seed, lost_write_rate=rate)


def corruption_plan(seed: int = 0, rate: float = 0.5) -> RegisterFaultPlan:
    return RegisterFaultPlan(seed=seed, corrupt_rate=rate)


#: Attributes :class:`ExactKeyProtocol` defines itself instead of
#: delegating: every canonical hook and the round-shift tag.
_EXACT_KEY_OWN = frozenset({
    "canonical_key",
    "canonical_query_key",
    "canonical_query_key_cached",
    "round_shift_tag",
})


class ExactKeyProtocol:
    """A protocol view with its canonical abstraction disabled.

    A protocol's ``canonical_key`` promises bisimilarity *under faithful
    memory semantics*; injected faults break that promise (corrupted
    values need not even live in the abstraction's domain), so faulty
    systems deduplicate on exact configurations instead.  All other
    attributes delegate to the wrapped protocol.
    """

    def __init__(self, inner: Protocol):
        self._inner = inner
        # Bind the delegated attributes eagerly: systems call poised /
        # transition / decision once per step, and a __getattr__ round
        # trip per call costs ~3x on schedule replay (see bench_faults).
        for name in dir(inner):
            if name.startswith("_") or name in _EXACT_KEY_OWN:
                continue
            setattr(self, name, getattr(inner, name))

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def canonical_key(self, config):
        return config

    def canonical_query_key(self, config, pids):
        return (config, frozenset(pids))

    def canonical_query_key_cached(self, config, pids, cache):
        return self.canonical_query_key(config, pids)

    #: No round-shift declaration: the keys above are exact.
    round_shift_tag = None


class FaultyMemorySystem(System):
    """A system whose shared memory misbehaves according to a fault plan.

    Everything else -- scheduling, solo runs, decisions, replay -- is the
    base system's; only the sequential object semantics are wrapped, so
    model checkers and adversaries run on faulty memory unchanged.  The
    protocol's canonical abstraction is disabled (see
    :class:`ExactKeyProtocol`), so explorations are bounded rather than
    quotiented -- fault hunts are about finding violations early, not
    exhausting graphs.
    """

    def __init__(
        self,
        protocol: Protocol,
        plan: RegisterFaultPlan,
        tape: Tape = zero_tape,
    ):
        super().__init__(ExactKeyProtocol(protocol), tape)
        self.plan = plan
        self._initials = tuple(
            spec.initial for spec in protocol.object_specs()
        )

    def _apply_shared(
        self, obj: int, value: Hashable, op: Operation
    ) -> Tuple[Hashable, Hashable]:
        new_value, response = apply_operation(self._kinds[obj], value, op)
        return self.plan.perturb(
            obj, value, op, new_value, response, self._initials[obj]
        )
