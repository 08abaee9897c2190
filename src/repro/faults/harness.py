"""Guarded adversary entry points and fault-injection campaigns.

``run_adversary_guarded`` is the hardened front door to the Theorem 1
adversary: every run terminates under its budget and ends in exactly one
of three outcomes --

* ``certificate``: a replay-validated :class:`SpaceBoundCertificate`;
* ``violation``: a :class:`~repro.errors.ViolationError` whose witness
  schedule replays to the violation (construction failures without a
  witness are converted by hunting one with the model checker);
* ``budget``: a :class:`PartialProgress` report, serializable via
  :mod:`repro.core.serialize` and resumable by a later invocation.

The campaign functions drive the fault models of this package over the
bundled protocols: crash campaigns prove the correct protocols survive
every explored <= (n-1)-crash plan, and corruption campaigns prove the
safety checker actually catches injected memory faults (negative
testing for the checker itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence

from repro.errors import (
    AdversaryError,
    BudgetExhausted,
    ExplorationLimitError,
    ViolationError,
)
from repro.analysis.checker import check_consensus_exhaustive
from repro.core.certificate import SpaceBoundCertificate
from repro.core.theorem import space_lower_bound
from repro.model.process import Protocol
from repro.model.system import System
from repro.faults.budget import Budget
from repro.faults.crash import CrashCheckResult, check_consensus_crashes
from repro.faults.registers import (
    FaultyMemorySystem,
    RegisterFaultPlan,
    corruption_plan,
    lost_write_plan,
    stale_read_plan,
)
from repro.faults.resume import JournaledOracle, PartialProgress, QueryJournal
from repro.obs.runtime import get_tracer


@dataclass
class AdversaryOutcome:
    """Exactly one of: certificate, violation witness, partial progress."""

    status: str  # "certificate" | "violation" | "budget"
    certificate: Optional[SpaceBoundCertificate] = None
    violation: Optional[ViolationError] = None
    partial: Optional[PartialProgress] = None

    def describe(self) -> str:
        if self.status == "certificate":
            return self.certificate.summary()
        if self.status == "violation":
            return f"violation: {self.violation}"
        return self.partial.summary()


def run_adversary_guarded(
    system: System,
    budget: Optional[Budget] = None,
    resume: Optional[PartialProgress] = None,
    max_configs: int = 30_000,
    max_depth: Optional[int] = 60,
    strict: bool = False,
    verify: bool = True,
    spec: str = "",
    workers: int = 1,
    cache_dir=None,
    por: bool = False,
    incremental: bool = True,
    pool=None,
    max_retries: int = 2,
    task_timeout=None,
    chaos=None,
    checkpoint=None,
    kernel: str = "interp",
) -> AdversaryOutcome:
    """Run the Theorem 1 adversary to one of the three outcomes.

    ``resume`` replays a prior invocation's journal (its oracle budgets
    override ``max_configs``/``max_depth``/``strict``: bounded-mode
    answers are only reproducible under the parameters that produced
    them).  ``spec`` labels the partial-progress report so the CLI can
    refuse to resume a checkpoint against a different protocol.

    ``workers``/``cache_dir``/``por`` configure the oracle's sharded
    exploration engine, persistent valency cache and partial-order
    reduction (:mod:`repro.parallel`, :mod:`repro.lint.independence`);
    all three are transparent to the three-outcome contract -- errors
    raised inside worker processes keep their types, payloads and
    therefore their exit codes, and POR results are bit-identical.

    Sharded runs execute on the supervised plane
    (:mod:`repro.resilience.supervisor`): ``max_retries`` bounds how
    often a lost shard is retried before being quarantined in-process,
    ``task_timeout`` declares a wedged worker dead, ``chaos`` accepts a
    deterministic fault plan (:mod:`repro.faults.chaos`), and ``pool``
    shares an externally-owned :class:`repro.parallel.WorkerPool`.

    ``kernel`` selects the exploration engine of the oracle and of the
    fallback violation hunt (``"compiled"`` = the packed-integer batch
    kernel of :mod:`repro.kernel`, with automatic recorded fallback to
    the interpreter where unsupported).  Like ``por`` and ``workers`` it is
    transparent to the three-outcome contract: certificates, violation
    witnesses and partial-progress reports are bit-identical.

    ``checkpoint`` names a journal file persisted *live*
    (:class:`repro.resilience.CheckpointJournal`): every computed oracle
    answer is flushed and fsynced as it happens, and sharded
    explorations additionally snapshot BFS levels under
    ``<checkpoint>.levels/`` -- so a SIGKILL at any moment leaves a
    resumable file, not just budget exhaustion.
    """
    if resume is not None:
        entries = list(resume.queries)
        max_configs = resume.max_configs
        max_depth = resume.max_depth
        strict = resume.strict
    else:
        entries = []
    checkpoint_dir = None
    if checkpoint is not None:
        from repro.resilience.checkpoint import CheckpointJournal

        journal: QueryJournal = CheckpointJournal(
            checkpoint,
            protocol=spec or system.protocol.name,
            n=system.protocol.n,
            max_configs=max_configs,
            max_depth=max_depth,
            strict=strict,
            entries=entries,
        )
        checkpoint_dir = f"{checkpoint}.levels"
    else:
        journal = QueryJournal(entries)
    owned_pool = None
    if workers > 1 and pool is None:
        from repro.parallel.sharded import WorkerPool

        pool = owned_pool = WorkerPool(
            workers,
            max_retries=max_retries,
            task_timeout=task_timeout,
            chaos=chaos,
        )
    oracle = JournaledOracle(
        system,
        journal=journal,
        budget=budget,
        max_configs=max_configs,
        max_depth=max_depth,
        strict=strict,
        workers=workers,
        cache_dir=cache_dir,
        pool=pool,
        por=por,
        incremental=incremental,
        checkpoint_dir=checkpoint_dir,
        kernel=kernel,
    )

    def partial(note: str) -> PartialProgress:
        return PartialProgress(
            protocol=spec or system.protocol.name,
            n=system.protocol.n,
            queries=list(journal.entries),
            spent_steps=budget.spent if budget is not None else 0,
            elapsed=budget.elapsed() if budget is not None else 0.0,
            max_configs=max_configs,
            max_depth=max_depth,
            strict=strict,
            note=note,
        )

    tracer = get_tracer()

    def outcome_event(status: str, **fields) -> None:
        """Terminal event: every guarded run emits exactly one of these,
        whatever branch it exits through."""
        tracer.event("adversary.outcome", status=status, **fields)

    with tracer.span(
        "adversary",
        protocol=system.protocol.name,
        n=system.protocol.n,
        workers=workers,
        strict=strict,
        resumed=resume is not None,
    ):
        try:
            certificate = space_lower_bound(
                system, verify=verify, oracle=oracle
            )
            outcome_event(
                "certificate", registers=len(certificate.registers)
            )
            return AdversaryOutcome(
                status="certificate", certificate=certificate
            )
        except ViolationError as exc:
            outcome_event(
                "violation",
                detail=str(exc),
                witness_len=len(exc.witness or ()),
            )
            return AdversaryOutcome(status="violation", violation=exc)
        except BudgetExhausted as exc:
            report = partial(str(exc))
            exc.partial = report
            outcome_event(
                "budget", detail=str(exc), queries=len(journal.entries)
            )
            return AdversaryOutcome(status="budget", partial=report)
        except ExplorationLimitError as exc:
            outcome_event(
                "budget", detail=str(exc), visited=exc.visited
            )
            return AdversaryOutcome(
                status="budget",
                partial=partial(f"{exc} ({exc.visited} states visited)"),
            )
        except AdversaryError as exc:
            # No witness came with the failure: either the protocol is
            # broken (hunt a concrete violation) or the oracle budgets
            # misled the construction (report partial progress for a
            # bigger-budget retry).
            found = find_violation(system, kernel=kernel)
            if found is not None:
                outcome_event(
                    "violation",
                    detail=str(found),
                    witness_len=len(found.witness or ()),
                )
                return AdversaryOutcome(status="violation", violation=found)
            outcome_event("budget", detail=f"construction failed: {exc}")
            return AdversaryOutcome(
                status="budget",
                partial=partial(f"construction failed: {exc}"),
            )
        finally:
            oracle.close()
            close = getattr(journal, "close", None)
            if close is not None:
                close()
            if owned_pool is not None:
                owned_pool.close()


def find_violation(
    system: System,
    inputs: Optional[Sequence[Hashable]] = None,
    max_configs: int = 60_000,
    kernel: str = "compiled",
) -> Optional[ViolationError]:
    """Hunt a consensus violation; returns a replayable ViolationError.

    Bounded exhaustive search over the protocol's reachable graph for
    the canonical mixed-input assignment; the returned error's witness
    is the checker's schedule from the initial configuration.  ``kernel``
    selects the checker's exploration engine (same result either way).
    """
    protocol = system.protocol
    if inputs is None:
        inputs = [0] + [1] * (protocol.n - 1)
    k = getattr(protocol, "k", 1)
    result = check_consensus_exhaustive(
        system, inputs, k=k, max_configs=max_configs, strict=False,
        kernel=kernel,
    )
    violation = result.first_violation()
    if violation is None:
        return None
    return ViolationError(
        f"{violation.kind} violation: {violation.detail}",
        witness=tuple(violation.schedule),
    )


# -- campaigns ---------------------------------------------------------------


@dataclass
class CrashCampaignRow:
    """One protocol's verdict under the crash sweep."""

    name: str
    n: int
    result: CrashCheckResult

    @property
    def verdict(self) -> str:
        if self.result.ok:
            return "ok"
        return self.result.first_violation().kind


def crash_campaign(
    protocols: Sequence[Protocol],
    f: Optional[int] = None,
    max_configs: int = 600,
    solo_bound: int = 5_000,
    budget: Optional[Budget] = None,
) -> List[CrashCampaignRow]:
    """Sweep crash plans over each protocol's explored reachable graph."""
    rows = []
    for protocol in protocols:
        system = System(protocol)
        inputs = [0] + [1] * (protocol.n - 1)
        result = check_consensus_crashes(
            system,
            inputs,
            f=f,
            k=getattr(protocol, "k", 1),
            max_configs=max_configs,
            solo_bound=solo_bound,
            budget=budget,
        )
        rows.append(CrashCampaignRow(protocol.name, protocol.n, result))
    return rows


@dataclass
class CorruptionCampaignRow:
    """One (protocol, fault plan) pair: did the checker catch the damage?"""

    name: str
    fault: str
    plan: RegisterFaultPlan
    caught: bool
    detail: str


#: The per-fault-class plans a corruption campaign applies.
DEFAULT_FAULT_PLANS = (
    ("corrupt-writes", corruption_plan),
    ("lost-writes", lost_write_plan),
    ("stale-reads", stale_read_plan),
)


def corruption_campaign(
    protocols: Sequence[Protocol],
    seed: int = 0,
    rate: float = 1.0,
    max_configs: int = 20_000,
) -> List[CorruptionCampaignRow]:
    """Inject register faults into (correct) protocols; the checker must
    report a violation for at least the aggressive plans.

    Each row records whether the checker caught the injected fault; the
    caller decides which misses are acceptable (a fault plan can be
    benign for a particular protocol -- e.g. lost writes of values that
    were never read).
    """
    rows = []
    for protocol in protocols:
        inputs = [0] + [1] * (protocol.n - 1)
        for fault_name, make_plan in DEFAULT_FAULT_PLANS:
            plan = make_plan(seed=seed, rate=rate)
            system = FaultyMemorySystem(protocol, plan)
            result = check_consensus_exhaustive(
                system,
                inputs,
                k=getattr(protocol, "k", 1),
                max_configs=max_configs,
                strict=False,
            )
            violation = result.first_violation()
            rows.append(
                CorruptionCampaignRow(
                    name=protocol.name,
                    fault=fault_name,
                    plan=plan,
                    caught=violation is not None,
                    detail=(
                        f"{violation.kind}: {violation.detail}"
                        if violation is not None
                        else f"no violation in {result.configs_visited} configs"
                    ),
                )
            )
    return rows
