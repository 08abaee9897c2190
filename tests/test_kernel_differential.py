"""Property-based differentials: the compiled kernel changes nothing.

Hypothesis generates small arbitrary protocol automata (the same
strategy as tests/test_parallel_differential.py) and checks that the
compiled packed-integer kernel (:mod:`repro.kernel`) returns *exactly*
what the interpreted explorer returns: identical reachable-set
fingerprints (decided values, witness schedules, visited counts,
completeness flags), identical certificates, identical guarded exit
codes -- across 1 vs N workers, POR on and off, with and without the
incremental engine, and with the out-of-core spill forced down to a
one-configuration threshold.  Any divergence is a soundness bug in the
lowering, found here on a five-state automaton instead of inside a
lemma driver.
"""

import contextlib
import io
import json
import os

from hypothesis import given
import hypothesis.strategies as st
import pytest

from repro.analysis.explorer import Explorer
from repro.cli import main
from repro.core.serialize import to_json
from repro.core.theorem import space_lower_bound
from repro.errors import BudgetExhausted, ExplorationLimitError
from repro.faults.budget import Budget
from repro.model.system import System
from repro.parallel import ShardedExplorer
from repro.protocols.consensus import CommitAdoptRounds

from tests.test_parallel_differential import (
    DIFFERENTIAL,
    VALUES,
    fresh_system,
    table_protocols,
)

SPILL_ENV = "REPRO_KERNEL_SPILL_THRESHOLD"
FP_ENV = "REPRO_KERNEL_FP_BITS"


def result_fingerprint(result):
    """Everything the exploration contract promises, as one value."""
    return (
        result.visited,
        result.complete,
        result.truncated,
        {value: tuple(schedule) for value, schedule in result.decided.items()},
    )


def explore_with(protocol, kernel, *, inputs, por=False, engine=None,
                 stop_when=None, max_configs=50_000, max_depth=None,
                 invariant=None):
    system = fresh_system(protocol)
    explorer = Explorer(
        system, max_configs=max_configs, max_depth=max_depth, strict=False,
        por=por, kernel=kernel, engine=engine,
    )
    root = system.initial_configuration(inputs)
    result = explorer.explore(
        root, frozenset(range(protocol.n)), stop_when=stop_when,
        invariant=invariant,
    )
    explorer.close()
    return result


def forced_spill(body):
    """Run ``body()`` with the spill threshold forced to 1 configuration
    and the fingerprint index narrowed to 8 bits (collision-heavy, so
    the fetch-verify path is actually exercised)."""
    saved = {name: os.environ.get(name) for name in (SPILL_ENV, FP_ENV)}
    os.environ[SPILL_ENV] = "1"
    os.environ[FP_ENV] = "8"
    try:
        return body()
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@given(
    protocol=table_protocols(),
    inputs_seed=st.integers(0, 7),
    por=st.booleans(),
)
@DIFFERENTIAL
def test_compiled_exploration_is_bit_identical(protocol, inputs_seed, por):
    inputs = [(inputs_seed >> pid) & 1 for pid in range(protocol.n)]
    interp = explore_with(protocol, "interp", inputs=inputs, por=por)
    compiled = explore_with(protocol, "compiled", inputs=inputs, por=por)
    assert result_fingerprint(compiled) == result_fingerprint(interp)
    assert compiled.witnesses_replay(fresh_system(protocol))


@given(protocol=table_protocols(), value=st.sampled_from(VALUES))
@DIFFERENTIAL
def test_compiled_stop_when_is_bit_identical(protocol, value):
    inputs = [0, 1] + [0] * (protocol.n - 2)
    target = frozenset({value})
    interp = explore_with(protocol, "interp", inputs=inputs, stop_when=target)
    compiled = explore_with(
        protocol, "compiled", inputs=inputs, stop_when=target
    )
    assert result_fingerprint(compiled) == result_fingerprint(interp)


@given(
    protocol=table_protocols(),
    value=st.sampled_from(VALUES),
    por=st.booleans(),
    max_depth=st.sampled_from([None, 2, 4]),
)
@DIFFERENTIAL
def test_compiled_invariant_violation_is_bit_identical(
    protocol, value, por, max_depth
):
    # The pop-time invariant fires on the same popped configuration in
    # both kernels -- also under POR and on depth-truncated pops -- and
    # the kernel's unpacked row equals the interpreter's configuration.
    inputs = [0, 1] + [0] * (protocol.n - 2)

    def decided_value(decided, config_of):
        return value in decided and config_of() is not None

    interp, compiled = (
        explore_with(
            protocol, kernel, inputs=inputs, por=por, max_depth=max_depth,
            invariant=decided_value,
        )
        for kernel in ("interp", "compiled")
    )
    assert result_fingerprint(compiled) == result_fingerprint(interp)
    assert compiled.violation == interp.violation
    if interp.violation is not None:
        config, schedule = interp.violation
        final, _ = fresh_system(protocol).run(interp.root, schedule)
        assert final == config
        assert value in fresh_system(protocol).decided_values(config)


@given(protocol=table_protocols(), inputs_seed=st.integers(0, 7))
@DIFFERENTIAL
def test_compiled_with_incremental_engine_is_bit_identical(
    protocol, inputs_seed
):
    from repro.core.incremental import IncrementalEngine

    inputs = [(inputs_seed >> pid) & 1 for pid in range(protocol.n)]
    interp = explore_with(protocol, "interp", inputs=inputs)
    system = fresh_system(protocol)
    engine = IncrementalEngine(system)
    explorer = Explorer(
        system, max_configs=50_000, strict=False,
        kernel="compiled", engine=engine,
    )
    pids = frozenset(range(protocol.n))
    root = system.initial_configuration(inputs)
    # Twice: the second pass exercises the warmed persistent space and
    # the engine's registered-graph index.
    first = explorer.explore(root, pids)
    second = explorer.explore(root, pids)
    explorer.close()
    assert result_fingerprint(first) == result_fingerprint(interp)
    assert result_fingerprint(second) == result_fingerprint(interp)


@given(protocol=table_protocols(), inputs_seed=st.integers(0, 7))
@DIFFERENTIAL
def test_compiled_forced_spill_is_bit_identical(protocol, inputs_seed):
    inputs = [(inputs_seed >> pid) & 1 for pid in range(protocol.n)]
    interp = explore_with(protocol, "interp", inputs=inputs)
    compiled = forced_spill(
        lambda: explore_with(protocol, "compiled", inputs=inputs)
    )
    assert result_fingerprint(compiled) == result_fingerprint(interp)
    assert compiled.witnesses_replay(fresh_system(protocol))


@given(protocol=table_protocols(), inputs_seed=st.integers(0, 7))
@DIFFERENTIAL
def test_compiled_one_vs_n_workers(protocol, inputs_seed, worker_pool, workers):
    """workers>1 falls back (recorded) and still matches workers=1."""
    inputs = [(inputs_seed >> pid) & 1 for pid in range(protocol.n)]
    system = System(protocol)
    root = system.initial_configuration(inputs)
    pids = frozenset(range(protocol.n))
    one = ShardedExplorer(
        system, workers=1, max_configs=50_000, kernel="compiled"
    )
    sequential = one.explore(root, pids)
    one.close()
    sharded_explorer = ShardedExplorer(
        fresh_system(protocol), workers=workers, pool=worker_pool,
        max_configs=50_000, kernel="compiled",
    )
    assert sharded_explorer.kernel_fallback_reason == "sharded-workers"
    sharded = sharded_explorer.explore(root, pids)
    sharded_explorer.close()
    assert result_fingerprint(sharded) == result_fingerprint(sequential)


def test_strict_limit_error_is_byte_identical():
    """Same exception type, message bytes, and visited payload."""
    def overrun(kernel):
        system = System(CommitAdoptRounds(3))
        explorer = Explorer(
            system, max_configs=10, strict=True, kernel=kernel
        )
        root = system.initial_configuration([0, 1, 1])
        try:
            explorer.explore(root, frozenset(range(3)))
        except ExplorationLimitError as exc:
            return str(exc), exc.visited
        finally:
            explorer.close()
        raise AssertionError("limit did not trip")

    assert overrun("compiled") == overrun("interp")


def test_budget_exhaustion_tick_parity():
    """The kernel bills the budget at the same pop as the interpreter."""
    def exhaust(kernel):
        system = System(CommitAdoptRounds(3))
        budget = Budget(max_steps=7)
        explorer = Explorer(
            system, max_configs=50_000, strict=False,
            budget=budget, kernel=kernel,
        )
        root = system.initial_configuration([0, 1, 1])
        try:
            explorer.explore(root, frozenset(range(3)))
        except BudgetExhausted:
            pass
        finally:
            explorer.close()
        return budget.spent

    assert exhaust("compiled") == exhaust("interp")


def test_rounds_certificate_is_byte_identical():
    """The real protocol family: full adversary, serialized bytes."""
    interp = space_lower_bound(
        System(CommitAdoptRounds(3)), kernel="interp"
    )
    compiled = space_lower_bound(
        System(CommitAdoptRounds(3)), kernel="compiled"
    )
    assert to_json(compiled) == to_json(interp)


def test_rounds_certificate_byte_identical_under_forced_spill():
    interp = space_lower_bound(
        System(CommitAdoptRounds(3)), kernel="interp"
    )
    compiled = forced_spill(
        lambda: space_lower_bound(
            System(CommitAdoptRounds(3)), kernel="compiled"
        )
    )
    assert to_json(compiled) == to_json(interp)


#: The round-shift family the packed canonicaliser serves (test ids use
#: ``-`` for ``:`` so ``-k`` can name them).  rounds:5 is deselected
#: from the forced-spill CI rerun: one spill segment per row exhausts
#: the open-file limit there (the kernel quarantines the segment and
#: exits 1, as the parent kernel did).
ROUND_FAMILY = ["rounds:3", "rounds:4", "rounds:5", "randomized:2", "randomized:3"]


def spec_id(spec):
    return spec.replace(":", "-")


def adversary_certificate(spec, kernel, out):
    """``repro adversary <spec> --kernel <kernel>``'s --out bytes."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["adversary", spec, "--kernel", kernel, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("spec", ROUND_FAMILY, ids=spec_id)
def test_round_family_certificates_are_byte_identical(spec, tmp_path):
    """Packed canonicalisation (compiled) vs canonical_key (interp):
    the CLI adversary's certificate, byte for byte."""
    assert adversary_certificate(
        spec, "compiled", tmp_path / "compiled.json"
    ) == adversary_certificate(spec, "interp", tmp_path / "interp.json")


@pytest.mark.parametrize(
    "spec", ["rounds:3", "randomized:2", "randomized:3"], ids=spec_id
)
def test_round_family_certificates_byte_identical_under_forced_spill(
    spec, tmp_path
):
    interp = adversary_certificate(spec, "interp", tmp_path / "interp.json")
    compiled = forced_spill(
        lambda: adversary_certificate(
            spec, "compiled", tmp_path / "compiled.json"
        )
    )
    assert compiled == interp


def test_guarded_outcome_exit_codes_match():
    """The CLI exit-code contract is kernel-independent, bytes and all."""
    from repro.fuzz.oracle import EngineSpec, guarded_outcome

    protocol = CommitAdoptRounds(3)
    interp = guarded_outcome(protocol, EngineSpec("sequential"))
    compiled = guarded_outcome(
        protocol, EngineSpec("compiled", kernel="compiled")
    )
    assert compiled["status"] == interp["status"]
    assert compiled["exit_code"] == interp["exit_code"]
    assert json.dumps(compiled["payload"], sort_keys=True) == json.dumps(
        interp["payload"], sort_keys=True
    )


def test_compiled_engine_fingerprint_matches_sequential_leg():
    """The sixth oracle leg agrees with the baseline on a zoo-style
    specimen (the full differential runs in tests/test_fuzz.py and the
    zoo replay)."""
    from repro.fuzz.oracle import (
        DEFAULT_ENGINES,
        engine_fingerprint,
        fingerprint_bytes,
    )
    from repro.fuzz.generator import GeneratorConfig, generate_protocol
    import random

    compiled_spec = DEFAULT_ENGINES[-1]
    assert compiled_spec.name == "compiled"
    assert compiled_spec.kernel == "compiled"
    for seed in range(5):
        protocol = generate_protocol(
            random.Random(seed), config=GeneratorConfig(), name=f"k{seed}"
        )
        base = engine_fingerprint(protocol, DEFAULT_ENGINES[0])
        leg = engine_fingerprint(protocol, compiled_spec)
        assert fingerprint_bytes(leg) == fingerprint_bytes(base)


def test_metrics_parity_on_fixed_protocol():
    """Counter/gauge/histogram totals match the interpreter exactly
    (kernel.* instruments excluded -- they are the kernel's own)."""
    from repro.obs import MetricsRegistry, observe

    def observed(kernel):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            explore_with(
                CommitAdoptRounds(3), kernel, inputs=[0, 1, 1], por=True
            )
        snapshot = registry.snapshot()
        snapshot["counters"] = {
            name: value
            for name, value in snapshot["counters"].items()
            if not name.startswith("kernel.")
        }
        snapshot["histograms"] = {
            name: body
            for name, body in snapshot["histograms"].items()
            if not name.startswith("kernel.")
        }
        return snapshot

    assert observed("compiled") == observed("interp")
