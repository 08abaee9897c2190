"""Differentials: the model checker gives the same result on both kernels.

``check_consensus_exhaustive`` is a pop-time invariant of
:class:`~repro.analysis.explorer.Explorer`'s BFS, so it runs on the
compiled kernel by default and on the interpreter with
``kernel="interp"``.  The contract is field-by-field equality of the
:class:`~repro.analysis.checker.CheckResult`: ``ok``,
``configs_visited``, ``exhaustive``, ``note`` and every violation's
kind, witness schedule and detail.  It is checked here on the
benchmark's six ``repro check`` specs, every regression-zoo specimen,
generated fuzz protocols, validity and k-set cases, the configuration
cap's edge, strict-mode overruns and the ``repro check`` CLI itself.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro.analysis.checker import check_consensus_exhaustive
from repro.cli import main, parse_protocol
from repro.errors import ExplorationLimitError
from repro.faults import corruption_campaign
from repro.fuzz.generator import GeneratorConfig, generate_protocol
from repro.fuzz.zoo import Zoo
from repro.model.system import System
from repro.obs import MemorySink, MetricsRegistry, Tracer, observe
from repro.protocols.consensus import CommitAdoptRounds, TasConsensus

from tests.test_checker_paths import invalid_decider, stalling_protocol
from tests.test_zoo_replay import ZOO_ROOT

#: The ``repro check`` specs and caps the repo benchmark times.
CHECK_SPECS = (
    ("randomized:2", 10_000),
    ("rounds:3", 10_000),
    ("racing:3", 10_000),
    ("split-brain:3", 10_000),
    ("shared:3:2", 10_000),
    ("optimistic:3", 10_000),
)

SPECIMENS = Zoo(ZOO_ROOT).specimens()


def fields(result):
    """Every field of a CheckResult the differential contract covers."""
    return (
        result.ok,
        result.configs_visited,
        result.exhaustive,
        result.note,
        [(v.kind, tuple(v.schedule), v.detail) for v in result.violations],
    )


def check_both(make_system, inputs, **kwargs):
    """Run the checker on both kernels; assert equal fields, return one."""
    compiled = check_consensus_exhaustive(
        make_system(), inputs, kernel="compiled", **kwargs
    )
    interp = check_consensus_exhaustive(
        make_system(), inputs, kernel="interp", **kwargs
    )
    assert fields(compiled) == fields(interp)
    return compiled


def mixed_inputs(n):
    return [0] + [1] * (n - 1)


@pytest.mark.parametrize("spec,cap", CHECK_SPECS, ids=[s for s, _ in CHECK_SPECS])
def test_benchmark_specs_agree(spec, cap):
    protocol = parse_protocol(spec)
    result = check_both(
        lambda: System(parse_protocol(spec)), mixed_inputs(protocol.n),
        k=getattr(protocol, "k", 1), max_configs=cap, strict=False,
    )
    if result.ok:
        assert result.configs_visited == cap + 1
        assert result.note.startswith("bounded verification")
    else:
        assert result.violations[0].schedule


@pytest.mark.parametrize(
    "specimen", SPECIMENS, ids=[s.digest[:12] for s in SPECIMENS]
)
def test_zoo_specimens_agree(specimen):
    n = specimen.build().n
    check_both(
        lambda: System(specimen.build()), mixed_inputs(n),
        max_configs=20_000, strict=False,
    )


GENERATED = GeneratorConfig(n=(2, 3), states=(2, 6), registers=(1, 3))


@given(
    seed=st.integers(0, 10_000),
    inputs_seed=st.integers(0, 7),
    check_solo=st.booleans(),
)
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_generated_protocols_agree(seed, inputs_seed, check_solo):
    protocol = generate_protocol(random.Random(seed), GENERATED)
    inputs = [(inputs_seed >> pid) & 1 for pid in range(protocol.n)]
    check_both(
        lambda: System(protocol), inputs, check_solo=check_solo,
        solo_step_bound=50, max_configs=2_000, strict=False,
    )


def test_validity_violation_agrees():
    result = check_both(lambda: System(invalid_decider(2)), [0, 1])
    assert not result.ok
    assert "validity" in {v.kind for v in result.violations}


def test_solo_termination_violation_agrees():
    result = check_both(
        lambda: System(stalling_protocol(2)), [0, 1], check_solo=True,
        solo_step_bound=100, max_configs=1_000, strict=False,
    )
    assert result.first_violation().kind == "solo-termination"


def test_kset_agrees_at_its_k_and_below():
    def make():
        return System(parse_protocol("kset:3:2"))

    at_k = check_both(make, [0, 1, 2], k=2)
    assert at_k.ok and at_k.exhaustive
    below = check_both(make, [0, 1, 2], k=1)
    assert not below.ok
    assert below.first_violation().kind == "agreement"


def violation_pop(spec):
    """(protocol, discovered count when its first violation is popped)."""
    protocol = parse_protocol(spec)
    result = check_both(
        lambda: System(parse_protocol(spec)), mixed_inputs(protocol.n),
        max_configs=10_000, strict=False,
    )
    assert not result.ok
    return protocol, result.configs_visited


@pytest.mark.parametrize("spec", ["split-brain:3", "shared:3:2"])
def test_violation_discovered_but_not_popped_stays_unreported(spec):
    # At a cap one below the violation pop's discovered count, the cap
    # is hit by the last discovery before that pop: the violating
    # configuration is in the graph but was never judged.
    protocol, at_pop = violation_pop(spec)
    edge = check_both(
        lambda: System(parse_protocol(spec)), mixed_inputs(protocol.n),
        max_configs=at_pop - 1, strict=False,
    )
    assert edge.ok and not edge.exhaustive
    assert edge.configs_visited == at_pop
    assert edge.note.startswith("bounded verification")
    reported = check_both(
        lambda: System(parse_protocol(spec)), mixed_inputs(protocol.n),
        max_configs=at_pop, strict=False,
    )
    assert not reported.ok and reported.configs_visited == at_pop


@pytest.mark.parametrize("kernel", ["compiled", "interp"])
def test_strict_overrun_raises_with_same_visited(kernel):
    protocol, at_pop = violation_pop("split-brain:3")
    with pytest.raises(ExplorationLimitError) as raised:
        check_consensus_exhaustive(
            System(protocol), mixed_inputs(protocol.n),
            max_configs=at_pop - 1, kernel=kernel,
        )
    assert raised.value.visited == at_pop
    with pytest.raises(ExplorationLimitError) as clean:
        check_consensus_exhaustive(
            System(parse_protocol("rounds:3")), [0, 1, 1],
            max_configs=500, kernel=kernel,
        )
    assert clean.value.visited == 501


def run_cli(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue()


@pytest.mark.parametrize(
    "spec,cap",
    [("split-brain:3", 10_000), ("randomized:2", 2_000),
     ("shared:3:2", 10_000), ("kset:3:2", 10_000)],
)
def test_cli_check_stdout_identical_across_kernels(spec, cap):
    argv = ["check", spec, "--max-configs", str(cap)]
    compiled = run_cli(argv + ["--kernel", "compiled"])
    interp = run_cli(argv + ["--kernel", "interp"])
    assert compiled == interp
    assert run_cli(argv) == compiled  # compiled is the default


@pytest.mark.parametrize("spec,cap", CHECK_SPECS, ids=[s for s, _ in CHECK_SPECS])
def test_cli_check_never_falls_back(spec, cap, tmp_path):
    metrics = tmp_path / "metrics.json"
    run_cli(["check", spec, "--max-configs", str(cap),
             "--metrics-out", str(metrics)])
    counters = json.loads(metrics.read_text())["counters"]
    assert counters.get("kernel.fallbacks", 0) == 0
    assert counters["kernel.compiles"] == 1


#: The corruption campaign's rows before the checker moved onto
#: ``Explorer`` (faulty-memory systems now fall back to its interpreter).
CORRUPTION_ROWS = [
    ("commit-adopt-rounds", "corrupt-writes", False,
     "no violation in 5001 configs"),
    ("commit-adopt-rounds", "lost-writes", False,
     "no violation in 5001 configs"),
    ("commit-adopt-rounds", "stale-reads", False,
     "no violation in 5001 configs"),
    ("tas-consensus", "corrupt-writes", True,
     "agreement: 2 distinct values decided: [0, 1] (allowed: 1)"),
    ("tas-consensus", "lost-writes", True,
     "agreement: 2 distinct values decided: [0, 1] (allowed: 1)"),
    ("tas-consensus", "stale-reads", False, "no violation in 12 configs"),
]


def test_corruption_campaign_rows_unchanged_and_fallback_reported():
    with observe(
        tracer=Tracer(MemorySink()), metrics=MetricsRegistry()
    ) as obs:
        rows = corruption_campaign(
            [CommitAdoptRounds(2), TasConsensus(2)], rate=1.0,
            max_configs=5_000,
        )
    assert [
        (row.name, row.fault, row.caught, row.detail) for row in rows
    ] == CORRUPTION_ROWS
    counters = obs.metrics.snapshot()["counters"]
    # One recorded fallback per checker run, not one per exploration
    # step: the metrics say what happened without flooding.
    assert counters["kernel.fallback.system-subclass"] == len(rows)
    assert counters["kernel.fallbacks"] == len(rows)
    events = [
        record for record in obs.tracer.sink.records
        if record["type"] == "event" and record["name"] == "kernel.fallback"
    ]
    assert len(events) == len(rows)
    assert {event["data"]["reason"] for event in events} == {"system-subclass"}
