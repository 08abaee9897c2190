"""The packed round-shift canonicaliser induces the Python key partition.

Protocols that declare a round-shift abstraction (``round_shift_tag``
plus ``round_floor``/``round_fragment``; the ``CommitAdoptRounds``
family) are canonicalised by the compiled kernel with per-field tables
over packed rows, never by building ``canonical_query_key``.  The
contract is exact: two rows get the same class id iff their
configurations have equal ``canonical_query_key`` -- checked here in both
directions on random reachable rows (hypothesis), on the no-round
configurations the packed key handles separately, on rows with consumed
coins, and on every row of complete kernel explorations (where real
merges happen).  The Python query keys the kernel builds lazily for
frontier reuse must equal the keys the protocol-hook path registers.
"""

import itertools

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from repro.analysis.explorer import Explorer
from repro.core.incremental import IncrementalEngine
from repro.core.serialize import to_json
from repro.core.theorem import space_lower_bound
from repro.kernel.explore import KernelExplorer
from repro.model.configuration import Configuration
from repro.model.process import HALTED, DecidedState, declares_round_shift
from repro.model.system import System
from repro.protocols.consensus import (
    CommitAdoptRounds,
    KSetPartition,
    RandomizedRounds,
    shared_register_rounds,
)

from tests.test_abstraction import random_configs

#: (spec-style id, protocol factory, inputs)
CASES = [
    ("rounds:2", lambda: CommitAdoptRounds(2), [0, 1]),
    ("rounds:3", lambda: CommitAdoptRounds(3), [0, 1, 1]),
    ("rounds:4", lambda: CommitAdoptRounds(4), [0, 1, 0, 1]),
    ("randomized:2", lambda: RandomizedRounds(2), [0, 1]),
    ("randomized:3", lambda: RandomizedRounds(3), [1, 0, 1]),
    ("shared:3:2", lambda: shared_register_rounds(3, 2), [0, 1, 1]),
]


def no_round_configs(n, registers):
    """Configurations that carry no round at all: decided or halted
    processes over unwritten registers (the declared key is then the
    configuration itself)."""
    fills = (HALTED, DecidedState(0), DecidedState(1))
    configs = []
    for states in itertools.product(fills, repeat=n):
        for coins in ((0,) * n, (1,) + (0,) * (n - 1)):
            configs.append(Configuration(states, (None,) * registers, coins))
    return configs


def assert_partition_matches(protocol, configs, pid_set):
    """Packed class ids and ``canonical_query_key`` agree both ways."""
    explorer = KernelExplorer(System(protocol))
    try:
        assert explorer.program.round_shift
        space = explorer.space(pid_set)
        codec = explorer.program.codec
        cid_of_key = {}
        key_of_cid = {}
        for config in configs:
            row = codec.pack(config)
            cid = space.alias.get(row)
            if cid is None:
                cid = space.canonicalise(row)
            key = protocol.canonical_query_key(config, pid_set)
            # equal keys => equal class ids
            assert cid_of_key.setdefault(key, cid) == cid
            # equal class ids => equal keys
            assert key_of_cid.setdefault(cid, key) == key
        for cid, key in key_of_cid.items():
            assert space.query_key(cid) == key
        return len(configs), len(key_of_cid)
    finally:
        explorer.close()


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(CASES),
    seed=st.integers(0, 2**16),
    length=st.integers(0, 90),
    pid_mask=st.integers(1, 15),
)
def test_packed_keys_induce_the_query_key_partition(case, seed, length, pid_mask):
    _, make, inputs = case
    protocol = make()
    _, configs = random_configs(protocol, inputs, seed, 12, length)
    configs += no_round_configs(protocol.n, len(protocol.object_specs()))
    pid_set = frozenset(
        pid for pid in range(protocol.n) if pid_mask >> pid & 1
    ) or frozenset({0})
    assert_partition_matches(protocol, configs, pid_set)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_partition_on_long_walks_with_coins(case):
    """Deterministic companion of the property test: long walks (so
    coins are consumed on the randomized protocols, and shifted
    duplicates of one class recur)."""
    name, make, inputs = case
    protocol = make()
    _, configs = random_configs(protocol, inputs, 17, 150, 120)
    configs += no_round_configs(protocol.n, len(protocol.object_specs()))
    if name.startswith("randomized"):
        assert any(any(config.coins) for config in configs)
    count, classes = assert_partition_matches(
        protocol, configs, frozenset(range(protocol.n))
    )
    assert classes < count


#: The cases whose full reachable graphs stay within the exploration cap.
SMALL = ("rounds:2", "rounds:3", "randomized:2", "randomized:3")


@pytest.mark.parametrize(
    "case", [c for c in CASES if c[0] in SMALL], ids=lambda c: c[0]
)
def test_partition_on_explored_graphs(case):
    """Every row a complete kernel exploration aliased -- including the
    rows merged into an earlier class -- has its class's query key."""
    _, make, inputs = case
    protocol = make()
    system = System(protocol)
    explorer = Explorer(system, max_configs=20_000, strict=False,
                        kernel="compiled")
    pid_set = frozenset(range(protocol.n))
    try:
        result = explorer.explore(system.initial_configuration(inputs), pid_set)
        assert result.visited > 1
        space = explorer._kernel_explorer.space(pid_set)
        codec = explorer._kernel_explorer.program.codec
        key_of_cid = {}
        for row, cid in space.alias.items():
            key = protocol.canonical_query_key(codec.unpack(row), pid_set)
            assert key_of_cid.setdefault(cid, key) == key
        assert len(set(key_of_cid.values())) == len(key_of_cid)
        for cid, key in key_of_cid.items():
            assert space.query_key(cid) == key
    finally:
        explorer.close()


class _OverriddenKey(CommitAdoptRounds):
    """Declares the abstraction but overrides the key built from it."""

    def canonical_key(self, config):
        return ("overridden", super().canonical_key(config))


def test_declaration_is_inherited_and_overrides_opt_out():
    assert declares_round_shift(CommitAdoptRounds(3))
    assert declares_round_shift(RandomizedRounds(2))
    assert declares_round_shift(shared_register_rounds(3, 2))
    # KSetPartition reuses the abstraction through its own key; an
    # override of a declaring protocol's key opts out of the tables.
    assert not declares_round_shift(KSetPartition(4, 2))
    assert not declares_round_shift(_OverriddenKey(3))
    for protocol in (KSetPartition(4, 2), _OverriddenKey(3)):
        explorer = KernelExplorer(System(protocol))
        program = explorer.program
        assert not program.round_shift and not program.exact_canonical
        assert explorer.space(frozenset({0})).canonicalise is None
        explorer.close()


def recorded_graphs(monkeypatch, protocol_factory, kernel, packed=True):
    """Every ``register_graph`` call of a full adversary run."""
    calls = []
    original = IncrementalEngine.register_graph

    def spy(self, pid_set, node_keys, decided):
        node_keys = list(node_keys)
        calls.append((pid_set, node_keys, decided))
        return original(self, pid_set, node_keys, decided)

    with monkeypatch.context() as patch:
        patch.setattr(IncrementalEngine, "register_graph", spy)
        if not packed:
            # The protocol-hook path: canonicalise every novel row
            # through canonical_query_key_cached.
            patch.setattr(
                "repro.kernel.compiler.declares_round_shift",
                lambda protocol: False,
            )
        certificate = space_lower_bound(System(protocol_factory()), kernel=kernel)
    return calls, certificate


@pytest.mark.parametrize(
    "make",
    [lambda: CommitAdoptRounds(3), lambda: RandomizedRounds(3)],
    ids=["rounds:3", "randomized:3"],
)
def test_lazy_keys_equal_registered_keys(monkeypatch, make):
    """Keys built from class representatives on demand are exactly the
    keys the protocol-hook path computes per novel row, graph by graph
    and in order -- and the interpreter registers the same graphs."""
    packed, cert_packed = recorded_graphs(monkeypatch, make, "compiled")
    hooked, cert_hooked = recorded_graphs(
        monkeypatch, make, "compiled", packed=False
    )
    interp, cert_interp = recorded_graphs(monkeypatch, make, "interp")
    assert packed, "no exhausted graph was registered"
    assert packed == hooked
    assert [(p, set(k), d) for p, k, d in packed] == [
        (p, set(k), d) for p, k, d in interp
    ]
    assert to_json(cert_packed) == to_json(cert_hooked) == to_json(cert_interp)
