"""The compiled batch explorer: BFS over packed rows.

Bit-identical to :meth:`repro.analysis.explorer.Explorer.explore` by
construction -- same budget tick sequence, same POR skip condition,
same dedup/limit/early-exit points, same metric totals, same
certificates and witness schedules.  The correspondence argument lives
in docs/THEORY.md; the enforcement lives in
``tests/test_kernel_differential.py``.

Layout of one exploration:

* The *visited space* (one per process set, persistent across
  explorations so canonicalisation and interning amortise like the
  incremental engine's memos) assigns a dense global id (``gcid``) to
  every distinct canonical configuration and stores its representative
  packed row in a spillable :class:`~repro.kernel.store.RowStore`.
* The *frontier log* is a second ``RowStore`` holding one 128-bit
  record per BFS discovery::

      gcid:32 | parent_lid+1:32 | depth:32 | via_pid:16 | via_tok:16

  Because the interpreted BFS appends successors to its queue at the
  moment of first discovery, the log *is* the queue: expanding record
  ``qi`` while appending new records at the end replays exactly the
  interpreted FIFO order, and the ``parent_lid`` chain doubles as the
  parent-pointer map for witness reconstruction.  Both stores spill
  past the RAM threshold, so a deep exploration's resident footprint
  is its dedup index plus the page cache.

The hot loop lives in :func:`_hot_expand`; the ``_hot_`` prefix is a
contract enforced by ``repro lint --self``: no object-model calls, no
``Configuration`` construction, no pack/unpack, no comprehensions --
per-edge work is shifts, masks, one big-int add and dict probes.  Novel
rows of protocols that declare a round-shift abstraction are
canonicalised by the equally audited ``_hot_canonicalise`` (per-field
table probes, see :func:`_packed_admit`).  Cold paths (plan/effect
misses, table growth, canonicalisation through other protocols' Python
hooks) are the ``*_miss``/``grow``/``resolve`` handlers the hot code
delegates to.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional, Tuple

from repro.analysis.explorer import BRANCHING_EDGES, ExplorationResult
from repro.errors import ExplorationLimitError, KernelError
from repro.kernel.codec import FIELD_BITS, FIELD_MASK
from repro.kernel.compiler import CompiledProgram
from repro.kernel.store import RowStore
from repro.model.configuration import Configuration
from repro.obs.runtime import get_metrics, get_tracer

_MISS = object()

#: Frontier log record width: gcid, parent+1, depth (32 bits each),
#: via pid and via token (16 bits each).
_LOG_WIDTH = 16


#: Width of one fragment-id slot in a packed class key.
_KEY_SLOT = FIELD_BITS

#: Floor-table entry of a part that carries no round (compares above
#: every int, so the least floor of a row is a plain ``<`` scan).
_NO_ROUND = float("inf")


class _RoundShiftTables:
    """A protocol's round-shift declaration lowered to per-field tables.

    Shared by every space of one compiled program (floors and fragments
    do not depend on the process set).  ``state_floors``/``value_floors``
    are indexed by state/value id and hold the part's least round
    (``_NO_ROUND`` if none); ``fragments`` maps a base to a pair of
    lists indexed by state/value id holding the part's fragment id at
    that base (``None`` until first needed).  Fragment ids intern the
    protocol's fragments with ``==`` semantics, so equal fragment ids
    are exactly equal fragments.  Every table is a list over the
    codec's dense ids; ids interned after a table was last grown raise
    ``IndexError`` in the hot path, which calls :meth:`grow`.
    """

    __slots__ = (
        "protocol",
        "codec",
        "state_floors",
        "value_floors",
        "fragments",
        "fragment_ids",
    )

    def __init__(self, program: CompiledProgram):
        self.protocol = program.protocol
        self.codec = program.codec
        self.state_floors: list = []
        self.value_floors: list = []
        self.fragments: dict = {}
        self.fragment_ids: dict = {}

    def grow(self) -> bool:
        """Extend every table to the codec's current id ranges; False if
        they already covered them."""
        codec = self.codec
        if len(self.state_floors) == len(codec.states) and len(
            self.value_floors
        ) == len(codec.values):
            return False
        floor = self.protocol.round_floor
        for parts, floors in (
            (codec.states, self.state_floors),
            (codec.values, self.value_floors),
        ):
            for part in parts[len(floors):]:
                least = floor(part)
                floors.append(_NO_ROUND if least is None else least)
        for state_frags, value_frags in self.fragments.values():
            state_frags.extend([None] * (len(codec.states) - len(state_frags)))
            value_frags.extend([None] * (len(codec.values) - len(value_frags)))
        return True

    def base_miss(self, base: int) -> Tuple[list, list]:
        codec = self.codec
        tables = ([None] * len(codec.states), [None] * len(codec.values))
        self.fragments[base] = tables
        return tables

    def fragment_miss(self, table: list, parts: list, part_id: int, base: int):
        fragment = self.protocol.round_fragment(parts[part_id], base)
        fid = self.fragment_ids.get(fragment)
        if fid is None:
            fid = len(self.fragment_ids)
            if fid >> _KEY_SLOT:
                raise KernelError(
                    f"round-shift fragments overflowed a {_KEY_SLOT}-bit "
                    "key slot"
                )
            self.fragment_ids[fragment] = fid
        table[part_id] = fid
        return fid


def _packed_admit(space: "_Space", tables: _RoundShiftTables):
    """The packed canonicaliser of one space: row -> class id.

    The class key is one int: bit 0 set, then one fragment id per state
    field and per register field (``_KEY_SLOT`` bits each), then the
    row's coin fields verbatim.  A row with no round anywhere keys as
    ``row << 1`` (bit 0 clear): the declared key of such a configuration
    is the configuration itself.  Equal keys <=> equal declared
    canonical keys (docs/THEORY.md).
    """
    codec = space.program.codec
    state_shifts = codec.state_shifts
    mem_shifts = codec.mem_shifts
    coin_shift = (codec.n + codec.registers) * codec.field_bits
    fmask = codec.field_mask
    states = codec.states
    values = codec.values
    state_floors = tables.state_floors
    value_floors = tables.value_floors
    fragments = tables.fragments
    grow = tables.grow
    base_miss = tables.base_miss
    fragment_miss = tables.fragment_miss
    alias = space.alias
    key_to_cid = space.key_to_cid
    append = space.store.append
    slot = _KEY_SLOT
    no_round = _NO_ROUND

    def _hot_canonicalise(row: int) -> int:
        while True:
            try:
                base = no_round
                for shift in state_shifts:
                    floor = state_floors[(row >> shift) & fmask]
                    if floor < base:
                        base = floor
                for shift in mem_shifts:
                    floor = value_floors[(row >> shift) & fmask]
                    if floor < base:
                        base = floor
                if base is no_round:
                    key = row << 1
                    break
                at_base = fragments.get(base)
                if at_base is None:
                    at_base = base_miss(base)
                state_frags = at_base[0]
                value_frags = at_base[1]
                key = 1
                offset = 1
                for shift in state_shifts:
                    sid = (row >> shift) & fmask
                    fid = state_frags[sid]
                    if fid is None:
                        fid = fragment_miss(state_frags, states, sid, base)
                    key |= fid << offset
                    offset += slot
                for shift in mem_shifts:
                    vid = (row >> shift) & fmask
                    fid = value_frags[vid]
                    if fid is None:
                        fid = fragment_miss(value_frags, values, vid, base)
                    key |= fid << offset
                    offset += slot
                key |= (row >> coin_shift) << offset
                break
            except IndexError:
                # An id interned since the tables last grew (anything
                # else is a genuine error).
                if not grow():
                    raise
        cid = key_to_cid.get(key)
        if cid is None:
            cid = append(row)
            key_to_cid[key] = cid
        alias[row] = cid
        return cid

    return _hot_canonicalise


class _Space:
    """Per-process-set visited arena, persistent across explorations."""

    __slots__ = (
        "program",
        "pid_set",
        "store",
        "alias",
        "key_to_cid",
        "keys",
        "lazy_keys",
        "fragments",
        "canonicalise",
    )

    def __init__(
        self,
        program: CompiledProgram,
        pid_set: FrozenSet[int],
        tables: Optional[_RoundShiftTables],
        fragments: dict,
    ):
        self.program = program
        self.pid_set = pid_set
        self.fragments = fragments
        codec = program.codec
        #: The packed canonicaliser (round-shift protocols), else None.
        #: (No bound method of ``self`` is stored: a reference cycle
        #: would keep every finished space alive until the next cyclic
        #: collection.)
        self.canonicalise = None
        self.lazy_keys = 0
        if program.exact_canonical:
            # Packing is injective w.r.t. configuration equality and the
            # default canonical key is the configuration itself, so rows
            # dedup directly.
            self.store = RowStore(codec.width_bytes, indexed=True, label="visited")
            self.alias = None
            self.key_to_cid = None
            self.keys = None
            return
        # Coarser canonical keys: a novel row canonicalises once, then
        # aliases to its class id forever.  Round-shift protocols key
        # classes by packed ints (``_packed_admit``) and build Python
        # query keys only on demand (:meth:`query_key`); other
        # overridden hooks (symmetry quotients, k-set templates, fault
        # wrappers) canonicalise through the protocol in :meth:`resolve`.
        self.store = RowStore(codec.width_bytes, indexed=False, label="visited")
        self.alias = {}
        self.key_to_cid = {}
        #: Query key per cid (None until built on demand).
        self.keys: list = []
        if tables is not None:
            self.canonicalise = _packed_admit(self, tables)

    def resolve(self, row: int) -> int:
        """Canonicalise a novel row through the protocol's Python hook.

        Uses the ``canonical_query_key_cached`` hook with an
        explorer-owned cache: the hook's contract is strict equality
        with ``canonical_query_key``, so the cid mapping is identical to
        the interpreter's.
        """
        program = self.program
        config = program.codec.unpack(row)
        key = program.protocol.canonical_query_key_cached(
            config, self.pid_set, self.fragments
        )
        cid = self.key_to_cid.get(key)
        if cid is None:
            cid = self.store.append(row)
            self.key_to_cid[key] = cid
            self.keys.append(key)
        self.alias[row] = cid
        return cid

    def query_key(self, cid: int) -> Hashable:
        """The class's ``canonical_query_key``, built from its
        representative row on first request and memoised.

        Every row of a class has the class's query key, so building it
        from the representative gives exactly the key the class was
        found under.
        """
        keys = self.keys
        if cid >= len(keys):
            keys.extend([None] * (cid + 1 - len(keys)))
        key = keys[cid]
        if key is None:
            program = self.program
            key = program.protocol.canonical_query_key_cached(
                program.codec.unpack(self.store.get(cid)),
                self.pid_set,
                self.fragments,
            )
            keys[cid] = key
            self.lazy_keys += 1
        return key

    def close(self) -> None:
        self.store.close()


def _hot_expand(
    log,
    row_get,
    lookup,
    admit,
    store,
    exact,
    program,
    plans,
    plan_miss,
    effect_miss,
    decisions,
    found,
    stop_when,
    commute,
    por,
    sorted_pids,
    all_pids,
    state_shifts,
    field_mask,
    parents,
    level_sizes,
    branch_counts,
    budget,
    max_depth,
    max_configs,
    strict,
    violates,
    ctr,
):
    """Expand the whole frontier; returns "done"/"stopped"/"limit"/"violated".

    ``ctr`` accumulates [edges, dedup, pruned, truncated, pops,
    violated lid] so the caller can flush metrics exactly once
    (including on a raise, where the interpreted loop's incremental
    counter updates are also already committed).  ``violates`` is the
    optional pop-time invariant over the popped row: when it fires, the
    popped record's log id lands in ``ctr[5]`` and the frontier is left
    unexpanded.  Order of operations per popped record and per pid
    mirrors ``Explorer.explore`` statement for statement.
    """
    log_get = log.get
    log_append = log.append
    # Two masks: the frontier-log record layout is fixed at 32-bit
    # fields regardless of codec narrowing; packed-row fields use the
    # codec's (possibly narrowed) width.
    mask = FIELD_MASK
    fmask = field_mask
    qi = 0
    total = 1
    while qi < total:
        entry = log_get(qi)
        qi += 1
        if budget is not None:
            budget.tick()
        row = row_get(entry & mask)
        if violates is not None and violates(row):
            ctr[5] = qi - 1
            return "violated"
        depth = (entry >> 64) & mask
        if max_depth is not None and depth >= max_depth:
            ctr[3] = 1
            continue
        ctr[4] += 1
        via_pid = (entry >> 96) & 0xFFFF
        via_tok = (entry >> 112) & 0xFFFF
        commute_row = commute[via_tok]
        nd = depth + 1
        packed_depth = nd << 64
        branch = 0
        for pid in sorted_pids:
            pplans = plans[pid]
            sid = (row >> state_shifts[pid]) & fmask
            plan = pplans.get(sid, _MISS)
            if plan is _MISS:
                plan = plan_miss(pid, sid)
            if plan is None:
                continue
            if por and via_tok and pid < via_pid and commute_row[plan[3]]:
                ctr[2] += 1
                continue
            branch += 1
            ctr[0] += 1
            if plan[0] == 0:
                shift = plan[1]
                cur = (row >> shift) & fmask
                delta = plan[2].get(cur, _MISS)
                if delta is _MISS:
                    delta = effect_miss(plan, cur)
                succ = row + delta
            else:
                succ = row + plan[2]
            scid = lookup(succ)
            if scid is None:
                scid = admit(succ)
                if exact and store.spilling:
                    lookup = store.find
            if scid in parents:
                ctr[1] += 1
                continue
            lid = total
            parents[scid] = lid
            log_append(
                scid | (qi << 32) | packed_depth | (pid << 96) | (plan[3] << 112)
            )
            total += 1
            if len(parents) > max_configs:
                if strict:
                    pids_list = sorted(sorted_pids)
                    get_tracer().event(
                        "exploration_limit",
                        visited=len(parents),
                        max_configs=max_configs,
                        pids=pids_list,
                    )
                    raise ExplorationLimitError(
                        f"exploration from root exceeded "
                        f"{max_configs} configurations "
                        f"(pids={pids_list})",
                        visited=len(parents),
                    )
                ctr[3] = 1
                return "limit"
            # Read ``deciding`` live: a dynamically lowered protocol may
            # intern its first deciding state mid-exploration.
            if program.deciding:
                for p2 in all_pids:
                    value = decisions[p2].get((succ >> state_shifts[p2]) & fmask)
                    if value is not None and value not in found:
                        found[value] = lid
                if stop_when is not None and stop_when <= found.keys():
                    return "stopped"
            level_sizes[nd] = level_sizes.get(nd, 0) + 1
        branch_counts[branch] = branch_counts.get(branch, 0) + 1
    return "done"


def _schedule_of(log: RowStore, lid: int) -> Tuple[int, ...]:
    """Read the root-to-``lid`` pid schedule off the frontier log."""
    steps = []
    entry = log.get(lid)
    while True:
        parent1 = (entry >> 32) & FIELD_MASK
        if parent1 == 0:
            break
        steps.append((entry >> 96) & 0xFFFF)
        entry = log.get(parent1 - 1)
    steps.reverse()
    return tuple(steps)


class KernelExplorer:
    """Owns one compiled program plus its per-process-set spaces."""

    def __init__(self, system):
        self.program = CompiledProgram(system)
        self.system = system
        self._spaces = {}
        self._tables = (
            _RoundShiftTables(self.program) if self.program.round_shift else None
        )
        # Canonical-key fragment cache shared by every space's Python
        # keys (Protocol.canonical_query_key_cached).
        self._fragments: dict = {}
        get_metrics().counter("kernel.compiles").inc()
        get_tracer().event(
            "kernel.compiled",
            protocol=type(system.protocol).__name__,
            mode="static" if self.program.static else "dynamic",
            states=len(self.program.codec.states),
            values=len(self.program.codec.values),
            field_bits=self.program.codec.field_bits,
        )

    def space(self, pid_set: FrozenSet[int]) -> _Space:
        sp = self._spaces.get(pid_set)
        if sp is None:
            sp = _Space(self.program, pid_set, self._tables, self._fragments)
            self._spaces[pid_set] = sp
        return sp

    def close(self) -> None:
        for sp in self._spaces.values():
            sp.close()
        self._spaces.clear()

    def explore(
        self,
        root: Configuration,
        pids,
        stop_when: Optional[FrozenSet[Hashable]] = None,
        *,
        max_configs: int,
        max_depth: Optional[int],
        strict: bool,
        budget=None,
        por: bool = False,
        engine=None,
        invariant=None,
    ) -> ExplorationResult:
        program = self.program
        codec = program.codec
        pid_set = frozenset(pids)
        if engine is not None:
            # Mirror the interpreted explorer: result.root is the
            # engine-interned (structurally equal) instance.
            root = engine.intern(root)
        result = ExplorationResult(root=root, pids=pid_set)

        metrics = get_metrics()
        edges_c = metrics.counter("explorer.edges")
        dedup_c = metrics.counter("explorer.dedup_hits")
        pruned_c = metrics.counter("explorer.por_pruned")
        branching_h = metrics.histogram("explorer.branching", BRANCHING_EDGES)
        level_sizes = {0: 1}
        branch_counts: dict = {}
        # edges, dedup, pruned, truncated, pops, violated lid
        ctr = [0, 0, 0, 0, 0, 0]

        space = self.space(pid_set)
        store = space.store
        exact = program.exact_canonical
        packed = space.canonicalise is not None
        if exact:
            admit = store.append
            lookup = store.find if store.spilling else store._index.get
        else:
            admit = space.canonicalise if packed else space.resolve
            lookup = space.alias.get
            canonicalised0 = len(space.alias)
            lazy0 = space.lazy_keys

        row0 = codec.pack(root)
        gcid0 = lookup(row0)
        if gcid0 is None:
            gcid0 = admit(row0)
            if exact and store.spilling:
                # The root admit may have crossed the spill threshold
                # (persistent space warmed by earlier explorations).
                lookup = store.find
        parents = {gcid0: 0}
        log = RowStore(
            _LOG_WIDTH, indexed=False, threshold=store.threshold, label="frontier"
        )
        found: dict = {}
        sorted_pids = sorted(pid_set)
        all_pids = tuple(range(program.n))
        state_shifts = codec.state_shifts
        decisions = program.decisions

        if program.deciding:
            for pid in all_pids:
                value = decisions[pid].get(
                    (row0 >> state_shifts[pid]) & codec.field_mask
                )
                if value is not None and value not in found:
                    found[value] = 0

        violates = None
        if invariant is not None:
            fmask = codec.field_mask
            unpack = codec.unpack

            def violates(row: int) -> bool:
                # n dict probes on the decision tables; the row is
                # unpacked only if the invariant asks for the
                # configuration itself.
                decided = set()
                for pid in all_pids:
                    value = decisions[pid].get((row >> state_shifts[pid]) & fmask)
                    if value is not None:
                        decided.add(value)
                return invariant(frozenset(decided), lambda: unpack(row))

        def finish(outcome: str) -> ExplorationResult:
            for value, lid in found.items():
                result.decided[value] = _schedule_of(log, lid)
            if outcome == "violated":
                lid = ctr[5]
                row = store.get(log.get(lid) & FIELD_MASK)
                result.violation = (codec.unpack(row), _schedule_of(log, lid))
            result.visited = len(parents)
            result.complete = outcome == "done" and not result.truncated
            metrics.counter("explorer.explorations").inc()
            metrics.counter("explorer.visited").inc(result.visited)
            frontier_h = metrics.histogram("explorer.frontier")
            for depth_level in sorted(level_sizes):
                frontier_h.observe(level_sizes[depth_level])
            metrics.gauge("explorer.frontier_peak").set_max(
                max(level_sizes.values())
            )
            metrics.histogram("kernel.batch").observe(ctr[4])
            get_tracer().event(
                "explore.done",
                engine="compiled",
                pids=sorted(pid_set),
                visited=result.visited,
                complete=result.complete,
                truncated=result.truncated,
                decided=sorted(found, key=repr),
            )
            if engine is not None and result.complete and not exact:
                # Hand the exhausted graph to the engine for frontier
                # reuse, under the same query keys as the interpreted
                # path (built now for round-shift classes).
                query_key = space.query_key
                engine.register_graph(
                    pid_set,
                    [query_key(g) for g in parents],
                    frozenset(found),
                )
            return result

        try:
            log.append(gcid0)  # root record: parent1=0, depth=0, tok=0
            if stop_when is not None and stop_when <= found.keys():
                return finish("stopped")
            outcome = _hot_expand(
                log,
                store.get,
                lookup,
                admit,
                store,
                exact,
                program,
                program.plans,
                program.plan_miss,
                program.effect_miss,
                decisions,
                found,
                stop_when,
                program.commute,
                por,
                sorted_pids,
                all_pids,
                state_shifts,
                codec.field_mask,
                parents,
                level_sizes,
                branch_counts,
                budget,
                max_depth,
                max_configs,
                strict,
                violates,
                ctr,
            )
            result.truncated = bool(ctr[3])
            return finish(outcome)
        finally:
            # Flush accumulated counters exactly once -- also on a raise
            # (ExplorationLimitError, BudgetExhausted), where the
            # interpreted loop's incremental updates are likewise
            # already committed.
            edges_c.inc(ctr[0])
            dedup_c.inc(ctr[1])
            pruned_c.inc(ctr[2])
            for branch in branch_counts:
                branching_h.observe_many(branch, branch_counts[branch])
            if not exact:
                # Rows canonicalised on each path (both counters are
                # reported, so a zero is visible), and Python query keys
                # built from class representatives.
                canonicalised = len(space.alias) - canonicalised0
                metrics.counter("kernel.canon.packed").inc(
                    canonicalised if packed else 0
                )
                metrics.counter("kernel.canon.python").inc(
                    0 if packed else canonicalised
                )
                if packed:
                    metrics.counter("kernel.canon.lazy_keys").inc(
                        space.lazy_keys - lazy0
                    )
            log.close()
