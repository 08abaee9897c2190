"""Randomized binary consensus with local coins (Ben-Or flavoured).

The paper's bound covers *randomized* wait-free protocols too
("nondeterministic solo terminating" subsumes them): randomization buys
termination, never fewer registers.  This protocol makes that concrete:
the same commit-adopt round structure as
:class:`~repro.protocols.consensus.commit_adopt.CommitAdoptRounds`, but
when a round ends with no 'high' vote to adopt, the process flips a
local coin for its next preference instead of keeping its own.

Safety is identical to the deterministic protocol (the choice of value
after an unconstrained round is irrelevant to the commit argument), and
the model checker confirms it for every coin tape it is given.
Termination becomes probabilistic: against the round-robin-ish random
scheduler, matching coins end the race quickly -- the randomized bench
measures rounds-to-decision.  Coins come from the system's adversary-
chosen tape, so executions stay replay-deterministic.
"""

from __future__ import annotations

from repro.model.program import ProgramBuilder
from repro.model.registers import register
from repro.protocols.consensus.commit_adopt import (
    CommitAdoptRounds,
    _phase1_mark,
    _phase2_outcome,
)


def _build_coin_program():
    builder = ProgramBuilder()
    builder.label("round")
    builder.write(lambda e: e["reg"], lambda e: (e["r"], e["v"], None))
    builder.assign("scan", ())
    builder.assign("j", 0)
    builder.label("collect1")
    builder.read(lambda e: e["j"], "tmp")
    builder.assign("scan", lambda e: e["scan"] + (e["tmp"],))
    builder.assign("j", lambda e: e["j"] + 1)
    builder.branch_if(lambda e: e["j"] < e["nregs"], "collect1")
    builder.assign("mark", _phase1_mark)
    builder.assign("tmp", None)
    builder.write(
        lambda e: e["reg"],
        lambda e: (e["r"], e["v"], (e["v"], e["mark"])),
    )
    builder.assign("scan", ())
    builder.assign("j", 0)
    builder.label("collect2")
    builder.read(lambda e: e["j"], "tmp")
    builder.assign("scan", lambda e: e["scan"] + (e["tmp"],))
    builder.assign("j", lambda e: e["j"] + 1)
    builder.branch_if(lambda e: e["j"] < e["nregs"], "collect2")
    builder.assign("out", _phase2_outcome)
    builder.assign("hadhigh", _saw_constraint)
    builder.assign("scan", ())
    builder.assign("tmp", None)
    builder.branch_if(lambda e: e["out"][0] == "decide", "win")
    builder.assign("r", lambda e: e["out"][1])
    builder.branch_if(lambda e: e["hadhigh"], "constrained")
    # Unconstrained round: the coin picks the next preference.
    builder.flip("v")
    builder.assign("out", None)
    builder.goto("round")
    builder.label("constrained")
    builder.assign("v", lambda e: e["out"][2])
    builder.assign("out", None)
    builder.goto("round")
    builder.label("win")
    builder.decide(lambda e: e["out"][1])
    return builder.build()


def _saw_constraint(env) -> bool:
    """Did the vote collect carry any information worth honouring?

    A 'high' vote or a higher-round entry constrains the next preference
    (safety-relevant or progress-relevant); a round of plain conflict
    does not, and that is where the coin flips.
    """
    r = env["r"]
    for entry in env["scan"]:
        if entry is None:
            continue
        if entry[0] > r:
            return True
        if entry[0] == r and entry[2] is not None and entry[2][1] == "high":
            return True
    return False


class RandomizedRounds(CommitAdoptRounds):
    """Binary consensus from n registers with local-coin preferences."""

    round_shift_tag = "randomized"

    def __init__(self, n: int):
        # Build via the parent for specs/env, then swap in the coin
        # program (same register layout, same round-shift abstraction;
        # coin positions already live in ``config.coins``, which the key
        # includes).
        super().__init__(n, name="randomized-rounds")
        program = _build_coin_program()
        self._programs = tuple([program] * n)
