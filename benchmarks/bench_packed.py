"""E25: `repro adversary` end to end with packed round-shift canonicalisation.

The compiled kernel canonicalises the ``CommitAdoptRounds`` family's
novel rows with per-field tables over packed integers and builds Python
query keys only for the graphs the incremental engine registers for
frontier reuse.  This bench times what a user runs -- ``repro adversary
rounds:N`` in-process on CLI defaults (compiled kernel, incremental
engine) -- and splits each run by layer, timing from outside:

* ``explore``: ``KernelExplorer.explore`` (inclusive);
* ``canon``: canonicalising novel rows -- the packed canonicaliser on
  this tree, ``_Space.resolve`` (unpack + Python key) where a tree has
  no packed path;
* ``lazy keys``: Python query keys built from class representatives
  (``_Space.query_key``; absent where a tree has no lazy path);
* ``py keys``: every ``canonical_query_key_cached`` call (engine and
  kernel), with its call count;
* ``oracle``: ``ValencyOracle.can_decide`` (inclusive).

The bench tolerates trees without the packed path (missing hooks are
simply not timed), so the same file measures a checkout of an older
commit: ``PYTHONPATH=<checkout>/src python benchmarks/bench_packed.py``.
Certificates are hashed so two trees' runs can be compared byte for
byte.

Standalone:  python benchmarks/bench_packed.py [max_n] [repeats]
Writes:      BENCH_packed.json next to the repo root.
"""

import contextlib
import functools
import hashlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

RESULT_FILE = Path(__file__).parent.parent / "BENCH_packed.json"

#: rounds:N rows of the sweep (rounds:8 only when max_n >= 8).
SIZES = (4, 5, 6, 8)


class _Timers:
    """Inclusive wall time and call count per layer."""

    def __init__(self):
        self.seconds = {}
        self.calls = {}
        self._patched = []

    def wrap(self, name, fn):
        seconds, calls = self.seconds, self.calls

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] = seconds.get(name, 0.0) + (
                    time.perf_counter() - start
                )
                calls[name] = calls.get(name, 0) + 1

        return timed

    def patch(self, owner, attr, name):
        original = vars(owner).get(attr)
        if original is None:
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self):
        from repro.core.valency import ValencyOracle
        from repro.kernel import explore
        from repro.model.process import Protocol

        self.patch(explore.KernelExplorer, "explore", "explore")
        self.patch(explore._Space, "query_key", "lazy keys")
        self.patch(ValencyOracle, "can_decide", "oracle")
        # Every class defining the hook (an older tree overrides it on
        # CommitAdoptRounds); the protocol modules are imported first.
        import repro.protocols.consensus  # noqa: F401

        pending = [Protocol]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            self.patch(cls, "canonical_query_key_cached", "py keys")
        packed = getattr(explore, "_packed_admit", None)
        if packed is not None:
            timers = self

            def timed_factory(space, tables):
                return timers.wrap("canon", packed(space, tables))

            self._patched.append((explore, "_packed_admit", packed))
            explore._packed_admit = timed_factory
        else:
            self.patch(explore._Space, "resolve", "canon")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def run_once(n: int):
    """One ``repro adversary rounds:n``: wall, layer split, counters,
    certificate digest."""
    from repro.cli import main as cli_main

    timers = _Timers()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cert.json"
        metrics = Path(tmp) / "metrics.json"
        timers.install()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main([
                    "adversary", f"rounds:{n}", "--out", str(out),
                    "--metrics-out", str(metrics),
                ])
            wall = time.perf_counter() - start
        finally:
            timers.uninstall()
        assert rc == 0, rc
        digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
        counters = json.loads(metrics.read_text("utf-8"))["counters"]
    return wall, timers, counters, digest


def measure(max_n: int = 6, repeats: int = 3):
    rows = []
    payload = {}
    for n in SIZES:
        if n > max_n:
            continue
        runs = [run_once(n) for _ in range(1 if n >= 8 else repeats)]
        digests = {run[3] for run in runs}
        assert len(digests) == 1, digests
        wall = statistics.median(run[0] for run in runs)
        layers = {
            name: statistics.median(run[1].seconds.get(name, 0.0) for run in runs)
            for name in ("explore", "canon", "lazy keys", "py keys", "oracle")
        }
        timers, counters = runs[0][1], runs[0][2]
        row = {
            "wall_s": wall,
            "layers_s": layers,
            "py_key_calls": timers.calls.get("py keys", 0),
            "canon_packed": counters.get("kernel.canon.packed"),
            "canon_python": counters.get("kernel.canon.python"),
            "lazy_keys": counters.get("kernel.canon.lazy_keys"),
            "certificate": digests.pop(),
        }
        payload[f"rounds:{n}"] = row
        rows.append([
            f"rounds:{n}",
            f"{wall:.2f}",
            f"{layers['explore']:.2f}",
            f"{layers['canon']:.2f}",
            f"{layers['lazy keys']:.2f}",
            f"{layers['py keys']:.2f}",
            row["py_key_calls"],
            f"{layers['oracle']:.2f}",
            "n/a" if row["canon_packed"] is None else row["canon_packed"],
            "n/a" if row["canon_python"] is None else row["canon_python"],
            row["certificate"],
        ])
    return rows, payload


def main(max_n: int = 6, repeats: int = 3) -> None:
    from repro.analysis.report import print_table

    rows, payload = measure(max_n, repeats)
    print_table(
        f"E25: repro adversary end to end, packed round-shift "
        f"canonicalisation (median of {repeats}; rounds:8 once)",
        [
            "workload", "wall (s)", "explore", "canon", "lazy keys",
            "py keys", "py key calls", "oracle", "rows packed",
            "rows python", "certificate",
        ],
        rows,
        note="layer columns are inclusive seconds (explore contains canon "
        "and lazy keys; py keys counts every canonical_query_key_cached "
        "call, engine and kernel); see EXPERIMENTS.md E25.",
    )
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {RESULT_FILE.name}")


def test_packed_rows_never_reach_python():
    _, _, counters, _ = run_once(4)
    assert counters["kernel.canon.python"] == 0
    assert counters["kernel.canon.packed"] > 0


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 6,
        int(sys.argv[2]) if len(sys.argv) > 2 else 3,
    )
