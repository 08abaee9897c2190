"""E24: ``repro check`` on the compiled kernel, end to end.

Times ``repro check <spec> --max-configs 10000`` in-process on the six
benchmark specs, once per kernel (``--kernel compiled``, the default,
and ``--kernel interp``), and requires byte-identical stdout and exit
codes before any timing is believed.  (E24's "previous default" column
is a checkout of the commit before the checker became an ``Explorer``
invariant; time ``PYTHONPATH=<checkout>/src python -m repro check ...``
there to regenerate it.)

Standalone:  python benchmarks/bench_check.py [repeats]
"""

import contextlib
import io
import statistics
import sys
import time

from repro.analysis.report import print_table
from repro.cli import main as cli_main

SPECS = (
    "randomized:2", "rounds:3", "racing:3",
    "split-brain:3", "shared:3:2", "optimistic:3",
)


def run(spec: str, kernel: str):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli_main(
            ["check", spec, "--max-configs", "10000", "--kernel", kernel]
        )
    return time.perf_counter() - start, code, out.getvalue()


def main(repeats: int = 3) -> None:
    rows = []
    totals = {"compiled": 0.0, "interp": 0.0}
    for spec in SPECS:
        times = {"compiled": [], "interp": []}
        outputs = set()
        for _ in range(repeats):
            for kernel in ("compiled", "interp"):
                elapsed, code, stdout = run(spec, kernel)
                times[kernel].append(elapsed)
                outputs.add((code, stdout))
        assert len(outputs) == 1, f"{spec}: kernels disagree"
        medians = {k: statistics.median(v) for k, v in times.items()}
        for kernel, value in medians.items():
            totals[kernel] += value
        rows.append([
            spec, f"{medians['interp']:.2f}", f"{medians['compiled']:.2f}",
            f"{medians['interp'] / medians['compiled']:.1f}x",
            next(iter(outputs))[0], "identical",
        ])
    rows.append([
        "total", f"{totals['interp']:.2f}", f"{totals['compiled']:.2f}",
        f"{totals['interp'] / totals['compiled']:.1f}x", "", "",
    ])
    print_table(
        f"E24: repro check --max-configs 10000 (medians of {repeats}, "
        "in-process)",
        ["spec", "interp (s)", "compiled (s)", "speedup", "exit",
         "stdout + exit code"],
        rows,
        note="see EXPERIMENTS.md E24 for the comparison against the "
        "previous default.",
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
