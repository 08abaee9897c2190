"""The repository benchmark: time the commands users run, check every verdict.

Usage, from the checkout root::

    python3 perfbench/run.py --workload adversary|check|service \\
        --seed N --seconds S --trace 0|1

``--trace 0`` (timed run) makes whole passes over the workload's fixed
job list, in ``--seed`` order, for about ``--seconds`` of measured time,
and prints the end-to-end metrics.  ``--trace 1`` (traced run) alternates
an untraced and a traced pass over the same list for about ``--seconds``
and prints the per-layer metrics, per traced pass, with the tracing
overhead and how far the spans account for the job wall time.

Every job's verdict is compared with ``perfbench/reference.json``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the engine settings, kernel fallbacks, sample counts and failures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ENGINE,
    SCRUBBED_ENV,
    WORK,
    BenchError,
    emit,
    fresh_dir,
    import_repro,
    job_failed,
    load_reference,
    percentile,
    probe_setup,
    remove,
    scrub_environ,
)
from jobs import SUMMARY, WORKLOADS, job_list, passes  # noqa: E402

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9

#: Three 48-job passes: at least 100 service jobs per timed run, so ten
#: samples lie beyond p90.
SERVICE_MIN_PASSES = 3

#: (metric, unit) printed by a timed run, in ``BENCHMARK.json`` order.
END_TO_END = (
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_s", "s"),
    ("verdict_p90_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: (metric, unit) printed by a traced run, in ``BENCHMARK.json`` order.
PER_LAYER = (
    ("kernel.explore_self_s", "s"),
    ("kernel.explore_calls", "count"),
    ("kernel.compile_s", "s"),
    ("kernel.fallbacks", "count"),
    ("kernel.spill_rows", "count"),
    ("kernel.rows_visited", "count"),
    ("kernel.dedup_hit_ratio", "ratio"),
    ("protocols.canon_query_s", "s"),
    ("protocols.canon_query_calls", "count"),
    ("protocols.canon_key_s", "s"),
    ("protocols.canon_key_calls", "count"),
    ("core.oracle_self_s", "s"),
    ("core.oracle_queries", "count"),
    ("core.oracle_hit_ratio", "ratio"),
    ("core.incremental_seeded_ratio", "ratio"),
    ("core.lemma3_self_s", "s"),
    ("core.lemma4_self_s", "s"),
    ("core.validate_s", "s"),
    ("faults.guarded_self_s", "s"),
    ("analysis.check_self_s", "s"),
    ("analysis.random_s", "s"),
    ("analysis.configs_visited", "count"),
    ("model.step_s", "s"),
    ("model.step_calls", "count"),
    ("service.http_s", "s"),
    ("service.polls_per_job", "count"),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.ledger_write_s", "s"),
    ("service.ledger_writes", "count"),
    ("service.ledger_read_s", "s"),
    ("resilience.journal_record_s", "s"),
    ("resilience.journal_records", "count"),
    ("obs.trace_emit_s", "s"),
    ("obs.trace_records", "count"),
    ("absint.certificate_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.gap_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.daemon_unattributed_frac", "ratio"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(
    attempted: int, failures: List[str], metrics: Dict[str, float],
    units, info: Dict[str, Any],
) -> Dict[str, Any]:
    info = dict(info)
    info["engine"] = ENGINE
    info["env_unset"] = list(SCRUBBED_ENV)
    info["failed_frac"] = _ratio(len(failures), attempted)
    info["failures"] = failures[:5]
    emit({"info": info})
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units
        },
    }


def _end_to_end(
    workload: str, rows, failures: List[str], setup: List[float],
    peak_rss_mb: float,
) -> Dict[str, float]:
    """The end-to-end metrics of one timed run.

    Each job of a pass is timed by the mean or median (``SUMMARY``) of
    that job's samples over the run's passes; the latency percentiles
    and the throughput are those of one pass so timed.  Summing up each
    job over several passes keeps one of the host's slow bursts from
    setting a figure.  ``rows`` hold (job id, wall, time, failure); the
    time is scaled to reference speed on the in-process workloads.
    """
    ok = (len(rows) - len(failures)) / len(rows)
    metrics = _latencies(workload, [(row[0], row[2]) for row in rows], ok)
    metrics.update({
        "ok_frac": ok,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    })
    return metrics


def _latencies(workload: str, samples, ok: float) -> Dict[str, float]:
    """Throughput and latency percentiles of one pass from (job, time)."""
    typical = getattr(statistics, SUMMARY[workload])
    by_kind: Dict[str, List[float]] = {}
    for job_id, seconds in samples:
        by_kind.setdefault(job_id, []).append(seconds)
    pass_times = [typical(by_kind[job["id"]]) for job in job_list(workload)]
    return {
        "verdicts_per_s": ok * len(pass_times) / sum(pass_times),
        "verdict_p50_s": statistics.median(pass_times),
        "verdict_p90_s": percentile(pass_times, 0.9),
    }


def _timed_passes(workload, seed, seconds, run_jobs, probe, setup,
                  min_passes=1):
    """Whole passes for about ``seconds`` of measured time.

    The run stops after the pass that brings the measured time nearest
    to ``seconds`` (at least ``min_passes``).  Set-up samples are taken
    between jobs, outside the measured time, every ``seconds /
    SETUP_SAMPLES`` of measured time until ``setup`` holds
    ``SETUP_SAMPLES``.  Set-up takes a fraction of a second, so each
    sample lands wholly inside or outside one of the host's slow bursts;
    spreading many samples over the run keeps the median steady.
    """
    rows = []
    npasses = 0
    measured = 0.0
    interval = seconds / SETUP_SAMPLES
    for order in passes(workload, seed):
        for job in order:
            clock = time.perf_counter()
            rows += run_jobs([job])
            measured += time.perf_counter() - clock
            due = len(setup) * interval
            if len(setup) < SETUP_SAMPLES and measured >= due:
                setup.append(probe())
        npasses += 1
        if npasses >= min_passes and _enough(measured, npasses, seconds):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe())
    return rows, npasses


def _save_samples(workload: str, seed: int, rows, setup) -> None:
    """Every sample of a timed run, for a reader who wants more than the
    summary: rows of (job, wall, time, failure) and the set-up times."""
    (WORK / f"samples-{workload}.json").write_text(json.dumps(
        {"seed": seed, "jobs": rows, "setup_s": setup}, indent=0
    ))


def _enough(elapsed: float, npasses: int, seconds: float) -> bool:
    """Would one more pass take the run further from ``seconds``?"""
    return elapsed + elapsed / npasses / 2 >= seconds


def _failures(rows) -> List[str]:
    return [f"{row[0]}: {row[-1]}" for row in rows if row[-1]]


# -- in-process workloads: adversary, check ---------------------------------

def timed_inproc(workload: str, seed: int, seconds: float):
    from inproc import FallbackProbe, run_jobs

    setup_walls: List[float] = []

    def probe() -> float:
        wall, scaled = probe_setup(workload, seed)
        setup_walls.append(wall)
        return scaled

    setup = [probe()]
    import_repro()
    import repro.cli  # noqa: F401

    reference = load_reference()
    work = fresh_dir(f"{workload}-")
    fallbacks = FallbackProbe()
    try:
        rows, npasses = _timed_passes(
            workload, seed, seconds,
            lambda jobs: run_jobs(jobs, work, reference),
            probe, setup,
        )
    finally:
        fallbacks.close()
        remove(work)
    _save_samples(workload, seed, rows, setup)
    failures = _failures(rows)
    metrics = _end_to_end(workload, rows, failures, setup,
                          _peak_rss_self_mb())
    ok = metrics["ok_frac"]
    info = {"workload": workload, "seed": seed, "passes": npasses,
            "kernel.fallbacks": fallbacks.count,
            "scaled_to_reference_speed": True,
            "wall": dict(
                _latencies(workload, [(r[0], r[1]) for r in rows], ok),
                setup_s=statistics.median(setup_walls),
            ),
            "samples": {"verdict_s": len(rows), "setup_s": len(setup)}}
    return _result(len(rows), failures, metrics, END_TO_END, info)


def traced_inproc(workload: str, seed: int, seconds: float):
    from inproc import add_counters, read_counters, run_cli, run_jobs
    from spans import Recorder

    import_repro()
    import repro.cli  # noqa: F401

    reference = load_reference()
    work = fresh_dir(f"{workload}-")
    metrics_out = work / "metrics.json"
    recorder = Recorder()
    counters: Dict[str, int] = {}
    failures: List[str] = []
    untraced = traced_walls = 0.0
    attempted = npasses = 0
    started = time.perf_counter()
    try:
        for order in passes(workload, seed):
            rows = run_jobs(order, work, reference, scale=False)
            untraced += sum(row[1] for row in rows)
            failures += _failures(rows)
            recorder.install()
            try:
                for index, job in enumerate(order):
                    recorder.set_job(f"{npasses}:{index}:{job['id']}")
                    metrics_out.unlink(missing_ok=True)
                    wall, _, verdict = run_cli(
                        job, work, ("--metrics-out", str(metrics_out)),
                        around=lambda: recorder.span("cli.main"),
                    )
                    traced_walls += wall
                    add_counters(counters, read_counters(metrics_out))
                    why = job_failed(verdict, reference.get(job["id"]))
                    if why:
                        failures.append(f"{job['id']} (traced): {why}")
            finally:
                recorder.uninstall()
                recorder.set_job(None)
            attempted += 2 * len(order)
            npasses += 1
            if _enough(time.perf_counter() - started, npasses, seconds):
                break
        summary = recorder.aggregate()
        recorder.dump(str(WORK / f"spans-{workload}.tsv"))
    finally:
        remove(work)
    job_self = sum(summary["per_job_s"].values())
    trace = {
        "overhead_frac": traced_walls / untraced - 1.0,
        "gap_frac": (traced_walls - job_self) / traced_walls,
        "unattributed_frac": summary["self_s"].get("cli.main", 0.0)
        / traced_walls,
        "daemon_unattributed_frac": 0.0,
    }
    metrics = layer_metrics(summary, counters, {}, trace, npasses)
    info = {"workload": workload, "seed": seed, "traced_passes": npasses,
            "traced_wall_s": traced_walls, "untraced_wall_s": untraced,
            "spans": summary["calls"], "counters": counters}
    return _result(attempted, failures, metrics, PER_LAYER, info)


# -- service workload --------------------------------------------------------

def _daemon_setup(workload: str, seed: int, cpu: int):
    """Build the job list and start a sampled daemon pinned to ``cpu``.

    Returns (daemon, clock at start, clock when healthy); the set-up's
    scaled time needs the daemon's speed samples, so it is taken once the
    daemon has stopped.
    """
    from service import Daemon

    clock = time.perf_counter()
    next(passes(workload, seed))
    daemon = Daemon(sampled=True, cpu=cpu).start()
    return daemon, clock, time.perf_counter()


def _service_counters(rows) -> Dict[str, int]:
    from inproc import add_counters

    counters: Dict[str, int] = {}
    for row in rows:
        for result in row["row"].get("results") or []:
            if result.get("metrics"):
                add_counters(
                    counters, json.loads(result["metrics"]).get("counters", {})
                )
    return counters


def timed_service(workload: str, seed: int, seconds: float):
    from service import pin_to_one_cpu, run_jobs

    reference = load_reference()
    cpu = pin_to_one_cpu()
    setup_walls: List[float] = []

    def probe() -> float:
        other, clock, ready = _daemon_setup(workload, seed, cpu)
        other.close()
        setup_walls.append(ready - clock)
        return other.speed.scaled(clock, ready)

    daemon, clock, ready = _daemon_setup(workload, seed, cpu)
    setup_walls.append(ready - clock)
    setup: List[float] = [0.0]  # replaced once the daemon has stopped
    outcomes: List[Dict[str, Any]] = []

    def run_batch(jobs):
        done = run_jobs(daemon, jobs, reference)
        outcomes.extend(done)
        return [(row["id"], row["wall"], row["wall"], row["error"])
                for row in done]

    try:
        _, npasses = _timed_passes(
            workload, seed, seconds, run_batch, probe, setup,
            min_passes=SERVICE_MIN_PASSES,
        )
        daemon.stop()
    finally:
        daemon.close()
    setup[0] = daemon.speed.scaled(clock, ready)
    rows = [
        (row["id"], row["wall"],
         daemon.speed.scaled(row["started"], row["ended"]), row["error"])
        for row in outcomes
    ]
    _save_samples(workload, seed, rows, setup)
    failures = _failures(rows)
    metrics = _end_to_end(workload, rows, failures, setup,
                          daemon.peak_rss_mb)
    info = {
        "workload": workload, "seed": seed, "passes": npasses,
        "kernel.fallbacks": _service_counters(outcomes).get(
            "kernel.fallbacks", 0
        ),
        "scaled_to_reference_speed": True,
        "pinned_cpu": cpu,
        "wall": dict(
            _latencies(workload, [(r[0], r[1]) for r in rows],
                       metrics["ok_frac"]),
            setup_s=statistics.median(setup_walls),
        ),
        "samples": {"verdict_s": len(rows), "setup_s": len(setup)},
    }
    return _result(len(rows), failures, metrics, END_TO_END, info)


def traced_service(workload: str, seed: int, seconds: float):
    import shutil

    from service import Daemon, pin_to_one_cpu, run_job, run_jobs
    from spans import Recorder

    reference = load_reference()
    cpu = pin_to_one_cpu()
    client = Recorder()
    daemon_spans: Dict[str, Dict[str, float]] = {}
    failures: List[str] = []
    traced_rows: List[Dict[str, Any]] = []
    untraced = traced_walls = 0.0
    attempted = npasses = 0
    started = time.perf_counter()
    for order in passes(workload, seed):
        daemon = Daemon(cpu=cpu).start()
        try:
            rows = run_jobs(daemon, order, reference)
            untraced += sum(row["wall"] for row in rows)
        finally:
            daemon.close()
        failures += [f"{r['id']}: {r['error']}" for r in rows if r["error"]]
        daemon = Daemon(traced=True, cpu=cpu).start()
        try:
            for index, job in enumerate(order):
                client.set_job(f"{npasses}:{index}:{job['id']}")
                with client.span("service.job"):
                    outcome = run_job(daemon, job, span=client.span)
                traced_walls += outcome["wall"]
                outcome["id"] = job["id"]
                traced_rows.append(outcome)
                why = outcome["error"] or job_failed(
                    outcome["verdict"], reference.get(job["id"])
                )
                if why:
                    failures.append(f"{job['id']} (traced): {why}")
            daemon.stop()
            summary = json.loads((daemon.run_dir / "spans.json").read_text())
            shutil.copyfile(daemon.run_dir / "spans.tsv",
                            WORK / "spans-service.tsv")
        finally:
            daemon.close()
        for key in ("self_s", "total_s", "calls"):
            bucket = daemon_spans.setdefault(key, {})
            for name, value in summary[key].items():
                bucket[name] = bucket.get(name, 0) + value
        attempted += 2 * len(order)
        npasses += 1
        if _enough(time.perf_counter() - started, npasses, seconds):
            break
    mine = client.aggregate()
    job_self = sum(mine["per_job_s"].values())
    run_one = daemon_spans["total_s"].get("service.run_one", 0.0)
    service = {
        "http_s": mine["total_s"].get("service.http", 0.0),
        "polls_per_job": _ratio(
            sum(row["polls"] for row in traced_rows), len(traced_rows)
        ),
        "queue_wait_s": sum(
            row["row"]["started_at"] - row["row"]["submitted_at"]
            for row in traced_rows if row["row"]
        ),
        "run_s": sum(
            row["row"]["finished_at"] - row["row"]["started_at"]
            for row in traced_rows if row["row"]
        ),
    }
    trace = {
        "overhead_frac": traced_walls / untraced - 1.0,
        "gap_frac": (traced_walls - job_self) / traced_walls,
        "unattributed_frac": mine["self_s"].get("service.job", 0.0)
        / traced_walls,
        "daemon_unattributed_frac": _ratio(
            daemon_spans["self_s"].get("service.run_one", 0.0), run_one
        ),
    }
    summary = {"self_s": daemon_spans["self_s"],
               "total_s": daemon_spans["total_s"],
               "calls": daemon_spans["calls"], "counts": {}}
    counters = _service_counters(traced_rows)
    metrics = layer_metrics(summary, counters, service, trace, npasses)
    info = {"workload": workload, "seed": seed, "traced_passes": npasses,
            "traced_wall_s": traced_walls, "untraced_wall_s": untraced,
            "spans": {**daemon_spans["calls"], **mine["calls"]},
            "counters": counters}
    return _result(attempted, failures, metrics, PER_LAYER, info)


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(
    summary: Dict[str, Any], counters: Dict[str, int],
    service: Dict[str, float], trace: Dict[str, float], npasses: int,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric; totals are per traced pass."""
    self_s, total_s = summary["self_s"], summary["total_s"]
    calls, counts = summary["calls"], summary["counts"]

    def per_pass(value: float) -> float:
        return value / npasses

    metrics = {
        "kernel.explore_self_s": self_s.get("kernel.explore", 0.0),
        "kernel.explore_calls": calls.get("kernel.explore", 0),
        "kernel.compile_s": total_s.get("kernel.compile", 0.0),
        "kernel.fallbacks": counters.get("kernel.fallbacks", 0),
        "kernel.spill_rows": counters.get("kernel.spill.rows", 0),
        "kernel.rows_visited": counters.get("explorer.visited", 0),
        "protocols.canon_query_s": total_s.get("protocols.canon_query", 0.0),
        "protocols.canon_query_calls": calls.get("protocols.canon_query", 0),
        "protocols.canon_key_s": total_s.get("protocols.canon_key", 0.0),
        "protocols.canon_key_calls": calls.get("protocols.canon_key", 0),
        "core.oracle_self_s": self_s.get("core.oracle", 0.0),
        "core.oracle_queries": counters.get("oracle.queries", 0),
        "core.lemma3_self_s": self_s.get("core.lemma3", 0.0),
        "core.lemma4_self_s": self_s.get("core.lemma4", 0.0),
        "core.validate_s": total_s.get("core.validate", 0.0),
        "faults.guarded_self_s": self_s.get("faults.guarded", 0.0),
        "analysis.check_self_s": self_s.get("analysis.check", 0.0),
        "analysis.random_s": total_s.get("analysis.random", 0.0),
        "analysis.configs_visited": counts.get("analysis.configs_visited", 0),
        "model.step_s": total_s.get("model.step", 0.0),
        "model.step_calls": calls.get("model.step", 0),
        "service.http_s": service.get("http_s", 0.0),
        "service.queue_wait_s": service.get("queue_wait_s", 0.0),
        "service.run_s": service.get("run_s", 0.0),
        "service.ledger_write_s": total_s.get("service.ledger_write", 0.0),
        "service.ledger_writes": calls.get("service.ledger_write", 0),
        "service.ledger_read_s": total_s.get("service.ledger_read", 0.0),
        "resilience.journal_record_s": total_s.get(
            "resilience.journal_record", 0.0
        ),
        "resilience.journal_records": calls.get(
            "resilience.journal_record", 0
        ),
        "obs.trace_emit_s": total_s.get("obs.trace_emit", 0.0),
        "obs.trace_records": calls.get("obs.trace_emit", 0),
        "absint.certificate_s": total_s.get("absint.certificate", 0.0),
    }
    metrics = {name: per_pass(value) for name, value in metrics.items()}
    metrics.update({
        "kernel.dedup_hit_ratio": _ratio(
            counters.get("explorer.dedup_hits", 0),
            counters.get("explorer.edges", 0),
        ),
        "core.oracle_hit_ratio": _ratio(
            counters.get("oracle.cache_hits", 0),
            counters.get("oracle.queries", 0),
        ),
        "core.incremental_seeded_ratio": _ratio(
            counters.get("incremental.seeded", 0),
            counters.get("incremental.seeded", 0)
            + counters.get("incremental.cold", 0),
        ),
        "service.polls_per_job": service.get("polls_per_job", 0.0),
    })
    metrics.update({f"trace.{name}": value for name, value in trace.items()})
    return metrics


RUNNERS = {
    ("adversary", 0): timed_inproc,
    ("check", 0): timed_inproc,
    ("service", 0): timed_service,
    ("adversary", 1): traced_inproc,
    ("check", 1): traced_inproc,
    ("service", 1): traced_service,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    scrub_environ()
    runner = RUNNERS[(args.workload, args.trace)]
    try:
        result = runner(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
