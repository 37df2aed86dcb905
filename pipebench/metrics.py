"""Metric names, units and how each is computed from one run.

``END_TO_END`` and ``PER_LAYER`` must list exactly the metrics of
``BENCHMARK.json``, in the same order (the benchmark's tests check it).
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from repro.analysis.experiment import STATUS_OK

from .tracer import END, INFO, NAME, START, self_times
from .workloads import OBS_COUNTERS

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ok_share", "ratio"),
    ("match_pct", "%"),
    ("ii_excess_mean", "cycles"),
    ("copies_per_op", "copies"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("workloads.generate_s", "s"),
    ("ddg.mii_s", "s"),
    ("ddg.mii_calls", "count"),
    ("core.assign_s", "s"),
    ("core.assign_calls", "count"),
    ("core.assign_fail_ratio", "ratio"),
    ("core.evictions_per_op", "count"),
    ("core.forced_per_op", "count"),
    ("driver.self_s", "s"),
    ("driver.attempts_per_op", "count"),
    ("scheduling.schedule_s", "s"),
    ("scheduling.schedule_calls", "count"),
    ("scheduling.fail_ratio", "ratio"),
    ("scheduling.verify_s", "s"),
    ("lint.gate_s", "s"),
    ("certify.gate_s", "s"),
    ("sim.check_s", "s"),
    *((f"obs.{counter}", "count") for counter in OBS_COUNTERS),
    ("analysis.baseline_s", "s"),
    ("analysis.runner_self_s", "s"),
    ("pool.warmup_s", "s"),
    ("pool.tasks", "count"),
    ("pool.task_p50_ms", "ms"),
    ("pool.task_p99_ms", "ms"),
    ("pool.parent_cpu_share", "ratio"),
    ("engine.parallel_efficiency", "ratio"),
    ("frontdoor.batches", "count"),
    ("frontdoor.mean_batch", "count"),
    ("frontdoor.coalesced_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_p50_ms", "ms"),
    ("cache.put_p50_ms", "ms"),
    ("cache.hit_p50_ms", "ms"),
    ("cache.miss_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (1..99) as ``statistics.quantiles`` gives
    it; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def quality(results) -> Dict[str, float]:
    """The paper's measures over one round's distinct measured ops (a
    repeated ``serve`` request counts once)."""
    distinct = {result.key: result for result in results}.values()
    measured = [result for result in distinct if result.status == STATUS_OK]
    count = len(measured)
    return {
        "match_pct": 100.0 * _ratio(
            sum(result.ii == result.unified_ii for result in measured),
            count,
        ),
        "ii_excess_mean": _ratio(
            sum(result.ii - result.unified_ii for result in measured), count
        ),
        "copies_per_op": _ratio(
            sum(result.copies for result in measured), count
        ),
    }


def timing(rounds, scaled: bool, batched: bool = False) -> Dict[str, float]:
    """Throughput and latency percentiles over ``rounds``, at reference
    host speed when ``scaled`` (see :mod:`pipebench.speed`).

    With ``batched`` (see :attr:`Workload.batched`), each op's latency
    is its median over the rounds, which run the same ops in the same
    order.
    """
    per_round = [
        [latency * (factor if scaled else 1.0)
         for latency, factor in zip(round_.latencies_s, round_.scales)]
        for round_ in rounds
    ]
    if batched:
        latencies = [statistics.median(op) for op in zip(*per_round)]
    else:
        latencies = [latency for round_ in per_round for latency in round_]
    ops = sum(len(round_) for round_ in per_round)
    busy_s = sum(round_.scaled_busy_s if scaled else round_.busy_s
                 for round_ in rounds)
    return {
        "ops_per_s": ops / busy_s,
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_p99_ms": 1e3 * percentile(latencies, 99),
    }


def setup(run, scaled: bool) -> float:
    """Median set-up seconds, at reference host speed when ``scaled``."""
    return statistics.median(
        seconds * (factor if scaled else 1.0)
        for seconds, factor in zip(run.setup_s, run.setup_scales)
    )


def end_to_end(run) -> Dict[str, float]:
    metrics = {
        "setup_s": setup(run, scaled=True),
        **timing(run.rounds, scaled=True, batched=run.workload.batched),
        "ok_share": 1.0 - _ratio(run.failed, run.attempted),
        "peak_rss_mb": run.peak_rss_mb,
    }
    metrics.update(quality(run.check.results))
    return metrics


def per_layer(run) -> Dict[str, float]:
    """Per-layer metrics from the traced rounds, per round or per op."""
    spans = run.tracer.spans
    traced = [round_ for round_, is_traced in zip(run.rounds, run.traced)
              if is_traced]
    plain = [round_ for round_, is_traced in zip(run.rounds, run.traced)
             if not is_traced]
    n_rounds = len(traced)
    ops = sum(len(round_.results) for round_ in traced)
    inside: List[int] = []
    selfs: Dict[int, float] = {}
    for start, end in run.traced_windows:
        selfs.update(self_times(spans, start, end))
        inside += [index for index, record in enumerate(spans)
                   if record[END] is not None
                   and start <= record[START] and record[END] <= end]

    def named(name: str) -> List[list]:
        return [spans[index] for index in inside if spans[index][NAME] == name]

    def self_s(*names: str) -> float:
        return sum(selfs.get(index, 0.0) for index in inside
                   if spans[index][NAME] in names) / n_rounds

    def durations(records) -> List[float]:
        return [record[END] - record[START] for record in records]

    def everywhere(name: str) -> List[float]:
        return durations(record for record in spans
                         if record[NAME] == name and record[END] is not None)

    assigns = named("core.assign")
    schedules = named("scheduling.schedule")
    compiles = named("driver.compile")
    tasks = named("pool.submit")
    task_s = [record[INFO]["task_s"] for record in tasks
              if "task_s" in record[INFO]]
    execute_s = sum(record[INFO].get("execute_s", 0.0) for record in tasks)
    batches = [record[INFO]["batch"] for record in tasks
               if "batch" in record[INFO]]
    gets = named("cache.get")
    cached = [
        (flag, latency)
        for round_ in traced if round_.cached is not None
        for flag, latency in zip(round_.cached, round_.latencies_s)
    ]
    counters = {
        counter: sum((round_.counters or {}).get(counter, 0)
                     for round_ in traced) / n_rounds
        for counter in OBS_COUNTERS
    }
    traced_busy = sum(round_.busy_s for round_ in traced)
    mean_plain = statistics.mean(round_.wall_s for round_ in plain)
    mean_scaled_plain = statistics.mean(
        round_.scaled_busy_s for round_ in plain)
    mean_scaled_traced = statistics.mean(
        round_.scaled_busy_s for round_ in traced)
    attributed = sum(selfs.values())
    pooled = run.workload.name == "campaign_pool"
    metrics = {
        "workloads.generate_s": percentile(
            everywhere("workloads.generate"), 50),
        "ddg.mii_s": self_s("ddg.mii"),
        "ddg.mii_calls": len(named("ddg.mii")) / n_rounds,
        "core.assign_s": self_s("core.assign"),
        "core.assign_calls": len(assigns) / n_rounds,
        "core.assign_fail_ratio": _ratio(
            sum(record[INFO]["failed"] for record in assigns), len(assigns)),
        "core.evictions_per_op": _ratio(
            sum(record[INFO].get("evictions", 0) for record in assigns), ops),
        "core.forced_per_op": _ratio(
            sum(record[INFO].get("forced", 0) for record in assigns), ops),
        "driver.self_s": self_s("driver.compile"),
        "driver.attempts_per_op": _ratio(
            sum(record[INFO].get("attempts", 0) for record in compiles),
            len(compiles)),
        "scheduling.schedule_s": self_s("scheduling.schedule"),
        "scheduling.schedule_calls": len(schedules) / n_rounds,
        "scheduling.fail_ratio": _ratio(
            sum(record[INFO]["failed"] for record in schedules),
            len(schedules)),
        "scheduling.verify_s": self_s("scheduling.verify"),
        "lint.gate_s": self_s("lint.gate"),
        "certify.gate_s": self_s("certify.gate"),
        "sim.check_s": self_s("sim.check"),
        **{f"obs.{counter}": value for counter, value in counters.items()},
        "analysis.baseline_s": sum(durations(named("analysis.baseline")))
        / n_rounds,
        "analysis.runner_self_s": self_s(
            "analysis.run_experiment", "analysis.engine"),
        "pool.warmup_s": percentile(everywhere("pool.warm_up"), 50),
        "pool.tasks": len(tasks) / n_rounds,
        "pool.task_p50_ms": 1e3 * percentile(task_s, 50),
        "pool.task_p99_ms": 1e3 * percentile(task_s, 99),
        "pool.parent_cpu_share": (
            _ratio(run.traced_cpu_s, run.traced_cpu_s + execute_s)
            if tasks else 0.0),
        "engine.parallel_efficiency": (
            _ratio(run.check.serial_s, run.workload.workers * mean_plain)
            if pooled else 0.0),
        "frontdoor.batches": len(batches) / n_rounds,
        "frontdoor.mean_batch": _ratio(sum(batches), len(batches)),
        "frontdoor.coalesced_ratio": _ratio(
            sum(round_.coalesced for round_ in traced), ops),
        "cache.hit_ratio": _ratio(
            sum(record[INFO]["hit"] for record in gets), len(gets)),
        "cache.get_p50_ms": 1e3 * percentile(durations(gets), 50),
        "cache.put_p50_ms": 1e3 * percentile(
            durations(named("cache.put")), 50),
        "cache.hit_p50_ms": 1e3 * percentile(
            [latency for flag, latency in cached if flag], 50),
        "cache.miss_p50_ms": 1e3 * percentile(
            [latency for flag, latency in cached if not flag], 50),
        "trace.overhead_ratio": _ratio(mean_scaled_traced,
                                       mean_scaled_plain),
        "trace.unattributed_share": _ratio(
            traced_busy - attributed, traced_busy),
    }
    return metrics
