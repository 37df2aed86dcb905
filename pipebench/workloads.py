"""The four workloads.

An *op* is one compile of one loop for one machine and variant.  A
workload runs its op mix in *rounds*: each round regenerates its loops
from the seed (so per-``Ddg`` memos start cold) and must produce exactly
the outcomes of the first round.  Set-up (:meth:`Workload.set_up`)
generates the inputs, builds the machines and starts and warms the pool;
nothing is started inside a round.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.forkserver
import multiprocessing.resource_tracker
import operator
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis import engine, experiment
from repro.analysis.experiment import STATUS_OK, UnifiedBaseline
from repro.certify.gate import CertifyConfig
from repro.core import driver
from repro.lint.registry import LintConfig
from repro.service.frontdoor import (
    CompileRequest,
    CompileService,
    ServiceConfig,
)
from repro.service.pool import shared_pool, shutdown_shared_pool
from repro.sim import machine as sim_machine

from .inputs import (
    ALL_VARIANTS,
    PAPER_MACHINES,
    build_machines,
    make_loops,
)
from . import speed
from .tracer import op_scope

#: Status of a gated op whose schedule failed the ``repro.sim`` oracle.
STATUS_SIM_MISMATCH = "sim_mismatch"

#: Program counters the gated workload reads off its ``obs`` traces.
OBS_COUNTERS = (
    "assign.evaluations",
    "copies.replans",
    "sched.slot_probes",
    "mii.recmii_cache_hits",
)


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class OpResult:
    """What one op returned, as compared between rounds and references."""

    loop: str
    machine: str
    variant: str
    status: str
    ii: int
    copies: int
    #: The unified machine's II when the op itself computes it, else 0
    #: (the correctness check fills it in afterwards).
    unified_ii: int = 0

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.loop, self.machine, self.variant)


@dataclass
class Round:
    """One round's ops in op-mix order, their latencies and wall time."""

    results: List[OpResult]
    #: Measured latency of each op.
    latencies_s: List[float]
    #: Each op's reference-speed factor (:mod:`pipebench.speed`).
    scales: List[float]
    #: Seconds the round's ops kept the workload busy (op latencies
    #: summed, divided by the number of concurrent clients), measured
    #: and scaled to reference speed.
    busy_s: float
    scaled_busy_s: float
    #: ``time.perf_counter()`` at the first op's start and the last op's
    #: end.
    started: float
    ended: float
    #: Per-op "served from cache" flags (serve only).
    cached: Optional[List[bool]] = None
    #: Summed program counters (gated only).
    counters: Optional[Dict[str, int]] = None
    #: Requests answered by joining an identical in-flight compile
    #: (serve only).
    coalesced: int = 0

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def serial_round(results, latencies, probes, started) -> Round:
    """A round whose ops ran one after another, with a probe before
    each op and one after the last."""
    probes.append(speed.probe())
    scales = speed.scales(probes)
    return Round(
        results, latencies, scales, sum(latencies),
        sum(map(operator.mul, latencies, scales)),
        started, time.perf_counter(),
    )


def stop_workers() -> None:
    """Stop the shared pool, the fork server and the resource tracker,
    waiting for each process to end.

    ``multiprocessing`` has no public call that stops the last two.
    Without stopping the fork server, every set-up after the first would
    reuse a warm one and ``setup_s`` would omit its start-up.
    """
    shutdown_shared_pool()
    server = multiprocessing.forkserver._forkserver
    server._stop()
    tracker = multiprocessing.resource_tracker._resource_tracker
    tracker._stop()


class Workload:
    """Base class: the op mix, set-up and one round."""

    name = ""
    #: Closed-loop clients; 0 when the workload is not a closed loop.
    clients = 0
    #: Whether ops come back in batches that share one latency.  Then
    #: a round has few distinct latencies and the run's p99 is its
    #: slowest batch, a maximum that every burst of host noise moves,
    #: so percentiles take each op's median over the rounds instead.
    batched = False
    machine_names: Tuple[str, ...] = PAPER_MACHINES
    variant_slugs: Tuple[str, ...] = tuple(ALL_VARIANTS)

    def __init__(self, seed: int, scratch_dir: str) -> None:
        self.seed = seed
        self.scratch_dir = scratch_dir
        self.workers = usable_cores()
        self.loops: List = []
        self.machines: Dict = {}

    def set_up(self, tracer) -> None:
        """Generate the inputs and build the machines (one set-up)."""
        with tracer.span("workloads.generate", "workloads"):
            self.loops = make_loops(self.seed)
        self.machines = build_machines(self.machine_names)

    def tear_down(self) -> None:
        """Undo :meth:`set_up` so the next set-up starts cold."""

    def new_round(self, tracer) -> None:
        """Fresh loops for the next round (outside the timed phase)."""
        with tracer.span("workloads.generate", "workloads"):
            self.loops = make_loops(self.seed)

    def run_round(self) -> Round:
        raise NotImplementedError

    def op_mix(self) -> List[Tuple[int, str, str]]:
        """(loop index, machine, variant) in execution order."""
        return [
            (index, machine, variant)
            for machine in self.machine_names
            for variant in self.variant_slugs
            for index in range(len(self.loops))
        ]


class Campaign(Workload):
    """The campaign, serially in-process: one ``run_experiment`` call per
    op with one ``UnifiedBaseline`` shared by the whole round."""

    name = "campaign"

    def run_round(self) -> Round:
        baseline = UnifiedBaseline()
        results, latencies, probes = [], [], []
        started = time.perf_counter()
        for op_id, (index, machine, variant) in enumerate(self.op_mix()):
            ddg = self.loops[index]
            probes.append(speed.probe())
            with op_scope(op_id):
                op_started = time.perf_counter()
                outcome = experiment.run_experiment(
                    [ddg], self.machines[machine], ALL_VARIANTS[variant],
                    baseline=baseline,
                ).outcomes[0]
                latencies.append(time.perf_counter() - op_started)
            results.append(OpResult(
                ddg.name, machine, variant, outcome.status,
                outcome.clustered_ii, outcome.copies, outcome.unified_ii,
            ))
        return serial_round(results, latencies, probes, started)


class PooledWorkload(Workload):
    """A workload whose set-up starts and warms the shared pool."""

    def set_up(self, tracer) -> None:
        super().set_up(tracer)
        shared_pool(self.workers).warm_up()

    def tear_down(self) -> None:
        stop_workers()


class CampaignPool(PooledWorkload):
    """The campaign op mix through ``run_engine_experiment`` on the warm
    shared pool: one call per machine and variant."""

    name = "campaign_pool"
    batched = True

    def run_round(self) -> Round:
        baseline = UnifiedBaseline()
        options = engine.EngineOptions(workers=self.workers)
        results, latencies, scales = [], [], []
        busy_s = scaled_busy_s = 0.0
        started = time.perf_counter()
        for call_id, (machine, variant) in enumerate(
            (machine, variant)
            for machine in self.machine_names
            for variant in self.variant_slugs
        ):
            # The compiles run in the workers, so the probes run beside
            # them, in a thread of this process.
            pids = [child.pid for child in multiprocessing.active_children()]
            with op_scope(call_id), speed.Sampler(pids) as sampler:
                call_started = time.perf_counter()
                outcomes = engine.run_engine_experiment(
                    self.loops, self.machines[machine],
                    ALL_VARIANTS[variant], baseline=baseline,
                    options=options,
                ).outcomes
                latency = time.perf_counter() - call_started
            call_scale = sampler.scale()
            busy_s += latency
            scaled_busy_s += latency * call_scale
            # An op's result reaches the caller when its call returns.
            for ddg, outcome in zip(self.loops, outcomes):
                results.append(OpResult(
                    ddg.name, machine, variant, outcome.status,
                    outcome.clustered_ii, outcome.copies,
                    outcome.unified_ii,
                ))
                latencies.append(latency)
                scales.append(call_scale)
        return Round(results, latencies, scales, busy_s, scaled_busy_s,
                     started, time.perf_counter())


#: The CI correctness path: strict lint and certify gates.
LINT_GATE = LintConfig(strict=True)
CERTIFY_GATE = CertifyConfig(strict=True)


class Gated(Workload):
    """The CI correctness path: each op compiles with ``verify=True`` and
    strict lint and certify gates under ``obs.tracing()``, then runs the
    ``repro.sim`` oracle."""

    name = "gated"
    machine_names = ("2gp", "grid")

    def run_round(self) -> Round:
        results, latencies, probes = [], [], []
        counters = dict.fromkeys(OBS_COUNTERS, 0)
        started = time.perf_counter()
        for op_id, (index, machine, variant) in enumerate(self.op_mix()):
            ddg = self.loops[index]
            probes.append(speed.probe())
            with op_scope(op_id):
                op_started = time.perf_counter()
                with obs.tracing() as trace:
                    try:
                        compiled = driver.compile_loop(
                            ddg, self.machines[machine],
                            ALL_VARIANTS[variant], verify=True,
                            lint_config=LINT_GATE,
                            certify_config=CERTIFY_GATE,
                        )
                    except driver.CompilationError:
                        compiled = None
                if compiled is not None:
                    report = sim_machine.simulate_schedule(
                        ddg, compiled.schedule
                    )
                latencies.append(time.perf_counter() - op_started)
            for counter in OBS_COUNTERS:
                counters[counter] += trace.counter(counter)
            if compiled is None:
                results.append(OpResult(
                    ddg.name, machine, variant, "failed", 0, 0,
                ))
                continue
            results.append(OpResult(
                ddg.name, machine, variant,
                STATUS_OK if report.ok else STATUS_SIM_MISMATCH,
                compiled.ii, compiled.copy_count,
            ))
        round_ = serial_round(results, latencies, probes, started)
        round_.counters = counters
        return round_


class Serve(PooledWorkload):
    """Closed loop of ``nproc`` clients through ``CompileService``.

    Each round sends every (loop, machine) pair once, in a seeded order,
    with about a third as many repeats of earlier requests mixed in.
    Pair ``i`` asks for variant ``i mod 4``, so all four variants are
    served without multiplying the round by four.  Sending every pair
    keeps the seed from choosing which heavy compiles a round contains.
    """

    name = "serve"
    #: Share of requests that repeat an earlier request of the round.
    repeat_share = 1 / 3

    def __init__(self, seed: int, scratch_dir: str) -> None:
        super().__init__(seed, scratch_dir)
        self.clients = self.workers

    def op_mix(self) -> List[Tuple[int, str, str]]:
        rng = random.Random(self.seed)
        pairs = [
            (index, machine)
            for machine in self.machine_names
            for index in range(len(self.loops))
        ]
        variants = self.variant_slugs
        fresh = [
            (index, machine, variants[pair % len(variants)])
            for pair, (index, machine) in enumerate(pairs)
        ]
        rng.shuffle(fresh)
        mix: List[Tuple[int, str, str]] = []
        while fresh:
            if mix and rng.random() < self.repeat_share:
                mix.append(rng.choice(mix))
            else:
                mix.append(fresh.pop())
        return mix

    def run_round(self) -> Round:
        return asyncio.run(self._round())

    async def _round(self) -> Round:
        mix = self.op_mix()
        requests = [
            CompileRequest(loop=self.loops[index], machine=machine,
                           variant=variant)
            for index, machine, variant in mix
        ]
        replies: List = [None] * len(requests)
        latencies = [0.0] * len(requests)
        scales = [0.0] * len(requests)
        pending = iter(range(len(requests)))
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch_dir)
        service = CompileService(
            ServiceConfig(workers=self.workers, cache_dir=cache_dir)
        )
        service.start()

        async def client() -> None:
            # Each client probes before every request and after its
            # last; a request is scaled by the probes on both sides.
            sent, probes = [], []
            for op_id in pending:
                probes.append(speed.probe())
                sent.append(op_id)
                with op_scope(op_id):
                    op_started = time.perf_counter()
                    replies[op_id] = await service.submit(requests[op_id])
                    latencies[op_id] = time.perf_counter() - op_started
            probes.append(speed.probe())
            for op_id, factor in zip(sent, speed.scales(probes)):
                scales[op_id] = factor

        try:
            started = time.perf_counter()
            await asyncio.gather(*(client() for _ in range(self.clients)))
            ended = time.perf_counter()
        finally:
            await service.aclose()
            shutil.rmtree(cache_dir, ignore_errors=True)
        results = [
            OpResult(reply.loop, machine, variant, reply.status, reply.ii,
                     reply.copies)
            for reply, (_, machine, variant) in zip(replies, mix)
        ]
        # A closed loop keeps every client busy: busy time is the summed
        # latency over the client count.
        return Round(
            results, latencies, scales,
            sum(latencies) / self.clients,
            sum(map(operator.mul, latencies, scales)) / self.clients,
            started, ended,
            cached=[reply.cached for reply in replies],
            coalesced=service.stats.coalesced,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (Campaign, CampaignPool, Gated, Serve)
}
