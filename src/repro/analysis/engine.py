"""The experiment runner: in-process or fanned out over the worker pool.

:func:`run_engine_experiment` measures one clustered configuration
against its unified baseline over a loop corpus; the serial
:func:`repro.analysis.experiment.run_experiment` is its zero-worker
case.  Every loop goes through the one per-loop measurement,
:func:`repro.analysis.experiment.measure_loop`, either in the calling
process or inside an ``engine_chunk`` pool task, and outcomes are
identical whichever way it runs.  On top of that measurement the
runner adds the operational machinery a 1327-loop × many-machine sweep
needs:

* **warm-pool fan-out** — ``workers=N`` (N ≥ 2) chunks the corpus over
  the persistent fork-server pool (:mod:`repro.service.pool`; workers
  stay warm across runs, so repeat dispatches skip process startup);
  outcomes merge back in suite order, and a crashed worker degrades its
  chunk to ``failed`` outcomes after the pool's retry budget is spent;
* **fault isolation** — a loop that raises ``CompilationError`` (or
  ``ValueError`` for a malformed graph) becomes a ``failed`` outcome;
  ``strict=True`` raises :class:`~repro.analysis.experiment.ExperimentError`
  at the first failed loop in suite order, whatever the worker count;
* **per-loop wall-time budget** — ``timeout_seconds`` dispatches every
  loop as its own pool task with that deadline, at any worker count; a
  loop that overruns has its worker killed and recycled by the pool and
  becomes a ``timeout`` outcome;
* **on-disk result cache** — ``cache_dir`` stores every outcome except
  timeouts in a :class:`~repro.service.cache.ShardedResultCache` under
  :func:`outcome_cache_key`, and ``resume=True`` replays them so an
  interrupted sweep restarts for free;
* **observability merge** — when the parent is tracing, each worker
  records its own span tree and counters, which are grafted back into
  the parent collector (see :meth:`repro.obs.Trace.graft`).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..core.driver import failure_message
from ..core.variants import HEURISTIC_ITERATIVE, AssignmentConfig
from ..ddg.graph import Ddg
from ..machine.machine import Machine
from ..service.cache import ShardedResultCache
from ..service.pool import (
    DeadlineExceeded,
    WorkerCrashError,
    shared_pool,
)
from ..workloads.fingerprint import (  # noqa: F401 - re-exported
    certify_fingerprint,
    compile_fingerprint,
    config_fingerprint,
    lint_fingerprint,
    machine_fingerprint,
)
from . import experiment
from .experiment import (
    STATUS_FAILED,
    STATUS_TIMEOUT,
    ExperimentError,
    ExperimentResult,
    LoopOutcome,
    UnifiedBaseline,
    measure_loop,
)

#: Bumped whenever the cached-outcome schema changes.
CACHE_VERSION = 3


@dataclass(frozen=True)
class EngineOptions:
    """Operational knobs of the engine (measurement knobs stay on the
    ``run_engine_experiment`` signature, mirroring the serial runner)."""

    #: Worker processes; 0 or 1 measures in-process (a run with a
    #: ``timeout_seconds`` budget still runs on the pool).
    workers: int = 0
    #: Abort on the first failing loop instead of recording it.
    strict: bool = False
    #: Per-loop wall-time budget in seconds; 0 disables the budget.
    timeout_seconds: float = 0.0
    #: Directory for the on-disk outcome cache; None disables caching.
    cache_dir: Optional[str] = None
    #: Replay cached outcomes instead of recompiling them.
    resume: bool = False
    #: Loops per worker task; 0 picks a size that gives each worker
    #: several tasks (smooths uneven per-loop compile times).
    chunk_size: int = 0
    #: Optional :class:`repro.lint.LintConfig` gate: lint every
    #: compiled loop, record per-loop diagnostic counts/codes on the
    #: outcome; with ``lint_config.strict`` a lint error fails the
    #: loop.  (The config is frozen and picklable, so it rides into
    #: worker processes unchanged.)
    lint_config: Optional[object] = None
    #: Optional :class:`repro.certify.CertifyConfig` gate: emit and
    #: independently verify the certificate of every compiled loop,
    #: recording failure counts/codes (and the exact oracle's verdict)
    #: on the outcome.  Frozen and picklable, same as ``lint_config``.
    certify_config: Optional[object] = None
    #: A :class:`repro.service.WorkerPool` to dispatch chunks on; None
    #: uses the process-wide shared warm pool (the default — repeat
    #: runs then skip worker startup entirely).
    pool: Optional[object] = dataclasses.field(
        default=None, compare=False, repr=False
    )


# ----------------------------------------------------------------------
# Outcome cache
# ----------------------------------------------------------------------
def outcome_cache_key(
    ddg: Ddg, machine: Machine, config: AssignmentConfig,
    verify: bool = False, lint_config=None, certify_config=None,
) -> str:
    """Cache key of one (loop, machine, config) measurement."""
    return compile_fingerprint(ddg, machine, config, verify, extra={
        "lint": lint_fingerprint(lint_config),
        "certify": certify_fingerprint(certify_config),
    })


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _HintedBaseline:
    """A pool worker's stand-in for the caller's :class:`UnifiedBaseline`.

    It answers with the IIs the caller's baseline already held, by loop
    name, and compiles the rest.  It learns nothing and checks no names:
    the caller's baseline does both as outcomes merge back in suite
    order (:func:`_admitted`).
    """

    def __init__(self, known: Dict[str, int]) -> None:
        self.known = known
        self.elapsed_seconds = 0.0

    def ii_for(self, ddg: Ddg, unified: Machine) -> int:
        ii = self.known.get(ddg.name)
        if ii is not None:
            return ii
        started = time.perf_counter()
        try:
            return experiment.compile_loop(ddg, unified).ii
        finally:
            self.elapsed_seconds += time.perf_counter() - started


def _run_chunk(payload: Tuple) -> Tuple:
    """Pool task ``engine_chunk``: measure one chunk of loops.

    Returns ``(records, events, meta)`` where ``records`` holds one
    ``(outcome, baseline_seconds)`` pair per loop, ``events`` is the
    worker trace's serialized event list (None when the parent was not
    tracing), and ``meta`` carries the worker-side correlation facts —
    pid, trace id, the worker trace's wall-clock epoch, and the chunk's
    execute wall time — that let the parent rebase the grafted spans
    onto its own timeline and split queue wait from execution.
    """
    (loops, machine, config, verify, known, want_trace, lint_config,
     certify_config) = payload
    trace = obs.Trace() if want_trace else None
    meta = None
    if trace is not None:
        obs.install(trace)
    started = time.perf_counter()
    try:
        unified = machine.unified_equivalent()
        baseline = _HintedBaseline(known)
        records = []
        for ddg in loops:
            before = baseline.elapsed_seconds
            outcome = measure_loop(
                ddg, machine, unified, config, baseline, verify,
                lint_config, certify_config,
            )
            records.append((outcome, baseline.elapsed_seconds - before))
        events = obs.trace_events(trace) if trace is not None else None
        if trace is not None:
            meta = {
                "pid": os.getpid(),
                "trace_id": trace.trace_id,
                "epoch_wall": trace.epoch_wall,
                "execute_s": time.perf_counter() - started,
            }
    finally:
        if trace is not None:
            obs.uninstall()
    return records, events, meta


def _chunked(
    pending: List[Tuple[int, Ddg]], workers: int, chunk_size: int
) -> List[List[Tuple[int, Ddg]]]:
    """Split the work list into contiguous chunks.

    Contiguity keeps the deterministic merge trivial and preserves suite
    locality; several chunks per worker smooth uneven compile times.
    """
    if chunk_size <= 0:
        chunk_size = max(1, -(-len(pending) // (workers * 4)))
    return [
        pending[start:start + chunk_size]
        for start in range(0, len(pending), chunk_size)
    ]


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run_engine_experiment(
    loops: Sequence[Ddg],
    machine: Machine,
    config: AssignmentConfig = HEURISTIC_ITERATIVE,
    label: str = "",
    baseline: Optional[UnifiedBaseline] = None,
    verify: bool = False,
    options: Optional[EngineOptions] = None,
) -> ExperimentResult:
    """Measure one clustered configuration against its unified baseline.

    Loops are measured in-process when ``options.workers <= 1`` and no
    budget is set, else on the worker pool; see the module docstring
    for what ``options`` adds on top.
    """
    if options is None:
        options = EngineOptions()
    if baseline is None:
        baseline = UnifiedBaseline()
    loops = list(loops)
    unified = machine.unified_equivalent()
    result = ExperimentResult(
        label=label or f"{machine.name}/{config.name}",
        machine_name=machine.name,
        config_name=config.name,
    )
    cache = (ShardedResultCache(options.cache_dir, version=CACHE_VERSION)
             if options.cache_dir else None)
    started = time.perf_counter()
    baseline_before = baseline.elapsed_seconds
    try:
        with obs.span(
            "experiment", label=result.label, machine=machine.name,
            loops=len(loops), workers=options.workers,
        ):
            keys: List[str] = []
            replayed: Dict[int, LoopOutcome] = {}
            if cache is not None:
                keys = [
                    outcome_cache_key(
                        ddg, machine, config, verify,
                        options.lint_config, options.certify_config,
                    )
                    for ddg in loops
                ]
                if options.resume:
                    replayed = _replay_all(cache, keys, result)
            # Outcomes measured away from the shared baseline: replays,
            # and everything the pool measured.
            elsewhere = dict(replayed)
            pending = [
                (index, ddg) for index, ddg in enumerate(loops)
                if index not in replayed
            ]
            if pending and (options.timeout_seconds > 0
                            or (options.workers >= 2 and len(pending) > 1)):
                elsewhere.update(_run_pooled(
                    pending, machine, unified, config, verify, options,
                    baseline, result,
                ))
            for index, ddg in enumerate(loops):
                outcome = elsewhere.get(index)
                if outcome is None:
                    outcome = measure_loop(
                        ddg, machine, unified, config, baseline, verify,
                        options.lint_config, options.certify_config,
                    )
                else:
                    outcome = _admitted(baseline, unified.name, ddg,
                                        outcome)
                if (cache is not None and index not in replayed
                        and outcome.status != STATUS_TIMEOUT):
                    cache.put(keys[index], dataclasses.asdict(outcome))
                if options.strict and not outcome.ok:
                    raise ExperimentError(
                        f"loop {ddg.name!r} failed: {outcome.error}",
                        partial_result=result, loop_name=ddg.name,
                    )
                result.outcomes.append(outcome)
    finally:
        # Set unconditionally so failure paths still report wall time;
        # baseline compile time is reported on its own, not charged to
        # whichever experiment happened to run first.
        result.baseline_seconds += (
            baseline.elapsed_seconds - baseline_before
        )
        result.elapsed_seconds = (
            time.perf_counter() - started - result.baseline_seconds
        )
    return result


def _replay_all(
    cache: ShardedResultCache, keys: List[str], result: ExperimentResult,
) -> Dict[int, LoopOutcome]:
    """Suite index → cached outcome, for every loop the cache holds."""
    replayed = {}
    for index, key in enumerate(keys):
        doc = cache.get(key)
        if doc is None:
            obs.count("engine.cache_misses")
            continue
        obs.count("engine.cache_hits")
        result.cache_hits += 1
        replayed[index] = LoopOutcome(**dict(
            doc, lint_codes=tuple(doc["lint_codes"]),
            cert_codes=tuple(doc["cert_codes"]),
        ))
    return replayed


def _admitted(
    baseline: UnifiedBaseline, unified_name: str, ddg: Ddg,
    outcome: LoopOutcome,
) -> LoopOutcome:
    """An outcome measured elsewhere (a worker, the cache), as the shared
    baseline sees it in suite order.

    A loop whose name another loop's content already holds fails here,
    exactly as :meth:`UnifiedBaseline.ii_for` fails it in-process;
    otherwise its unified II seeds the baseline for later entries.
    """
    try:
        baseline.seed(unified_name, ddg, outcome.unified_ii)
    except ValueError as exc:
        obs.count("experiment.failures")
        return LoopOutcome(
            loop_name=ddg.name, unified_ii=0, clustered_ii=0, copies=0,
            status=STATUS_FAILED, error=failure_message(exc),
        )
    return outcome


def _run_pooled(
    pending, machine, unified, config, verify, options, baseline, result,
) -> Dict[int, LoopOutcome]:
    """Measure the pending loops on the warm worker pool.

    Chunks dispatch as ``engine_chunk`` tasks on ``options.pool`` (or
    the process-wide shared pool); with a budget every loop is its own
    task with ``deadline=timeout_seconds``.  Returns suite index →
    outcome.  A chunk whose worker crashed past the pool's retry budget
    degrades to ``failed`` outcomes; a chunk that blew its deadline
    degrades to ``timeout`` outcomes.
    """
    budget = options.timeout_seconds
    workers = max(1, options.workers)
    known = {}
    for _, ddg in pending:
        ii = baseline.lookup(unified.name, ddg.name)
        if ii is not None:
            known[ddg.name] = ii
    want_trace = obs.enabled()
    chunks = _chunked(
        pending, workers, 1 if budget > 0 else options.chunk_size
    )
    parent_trace = obs.current_trace()
    lanes: dict = {}
    pool = options.pool
    if pool is None:
        pool = shared_pool(workers)
    else:
        pool.ensure_workers(workers)
    futures = [
        pool.submit("engine_chunk", (
            [ddg for _, ddg in chunk], machine, config, verify,
            {ddg.name: known[ddg.name] for _, ddg in chunk
             if ddg.name in known},
            want_trace, options.lint_config, options.certify_config,
        ), deadline=budget if budget > 0 else None)
        for chunk in chunks
    ]
    pooled: Dict[int, LoopOutcome] = {}
    for chunk, future in zip(chunks, futures):
        try:
            task = future.result()
        except WorkerCrashError as exc:
            obs.count("engine.chunk_crashes")
            pooled.update(_lost(
                chunk, known, STATUS_FAILED, f"worker crashed: {exc}",
            ))
            continue
        except DeadlineExceeded as exc:
            obs.count("engine.chunk_deadlines")
            pooled.update(_lost(
                chunk, known, STATUS_TIMEOUT,
                f"exceeded the {budget:g}s per-loop budget"
                if budget > 0 else str(exc),
            ))
            continue
        records, events, meta = task.value
        for (index, _), (outcome, baseline_seconds) in zip(chunk, records):
            result.baseline_seconds += baseline_seconds
            pooled[index] = outcome
        if events and parent_trace is not None:
            worker_trace = obs.trace_from_events(events)
            # Stable small lane ids, one per worker process, in order
            # of first completion; the host span's attrs carry the
            # queue-wait/execute split so the timeline and Chrome
            # export can reconstruct per-worker utilization
            # (docs/EXPERIMENT_ENGINE.md).
            if meta is not None:
                worker_trace.trace_id = meta["trace_id"]
                worker_trace.epoch_wall = meta["epoch_wall"]
            lane = lanes.setdefault(task.pid, len(lanes))
            parent_trace.graft(
                worker_trace, name="worker",
                chunk_loops=len(records), lane=lane, pid=task.pid,
                queue_wait_s=round(task.queue_wait_s, 6),
                execute_s=round(task.execute_s, 6),
            )
    return pooled


def _lost(
    chunk: List[Tuple[int, Ddg]], known: Dict[str, int], status: str,
    error: str,
) -> Dict[int, LoopOutcome]:
    """Outcomes of a chunk the pool could not finish (crash, deadline)."""
    obs.count(
        "experiment.timeouts" if status == STATUS_TIMEOUT
        else "experiment.failures", len(chunk),
    )
    return {
        index: LoopOutcome(
            loop_name=ddg.name, unified_ii=known.get(ddg.name, 0),
            clustered_ii=0, copies=0, status=status, error=error,
        )
        for index, ddg in chunk
    }
