"""The correctness check, run after the timed phase and not timed.

* Every later round must reproduce the first round op for op.
* ``campaign_pool`` and ``serve``: every outcome must equal the
  in-process result for the same op (the serial runner, or a direct
  ``compile_loop`` call).
* A seeded sample of ops is compiled again in-process; each schedule
  runs on the ``repro.sim`` executor against sequential semantics, and
  II and copies are compared with ``repro.baselines.reference_compile_loop``.

Each mismatch is one failed op.  The check also supplies the
unified-machine II of ops that did not compute it themselves.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.analysis.experiment import (
    STATUS_OK,
    UnifiedBaseline,
    run_experiment,
)
from repro.baselines import ReferenceCompilationError, reference_compile_loop
from repro.core.driver import CompilationError, compile_loop
from repro.sim.machine import simulate_schedule

from .inputs import ALL_VARIANTS, make_loops
from .workloads import Round, Workload

#: Ops per run checked against the simulator and the reference pipeline.
SAMPLE_SIZE = 32


@dataclass
class CheckResult:
    #: First-round results with the unified II filled in.
    results: List = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    #: Wall seconds of the in-process pass (campaign_pool only: the
    #: serial time for the pooled ops).
    serial_s: float = 0.0


def _differ(label: str, got, want) -> str:
    return f"{label}: workload gave {got}, reference gave {want}"


def check_run(workload: Workload, rounds: List[Round]) -> CheckResult:
    """Check every round of one run; see the module docstring."""
    first = rounds[0].results
    check = CheckResult()
    for number, later in enumerate(rounds[1:], start=2):
        for ours, theirs in zip(first, later.results):
            if ours != theirs:
                check.mismatches.append(
                    f"{'/'.join(theirs.key)}: round {number} gave "
                    f"{theirs}, round 1 gave {ours}"
                )
        if later.counters != rounds[0].counters:
            check.mismatches.append(
                f"round {number}: obs counters {later.counters} differ "
                f"from round 1 {rounds[0].counters}"
            )
    loops = {ddg.name: ddg for ddg in make_loops(workload.seed)}
    unified = _unified_iis(workload, loops, first)
    check.results = [
        result if result.unified_ii or result.status != STATUS_OK
        else replace(result, unified_ii=unified[(result.loop,
                                                 result.machine)])
        for result in first
    ]
    if workload.name == "campaign_pool":
        started = time.perf_counter()
        check.mismatches += _against_serial_runner(workload, check.results)
        check.serial_s = time.perf_counter() - started
    elif workload.name == "serve":
        check.mismatches += _against_direct_compile(workload, loops, first)
    check.mismatches += _sample(workload, loops, first)
    return check


def _unified_iis(workload, loops, results) -> Dict[Tuple[str, str], int]:
    baseline = UnifiedBaseline()
    unified = {}
    for result in results:
        key = (result.loop, result.machine)
        if result.unified_ii or key in unified:
            continue
        machine = workload.machines[result.machine].unified_equivalent()
        unified[key] = baseline.ii_for(loops[result.loop], machine)
    return unified


def _outcome_fields(result) -> Tuple:
    return (result.status, result.unified_ii, result.ii, result.copies)


def _against_serial_runner(workload, results) -> List[str]:
    """The pooled outcomes against the serial reference runner."""
    loops = make_loops(workload.seed)
    baseline = UnifiedBaseline()
    by_key = {result.key: result for result in results}
    mismatches = []
    for machine in workload.machine_names:
        for variant in workload.variant_slugs:
            serial = run_experiment(
                loops, workload.machines[machine], ALL_VARIANTS[variant],
                baseline=baseline,
            )
            for ddg, outcome in zip(loops, serial.outcomes):
                pooled = by_key[(ddg.name, machine, variant)]
                want = (outcome.status, outcome.unified_ii,
                        outcome.clustered_ii, outcome.copies)
                if _outcome_fields(pooled) != want:
                    mismatches.append(_differ(
                        "/".join(pooled.key), _outcome_fields(pooled), want,
                    ))
    return mismatches


def _against_direct_compile(workload, loops, results) -> List[str]:
    """Every served reply against a direct in-process compile."""
    mismatches = []
    seen = set()
    for result in results:
        if result.key in seen:
            continue
        seen.add(result.key)
        try:
            compiled = compile_loop(
                loops[result.loop], workload.machines[result.machine],
                ALL_VARIANTS[result.variant],
            )
            want = (STATUS_OK, compiled.ii, compiled.copy_count)
        except CompilationError:
            want = ("failed", 0, 0)
        got = (result.status, result.ii, result.copies)
        if got != want:
            mismatches.append(_differ("/".join(result.key), got, want))
    return mismatches


def _sample(workload, loops, results) -> List[str]:
    """Simulator and reference-pipeline checks on a seeded sample."""
    distinct = list({result.key: result for result in results}.values())
    rng = random.Random(f"pipebench-sample-{workload.seed}")
    sample = rng.sample(distinct, min(SAMPLE_SIZE, len(distinct)))
    mismatches = []
    for result in sample:
        label = "/".join(result.key)
        ddg = loops[result.loop]
        machine = workload.machines[result.machine]
        config = ALL_VARIANTS[result.variant]
        if result.status != STATUS_OK:
            mismatches.append(f"{label}: status {result.status}")
            continue
        compiled = compile_loop(ddg, machine, config)
        report = simulate_schedule(ddg, compiled.schedule)
        if not report.ok:
            mismatches.append(
                f"{label}: sim found {report.mismatches} value mismatches "
                f"and {len(report.violations)} violations"
            )
        try:
            reference = reference_compile_loop(ddg, machine, config)
            want = (reference.ii, reference.copy_count)
        except ReferenceCompilationError:
            want = (0, 0)
        got = (result.ii, result.copies)
        if got != want:
            mismatches.append(_differ(f"{label} (ii, copies)", got, want))
    return mismatches
