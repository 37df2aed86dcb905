"""One run of one workload: set-up, timed rounds, check, metrics.

An untraced run (``trace=False``) repeats the workload's round until the
timed phase reaches ``seconds`` and reports the end-to-end metrics.  A
traced run alternates untraced and traced rounds (U, T, U, ...), ending
on an untraced one, and reports the per-layer metrics of the traced
rounds plus the tracing overhead against the untraced rounds around
them.  Set-up (a fresh interpreter's import of the pipeline, then the
workload's own set-up) runs :data:`SETUP_REPS` times; the median, at
reference host speed, is reported.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.analysis.experiment import STATUS_OK
from repro.obs.bench import host_fingerprint

from . import metrics, speed
from .check import CheckResult, check_run
from .tracer import Tracer
from .workloads import WORKLOADS, Round, Workload

#: Set-ups per run; the median is reported as ``setup_s``.
SETUP_REPS = 3

ROOT = Path(__file__).resolve().parent.parent


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to start and import the
    pipeline: the part of set-up one process can only pay once."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pipebench.workloads"],
                   env=env, check=True)
    return time.perf_counter() - started


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs."""

    @staticmethod
    def span(name: str, layer: str):
        return contextlib.nullcontext({})

    @staticmethod
    def installed():
        return contextlib.nullcontext()


@dataclass
class Run:
    workload: Workload
    tracer: object
    setup_s: List[float] = field(default_factory=list)
    #: Each set-up's reference-speed factor (:mod:`pipebench.speed`).
    setup_scales: List[float] = field(default_factory=list)
    rounds: List[Round] = field(default_factory=list)
    traced: List[bool] = field(default_factory=list)
    traced_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    check: CheckResult = field(default_factory=CheckResult)

    @property
    def traced_windows(self) -> List[Tuple[float, float]]:
        return [(round_.started, round_.ended)
                for round_, is_traced in zip(self.rounds, self.traced)
                if is_traced]

    @property
    def attempted(self) -> int:
        return sum(len(round_.results) for round_ in self.rounds)

    @property
    def failed(self) -> int:
        failed_ops = sum(
            result.status != STATUS_OK
            for round_ in self.rounds for result in round_.results
        )
        return min(self.attempted, failed_ops + len(self.check.mismatches))

    def metrics(self) -> Dict[str, float]:
        if isinstance(self.tracer, Tracer):
            return metrics.per_layer(self)
        return metrics.end_to_end(self)

    def info(self) -> Dict[str, object]:
        """What the numbers were measured on and over."""
        return {
            "workload": self.workload.name,
            "seed": self.workload.seed,
            "host": host_fingerprint(),
            "workers": self.workload.workers,
            "clients": self.workload.clients,
            "ops_per_round": len(self.rounds[0].results),
            "rounds": len(self.rounds),
            "traced_rounds": sum(self.traced),
            "attempted": self.attempted,
            "failed": self.failed,
            "setup_reps_s": self.setup_s,
            "unscaled": {
                "setup_s": metrics.setup(self, scaled=False),
                **metrics.timing(self.rounds, scaled=False,
                                 batched=self.workload.batched),
            },
        }


def _done(run: Run, seconds: float, trace: bool) -> bool:
    timed = sum(round_.wall_s for round_ in run.rounds)
    if trace:
        return timed >= seconds and len(run.rounds) >= 3 \
            and len(run.rounds) % 2 == 1
    return timed >= seconds


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str) -> Run:
    """Set up, time and check one workload; see the module docstring."""
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    workload = WORKLOADS[name](seed, scratch)
    tracer = Tracer() if trace else NullTracer()
    run = Run(workload=workload, tracer=tracer)
    try:
        for rep in range(SETUP_REPS):
            if rep:
                workload.tear_down()
            # Set-up runs partly in other processes, so its probes run
            # beside it, in a thread of this process.
            with speed.Sampler() as sampler:
                import_s = fresh_import_s()
                with tracer.installed():
                    started = time.perf_counter()
                    workload.set_up(tracer)
                    run.setup_s.append(
                        import_s + time.perf_counter() - started)
            run.setup_scales.append(sampler.scale())
        while not run.rounds or not _done(run, seconds, trace):
            if run.rounds:
                workload.new_round(tracer)
            is_traced = trace and len(run.rounds) % 2 == 1
            cpu_started = time.process_time()
            with tracer.installed() if is_traced \
                    else contextlib.nullcontext():
                run.rounds.append(workload.run_round())
            run.traced.append(is_traced)
            if is_traced:
                run.traced_cpu_s += time.process_time() - cpu_started
        run.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        run.check = check_run(workload, run.rounds)
    finally:
        workload.tear_down()
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl"))
    with open(os.path.join(
        out_dir, f"result-{name}-seed{seed}-trace{int(trace)}.json"
    ), "w") as handle:
        json.dump({"info": run.info(), "metrics": run.metrics(),
                   "mismatches": run.check.mismatches}, handle, indent=1)
    return run
