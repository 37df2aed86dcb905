"""Experiment runner: one machine/algorithm configuration over a suite.

The paper's measurement protocol (Section 6): schedule every loop for the
clustered machine and for the equally wide unified machine, and report the
distribution of the II difference.  ``UnifiedBaseline`` caches the unified
IIs so sweeps that share a width (e.g. the bus-count sweeps of Figures
14–17) pay for the baseline only once.

:func:`measure_loop` is the one per-loop measurement.  The runner that
drives it over a suite is :func:`repro.analysis.engine.run_engine_experiment`;
:func:`run_experiment` is its zero-worker case.  By default a loop that
fails to compile (or is malformed) is recorded as a ``failed``
:class:`LoopOutcome` and the run continues — one bad loop out of 1327
no longer destroys a sweep.  ``strict=True`` aborts on the first failed
loop with an :class:`ExperimentError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..core.driver import (
    LOOP_FAILURES,
    CompilationError,
    compile_loop,
    failure_message,
)
from ..core.variants import HEURISTIC_ITERATIVE, AssignmentConfig
from ..ddg.graph import Ddg
from ..machine.machine import Machine
from ..workloads.fingerprint import ddg_fingerprint
from .histogram import DeviationHistogram

#: Loop outcome statuses.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


class ExperimentError(CompilationError):
    """One loop failed to compile during a strict experiment run.

    Subclasses :class:`CompilationError` so existing handlers keep
    working; carries the partially filled :class:`ExperimentResult`
    (outcomes so far, ``elapsed_seconds`` set) and the failing loop's
    name for post-mortem analysis.
    """

    def __init__(self, message: str, partial_result: "ExperimentResult",
                 loop_name: str) -> None:
        super().__init__(message)
        self.partial_result = partial_result
        self.loop_name = loop_name


@dataclass(frozen=True)
class LoopOutcome:
    """Result of one loop on one clustered configuration.

    ``status`` is :data:`STATUS_OK` for a measured loop; ``failed`` and
    ``timeout`` outcomes keep the suite position but carry no
    measurement (``clustered_ii`` is 0; ``unified_ii`` is the baseline
    II when it was computed before the failure, else 0).
    """

    loop_name: str
    unified_ii: int
    clustered_ii: int
    copies: int
    status: str = STATUS_OK
    error: str = ""
    #: Lint gate results for this loop (all zero / empty when the
    #: experiment ran without ``lint_config``).
    lint_errors: int = 0
    lint_warnings: int = 0
    lint_codes: Tuple[str, ...] = ()
    #: Certify gate results for this loop (all zero / empty when the
    #: experiment ran without ``certify_config``).
    cert_errors: int = 0
    cert_codes: Tuple[str, ...] = ()
    #: Exact-oracle verdict (``tight``/``loose``/...) when the gate ran
    #: with ``exact=True``; empty otherwise.
    exact_status: str = ""

    @property
    def ok(self) -> bool:
        """True when the loop was measured successfully."""
        return self.status == STATUS_OK

    @property
    def deviation(self) -> int:
        """``II_clustered - II_unified`` (the figures' x-axis).

        Only meaningful for ``ok`` outcomes; figure/histogram consumers
        must filter on :attr:`ok` (``ExperimentResult.measured`` does).
        """
        return self.clustered_ii - self.unified_ii


@dataclass
class ExperimentResult:
    """All outcomes of one experiment, plus derived figure data.

    ``elapsed_seconds`` covers only this experiment's own clustered
    compiles; time spent filling the shared unified-baseline cache is
    tracked separately in ``baseline_seconds`` so sweep entries that
    happen to run first are not charged for work every entry reuses.
    """

    label: str
    machine_name: str
    config_name: str
    outcomes: List[LoopOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    baseline_seconds: float = 0.0
    cache_hits: int = 0

    @property
    def measured(self) -> List[LoopOutcome]:
        """Outcomes of loops that compiled successfully."""
        return [outcome for outcome in self.outcomes if outcome.ok]

    @property
    def failures(self) -> List[LoopOutcome]:
        """Failed / timed-out outcomes."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def n_failed(self) -> int:
        """Number of loops that failed or timed out."""
        return len(self.failures)

    @property
    def histogram(self) -> DeviationHistogram:
        """Deviation histogram over the measured outcomes."""
        histogram = DeviationHistogram()
        for outcome in self.measured:
            histogram.add(outcome.deviation)
        return histogram

    @property
    def match_percentage(self) -> float:
        """Percent of measured loops whose II matched the unified machine."""
        return self.histogram.match_percentage

    @property
    def total_copies(self) -> int:
        """Copies inserted across the whole suite."""
        return sum(outcome.copies for outcome in self.measured)

    @property
    def n_loops(self) -> int:
        """Number of loops attempted (measured + failed)."""
        return len(self.outcomes)

    @property
    def total_lint_errors(self) -> int:
        """Lint errors across all outcomes (0 without a lint gate)."""
        return sum(outcome.lint_errors for outcome in self.outcomes)

    @property
    def total_lint_warnings(self) -> int:
        """Lint warnings across all outcomes (0 without a lint gate)."""
        return sum(outcome.lint_warnings for outcome in self.outcomes)

    def lint_code_counts(self) -> Dict[str, int]:
        """Loops-affected count per diagnostic code, over all outcomes."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            for code in outcome.lint_codes:
                counts[code] = counts.get(code, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def total_cert_errors(self) -> int:
        """Certificate failures across all outcomes (0 without a gate)."""
        return sum(outcome.cert_errors for outcome in self.outcomes)

    def cert_code_counts(self) -> Dict[str, int]:
        """Loops-affected count per certificate code, over all outcomes."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            for code in outcome.cert_codes:
                counts[code] = counts.get(code, 0) + 1
        return dict(sorted(counts.items()))

    def exact_status_counts(self) -> Dict[str, int]:
        """Loops per exact-oracle verdict (empty without ``exact``)."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.exact_status:
                counts[outcome.exact_status] = (
                    counts.get(outcome.exact_status, 0) + 1
                )
        return dict(sorted(counts.items()))


class UnifiedBaseline:
    """Cache of unified-machine IIs keyed by (machine name, loop name).

    Loop names must be unique within a suite; a guard on the loop's
    content fingerprint turns a silent cache collision between two
    different loops sharing a name into a hard error.  The time spent
    compiling baselines accumulates in :attr:`elapsed_seconds` so
    experiment runners can report it separately from their own work.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, str], int] = {}
        self._fingerprints: Dict[Tuple[str, str], str] = {}
        #: Total wall seconds spent compiling baseline (unified) loops.
        self.elapsed_seconds = 0.0

    def _check(self, key: Tuple[str, str], ddg: Ddg) -> str:
        """The loop's fingerprint; ValueError if another loop's content
        already holds its name."""
        fingerprint = ddg_fingerprint(ddg)
        known = self._fingerprints.get(key)
        if known is not None and known != fingerprint:
            raise ValueError(
                f"duplicate loop name {ddg.name!r} with different "
                f"content on machine {key[0]!r}: baseline cache "
                f"keys would collide"
            )
        return fingerprint

    def ii_for(self, ddg: Ddg, unified: Machine) -> int:
        """Unified II of one loop, computed once."""
        key = (unified.name, ddg.name)
        fingerprint = self._check(key, ddg)
        if key not in self._cache:
            started = time.perf_counter()
            try:
                result = compile_loop(ddg, unified)
            finally:
                self.elapsed_seconds += time.perf_counter() - started
            self._cache[key] = result.ii
            self._fingerprints[key] = fingerprint
        return self._cache[key]

    def lookup(self, unified_name: str, loop_name: str) -> Optional[int]:
        """Cached II, or None — never compiles."""
        return self._cache.get((unified_name, loop_name))

    def seed(self, unified_name: str, ddg: Ddg, ii: int) -> None:
        """Record an II computed elsewhere (a worker process, a cache).

        The name guard of :meth:`ii_for` applies; an ``ii`` of 0 (the
        baseline compile failed) records nothing.
        """
        key = (unified_name, ddg.name)
        fingerprint = self._check(key, ddg)
        if ii > 0:
            self._cache[key] = ii
            self._fingerprints[key] = fingerprint

    def __len__(self) -> int:
        return len(self._cache)


def measure_loop(
    ddg: Ddg,
    machine: Machine,
    unified: Machine,
    config: AssignmentConfig,
    baseline: UnifiedBaseline,
    verify: bool = False,
    lint_config=None,
    certify_config=None,
) -> LoopOutcome:
    """One loop's outcome: its unified II from ``baseline``, then the
    clustered compile, with :data:`LOOP_FAILURES` recorded as ``failed``.

    The single per-loop measurement of the experiment runner; it runs
    in the caller's process or inside a pool worker.
    """
    with obs.span("loop", loop=ddg.name) as loop_span:
        unified_ii = 0
        try:
            unified_ii = baseline.ii_for(ddg, unified)
            clustered = compile_loop(
                ddg, machine, config, verify=verify,
                lint_config=lint_config, certify_config=certify_config,
            )
        except LOOP_FAILURES as exc:
            obs.count("experiment.failures")
            loop_span.note(outcome="failed")
            return LoopOutcome(
                loop_name=ddg.name, unified_ii=unified_ii,
                clustered_ii=0, copies=0,
                status=STATUS_FAILED, error=failure_message(exc),
            )
        loop_span.note(
            ii=clustered.ii, deviation=clustered.ii - unified_ii,
            copies=clustered.copy_count,
        )
        obs.count("experiment.loops")
        report = clustered.lint_report
        certified = clustered.certified
        return LoopOutcome(
            loop_name=ddg.name,
            unified_ii=unified_ii,
            clustered_ii=clustered.ii,
            copies=clustered.copy_count,
            lint_errors=len(report.errors) if report else 0,
            lint_warnings=len(report.warnings) if report else 0,
            lint_codes=tuple(report.codes()) if report else (),
            cert_errors=len(certified.issues) if certified else 0,
            cert_codes=certified.codes() if certified else (),
            exact_status=certified.exact_status if certified else "",
        )


def run_experiment(
    loops: Sequence[Ddg],
    machine: Machine,
    config: AssignmentConfig = HEURISTIC_ITERATIVE,
    label: str = "",
    baseline: Optional[UnifiedBaseline] = None,
    verify: bool = False,
    strict: bool = False,
    lint_config=None,
    certify_config=None,
) -> ExperimentResult:
    """Measure one clustered configuration against its unified baseline.

    The zero-worker case of
    :func:`repro.analysis.engine.run_engine_experiment`: every loop is
    measured in this process, in suite order.  A loop that raises
    :class:`CompilationError` (or ``ValueError`` for a malformed graph)
    is recorded as a ``failed`` outcome and the run continues.  With
    ``strict=True`` the first failed loop aborts the run as an
    :class:`ExperimentError` carrying the partial result.

    ``lint_config`` (a :class:`repro.lint.LintConfig`) runs the static
    analyzer on every compiled loop and records the per-loop diagnostic
    counts/codes on the :class:`LoopOutcome`; with
    ``lint_config.strict`` a loop whose lint report contains errors
    becomes a ``failed`` outcome (or aborts under ``strict=True``, like
    any other compilation failure).

    ``certify_config`` (a :class:`repro.certify.CertifyConfig`) emits
    and independently verifies a compilation certificate for every
    compiled loop, recording the failure count / codes (and the exact
    oracle's verdict, when enabled) on the :class:`LoopOutcome`; with
    ``certify_config.strict`` a certificate failure fails the loop.
    """
    from . import engine  # engine imports this module

    return engine.run_engine_experiment(
        loops, machine, config, label=label, baseline=baseline,
        verify=verify,
        options=engine.EngineOptions(
            strict=strict, lint_config=lint_config,
            certify_config=certify_config,
        ),
    )


def run_sweep(
    loops: Sequence[Ddg],
    machines: Iterable[Machine],
    config: AssignmentConfig = HEURISTIC_ITERATIVE,
    labels: Optional[Sequence[str]] = None,
    baseline: Optional[UnifiedBaseline] = None,
    verify: bool = False,
    strict: bool = False,
    lint_config=None,
    certify_config=None,
) -> List[ExperimentResult]:
    """Run one experiment per machine (the bus/port sweep pattern)."""
    if baseline is None:
        baseline = UnifiedBaseline()
    machine_list = list(machines)
    if labels is not None and len(labels) != len(machine_list):
        raise ValueError("labels must match machines one-to-one")
    results = []
    for index, machine in enumerate(machine_list):
        label = labels[index] if labels is not None else ""
        results.append(
            run_experiment(
                loops, machine, config,
                label=label, baseline=baseline, verify=verify,
                strict=strict, lint_config=lint_config,
                certify_config=certify_config,
            )
        )
    return results


def run_variant_comparison(
    loops: Sequence[Ddg],
    machine: Machine,
    configs: Iterable[AssignmentConfig],
    baseline: Optional[UnifiedBaseline] = None,
    verify: bool = False,
    strict: bool = False,
    lint_config=None,
    certify_config=None,
) -> List[ExperimentResult]:
    """Run one experiment per algorithm variant (Figures 12–13 pattern)."""
    if baseline is None:
        baseline = UnifiedBaseline()
    return [
        run_experiment(
            loops, machine, config,
            label=config.name, baseline=baseline, verify=verify,
            strict=strict, lint_config=lint_config,
            certify_config=certify_config,
        )
        for config in configs
    ]
