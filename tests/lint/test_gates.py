"""The ``--lint`` pipeline gates: driver, experiment, parallel engine."""

import dataclasses

import pytest

from repro.analysis import (
    EngineOptions,
    outcome_cache_key,
    run_engine_experiment,
    run_experiment,
)
from repro.analysis.engine import CACHE_VERSION, lint_fingerprint
from repro.analysis.experiment import LoopOutcome
from repro.core import CompilationError, compile_loop
from repro.ddg import Ddg, Opcode
from repro.lint import DEFAULT_CONFIG, LintConfig
from repro.service import ShardedResultCache
from repro.workloads import paper_suite


@pytest.fixture
def dead_value_loop():
    """A loop whose ALU result is never read (REG503 info)."""
    graph = Ddg(name="dead-value")
    load = graph.add_node(Opcode.LOAD, name="ld")
    alu = graph.add_node(Opcode.ALU, name="sum")
    graph.add_edge(load, alu, distance=0)
    return graph


class TestDriverGate:
    def test_report_attached(self, chain3, two_gp):
        compiled = compile_loop(
            chain3, two_gp, lint_config=DEFAULT_CONFIG
        )
        assert compiled.lint_report is not None
        assert compiled.lint_report.ok

    def test_no_gate_no_report(self, chain3, two_gp):
        assert compile_loop(chain3, two_gp).lint_report is None

    def test_strict_gate_rejects_promoted_error(
        self, dead_value_loop, two_gp
    ):
        config = LintConfig(
            strict=True, severity={"REG503": "error"}
        )
        with pytest.raises(CompilationError) as exc:
            compile_loop(dead_value_loop, two_gp, lint_config=config)
        assert "lint gate rejected" in str(exc.value)
        assert "REG503" in str(exc.value)

    def test_lenient_gate_records_but_compiles(
        self, dead_value_loop, two_gp
    ):
        config = LintConfig(severity={"REG503": "error"})
        compiled = compile_loop(
            dead_value_loop, two_gp, lint_config=config
        )
        assert not compiled.lint_report.ok
        assert "REG503" in compiled.lint_report.codes()


class TestExperimentGate:
    def test_outcomes_carry_lint_fields(self, two_gp):
        loops = paper_suite(4)
        result = run_experiment(
            loops, two_gp, lint_config=DEFAULT_CONFIG
        )
        assert result.total_lint_errors == 0
        for outcome in result.outcomes:
            assert outcome.lint_errors == 0
        # At least the codes tuple is populated when diagnostics fired;
        # a fully clean loop legitimately reports an empty tuple.
        assert result.lint_code_counts() == {
            code: count
            for code, count in result.lint_code_counts().items()
            if count > 0
        }

    def test_strict_lint_failure_recorded(
        self, dead_value_loop, two_gp
    ):
        config = LintConfig(
            strict=True, severity={"REG503": "error"}
        )
        result = run_experiment(
            [dead_value_loop], two_gp, lint_config=config
        )
        assert result.n_failed == 1
        assert "lint gate rejected" in result.outcomes[0].error

    def test_without_gate_fields_stay_zero(self, two_gp):
        result = run_experiment(paper_suite(2), two_gp)
        for outcome in result.outcomes:
            assert outcome.lint_errors == 0
            assert outcome.lint_codes == ()


class TestEngineGate:
    def test_inline_engine_honours_lint_config(
        self, dead_value_loop, two_gp
    ):
        options = EngineOptions(
            lint_config=LintConfig(severity={"REG503": "error"})
        )
        result = run_engine_experiment(
            [dead_value_loop], two_gp, options=options
        )
        (outcome,) = result.outcomes
        assert outcome.lint_errors >= 1
        assert "REG503" in outcome.lint_codes

    def test_fingerprint_distinguishes_configs(self):
        assert lint_fingerprint(None) is None
        a = lint_fingerprint(DEFAULT_CONFIG)
        b = lint_fingerprint(LintConfig(disable=frozenset({"DDG105"})))
        assert a is not None and b is not None
        assert a != b
        assert lint_fingerprint(LintConfig()) == a

    def test_cache_key_varies_with_lint_config(self, chain3, two_gp):
        from repro.core import HEURISTIC_ITERATIVE

        plain = outcome_cache_key(chain3, two_gp, HEURISTIC_ITERATIVE)
        gated = outcome_cache_key(
            chain3, two_gp, HEURISTIC_ITERATIVE,
            lint_config=DEFAULT_CONFIG,
        )
        assert plain != gated

    def test_cache_roundtrips_lint_fields(self, chain3, two_gp, tmp_path):
        from repro.core import HEURISTIC_ITERATIVE

        outcome = LoopOutcome(
            loop_name=chain3.name, unified_ii=3, clustered_ii=4,
            copies=2, lint_errors=1, lint_warnings=2,
            lint_codes=("DDG102", "SCHED402"),
        )
        ShardedResultCache(str(tmp_path), CACHE_VERSION).put(
            outcome_cache_key(chain3, two_gp, HEURISTIC_ITERATIVE),
            dataclasses.asdict(outcome),
        )
        replay = run_engine_experiment(
            [chain3], two_gp,
            options=EngineOptions(cache_dir=str(tmp_path), resume=True),
        )
        assert replay.cache_hits == 1
        (loaded,) = replay.outcomes
        assert loaded.lint_errors == 1
        assert loaded.lint_warnings == 2
        assert loaded.lint_codes == ("DDG102", "SCHED402")

    def test_cached_run_replays_lint_fields(
        self, dead_value_loop, two_gp, tmp_path
    ):
        options = EngineOptions(
            lint_config=LintConfig(severity={"REG503": "error"}),
            cache_dir=str(tmp_path),
            resume=True,
        )
        first = run_engine_experiment(
            [dead_value_loop], two_gp, options=options
        )
        second = run_engine_experiment(
            [dead_value_loop], two_gp, options=options
        )
        assert second.cache_hits == 1
        assert (
            second.outcomes[0].lint_codes
            == first.outcomes[0].lint_codes
        )
