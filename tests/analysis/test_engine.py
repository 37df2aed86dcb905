"""The parallel fault-tolerant experiment engine."""

import pytest

from repro import obs
from repro.analysis import (
    EngineOptions,
    ExperimentError,
    STATUS_FAILED,
    STATUS_TIMEOUT,
    UnifiedBaseline,
    outcome_cache_key,
    run_engine_experiment,
    run_experiment,
)
from repro.analysis.engine import (
    CACHE_VERSION,
    config_fingerprint,
    machine_fingerprint,
)
from repro.core import HEURISTIC_ITERATIVE, SIMPLE, compile_loop
from repro.ddg import Opcode, build_ddg
from repro.machine import two_cluster_gp, four_cluster_gp
from repro.service import ShardedResultCache
from repro.workloads import build_kernel, paper_suite
from repro.workloads.unroll import unroll_ddg


@pytest.fixture(scope="module")
def small_suite():
    return paper_suite(20)


@pytest.fixture(scope="module")
def slice50():
    return paper_suite(50)


def _bad_loop(name="bad_loop"):
    """A malformed loop (zero-distance cycle) that cannot compile."""
    return build_ddg(
        ops=[("a", Opcode.ALU), ("b", Opcode.ALU)],
        deps=[("a", "b", 0), ("b", "a", 0)],
        name=name,
    )


def _slow_loop():
    """A loop far too big to compile within a fraction of a second
    (lk7 unrolled 256 times: ~3.6k nodes, tens of seconds)."""
    return unroll_ddg(build_kernel("lk7_equation_of_state"), 256,
                      name="slow_loop")


class TestSerialParallelEquality:
    def test_parallel_matches_serial_on_50_loops(self, slice50):
        machine = two_cluster_gp()
        serial = run_experiment(slice50, machine)
        parallel = run_engine_experiment(
            slice50, machine, options=EngineOptions(workers=4)
        )
        assert parallel.outcomes == serial.outcomes

    def test_inline_engine_matches_serial(self, small_suite):
        machine = four_cluster_gp()
        serial = run_experiment(small_suite, machine)
        inline = run_engine_experiment(small_suite, machine)
        assert inline.outcomes == serial.outcomes

    def test_equality_holds_with_injected_failure(self, small_suite):
        machine = two_cluster_gp()
        suite = (list(small_suite[:7]) + [_bad_loop()]
                 + list(small_suite[7:14]))
        serial = run_experiment(suite, machine)
        parallel = run_engine_experiment(
            suite, machine, options=EngineOptions(workers=3)
        )
        assert parallel.outcomes == serial.outcomes
        assert parallel.n_failed == 1

    @pytest.mark.parametrize("workers", [0, 2])
    def test_duplicate_name_same_answer_at_any_worker_count(
        self, small_suite, workers,
    ):
        # Two different loops share a name: the first is measured, the
        # later one fails, and the baseline keeps the first one's II.
        first = small_suite[1]
        impostor = small_suite[3].copy(name=first.name)
        suite = list(small_suite[:3]) + [impostor]
        machine = two_cluster_gp()
        unified = machine.unified_equivalent()
        serial = run_experiment(suite, machine)
        baseline = UnifiedBaseline()
        result = run_engine_experiment(
            suite, machine, baseline=baseline,
            options=EngineOptions(workers=workers),
        )
        assert result.outcomes == serial.outcomes
        assert [o.ok for o in result.outcomes] == [True, True, True, False]
        assert result.outcomes[3].status == STATUS_FAILED
        assert result.outcomes[3].error.startswith(
            "invalid loop: duplicate loop name"
        )
        assert (baseline.ii_for(first, unified)
                == compile_loop(first, unified).ii)
        with pytest.raises(ValueError, match="duplicate loop name"):
            baseline.ii_for(impostor, unified)

    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    def test_mixed_corpus_identical_at_every_worker_count(
        self, slice50, workers,
    ):
        suite = (list(slice50[:20]) + [_bad_loop()] + list(slice50[20:])
                 + [slice50[7].copy(name=slice50[30].name)])
        machine = two_cluster_gp()
        serial = run_experiment(suite, machine)
        result = run_engine_experiment(
            suite, machine, options=EngineOptions(workers=workers),
        )
        assert result.outcomes == serial.outcomes
        assert result.n_failed == 2

    def test_merge_preserves_suite_order(self, small_suite):
        machine = two_cluster_gp()
        result = run_engine_experiment(
            small_suite, machine,
            options=EngineOptions(workers=4, chunk_size=1),
        )
        assert [o.loop_name for o in result.outcomes] == [
            loop.name for loop in small_suite
        ]


class TestWorkerFailurePaths:
    def test_bad_loop_marked_failed_suite_completes(self, small_suite):
        suite = list(small_suite[:6]) + [_bad_loop()]
        result = run_engine_experiment(
            suite, two_cluster_gp(), options=EngineOptions(workers=2)
        )
        assert result.n_loops == 7
        assert [o.loop_name for o in result.failures] == ["bad_loop"]
        assert result.failures[0].status == STATUS_FAILED
        assert "invalid loop" in result.failures[0].error

    def test_strict_mode_aborts_with_partial_result(self, small_suite):
        suite = list(small_suite[:4]) + [_bad_loop()] + \
            list(small_suite[4:8])
        with pytest.raises(ExperimentError) as exc_info:
            run_engine_experiment(
                suite, two_cluster_gp(),
                options=EngineOptions(workers=2, strict=True),
            )
        assert exc_info.value.loop_name == "bad_loop"
        partial = exc_info.value.partial_result
        assert partial.n_loops == 4
        assert all(outcome.ok for outcome in partial.outcomes)

    def test_serial_strict_wraps_malformed_loop(self, small_suite):
        # Strict means ExperimentError at any worker count, malformed
        # loops included (not the graph's raw ValueError).
        suite = list(small_suite[:3]) + [_bad_loop()] + \
            list(small_suite[3:5])
        with pytest.raises(ExperimentError) as exc_info:
            run_experiment(suite, two_cluster_gp(), strict=True)
        assert exc_info.value.loop_name == "bad_loop"
        assert "invalid loop" in str(exc_info.value)
        partial = exc_info.value.partial_result
        assert partial.n_loops == 3
        assert all(outcome.ok for outcome in partial.outcomes)

    def test_compilation_error_recorded(self, small_suite, monkeypatch):
        import repro.analysis.experiment as experiment_module
        from repro.core import CompilationError

        real = experiment_module.compile_loop
        doomed = small_suite[3].name

        def flaky(ddg, machine, *args, **kwargs):
            if ddg.name == doomed and not machine.is_unified:
                raise CompilationError("injected")
            return real(ddg, machine, *args, **kwargs)

        monkeypatch.setattr(experiment_module, "compile_loop", flaky)
        result = run_engine_experiment(
            small_suite[:6], two_cluster_gp()
        )
        failed = result.failures
        assert [o.loop_name for o in failed] == [doomed]
        assert failed[0].status == STATUS_FAILED
        # The unified baseline succeeded before the clustered failure.
        assert failed[0].unified_ii > 0


def _assert_slow_loop_timed_out(loops, workers):
    # The budget is a pool deadline, so the loop has to be slow in the
    # worker itself: a genuinely huge loop, not a patched compile_loop
    # in this process.
    suite = list(loops[:2]) + [_slow_loop()] + list(loops[2:4])
    result = run_engine_experiment(
        suite, two_cluster_gp(),
        options=EngineOptions(workers=workers, timeout_seconds=0.5),
    )
    assert result.n_loops == 5
    assert [o.loop_name for o in result.failures] == ["slow_loop"]
    assert result.failures[0].status == STATUS_TIMEOUT
    assert "per-loop budget" in result.failures[0].error
    # The loops after it compiled on the recycled worker.
    assert all(o.ok for o in result.outcomes[3:])


class TestTimeout:
    def test_slow_loop_skipped_as_timeout(self, small_suite):
        _assert_slow_loop_timed_out(small_suite, workers=0)

    def test_slow_loop_skipped_as_timeout_with_workers(self, small_suite):
        _assert_slow_loop_timed_out(small_suite, workers=2)

    def test_no_budget_means_no_timeouts(self, small_suite):
        result = run_engine_experiment(
            small_suite[:5], two_cluster_gp(),
            options=EngineOptions(timeout_seconds=0.0),
        )
        assert result.n_failed == 0


class TestResultCache:
    def test_miss_then_hit(self, small_suite, tmp_path):
        machine = two_cluster_gp()
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        first = run_engine_experiment(small_suite[:8], machine,
                                      options=options)
        assert first.cache_hits == 0
        assert len(ShardedResultCache(str(tmp_path), CACHE_VERSION)) == 8
        second = run_engine_experiment(small_suite[:8], machine,
                                       options=options)
        assert second.cache_hits == 8
        assert second.outcomes == first.outcomes

    def test_resume_only_computes_the_tail(self, small_suite, tmp_path):
        machine = two_cluster_gp()
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        run_engine_experiment(small_suite[:5], machine, options=options)
        # An "interrupted" sweep restarted over a longer prefix of the
        # same suite recomputes only the new loops.
        result = run_engine_experiment(small_suite[:9], machine,
                                       options=options)
        assert result.cache_hits == 5
        assert result.n_loops == 9
        serial = run_experiment(small_suite[:9], machine)
        assert result.outcomes == serial.outcomes

    def test_without_resume_cache_is_write_only(self, small_suite,
                                                tmp_path):
        machine = two_cluster_gp()
        write_only = EngineOptions(cache_dir=str(tmp_path))
        run_engine_experiment(small_suite[:4], machine,
                              options=write_only)
        again = run_engine_experiment(small_suite[:4], machine,
                                      options=write_only)
        assert again.cache_hits == 0
        assert len(ShardedResultCache(str(tmp_path), CACHE_VERSION)) == 4

    def test_key_depends_on_machine_and_config(self, small_suite):
        loop = small_suite[0]
        base = outcome_cache_key(loop, two_cluster_gp(),
                                 HEURISTIC_ITERATIVE)
        assert base == outcome_cache_key(loop, two_cluster_gp(),
                                         HEURISTIC_ITERATIVE)
        assert base != outcome_cache_key(loop, four_cluster_gp(),
                                         HEURISTIC_ITERATIVE)
        assert base != outcome_cache_key(loop, two_cluster_gp(), SIMPLE)
        assert base != outcome_cache_key(
            small_suite[1], two_cluster_gp(), HEURISTIC_ITERATIVE
        )

    def test_machine_fingerprint_sees_resources(self):
        assert (machine_fingerprint(two_cluster_gp(buses=1))
                != machine_fingerprint(two_cluster_gp(buses=2)))

    def test_config_fingerprint_sees_knobs(self):
        assert (config_fingerprint(SIMPLE)
                != config_fingerprint(HEURISTIC_ITERATIVE))

    def test_failed_outcomes_are_cached(self, tmp_path, small_suite):
        machine = two_cluster_gp()
        suite = list(small_suite[:3]) + [_bad_loop()]
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        run_engine_experiment(suite, machine, options=options)
        replay = run_engine_experiment(suite, machine, options=options)
        assert replay.cache_hits == 4
        assert replay.failures[0].status == STATUS_FAILED

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path, small_suite):
        machine = two_cluster_gp()
        options = EngineOptions(cache_dir=str(tmp_path), resume=True)
        run_engine_experiment(small_suite[:3], machine, options=options)
        entries = list(tmp_path.glob("*/*.json"))
        assert len(entries) == 3
        for entry in entries:
            entry.write_text("{not json")
        result = run_engine_experiment(small_suite[:3], machine,
                                       options=options)
        assert result.cache_hits == 0
        assert result.n_failed == 0

    def test_cache_object_len(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path), CACHE_VERSION)
        assert len(cache) == 0

    def test_timeouts_are_not_cached(self, tmp_path, small_suite):
        suite = list(small_suite[:2]) + [_slow_loop()]
        options = EngineOptions(cache_dir=str(tmp_path), resume=True,
                                timeout_seconds=0.5)
        result = run_engine_experiment(suite, two_cluster_gp(),
                                       options=options)
        assert result.failures[0].status == STATUS_TIMEOUT
        assert len(ShardedResultCache(str(tmp_path), CACHE_VERSION)) == 2


class TestBaselineSharing:
    def test_parallel_run_seeds_shared_baseline(self, small_suite):
        baseline = UnifiedBaseline()
        machine = two_cluster_gp()
        run_engine_experiment(
            small_suite[:10], machine, baseline=baseline,
            options=EngineOptions(workers=2),
        )
        assert len(baseline) == 10
        # A second sweep entry of the same width reuses every entry.
        reuse = run_engine_experiment(
            small_suite[:10], machine, config=SIMPLE, baseline=baseline,
            options=EngineOptions(workers=2),
        )
        assert reuse.baseline_seconds == 0.0


class TestObsMerge:
    def test_worker_counters_and_spans_merged(self, small_suite):
        with obs.tracing() as trace:
            run_engine_experiment(
                small_suite[:10], two_cluster_gp(),
                options=EngineOptions(workers=2),
            )
        assert trace.counter("experiment.loops") == 10
        assert trace.counter("assign.placements") > 0
        assert len(trace.find("loop")) == 10
        assert len(trace.find("worker")) >= 1
        # Worker spans hang off the parent experiment span.
        experiment_span = trace.find("experiment")[0]
        hosts = [child for child in experiment_span.children
                 if child.name == "worker"]
        assert hosts

    def test_untraced_run_stays_untraced(self, small_suite):
        result = run_engine_experiment(
            small_suite[:4], two_cluster_gp(),
            options=EngineOptions(workers=2),
        )
        assert obs.current_trace() is None
        assert result.n_loops == 4
