"""The certify gate: driver attach, strict rejection, experiment and
engine threading, cache round-trips."""

import dataclasses

import pytest

from repro.analysis import run_experiment
from repro.analysis.engine import (
    CACHE_VERSION,
    EngineOptions,
    certify_fingerprint,
    outcome_cache_key,
    run_engine_experiment,
)
from repro.certify import (
    CertifyConfig,
    DEFAULT_CERTIFY,
    artifact_diagnostics,
    certify_compiled,
)
from repro.certify.check import CertIssue
from repro.core import CompilationError, compile_loop
from repro.service import ShardedResultCache
from repro.workloads import bundled_corpus


def small_corpus(n=6):
    return list(bundled_corpus())[:n]


class TestCertifyCompiled:
    def test_clean_compile_yields_ok_artifact(self, compiled_intro):
        artifact = certify_compiled(compiled_intro, DEFAULT_CERTIFY)
        assert artifact.ok
        assert len(artifact.issues) == 0
        assert artifact.exact is None  # oracle is opt-in
        assert artifact.exact_status == ""
        assert artifact.codes() == ()

    def test_exact_opt_in(self, compiled_intro):
        config = CertifyConfig(exact=True)
        artifact = certify_compiled(compiled_intro, config)
        assert artifact.exact is not None
        assert artifact.exact_status == "tight"

    def test_diagnostics_empty_for_clean_artifact(self, compiled_intro):
        artifact = certify_compiled(compiled_intro, DEFAULT_CERTIFY)
        assert artifact_diagnostics(artifact) == []

    def test_loose_ii_becomes_warning(self, chain3, two_gp):
        compiled = compile_loop(chain3, two_gp, min_ii=2)
        artifact = certify_compiled(
            compiled, CertifyConfig(exact=True)
        )
        assert artifact.ok  # loose is a warning, not a failure
        diags = artifact_diagnostics(artifact)
        assert [d.code for d in diags] == ["CERT690"]
        assert diags[0].severity == "warning"
        assert "II=1" in diags[0].message


class TestDriverGate:
    def test_certificate_attached(self, intro_example, two_gp):
        compiled = compile_loop(
            intro_example, two_gp, certify_config=DEFAULT_CERTIFY
        )
        assert compiled.certified is not None
        assert compiled.certified.ok
        assert compiled.certificate is compiled.certified.certificate
        assert compiled.certificate.ii == compiled.ii

    def test_no_config_no_certificate(self, compiled_intro):
        assert compiled_intro.certified is None
        assert compiled_intro.certificate is None

    def test_strict_gate_rejects(
        self, intro_example, two_gp, monkeypatch
    ):
        import repro.certify.gate as gate_mod

        def forge(cert, ddg, machine):
            return [CertIssue(
                code="CERT605", location="row 0",
                message="slot double-booked (forged for test)",
            )]

        monkeypatch.setattr(gate_mod, "check_certificate", forge)
        with pytest.raises(CompilationError, match="certify gate"):
            compile_loop(
                intro_example, two_gp,
                certify_config=CertifyConfig(strict=True),
            )
        # Non-strict records the failure but does not raise.
        compiled = compile_loop(
            intro_example, two_gp, certify_config=DEFAULT_CERTIFY
        )
        assert not compiled.certified.ok
        assert compiled.certified.codes() == ("CERT605",)


class TestExperimentThreading:
    def test_outcomes_carry_cert_fields(self, two_gp):
        result = run_experiment(
            small_corpus(), two_gp,
            certify_config=CertifyConfig(exact=True),
        )
        assert result.total_cert_errors == 0
        assert result.cert_code_counts() == {}
        statuses = result.exact_status_counts()
        assert statuses and all(
            s in ("tight", "loose", "budget_exhausted", "skipped")
            for s in statuses
        )

    def test_without_config_fields_stay_default(self, two_gp):
        result = run_experiment(small_corpus(3), two_gp)
        for outcome in result.outcomes:
            assert outcome.cert_errors == 0
            assert outcome.cert_codes == ()
            assert outcome.exact_status == ""

    def test_engine_matches_serial(self, two_gp):
        config = CertifyConfig(exact=True)
        serial = run_experiment(
            small_corpus(), two_gp, certify_config=config
        )
        engine = run_engine_experiment(
            small_corpus(), two_gp,
            options=EngineOptions(workers=2, certify_config=config),
        )
        for a, b in zip(serial.outcomes, engine.outcomes):
            assert a.loop_name == b.loop_name
            assert a.cert_errors == b.cert_errors
            assert a.cert_codes == b.cert_codes
            assert a.exact_status == b.exact_status


class TestCacheKeys:
    def test_fingerprint_covers_every_knob(self):
        base = CertifyConfig()
        assert certify_fingerprint(None) is None
        prints = {
            certify_fingerprint(base),
            certify_fingerprint(dataclasses.replace(base, strict=True)),
            certify_fingerprint(dataclasses.replace(base, exact=True)),
            certify_fingerprint(
                dataclasses.replace(base, exact_node_budget=99)
            ),
            certify_fingerprint(
                dataclasses.replace(base, exact_backtrack_budget=1)
            ),
        }
        assert len(prints) == 5

    def test_cache_key_depends_on_certify_config(
        self, intro_example, two_gp
    ):
        from repro.core import HEURISTIC_ITERATIVE

        plain = outcome_cache_key(
            intro_example, two_gp, HEURISTIC_ITERATIVE
        )
        gated = outcome_cache_key(
            intro_example, two_gp, HEURISTIC_ITERATIVE,
            certify_config=DEFAULT_CERTIFY,
        )
        assert plain != gated

    def test_cache_round_trips_cert_fields(self, two_gp, tmp_path):
        options = EngineOptions(
            cache_dir=str(tmp_path), resume=True,
            certify_config=CertifyConfig(exact=True),
        )
        first = run_engine_experiment(
            small_corpus(4), two_gp, options=options
        )
        second = run_engine_experiment(
            small_corpus(4), two_gp, options=options
        )
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.cert_errors == b.cert_errors
            assert a.cert_codes == b.cert_codes
            assert a.exact_status == b.exact_status

    def test_result_cache_store_load(self, two_gp, tmp_path):
        from repro.core import HEURISTIC_ITERATIVE

        gate = CertifyConfig(exact=True)
        (loop,) = small_corpus(1)
        result = run_experiment([loop], two_gp, certify_config=gate)
        outcome = result.outcomes[0]
        ShardedResultCache(str(tmp_path), CACHE_VERSION).put(
            outcome_cache_key(
                loop, two_gp, HEURISTIC_ITERATIVE, certify_config=gate,
            ),
            dataclasses.asdict(outcome),
        )
        replay = run_engine_experiment(
            [loop], two_gp, options=EngineOptions(
                cache_dir=str(tmp_path), resume=True, certify_config=gate,
            ),
        )
        assert replay.cache_hits == 1
        (loaded,) = replay.outcomes
        assert loaded.cert_errors == outcome.cert_errors
        assert loaded.cert_codes == outcome.cert_codes
        assert loaded.exact_status == outcome.exact_status
