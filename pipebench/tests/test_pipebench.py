"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest pipebench/tests -q

The determinism test runs every workload twice for one round each
(about two minutes on a 2-core host).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from pipebench import bench, metrics
from pipebench.tracer import self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "pipebench" / "layers.json").read_text())
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed():
    names = [entry["name"] for entry in
             SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_PATTERN.fullmatch(name), name


def test_emitted_metrics_match_the_spec():
    for section, emitted in (("end_to_end", metrics.END_TO_END),
                             ("per_layer", metrics.PER_LAYER)):
        spec = [(entry["name"], entry["unit"]) for entry in SPEC[section]]
        assert spec == list(emitted), section


def test_command_runs_exactly_the_listed_workloads():
    listed = [entry["name"] for entry in SPEC["workloads"]]
    assert sorted(listed) == sorted(bench.WORKLOADS)
    assert sorted(LAYERS["workloads"]) == sorted(listed)


def test_every_layer_metric_names_its_prediction():
    end_to_end = {entry["name"] for entry in SPEC["end_to_end"]}
    assert set(LAYERS["per_layer"]) == {
        entry["name"] for entry in SPEC["per_layer"]
    }
    for name, entry in LAYERS["per_layer"].items():
        for metric, workload in entry["moves"]:
            assert metric in end_to_end, name
            assert workload in bench.WORKLOADS, name


def _span(name, start, end, parent=None):
    return [name, "layer", start, end, parent, None, {}]


def test_self_time_subtracts_children_and_splits_overlap():
    spans = [
        _span("outer", 0.0, 10.0),
        _span("child", 2.0, 5.0, parent=0),
        # Two concurrent roots share the instants they overlap.
        _span("a", 20.0, 24.0),
        _span("b", 22.0, 26.0),
    ]
    selfs = self_times(spans, 0.0, 30.0)
    assert selfs[0] == pytest.approx(7.0)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(3.0)
    assert sum(selfs.values()) == pytest.approx(16.0)
    # Spans outside the window are ignored.
    assert self_times(spans, 19.0, 30.0).keys() == {2, 3}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_fixed_seed_repeats_quality_and_op_counts(workload, tmp_path):
    def once():
        run = bench.run_workload(workload, seed=3, seconds=0.0,
                                 trace=False, out_dir=str(tmp_path))
        assert run.failed == 0, run.check.mismatches
        values = run.metrics()
        return ({name: values[name] for name in
                 ("match_pct", "ii_excess_mean", "copies_per_op")},
                run.info()["ops_per_round"], run.attempted)

    assert once() == once()
