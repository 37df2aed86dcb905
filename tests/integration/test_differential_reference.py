"""Differential test: optimized pipeline vs the retained slow reference.

The hot-path overhaul (compiled DDG views, memoized per-SCC RecMII, the
heap-driven scheduler, counter-based MRT probes) is required to be
**bit-identical** to the seed implementations: same final II, same copy
counts, same start-cycle maps, same cluster maps.  This test compiles the
synthetic corpus and every hand-written paper kernel through both paths
and compares outcomes exactly; it also diffs the individual stages
(RecMII, SCC partition, priority metrics, SMS assignment order) that the
two paths compute independently.

``REPRO_SUITE_SIZE`` scales the synthetic corpus slice (default 60).
"""

from __future__ import annotations

import os

import pytest

from repro.baselines import (
    reference_assignment_order,
    reference_compile_loop,
    reference_compute_metrics,
    reference_find_sccs,
    reference_rec_mii,
)
from repro.core.driver import compile_loop
from repro.core.variants import NO_BROADCAST_SHARING
from repro.ddg.mii import rec_mii
from repro.machine.presets import (
    four_cluster_fs,
    four_cluster_gp,
    four_cluster_grid,
    two_cluster_fs,
    two_cluster_gp,
)
from repro.service.tasks import VARIANTS
from repro.scheduling.swing import assignment_order
from repro.scheduling.priority import compute_metrics
from repro.ddg.scc import find_sccs
from repro.workloads import paper_suite
from repro.workloads.kernels import all_kernels


def _suite_size(default: int = 60) -> int:
    raw = os.environ.get("REPRO_SUITE_SIZE")
    if not raw:
        return default
    return max(1, int(raw))


def _loops():
    return paper_suite(_suite_size()) + all_kernels()


@pytest.fixture(scope="module")
def loops():
    return _loops()


# ----------------------------------------------------------------------
# Stage-level differentials (fast paths vs frozen seed implementations)
# ----------------------------------------------------------------------
def test_rec_mii_matches_reference(loops) -> None:
    for ddg in loops:
        assert rec_mii(ddg) == reference_rec_mii(ddg), ddg.name


def test_scc_partition_matches_reference(loops) -> None:
    for ddg in loops:
        fast = find_sccs(ddg)
        slow = reference_find_sccs(ddg)
        assert [scc.nodes for scc in fast.sccs] == [
            scc.nodes for scc in slow.sccs
        ], ddg.name
        assert [scc.rec_mii for scc in fast.sccs] == [
            scc.rec_mii for scc in slow.sccs
        ], ddg.name
        assert fast.membership == slow.membership, ddg.name


def test_priority_metrics_match_reference(loops) -> None:
    for ddg in loops:
        base = max(rec_mii(ddg), 1)
        for ii in (base, base + 1, base + 3):
            fast = compute_metrics(ddg, ii)
            slow = reference_compute_metrics(ddg, ii)
            assert fast.asap == slow.asap, (ddg.name, ii)
            assert fast.alap == slow.alap, (ddg.name, ii)
            assert fast.height == slow.height, (ddg.name, ii)
            assert fast.critical_path == slow.critical_path, (ddg.name, ii)


def test_assignment_order_matches_reference(loops) -> None:
    for ddg in loops:
        base = max(rec_mii(ddg), 1)
        for ii in (base, base + 2):
            assert assignment_order(ddg, ii) == reference_assignment_order(
                ddg, ii
            ), (ddg.name, ii)


# ----------------------------------------------------------------------
# End-to-end differential: full Figure-5 compilations, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "machine_factory",
    [two_cluster_gp, two_cluster_fs, four_cluster_grid],
    ids=["2gp-bus", "2fs-bus", "4grid-p2p"],
)
def test_compilation_bit_identical(machine_factory, loops) -> None:
    machine = machine_factory()
    for ddg in loops:
        ref = reference_compile_loop(ddg, machine)
        opt = compile_loop(ddg, machine)
        name = ddg.name or "loop"
        assert opt.ii == ref.ii, name
        assert opt.mii == ref.mii, name
        assert opt.copy_count == ref.copy_count, name
        assert dict(opt.schedule.start) == ref.start, name
        assert dict(opt.annotated.cluster_of) == ref.cluster_of, name


#: Every paper machine, for the variant grid below.
PAPER_MACHINES = {
    "2gp": two_cluster_gp,
    "4gp": four_cluster_gp,
    "2fs": two_cluster_fs,
    "4fs": four_cluster_fs,
    "grid": four_cluster_grid,
}

#: Every Figure 12-13 variant, plus the ablation that emits one copy per
#: target on bused machines (the only one changing copy-plan shapes).
GRID_VARIANTS = {**VARIANTS, "no-broadcast-sharing": NO_BROADCAST_SHARING}


@pytest.fixture(scope="module")
def loop_slice(loops):
    """Every third loop of the corpus: keeps the 25-cell grid to a few
    seconds."""
    return loops[::3]


@pytest.mark.parametrize("variant", sorted(GRID_VARIANTS))
@pytest.mark.parametrize("machine_name", sorted(PAPER_MACHINES))
def test_variant_compilation_bit_identical(
    machine_name, variant, loop_slice
) -> None:
    """Every paper machine under every variant, against the reference:
    pool and copy-plan caches differ most between 2- and 4-cluster
    fabrics and under per-target copies."""
    machine = PAPER_MACHINES[machine_name]()
    config = GRID_VARIANTS[variant]
    for ddg in loop_slice:
        ref = reference_compile_loop(ddg, machine, config=config)
        opt = compile_loop(ddg, machine, config=config)
        name = ddg.name or "loop"
        assert opt.ii == ref.ii, name
        assert opt.copy_count == ref.copy_count, name
        assert dict(opt.schedule.start) == ref.start, name
        assert dict(opt.annotated.cluster_of) == ref.cluster_of, name
