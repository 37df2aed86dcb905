"""Work counters of a fixed compile sample are pinned.

The assignment probes and the scheduler's reservation table have been
restructured for speed without changing what they do: the same
candidate evaluations, the same copy replans (one per producer probed,
a probe stopping at its first failing producer), the same failures and
the same scheduler slot probes.  The totals below were recorded before
those rewrites; any drift means the hot path now does different work,
even where final schedules happen to agree.
"""

from repro import obs
from repro.core.driver import compile_loop
from repro.core.variants import (
    HEURISTIC_ITERATIVE,
    NO_BROADCAST_SHARING,
    SIMPLE_ITERATIVE,
)
from repro.machine.presets import (
    four_cluster_fs,
    four_cluster_gp,
    four_cluster_grid,
    two_cluster_gp,
)
from repro.workloads import paper_suite

PINNED = {
    "assign.evaluations": 8700,
    "copies.replans": 27165,
    "copies.replan_failures": 7718,
    "sched.slot_probes": 1772,
    "assign.placements": 2429,
    "sched.placements": 1679,
}


def test_counter_totals_match_pinned_values():
    cases = [
        (two_cluster_gp(), HEURISTIC_ITERATIVE),
        (four_cluster_fs(), SIMPLE_ITERATIVE),
        (four_cluster_grid(), HEURISTIC_ITERATIVE),
        (four_cluster_gp(), NO_BROADCAST_SHARING),
    ]
    loops = paper_suite(30)
    with obs.tracing() as trace:
        for machine, config in cases:
            for ddg in loops:
                compile_loop(ddg, machine, config)
    counters = trace.counters
    assert {name: counters.get(name, 0) for name in PINNED} == PINNED
