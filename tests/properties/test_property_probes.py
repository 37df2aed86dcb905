"""Read-only assignment probes against a mutate-then-rollback oracle.

``_Assigner.evaluate`` and ``count_conflicts`` measure a tentative
placement without touching the routing state: they replay the copy
replanning on the pools only (``RoutingState.probe``).  The oracle is
the direct formulation — really assign the node on a deep copy of the
assigner and replan every affected producer — so each probe must return
exactly what mutating would have measured, count the same replans, and
leave the cluster map, the plan store, the copy total and the pool
usage as they were.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.assignment import AssignmentStats, _Assigner
from repro.core.copies import CopyRoutingError
from repro.core.prediction import (
    predicted_copy_requests,
    prediction_satisfied,
)
from repro.core.selection import CandidateInfo
from repro.core.variants import HEURISTIC_ITERATIVE, NO_BROADCAST_SHARING
from repro.ddg.mii import rec_mii
from repro.machine import four_cluster_fs, four_cluster_grid, two_cluster_gp
from repro.mrt import PoolOverflowError
from repro.workloads import GeneratorProfile, generate_loop

MACHINES = {
    "2gp": two_cluster_gp(),
    "4fs": four_cluster_fs(),
    "grid": four_cluster_grid(),
}
CONFIGS = {
    "heuristic": HEURISTIC_ITERATIVE,
    "no-broadcast-sharing": NO_BROADCAST_SHARING,
}
COUNTERS = (
    "copies.replans", "copies.replan_failures", "copies.routing_errors",
)


def _fork(assigner):
    """A deep copy of the assigner state (the graph and machine, which
    nothing mutates, are shared)."""
    memo = {
        id(assigner.ddg): assigner.ddg,
        id(assigner.machine): assigner.machine,
    }
    return copy.deepcopy(assigner, memo)


def _reference_evaluate(ref, node_id, cluster):
    """``evaluate`` by mutation: take the slot, assign, replan.

    Returns the candidate info and the cluster's PCR after the placement
    (None when the placement is infeasible)."""
    demand = ref._demand[node_id][cluster]
    previously_here = cluster in ref.previously_on[node_id]
    if demand is None:
        return CandidateInfo(
            cluster=cluster, feasible=False, shares_scc=False,
            prediction_ok=False, new_copies=0, free_resources=0,
            previously_here=previously_here, op_fits=False,
        ), None
    pools = ref.pools
    if not pools.fits(demand):
        return CandidateInfo(
            cluster=cluster, feasible=False,
            shares_scc=ref._scc_partner_on(node_id, cluster),
            prediction_ok=True, new_copies=0, free_resources=0,
            previously_here=previously_here, op_fits=False,
        ), None
    pcr = None
    copies_before = ref.routing.total_copies()
    feasible = False
    prediction_ok = True
    new_copies = 0
    free_resources = 0
    try:
        pools.take(demand)
        ref.routing.set_cluster(node_id, cluster)
        feasible = True
        new_copies = ref.routing.total_copies() - copies_before
        if ref.config.predict_copies:
            prediction_ok = prediction_satisfied(
                ref.machine, ref.routing, pools, cluster,
                ref.nodes_on[cluster] | {node_id},
            )
        free_resources = pools.free_cluster_slots(cluster)
        pcr = predicted_copy_requests(
            ref.machine, ref.routing, ref.nodes_on[cluster] | {node_id}
        )
    except (PoolOverflowError, CopyRoutingError):
        feasible = False
    return CandidateInfo(
        cluster=cluster,
        feasible=feasible,
        shares_scc=ref._scc_partner_on(node_id, cluster),
        prediction_ok=prediction_ok,
        new_copies=new_copies,
        free_resources=free_resources,
        previously_here=previously_here,
        op_fits=True,
    ), pcr


def _probe_pcr(assigner, node_id, cluster):
    """The cluster's PCR with the probed placement overlaid (None when
    the placement is infeasible), as ``evaluate`` computes it."""
    pools = assigner.pools
    demand = assigner._demand[node_id][cluster]
    if demand is None or not pools.fits(demand):
        return None
    mark = pools.mark()
    try:
        pools.take(demand)
        failures, _, tentative = assigner.routing.probe(
            node_id, cluster, stop_at_failure=True
        )
        if failures:
            return None
        return predicted_copy_requests(
            assigner.machine, assigner.routing, assigner.nodes_on[cluster],
            placed=node_id, tentative=tentative,
        )
    finally:
        pools.rollback(mark)


def _reference_count_conflicts(ref, node_id, cluster):
    """``count_conflicts`` by mutation: assign, replan each producer."""
    if ref._demand[node_id][cluster] is None:
        return len(ref.ddg.node_ids)
    ref.routing.assign_unplanned(node_id, cluster)
    conflicts = 0
    for producer in ref.routing.affected_producers(node_id):
        try:
            ref.routing.replan(producer)
        except (PoolOverflowError, CopyRoutingError):
            conflicts += 1
    return conflicts


def _state(assigner):
    """Everything a probe must leave untouched."""
    routing = assigner.routing
    return (
        dict(routing.cluster_of),
        {producer: id(entry) for producer, entry in routing._plans.items()},
        routing.total_copies(),
        assigner.pools.mark(),
    )


def _counted(call):
    with obs.tracing() as trace:
        result = call()
    return result, {name: trace.counters.get(name, 0) for name in COUNTERS}


@st.composite
def partial_assignments(draw):
    """A random graph, machine, variant and II, plus a random sequence
    of commits and forced placements building a partial assignment
    (the II is RecMII plus a small slack)."""
    machine = draw(st.sampled_from(sorted(MACHINES)))
    config = draw(st.sampled_from(sorted(CONFIGS)))
    seed = draw(st.integers(min_value=0, max_value=50_000))
    n_nodes = draw(st.integers(min_value=4, max_value=16))
    ii_slack = draw(st.integers(min_value=0, max_value=2))
    steps = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=0, max_value=3),
            st.booleans(),
        ),
        min_size=2, max_size=20,
    ))
    return machine, config, seed, n_nodes, ii_slack, steps


def _build(machine_name, config_name, seed, n_nodes, ii_slack, steps):
    machine = MACHINES[machine_name]
    ddg = generate_loop(random.Random(seed), GeneratorProfile(),
                        n_nodes=n_nodes)
    # Tight IIs (at most two cycles over the larger of RecMII and the
    # machine's issue bound) keep pools short.
    issue_bound = -(-len(ddg) // machine.total_width)
    ii = max(1, rec_mii(ddg), issue_bound) + ii_slack
    assigner = _Assigner(ddg, machine, ii, CONFIGS[config_name],
                         AssignmentStats(ii=ii))
    for pick, cluster, force in steps:
        unassigned = sorted(assigner.unassigned)
        if not unassigned:
            break
        node_id = unassigned[pick % len(unassigned)]
        cluster %= machine.n_clusters
        if assigner.evaluate(node_id, cluster).feasible:
            assigner.commit(node_id, cluster)
        elif force and not assigner.force_assign(node_id, cluster):
            return None  # a failed forced placement abandons the attempt
    return assigner


class TestProbesMatchMutatingOracle:
    @given(partial_assignments())
    @settings(max_examples=40, deadline=None)
    def test_probes_match_oracle_and_leave_state_alone(self, case):
        assigner = _build(*case)
        if assigner is None:
            return
        for node_id in sorted(assigner.unassigned):
            for cluster in range(assigner.machine.n_clusters):
                ref_eval = _fork(assigner)
                ref_conflicts = _fork(assigner)
                before = _state(assigner)

                got, got_counts = _counted(
                    lambda: assigner.evaluate(node_id, cluster)
                )
                assert _state(assigner) == before
                (want, want_pcr), want_counts = _counted(
                    lambda: _reference_evaluate(ref_eval, node_id, cluster)
                )
                assert got == want
                assert got_counts == want_counts
                assert _probe_pcr(assigner, node_id, cluster) == want_pcr
                assert _state(assigner) == before

                got, got_counts = _counted(
                    lambda: assigner.count_conflicts(node_id, cluster)
                )
                assert _state(assigner) == before
                want, want_counts = _counted(
                    lambda: _reference_count_conflicts(
                        ref_conflicts, node_id, cluster
                    )
                )
                assert got == want
                assert got_counts == want_counts
