"""Copy-pressure prediction: PCR, MRC and UpperBound (paper Section 4.2).

The selection heuristic's line 6 keeps clusters where the *predicted copy
requests* fit in the *room still reservable for copies*:

.. math::

    PCR_C = \\sum_{N_i \\in C} \\min(UpperBound(N_i),
                                     UnassignedSuccessors(N_i))

``UpperBound`` caps how many more copies a producer could ever need given
the worst-case placement of its still-unassigned consumers:

* broadcast buses: ``max(0, 1 - RC(N_i))`` — a broadcast result travels
  at most once,
* otherwise: ``max(0, ClusterCount - RC(N_i) - 1)`` — at most one copy
  per other cluster.

``MRC_C`` (room for additional copies out of cluster ``C``) is computed by
:meth:`repro.mrt.pool.ResourcePools.max_reservable_copies`.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Optional

from ..machine.machine import Machine
from .copies import PlanEntry, RoutingState


def upper_bound(
    machine: Machine, routing: RoutingState, node_id: int
) -> int:
    """Worst-case additional copies node ``node_id`` could still need."""
    if not routing.produces_value(node_id):
        return 0
    rc = routing.required_copies(node_id)
    if machine.interconnect.broadcast:
        return max(0, 1 - rc)
    return max(0, machine.n_clusters - rc - 1)


def predicted_copy_requests(
    machine: Machine,
    routing: RoutingState,
    nodes_on_cluster: "set[int]",
    placed: Optional[int] = None,
    tentative: Optional[Dict[int, Optional[PlanEntry]]] = None,
) -> int:
    """PCR of one cluster given the nodes currently assigned to it.

    ``placed`` and ``tentative`` describe a probed placement without
    applying it (see :meth:`RoutingState.probe`): ``placed`` is an
    unassigned node counted as assigned to the cluster, and
    ``tentative`` maps producers to the plan entries (None: no plan)
    that override the routing state's plan store.

    Inlines :func:`upper_bound` and the unassigned-consumer count over
    the routing state's internals (its plan store of ``(specs, demand)``
    entries): the selection heuristic evaluates this for every candidate
    cluster of every node, making it one of the hottest loops of the
    assignment phase.
    """
    base = 1 if machine.interconnect.broadcast else machine.n_clusters - 1
    if base <= 0:
        return 0
    produces = routing._produces_value
    plans = routing._plans
    consumers = routing._value_consumers
    cluster_of = routing.cluster_of
    if tentative is None:
        tentative = {}
    nodes: Iterable[int] = nodes_on_cluster
    if placed is not None:
        nodes = chain(nodes_on_cluster, (placed,))
    total = 0
    for node_id in nodes:
        if not produces[node_id]:
            continue
        if node_id in tentative:
            entry = tentative[node_id]
        else:
            entry = plans.get(node_id)
        bound = base if entry is None else base - len(entry[0])
        if bound <= 0:
            continue
        unassigned = 0
        for consumer in consumers[node_id]:
            if consumer not in cluster_of and consumer != placed:
                unassigned += 1
        total += unassigned if unassigned < bound else bound
    return total


def prediction_satisfied(
    machine: Machine,
    routing: RoutingState,
    pools,
    cluster_index: int,
    nodes_on_cluster: "set[int]",
    placed: Optional[int] = None,
    tentative: Optional[Dict[int, Optional[PlanEntry]]] = None,
) -> bool:
    """The line-6 criterion: ``PCR_C <= MRC_C`` for one cluster."""
    pcr = predicted_copy_requests(
        machine, routing, nodes_on_cluster, placed, tentative
    )
    return pcr <= pools.max_reservable_copies(cluster_index)
