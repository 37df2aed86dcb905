"""The cluster assignment phase (paper Section 4).

``assign_clusters`` runs one assignment attempt at a fixed candidate II:

1. **Order** — nodes of the most constraining SCCs first, SMS order
   within each set (:mod:`repro.core.ordering`).
2. **Tentative assignment and selection** — the next unassigned node is
   tentatively placed on every cluster: its slot and the affected copy
   plans are reserved inside a pools transaction while the routing state
   is only read (:meth:`RoutingState.probe`); the outcomes feed the
   Figure 10 selection chain
   (:mod:`repro.core.selection`), and the winner is committed.
3. **Iteration** — when no cluster is feasible, the Figure 11 chain picks
   a cluster to force the node onto; nodes conflicting with the node's
   issue slot or its required copies are evicted and re-enter the work
   list (Section 4.3.1).  A per-node list of previously tried clusters
   discourages repetition (Section 4.3.2), and a placement budget bounds
   the effort — exhausting it signals the driver to retry at II + 1.

Returns the annotated graph (original ops tagged with clusters, copies
inserted) or ``None`` when the budget ran out, i.e. no valid assignment
was found at this II.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..ddg.graph import Ddg
from ..ddg.transform import AnnotatedDdg, trivial_annotation
from ..obs.trace import count as obs_count, span as obs_span
from ..machine.machine import Machine
from ..mrt.pool import Demand, PoolOverflowError, ResourcePools
from .annotate import build_annotated
from .copies import CopyRoutingError, RoutingState
from .ordering import AssignmentOrder, build_assignment_order
from .prediction import prediction_satisfied
from .selection import (
    CandidateInfo,
    select_best_cluster,
    select_failure_cluster,
)
from .variants import HEURISTIC_ITERATIVE, AssignmentConfig


@dataclass
class AssignmentStats:
    """Bookkeeping from one assignment attempt."""

    ii: int
    placements: int = 0
    forced_placements: int = 0
    evictions: int = 0
    copies: int = 0
    succeeded: bool = False


class _Assigner:
    """Mutable state of one assignment attempt at a fixed II."""

    def __init__(
        self,
        ddg: Ddg,
        machine: Machine,
        ii: int,
        config: AssignmentConfig,
        stats: AssignmentStats,
    ) -> None:
        self.ddg = ddg
        self.machine = machine
        self.ii = ii
        self.config = config
        self.stats = stats
        self.order: AssignmentOrder = build_assignment_order(
            ddg, ii, scc_first=config.scc_first
        )
        self.pools = ResourcePools(machine, ii)
        self.routing = RoutingState(
            ddg, machine, self.pools,
            share_broadcast=config.share_broadcast,
        )
        self.unassigned: Set[int] = set(ddg.node_ids)
        self.clusters = range(machine.n_clusters)
        self.nodes_on: Dict[int, Set[int]] = {c: set() for c in self.clusters}
        self.issue_held: Dict[int, Demand] = {}
        self.previously_on: Dict[int, Set[int]] = {
            n: set() for n in ddg.node_ids
        }
        self.budget = max(config.budget_ratio * len(ddg), len(ddg) + 1)
        # Rank-keyed work heap over ``unassigned`` (lazy invalidation:
        # evicted nodes are pushed back, stale pops are skipped).  Ranks
        # are unique, so popping matches a min-scan bit for bit.
        self._ready: List[Tuple[int, int]] = [
            (self.order.priority_of(n), n) for n in self.order.order
        ]
        # Node -> compiled issue-slot demand per cluster (None where the
        # cluster structurally cannot execute the opcode), shared from
        # the machine's per-(opcode, cluster) table.
        op_demands = self.pools.layout.op_demands
        self._demand: Dict[int, Tuple[Optional[Demand], ...]] = {
            node.node_id: op_demands[node.opcode] for node in ddg.nodes
        }
        # Node -> the other members of its non-trivial SCC.
        self._scc_partners: Dict[int, Tuple[int, ...]] = {}
        for node_id in ddg.node_ids:
            scc = self.order.scc_of(node_id)
            self._scc_partners[node_id] = () if scc is None else tuple(
                other for other in scc.nodes if other != node_id
            )

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _scc_partner_on(self, node_id: int, cluster: int) -> bool:
        """Is another member of the node's SCC already on ``cluster``?"""
        partners = self._scc_partners[node_id]
        if not partners:
            return False
        on_cluster = self.nodes_on[cluster]
        return any(other in on_cluster for other in partners)

    def _record_history(self, node_id: int, cluster: int) -> None:
        """Rule (A) bookkeeping, with the clear-when-full rule."""
        history = self.previously_on[node_id]
        history.add(cluster)
        if len(history) >= self.machine.n_clusters:
            history.clear()
            history.add(cluster)

    # ------------------------------------------------------------------
    # Tentative evaluation
    # ------------------------------------------------------------------
    def evaluate(self, node_id: int, cluster: int) -> CandidateInfo:
        """Tentatively place ``node_id`` on ``cluster`` and measure the
        Figure 10 selection inputs; the pools are rolled back and the
        routing state is never modified."""
        demand = self._demand[node_id][cluster]
        previously_here = cluster in self.previously_on[node_id]
        if demand is None:
            return CandidateInfo(
                cluster=cluster, feasible=False, shares_scc=False,
                prediction_ok=False, new_copies=0, free_resources=0,
                previously_here=previously_here, op_fits=False,
            )
        pools = self.pools
        if not pools.fits(demand):
            # The node's own slot overflows before anything is touched.
            return CandidateInfo(
                cluster=cluster, feasible=False,
                shares_scc=self._scc_partner_on(node_id, cluster),
                prediction_ok=True, new_copies=0, free_resources=0,
                previously_here=previously_here, op_fits=False,
            )
        # Read-only probe: the pools carry the tentative reservations
        # between mark and rollback; the routing state is not touched.
        feasible = False
        prediction_ok = True
        new_copies = 0
        free_resources = 0
        mark = pools.mark()
        try:
            pools.take(demand)
            failures, copies, tentative = self.routing.probe(
                node_id, cluster, stop_at_failure=True
            )
            if not failures:
                feasible = True
                new_copies = copies
                if self.config.predict_copies:
                    prediction_ok = prediction_satisfied(
                        self.machine,
                        self.routing,
                        pools,
                        cluster,
                        self.nodes_on[cluster],
                        placed=node_id,
                        tentative=tentative,
                    )
                free_resources = pools.free_cluster_slots(cluster)
        finally:
            pools.rollback(mark)
        return CandidateInfo(
            cluster=cluster,
            feasible=feasible,
            shares_scc=self._scc_partner_on(node_id, cluster),
            prediction_ok=prediction_ok,
            new_copies=new_copies,
            free_resources=free_resources,
            previously_here=previously_here,
            op_fits=True,
        )

    def count_conflicts(self, node_id: int, cluster: int) -> int:
        """Figure 11 line 4: assigned neighbors whose required copies fail
        when ``node_id`` is put on ``cluster`` (resource shortages of the
        node's own slot are handled separately by eviction)."""
        if self._demand[node_id][cluster] is None:
            return len(self.ddg.node_ids)  # structurally impossible
        mark = self.pools.mark()
        try:
            conflicts, _, _ = self.routing.probe(
                node_id, cluster, stop_at_failure=False
            )
        finally:
            self.pools.rollback(mark)
        return conflicts

    # ------------------------------------------------------------------
    # Committing and evicting
    # ------------------------------------------------------------------
    def commit(self, node_id: int, cluster: int) -> None:
        """Finalize a feasible assignment chosen by Figure 10."""
        demand = self._demand[node_id][cluster]
        assert demand is not None
        self.pools.take(demand)
        self.routing.set_cluster(node_id, cluster)
        self.issue_held[node_id] = demand
        self.nodes_on[cluster].add(node_id)
        self.unassigned.discard(node_id)
        self._record_history(node_id, cluster)
        self.stats.placements += 1
        obs_count("assign.placements")

    def evict(self, node_id: int, protect: Set[int]) -> bool:
        """Remove a node from its cluster; it re-enters the work list.

        Replans every affected producer, evicting further nodes when a
        reshaped plan (possible on point-to-point fabrics) does not fit.
        Returns False when recovery is impossible at this II.
        """
        cluster = self.routing.cluster_of[node_id]
        self.pools.give(self.issue_held.pop(node_id))
        self.nodes_on[cluster].discard(node_id)
        self.routing.unassign_unplanned(node_id)
        self.unassigned.add(node_id)
        heapq.heappush(
            self._ready, (self.order.priority_of(node_id), node_id)
        )
        self.stats.evictions += 1
        obs_count("assign.evictions")
        for producer in self.routing.affected_producers(node_id):
            if not self._replan_or_evict(producer, protect):
                return False
        return True

    def _plan_victim(self, producer: int, protect: Set[int]) -> Optional[int]:
        """Node to evict so ``producer``'s copy plan can fit.

        The paper removes the *conflicting predecessor or successor*
        itself: when the failing producer is an ordinary neighbor we evict
        it directly; when it is protected (the node currently being
        force-assigned) we instead evict its lowest-priority consumer on a
        remote cluster, shrinking the plan.
        """
        home = self.routing.cluster_of.get(producer)
        if home is None:
            return None
        if producer not in protect:
            return producer
        remote_consumers = [
            consumer
            for consumer in self.routing.value_consumers(producer)
            if consumer not in protect
            and self.routing.cluster_of.get(consumer, home) != home
        ]
        if not remote_consumers:
            return None
        return max(remote_consumers, key=self.order.priority_of)

    def _replan_or_evict(self, producer: int, protect: Set[int]) -> bool:
        """Replan one producer, evicting conflicting nodes until it fits."""
        while True:
            try:
                self.routing.replan(producer)
                return True
            except (PoolOverflowError, CopyRoutingError):
                victim = self._plan_victim(producer, protect)
                if victim is None:
                    return False
                if victim == producer:
                    return self.evict(producer, protect)
                if not self.evict(victim, protect):
                    return False

    def _issue_victim(
        self, node_id: int, cluster: int, demand: Demand
    ) -> Optional[int]:
        """Lowest-priority node on ``cluster`` holding the pool ``node_id``
        needs for its own issue slot."""
        pool_index = demand[0][0]
        issue_held = self.issue_held
        candidates = [
            other
            for other in self.nodes_on[cluster]
            if other != node_id and issue_held[other][0][0] == pool_index
        ]
        if not candidates:
            return None
        return max(candidates, key=self.order.priority_of)

    def force_assign(self, node_id: int, cluster: int) -> bool:
        """Figure 11 placement: make room on ``cluster`` by eviction.

        Returns False when no sequence of evictions can make the
        assignment fit (the driver then gives up at this II).
        """
        demand = self._demand[node_id][cluster]
        if demand is None:
            return False
        protect = {node_id}
        while not self.pools.fits(demand):
            victim = self._issue_victim(node_id, cluster, demand)
            if victim is None:
                return False
            if not self.evict(victim, protect):
                return False
        self.pools.take(demand)
        self.issue_held[node_id] = demand
        self.routing.assign_unplanned(node_id, cluster)
        self.nodes_on[cluster].add(node_id)
        self.unassigned.discard(node_id)
        for producer in self.routing.affected_producers(node_id):
            if not self._replan_or_evict(producer, protect):
                return False
        self._record_history(node_id, cluster)
        self.stats.placements += 1
        self.stats.forced_placements += 1
        obs_count("assign.placements")
        obs_count("assign.forced_placements")
        return True

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> Optional[AnnotatedDdg]:
        """Assign every node, or return None on budget exhaustion."""
        while self.unassigned:
            if self.budget <= 0:
                obs_count("assign.budget_exhausted")
                return None
            self.budget -= 1
            obs_count("assign.budget_spent")
            while True:
                _, node_id = heapq.heappop(self._ready)
                if node_id in self.unassigned:
                    break
            candidates = [
                self.evaluate(node_id, cluster)
                for cluster in self.clusters
            ]
            obs_count("assign.evaluations", len(candidates))
            infeasible = sum(1 for c in candidates if not c.feasible)
            if infeasible:
                obs_count("assign.infeasible_evaluations", infeasible)
            chosen = select_best_cluster(
                candidates,
                node_in_scc=self.order.scc_of(node_id) is not None,
                use_heuristic=self.config.use_heuristic,
            )
            if chosen is not None:
                obs_count("assign.select.committed")
                self.commit(node_id, chosen)
                continue
            if not self.config.iterative:
                obs_count("assign.select.abandoned")
                return None
            with_conflicts = [
                CandidateInfo(
                    cluster=c.cluster,
                    feasible=c.feasible,
                    shares_scc=c.shares_scc,
                    prediction_ok=c.prediction_ok,
                    new_copies=c.new_copies,
                    free_resources=c.free_resources,
                    previously_here=c.previously_here,
                    op_fits=c.op_fits,
                    conflicts=self.count_conflicts(node_id, c.cluster),
                )
                for c in candidates
            ]
            forced = select_failure_cluster(with_conflicts)
            if forced is None or not self.force_assign(node_id, forced):
                obs_count("assign.select.abandoned")
                return None
            obs_count("assign.select.forced")

        self.stats.copies = self.routing.total_copies()
        self.stats.succeeded = True
        return build_annotated(
            self.ddg,
            self.machine,
            self.routing.cluster_of,
            self.routing.plans(),
        )


def assign_clusters(
    ddg: Ddg,
    machine: Machine,
    ii: int,
    config: AssignmentConfig = HEURISTIC_ITERATIVE,
    stats: Optional[AssignmentStats] = None,
) -> Optional[AnnotatedDdg]:
    """Run one assignment attempt at candidate ``ii``.

    For a unified machine the assignment is trivial (everything on the
    single cluster, no copies).  For clustered machines, returns the
    annotated graph or None when no valid assignment was found at this II.
    """
    if len(ddg) == 0:
        raise ValueError("cannot assign an empty graph")
    if stats is None:
        stats = AssignmentStats(ii=ii)
    if machine.is_unified:
        stats.succeeded = True
        return trivial_annotation(ddg, machine)
    with obs_span("assign", ii=ii) as assign_span:
        assigner = _Assigner(ddg, machine, ii, config, stats)
        annotated = assigner.run()
        assign_span.note(
            succeeded=annotated is not None,
            placements=stats.placements,
            evictions=stats.evictions,
            copies=stats.copies,
        )
    return annotated
