"""Copy planning: which copy operations a partial assignment implies.

A *required copy* (paper Section 4.2) exists whenever a value producer and
one of its consumers sit on different clusters.  This module turns the
question "which copies does producer ``p`` need right now?" into a pure
function of ``(machine, producer cluster, clusters that need the value)``:

* on a **bused** machine the answer is a single broadcast copy delivering
  to every needing cluster (the result of an operation is communicated at
  most once — paper Section 4.2's ``UpperBound`` rationale);
* on a **point-to-point** machine it is one copy per directed hop of the
  union of shortest routes from the producer's cluster to every needing
  cluster, emitted in breadth-first order so each hop's source cluster is
  already reached.

:class:`RoutingState` keeps these plans current while the assignment
algorithm assigns, evicts, and re-assigns nodes, reserving and releasing
the copies' port/bus/link slots in the shared :class:`ResourcePools`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..ddg.graph import Ddg
from ..machine.machine import Machine, ResourceKey
from ..mrt.pool import Demand, PoolOverflowError, ResourcePools
from ..obs.trace import count as obs_count


class CopyRoutingError(RuntimeError):
    """A value cannot be routed between two clusters on this fabric.

    Raised by copy planning when the interconnect has no path (e.g. a
    partitioned point-to-point topology).  The assignment algorithm
    treats it like a resource shortage: the candidate is infeasible, and
    eviction of the unreachable consumer repairs forced placements.
    """


@dataclass(frozen=True)
class CopySpec:
    """One copy operation: read on ``src_cluster``, write on ``targets``."""

    src_cluster: int
    targets: Tuple[int, ...]


@dataclass(frozen=True)
class CopyPlan:
    """All copies one producer currently requires, in dependence order."""

    producer: int
    specs: Tuple[CopySpec, ...]
    resources: Tuple[ResourceKey, ...]

    @property
    def copy_count(self) -> int:
        """Number of copy operations (the paper's RC of the producer)."""
        return len(self.specs)


def plan_copies(
    machine: Machine,
    producer: int,
    producer_cluster: int,
    needed_clusters: Set[int],
    share_broadcast: bool = True,
) -> CopyPlan:
    """Compute the copy plan moving ``producer``'s value where needed.

    ``share_broadcast=False`` is an ablation knob: on bused machines it
    emits one copy per target cluster instead of a single broadcast.
    """
    needed = {c for c in needed_clusters if c != producer_cluster}
    if not needed:
        return CopyPlan(producer=producer, specs=(), resources=())
    if machine.interconnect.broadcast:
        if share_broadcast:
            target_groups = [tuple(sorted(needed))]
        else:
            target_groups = [(target,) for target in sorted(needed)]
        specs = tuple(
            CopySpec(src_cluster=producer_cluster, targets=targets)
            for targets in target_groups
        )
        return CopyPlan(
            producer=producer,
            specs=specs,
            resources=_spec_resources(machine, specs),
        )

    # Point-to-point: union of shortest routes, hop copies in BFS order.
    hop_edges: List[Tuple[int, int]] = []
    for target in sorted(needed):
        try:
            route = machine.copy_route(producer_cluster, target)
        except ValueError as exc:
            obs_count("copies.routing_errors")
            raise CopyRoutingError(str(exc)) from exc
        for a, b in zip(route, route[1:]):
            if (a, b) not in hop_edges:
                hop_edges.append((a, b))
    ordered: List[Tuple[int, int]] = []
    reached = {producer_cluster}
    remaining = list(hop_edges)
    while remaining:
        progressed = False
        for hop in list(remaining):
            if hop[0] in reached:
                ordered.append(hop)
                reached.add(hop[1])
                remaining.remove(hop)
                progressed = True
        if not progressed:  # pragma: no cover - routes start at producer
            raise RuntimeError(f"disconnected copy route {remaining}")
    specs = tuple(CopySpec(src_cluster=a, targets=(b,)) for a, b in ordered)
    return CopyPlan(
        producer=producer,
        specs=specs,
        resources=_spec_resources(machine, specs),
    )


def _spec_resources(
    machine: Machine, specs: Tuple[CopySpec, ...]
) -> Tuple[ResourceKey, ...]:
    """Pools the copies ``specs`` consume, hop by hop."""
    resources: List[ResourceKey] = []
    for spec in specs:
        resources.extend(
            machine.copy_hop_resources(spec.src_cluster, list(spec.targets))
        )
    return tuple(resources)


#: One producer's live plan inside :class:`RoutingState`: its copy specs
#: and their compiled pool demand.
PlanEntry = Tuple[Tuple[CopySpec, ...], Demand]


class RoutingState:
    """Live copy plans + cluster map during assignment.

    All pool reservations for copies are owned here; the caller owns the
    reservations for the operations' own issue slots.

    Plans are held as :data:`PlanEntry` pairs — specs plus their compiled
    pool demand — shared through a cache keyed by ``(producer cluster,
    needed-cluster bitmask)``: a plan's shape is independent of the
    producer's identity, and the same few cluster patterns recur
    throughout an assignment run's tentative/evict/replan churn.
    :meth:`plans` re-expands them into :class:`CopyPlan` objects with
    resource keys.
    """

    def __init__(
        self,
        ddg: Ddg,
        machine: Machine,
        pools: ResourcePools,
        share_broadcast: bool = True,
    ) -> None:
        self.ddg = ddg
        self.machine = machine
        self.pools = pools
        self.share_broadcast = share_broadcast
        self.cluster_of: Dict[int, int] = {}
        self._plans: Dict[int, PlanEntry] = {}
        self._total_copies = 0
        # Value-edge adjacency — producer -> consumers and consumer ->
        # producers over register (value) edges only, excluding
        # self-dependences (which never cross clusters).  Taken from the
        # compiled DDG view: the driver re-runs assignment at every
        # candidate II, and this fan-out is II-invariant.  The tuples are
        # shared and read-only.
        view = ddg.view()
        self._produces_value = view.produces_value
        self._value_consumers = view.value_consumers
        self._value_producers = view.value_producers
        # Node -> producers whose plan may change when the node
        # (re)moves: itself when it writes a value, then its value
        # producers (which never include the node itself).
        self._affected: Dict[int, Tuple[int, ...]] = {
            node_id: ((node_id,) if produces else ())
            + view.value_producers[node_id]
            for node_id, produces in view.produces_value.items()
        }
        # (producer cluster, needed-cluster bitmask) -> plan entry,
        # shared by every attempt on this machine (entries hold compiled
        # demands, valid for any II).  Only non-empty, successful plans
        # are cached (a CopyRoutingError must re-raise on every attempt).
        self._plan_cache: Dict[Tuple[int, int], PlanEntry] = (
            pools.layout.copy_plans.setdefault(share_broadcast, {})
        )

    # ------------------------------------------------------------------
    # Value-flow queries
    # ------------------------------------------------------------------
    def produces_value(self, node_id: int) -> bool:
        """True when ``node_id`` writes a register result."""
        return self._produces_value[node_id]

    def value_consumers(self, producer: int) -> List[int]:
        """Distinct nodes consuming ``producer``'s register value."""
        return list(self._value_consumers[producer])

    def value_producers(self, consumer: int) -> List[int]:
        """Distinct nodes whose register value ``consumer`` reads."""
        return list(self._value_producers[consumer])

    def unassigned_value_consumers(self, producer: int) -> int:
        """The paper's ``UnassignedSuccessors(N_i)`` term."""
        return sum(
            1
            for consumer in self._value_consumers[producer]
            if consumer not in self.cluster_of
        )

    def needed_clusters(self, producer: int) -> Set[int]:
        """Clusters (other than the producer's) that need the value now."""
        home = self.cluster_of.get(producer)
        if home is None:
            return set()
        return {
            self.cluster_of[c]
            for c in self._value_consumers[producer]
            if c in self.cluster_of and self.cluster_of[c] != home
        }

    def required_copies(self, producer: int) -> int:
        """RC(producer): copies the current assignment forces on it."""
        entry = self._plans.get(producer)
        return 0 if entry is None else len(entry[0])

    def total_copies(self) -> int:
        """Total copy operations implied by the current assignment."""
        return self._total_copies

    def plans(self) -> Dict[int, CopyPlan]:
        """Producer -> current plan (only producers with copies)."""
        return {
            producer: CopyPlan(
                producer=producer,
                specs=specs,
                resources=_spec_resources(self.machine, specs),
            )
            for producer, (specs, _) in self._plans.items()
        }

    # ------------------------------------------------------------------
    # Replanning
    # ------------------------------------------------------------------
    def affected_producers(self, node_id: int) -> List[int]:
        """Producers whose plan may change when ``node_id`` (re)moves."""
        return list(self._affected[node_id])

    def _plan_entry(self, home: int, needed: int) -> PlanEntry:
        """The cached plan entry for ``(home, needed)``, planned and
        compiled on a miss (raises :class:`CopyRoutingError`)."""
        key = (home, needed)
        entry = self._plan_cache.get(key)
        if entry is None:
            # The entry is shared by every producer with this shape, so
            # the template's producer id is a placeholder.
            template = plan_copies(
                self.machine,
                -1,
                home,
                {c for c in range(needed.bit_length()) if needed >> c & 1},
                share_broadcast=self.share_broadcast,
            )
            entry = (
                template.specs,
                self.pools.compile_demand(template.resources),
            )
            self._plan_cache[key] = entry
        return entry

    def replan(self, producer: int) -> None:
        """Recompute ``producer``'s plan; raises on resource shortage.

        The needed clusters are gathered into a bitmask with integer ors;
        together with the producer's cluster it keys the plan cache, and
        the cached entry's compiled demand is taken from the pools
        without touching a resource key.  When the cache returns the
        producer's current entry the plan is unchanged and its slots stay
        taken (releasing and re-taking them would always succeed).

        On :class:`PoolOverflowError` the producer's old reservation has
        already been released and its plan dropped — callers evict nodes
        and call :meth:`replan` again (tentative placements use
        :meth:`probe` instead).
        """
        obs_count("copies.replans")
        plans = self._plans
        old = plans.pop(producer, None)
        cluster_at = self.cluster_of.get
        home = cluster_at(producer)
        needed = 0
        if home is not None:
            for consumer in self._value_consumers[producer]:
                cluster = cluster_at(consumer, home)
                if cluster != home:
                    needed |= 1 << cluster
        if needed and old is not None and (
            self._plan_cache.get((home, needed)) is old
        ):
            # Same plan as before: its slots stay taken.
            plans[producer] = old
            return
        if old is not None:
            self._total_copies -= len(old[0])
            self.pools.give(old[1])
        if not needed:
            return
        entry = self._plan_entry(home, needed)
        try:
            self.pools.take(entry[1])
        except PoolOverflowError:
            obs_count("copies.replan_failures")
            raise
        plans[producer] = entry
        self._total_copies += len(entry[0])

    def probe(
        self, node_id: int, cluster: int, stop_at_failure: bool
    ) -> Tuple[int, int, Dict[int, Optional[PlanEntry]]]:
        """Apply to the pools what :meth:`replan` would do to every
        affected producer if ``node_id`` (unassigned) were on
        ``cluster``, without touching the cluster map or the plans.

        The caller brackets the call with the pools' ``mark`` /
        ``rollback``.  Producers are visited in :meth:`replan` order with
        the same ``give``/``take`` sequence (and the same counters), so
        feasibility and overflow behaviour match a real
        assign-and-replan bit for bit; ``stop_at_failure`` ends the walk
        at the first producer whose plan does not fit or route.

        Returns ``(failures, copy delta, tentative plans)``: the number
        of producers that failed, the change in total copies (meaningful
        only without failures), and producer -> tentative entry (None:
        no plan) for each producer whose plan changed.
        """
        plans = self._plans
        plan_cache = self._plan_cache
        consumers_of = self._value_consumers
        cluster_at = self.cluster_of.get
        pools = self.pools
        failures = 0
        delta = 0
        tentative: Dict[int, Optional[PlanEntry]] = {}
        probed = 0
        for producer in self._affected[node_id]:
            probed += 1
            old = plans.get(producer)
            home = cluster if producer == node_id else cluster_at(producer)
            needed = 0
            if home is not None:
                for consumer in consumers_of[producer]:
                    at = cluster if consumer == node_id else cluster_at(
                        consumer, home
                    )
                    if at != home:
                        needed |= 1 << at
            entry = None
            if needed:
                entry = plan_cache.get((home, needed))
                if entry is not None and entry is old:
                    continue  # unchanged plan, slots stay taken
            if old is not None:
                delta -= len(old[0])
                pools.give(old[1])
            tentative[producer] = None
            if not needed:
                continue
            if entry is None:
                try:
                    entry = self._plan_entry(home, needed)
                except CopyRoutingError:
                    entry = None
            if entry is not None:
                if pools.try_take(entry[1]):
                    tentative[producer] = entry
                    delta += len(entry[0])
                    continue
                obs_count("copies.replan_failures")
            failures += 1
            if stop_at_failure:
                break
        obs_count("copies.replans", probed)
        return failures, delta, tentative

    def assign_unplanned(self, node_id: int, cluster: int) -> None:
        """Record an assignment *without* replanning any copies.

        Used by forced placement and conflict counting, which replan the
        affected producers one at a time so failures can be attributed to
        individual predecessor/successor relationships.
        """
        if node_id in self.cluster_of:
            raise ValueError(f"node {node_id} is already assigned")
        self.cluster_of[node_id] = cluster

    def set_cluster(self, node_id: int, cluster: int) -> None:
        """Assign ``node_id`` to ``cluster`` and replan affected copies.

        The caller must have reserved the node's own issue slot already.
        Raises :class:`PoolOverflowError` when some required copy does not
        fit; state is then inconsistent and must be repaired by eviction.
        """
        if node_id in self.cluster_of:
            raise ValueError(f"node {node_id} is already assigned")
        self.cluster_of[node_id] = cluster
        for producer in self.affected_producers(node_id):
            self.replan(producer)

    def unassign_unplanned(self, node_id: int) -> None:
        """Drop an assignment *without* replanning any copies.

        The caller must afterwards replan every producer in
        :meth:`affected_producers` (handling overflow by further
        eviction): on point-to-point fabrics a shrunken consumer set can
        reroute a plan onto different links, so even removal may demand
        resources that are not free.
        """
        if node_id not in self.cluster_of:
            raise ValueError(f"node {node_id} is not assigned")
        del self.cluster_of[node_id]
