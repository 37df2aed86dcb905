"""Counting modulo reservation tables for the assignment phase.

During cluster assignment operations are not yet placed in specific
cycles; what matters is whether the modulo-scheduled kernel of length II
*can* hold them.  Since every operation occupies exactly one slot of each
resource it uses (units are fully pipelined, copies take one cycle), an
MRT of length II with ``k`` units per cycle is, for assignment purposes, a
pool of ``k * II`` slots (this is exactly how the paper's Figures 7–8
treat the MRTs: as boxes filled by ops, without cycle positions).

:class:`ResourcePools` tracks one such pool per machine resource key and
supports transactional use: the assignment algorithm marks the pools,
tentatively applies an assignment, records the outcome, and rolls back.

Storage is int-indexed.  Every resource key of a machine gets a dense
index, fixed once per machine (:class:`PoolLayout`); the pools hold flat
``used`` and ``capacity`` lists over those indices, and only the capacity
list depends on II.  The assigner's hot path never touches a key:

* :meth:`ResourcePools.compile_demand` turns a key multiset into a
  :data:`Demand` — ``(index, count)`` pairs in first-occurrence order —
  once, and :meth:`~ResourcePools.fits` / :meth:`~ResourcePools.take` /
  :meth:`~ResourcePools.give` work on it with list indexing only.
  ``PoolLayout.op_demands`` pre-compiles every opcode's issue-slot
  demand per cluster, ``PoolLayout.copy_hops`` every copy hop's demand
  the scheduler meets, and ``PoolLayout.copy_plans`` holds the copy-plan
  shapes :class:`repro.core.copies.RoutingState` compiles.  The
  scheduler's :class:`repro.mrt.table.ModuloReservationTable` indexes
  its rows with the same layout and demands.
* :meth:`~ResourcePools.mark` / :meth:`~ResourcePools.rollback` snapshot
  and restore the usage counters as one list slice.
* The cluster-level summaries of the selection heuristic sum over
  per-cluster index tuples (issue; local = issue + read/write ports;
  channels).

The key-based methods (``capacity``, ``used``, ``free``, ``can_reserve``,
``reserve``, ``release``, ``checkpoint``/``restore`` with dict snapshots)
are the public face over the same arrays.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..ddg.opcodes import Opcode
from ..machine.machine import Machine, ResourceKey

#: A compiled resource demand: ``(pool index, slots)`` pairs, one per
#: distinct key, in the keys' first-occurrence order.
Demand = Tuple[Tuple[int, int], ...]


class PoolOverflowError(RuntimeError):
    """Raised when a reservation would exceed a pool's capacity.

    The assigner raises and catches tens of thousands of these per run,
    so the message is only formatted when someone asks for it.
    """

    def __init__(self, key: ResourceKey, capacity: int) -> None:
        super().__init__(key, capacity)
        self.key = key
        self.capacity = capacity

    def __str__(self) -> str:
        return (
            f"resource pool {self.key!r} exhausted "
            f"(capacity {self.capacity})"
        )


class PoolLayout:
    """The II-invariant shape of one machine's pools.

    Maps every resource key to a dense index and precomputes the
    per-cluster index tuples the selection summaries sum over, and every
    opcode's compiled issue-slot demand per cluster.  Built once per
    machine by :meth:`of`.

    ``copy_plans`` holds the machine's copy-plan shapes with their
    compiled demands, filled on demand by
    :class:`repro.core.copies.RoutingState`: ``share_broadcast`` ->
    ``(producer cluster, needed-cluster bitmask)`` -> entry.
    ``copy_hops`` maps ``(source cluster, target clusters)`` to one copy
    hop's compiled demand, filled on demand by :meth:`copy_hop_demand`.
    """

    __slots__ = (
        "keys", "index", "per_cycle", "issue", "local",
        "channel", "read_port", "op_demands", "copy_plans", "copy_hops",
    )

    def __init__(self, machine: Machine) -> None:
        capacities = machine.resource_capacities()
        self.keys: Tuple[ResourceKey, ...] = tuple(capacities)
        self.index: Dict[ResourceKey, int] = {
            key: i for i, key in enumerate(self.keys)
        }
        self.per_cycle: Tuple[int, ...] = tuple(capacities.values())
        unified = machine.is_unified
        clusters = machine.cluster_indices
        self.issue: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                i for i, key in enumerate(self.keys)
                if isinstance(key, tuple)
                and len(key) == 3
                and key[0] == "issue"
                and key[1] == cluster_index
            )
            for cluster_index in clusters
        )
        self.read_port: Tuple[Optional[int], ...] = tuple(
            None if unified
            else self.index[machine.read_port_key(c)]
            for c in clusters
        )
        self.local: Tuple[Tuple[int, ...], ...] = tuple(
            self.issue[c] if unified else self.issue[c] + (
                self.read_port[c], self.index[machine.write_port_key(c)],
            )
            for c in clusters
        )
        channel_keys = list(machine.interconnect.channel_resources())
        self.channel: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                self.index[key] for key in channel_keys
                if key == "bus"
                or (
                    isinstance(key, tuple)
                    and key[0] == "link"
                    and cluster_index in key[1:]
                )
            )
            for cluster_index in clusters
        )
        self.op_demands: Dict[Opcode, Tuple[Optional[Demand], ...]] = {}
        for opcode in Opcode:
            per_cluster: List[Optional[Demand]] = []
            for c in clusters:
                try:
                    keys = machine.op_resources(opcode, c)
                except ValueError:
                    per_cluster.append(None)
                else:
                    per_cluster.append(self.compile(keys))
            self.op_demands[opcode] = tuple(per_cluster)
        self.copy_plans: Dict[bool, Dict[Tuple[int, int], Any]] = {}
        self.copy_hops: Dict[Tuple[int, Tuple[int, ...]], Demand] = {}

    def compile(self, keys: Iterable[ResourceKey]) -> Demand:
        """The :data:`Demand` of a key multiset (``KeyError`` on an
        unknown key)."""
        index = self.index
        counts: Dict[int, int] = {}
        for key in keys:
            i = index.get(key)
            if i is None:
                raise KeyError(f"unknown resource key {key!r}")
            counts[i] = counts.get(i, 0) + 1
        return tuple(counts.items())

    def copy_hop_demand(
        self, machine: Machine, src: int, targets: Tuple[int, ...]
    ) -> Demand:
        """Compiled demand of one copy from ``src`` to ``targets`` on
        ``machine`` (this layout's machine), memoized; raises like
        :meth:`Machine.copy_hop_resources` for an impossible hop."""
        key = (src, targets)
        demand = self.copy_hops.get(key)
        if demand is None:
            demand = self.compile(
                machine.copy_hop_resources(src, list(targets))
            )
            self.copy_hops[key] = demand
        return demand

    @classmethod
    def of(cls, machine: Machine) -> "PoolLayout":
        """The layout of ``machine``, built on first use.

        Memoized by object identity for the machine's lifetime
        (machines are frozen but not hashable).
        """
        key = id(machine)
        entry = _LAYOUTS.get(key)
        if entry is not None and entry[0]() is machine:
            return entry[1]
        layout = cls(machine)
        _LAYOUTS[key] = (
            weakref.ref(machine, lambda _ref: _LAYOUTS.pop(key, None)),
            layout,
        )
        return layout


#: id(machine) -> (weak reference to the machine, its layout).
_LAYOUTS: Dict[int, Tuple["weakref.ref[Machine]", PoolLayout]] = {}


class ResourcePools:
    """Per-resource slot counters of an assignment-phase MRT of length II."""

    def __init__(self, machine: Machine, ii: int) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.machine = machine
        self.ii = ii
        self.layout = layout = PoolLayout.of(machine)
        self._index = layout.index
        self._keys = layout.keys
        self._capacity: List[int] = [n * ii for n in layout.per_cycle]
        self._used: List[int] = [0] * len(layout.keys)

    # ------------------------------------------------------------------
    # Key-based queries
    # ------------------------------------------------------------------
    def capacity(self, key: ResourceKey) -> int:
        """Total slots of ``key`` over the whole kernel (per-cycle × II)."""
        return self._capacity[self._index[key]]

    def used(self, key: ResourceKey) -> int:
        """Slots of ``key`` currently reserved."""
        return self._used[self._index[key]]

    def free(self, key: ResourceKey) -> int:
        """Slots of ``key`` still available."""
        i = self._index[key]
        return self._capacity[i] - self._used[i]

    def keys(self) -> List[ResourceKey]:
        """All pool keys."""
        return list(self._keys)

    def can_reserve(self, keys: Iterable[ResourceKey]) -> bool:
        """True when one slot of each key in ``keys`` is available.

        ``keys`` may repeat a key; repetitions demand multiple slots.
        """
        return self.fits(self.compile_demand(keys))

    # ------------------------------------------------------------------
    # Key-based mutation
    # ------------------------------------------------------------------
    def reserve(self, keys: Iterable[ResourceKey]) -> None:
        """Reserve one slot per key; raises and leaves state unchanged on
        overflow."""
        self.take(self.compile_demand(keys))

    def release(self, keys: Iterable[ResourceKey]) -> None:
        """Release one slot per key (must have been reserved)."""
        index = self._index
        used = self._used
        for key in keys:
            i = index[key]
            if used[i] <= 0:
                raise ValueError(f"releasing unreserved resource {key!r}")
            used[i] -= 1

    def checkpoint(self) -> Dict[ResourceKey, int]:
        """Snapshot the current usage counters, by key."""
        return dict(zip(self._keys, self._used))

    def restore(self, snapshot: Dict[ResourceKey, int]) -> None:
        """Roll usage counters back to a :meth:`checkpoint` snapshot."""
        self._used[:] = [snapshot[key] for key in self._keys]

    # ------------------------------------------------------------------
    # Compiled demands (the assigner's hot path)
    # ------------------------------------------------------------------
    def compile_demand(self, keys: Iterable[ResourceKey]) -> Demand:
        """Pre-resolve a key multiset for :meth:`fits`/:meth:`take`/
        :meth:`give`; valid for every pool of this machine."""
        return self.layout.compile(keys)

    def fits(self, demand: Demand) -> bool:
        """True when ``demand`` can be taken."""
        used = self._used
        capacity = self._capacity
        for i, n in demand:
            if used[i] + n > capacity[i]:
                return False
        return True

    def take(self, demand: Demand) -> None:
        """Reserve ``demand``; raises :class:`PoolOverflowError` and
        leaves state unchanged when it does not fit."""
        if self.try_take(demand):
            return
        used = self._used
        capacity = self._capacity
        i = next(i for i, n in demand if used[i] + n > capacity[i])
        if used[i] < capacity[i]:
            # Overflow by repetition only: like reserve, report the
            # first key that is already full, if any (no earlier key
            # is: each passed its own check).
            i = next((j for j, _ in demand if used[j] >= capacity[j]), i)
        raise PoolOverflowError(self._keys[i], capacity[i])

    def try_take(self, demand: Demand) -> bool:
        """:meth:`take` without the exception: False (state unchanged)
        when ``demand`` does not fit."""
        used = self._used
        capacity = self._capacity
        for i, n in demand:
            if used[i] + n > capacity[i]:
                return False
        for i, n in demand:
            used[i] += n
        return True

    def give(self, demand: Demand) -> None:
        """Release a previously taken ``demand``."""
        used = self._used
        for i, n in demand:
            if used[i] < n:
                raise ValueError(
                    f"releasing unreserved resource {self._keys[i]!r}"
                )
            used[i] -= n

    def mark(self) -> List[int]:
        """Cheap rollback point: a copy of the usage counters."""
        return self._used[:]

    def rollback(self, mark: List[int]) -> None:
        """Restore the usage counters saved by :meth:`mark`."""
        self._used[:] = mark

    # ------------------------------------------------------------------
    # Cluster-level summaries used by the selection heuristic
    # ------------------------------------------------------------------
    def _free_of(self, indices: Tuple[int, ...]) -> int:
        """Free slots summed over pool ``indices``."""
        capacity = self._capacity
        used = self._used
        free = 0
        for i in indices:
            free += capacity[i] - used[i]
        return free

    def free_issue_slots(self, cluster_index: int) -> int:
        """Free function-unit slots on one cluster (all classes pooled)."""
        return self._free_of(self.layout.issue[cluster_index])

    def free_cluster_slots(self, cluster_index: int) -> int:
        """Free slots of every pool local to one cluster (issue + ports).

        This is the "free resources on the cluster" quantity maximized by
        the last selection of the paper's Figure 10.
        """
        return self._free_of(self.layout.local[cluster_index])

    def free_channel_slots_from(self, cluster_index: int) -> int:
        """Free channel slots usable by copies leaving ``cluster_index``.

        For buses this is the free bus slots; for point-to-point fabrics it
        is the sum of free slots on links incident to the cluster.
        """
        return self._free_of(self.layout.channel[cluster_index])

    def max_reservable_copies(self, cluster_index: int) -> int:
        """MRC_C — room for additional copies out of cluster C.

        A copy out of C consumes one of C's read ports and one channel
        slot, so the room is the smaller of the two (target-side write
        ports are not charged: the targets are unknown at prediction
        time, exactly as in the paper's definition of MRC).
        """
        rd = self.layout.read_port[cluster_index]
        if rd is None:
            return 0
        read_free = self._capacity[rd] - self._used[rd]
        channel_free = self._free_of(self.layout.channel[cluster_index])
        return read_free if read_free < channel_free else channel_free

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        used = sum(self._used)
        cap = sum(self._capacity)
        return f"ResourcePools(ii={self.ii}, used={used}/{cap})"
