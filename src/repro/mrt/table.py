"""Time-indexed modulo reservation table for the scheduling phase.

The scheduler places operation ``op`` at absolute cycle ``t``; in the
software-pipelined kernel it occupies its resources in row ``t mod II``.
The table tracks, per resource and row, which operations hold slots,
which lets the iterative scheduler both test availability and identify the
holders it must displace when forcing a placement (Rau's iterative modulo
scheduling).

Storage is int-indexed on the machine's :class:`~repro.mrt.pool.PoolLayout`
(the dense key indices the assignment phase's pools use): every
(resource index, row) pair is one flat slot ``index * II + row``, and
occupancy is kept twice over those slots, on purpose:

* integer counters (``_usage``), which make availability probes a few
  integer compares — the scheduler probes up to II cycles per placement,
  so this is the hottest query in the pipeline;
* holder lists (``_holders``), consulted only by :meth:`conflicting` and
  :meth:`remove` to identify displacement victims.

The hot path works on compiled :data:`~repro.mrt.pool.Demand` tuples —
``PoolLayout.op_demands`` and ``PoolLayout.copy_hop_demand`` hand them
out pre-built — through :meth:`probe`, :meth:`conflicting`,
:meth:`place_demand` and :meth:`remove`.  The key-based methods
(:meth:`compile_demand`, :meth:`available`, :meth:`conflicting_ops`,
:meth:`place`) are a thin face over the same arrays for the lint rebuild,
the validator and tests.
"""

from __future__ import annotations

import os
from typing import Dict, Hashable, Iterable, List, Set, Tuple

from ..machine.machine import Machine, ResourceKey
from .pool import Demand, PoolLayout

OpId = Hashable

#: Debug flag: force full availability re-validation inside every
#: placement even when the caller opted out (``check=False``).
_FORCE_VALIDATE = bool(os.environ.get("REPRO_MRT_VALIDATE"))


class ModuloReservationTable:
    """Per-cycle-row resource occupancy of a kernel of length II."""

    def __init__(self, machine: Machine, ii: int) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.machine = machine
        self.ii = ii
        self.layout = layout = PoolLayout.of(machine)
        self._keys = layout.keys
        # Per-row capacity of each resource index.
        self._capacity = layout.per_cycle
        slots = len(layout.keys) * ii
        # Flat slot index * II + row -> occupancy counter / holder list.
        self._usage: List[int] = [0] * slots
        self._holders: List[List[OpId]] = [[] for _ in range(slots)]
        # op id -> (its compiled demand, its row).
        self._held: Dict[OpId, Tuple[Demand, int]] = {}

    def row(self, cycle: int) -> int:
        """Kernel row of an absolute cycle."""
        return cycle % self.ii

    # ------------------------------------------------------------------
    # Compiled demands (the scheduler's hot path)
    # ------------------------------------------------------------------
    def probe(self, demand: Demand, cycle: int) -> bool:
        """True when ``demand`` fits in ``cycle``'s row."""
        ii = self.ii
        row = cycle % ii
        usage = self._usage
        capacity = self._capacity
        for i, n in demand:
            if usage[i * ii + row] + n > capacity[i]:
                return False
        return True

    def conflicting(self, demand: Demand, cycle: int) -> Set[OpId]:
        """Operations holding the slots ``demand`` needs at ``cycle``.

        Used by forced placement: displacing all of them guarantees the
        reservation will fit (each resource's full row occupancy is
        returned when the row is saturated for that resource).
        """
        ii = self.ii
        row = cycle % ii
        holders = self._holders
        capacity = self._capacity
        conflicting: Set[OpId] = set()
        for i, n in demand:
            held = holders[i * ii + row]
            if len(held) + n > capacity[i]:
                conflicting.update(held)
        return conflicting

    def place_demand(
        self, op_id: OpId, demand: Demand, cycle: int, check: bool = True
    ) -> None:
        """Reserve ``demand`` at ``cycle`` for ``op_id``.

        ``check=False`` skips the availability re-validation for callers
        that already probed (the scheduler displaces every conflicting op
        before placing, so the fit is guaranteed); set the
        ``REPRO_MRT_VALIDATE`` environment variable to force validation
        everywhere when debugging.  The independent schedule validator
        (:mod:`repro.scheduling.verify`) re-checks capacities regardless.
        """
        if op_id in self._held:
            raise ValueError(f"operation {op_id!r} is already placed")
        if (check or _FORCE_VALIDATE) and not self.probe(demand, cycle):
            raise RuntimeError(
                f"resources for {op_id!r} unavailable at cycle {cycle}"
            )
        ii = self.ii
        row = cycle % ii
        usage = self._usage
        holders = self._holders
        for i, n in demand:
            slot = i * ii + row
            usage[slot] += n
            if n == 1:
                holders[slot].append(op_id)
            else:
                holders[slot].extend([op_id] * n)
        self._held[op_id] = (demand, row)

    def remove(self, op_id: OpId) -> None:
        """Release every slot held by ``op_id``."""
        entry = self._held.pop(op_id, None)
        if entry is None:
            raise ValueError(f"operation {op_id!r} is not placed")
        demand, row = entry
        ii = self.ii
        usage = self._usage
        holders = self._holders
        for i, n in demand:
            slot = i * ii + row
            usage[slot] -= n
            held = holders[slot]
            for _ in range(n):
                held.remove(op_id)

    # ------------------------------------------------------------------
    # Key-based face
    # ------------------------------------------------------------------
    def compile_demand(self, keys: Iterable[ResourceKey]) -> Demand:
        """Pre-resolve a resource key multiset for :meth:`probe`,
        :meth:`conflicting` and :meth:`place_demand` (``KeyError`` on an
        unknown key); valid for every table of this machine."""
        return self.layout.compile(keys)

    def available(self, keys: Iterable[ResourceKey], cycle: int) -> bool:
        """True when one slot of every key is free in ``cycle``'s row."""
        return self.probe(self.compile_demand(keys), cycle)

    def conflicting_ops(
        self, keys: Iterable[ResourceKey], cycle: int
    ) -> Set[OpId]:
        """:meth:`conflicting` for a resource key multiset."""
        return self.conflicting(self.compile_demand(keys), cycle)

    def place(
        self,
        op_id: OpId,
        keys: Iterable[ResourceKey],
        cycle: int,
        check: bool = True,
    ) -> None:
        """Reserve one slot of each key at ``cycle`` for ``op_id`` (see
        :meth:`place_demand`)."""
        if op_id in self._held:
            raise ValueError(f"operation {op_id!r} is already placed")
        self.place_demand(op_id, self.compile_demand(keys), cycle, check)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_placed(self, op_id: OpId) -> bool:
        """True when ``op_id`` currently holds slots."""
        return op_id in self._held

    def placed_ops(self) -> List[OpId]:
        """All operations currently holding slots."""
        return list(self._held)

    def used(self, key: ResourceKey, row: int) -> int:
        """Slots of ``key`` held in kernel ``row``."""
        return self._usage[self.layout.index[key] * self.ii + row]

    def holders(self, key: ResourceKey, row: int) -> List[OpId]:
        """Operations holding ``key`` in kernel ``row``, in placement
        order (an op appears once per slot it holds)."""
        return list(self._holders[self.layout.index[key] * self.ii + row])

    def oversubscriptions(
        self,
    ) -> List[Tuple[ResourceKey, int, int, int]]:
        """Rows whose counter-based occupancy exceeds capacity.

        Returns ``(key, row, used, capacity)`` tuples sorted by key
        string then row.  Normal scheduling never oversubscribes (every
        placement probes first); the independent validator rebuilds a
        table with ``check=False`` placements and reads this off.
        """
        ii = self.ii
        usage = self._usage
        over: List[Tuple[ResourceKey, int, int, int]] = []
        for i, capacity in enumerate(self._capacity):
            base = i * ii
            for row in range(ii):
                used = usage[base + row]
                if used > capacity:
                    over.append((self._keys[i], row, used, capacity))
        over.sort(key=lambda item: (str(item[0]), item[1]))
        return over

    def consistency_errors(self) -> List[str]:
        """Disagreements between the two occupancy books.

        Occupancy is tracked twice — integer counters (``_usage``, the
        probe fast path) and holder lists (``_holders``, the
        displacement/validation path that ``REPRO_MRT_VALIDATE``
        re-walks).  They must agree at all times; a divergence means a
        placement/removal bug.  Returns human-readable descriptions,
        empty when consistent.
        """
        usage = self._usage
        holders = self._holders
        if all(
            counted == len(held) for counted, held in zip(usage, holders)
        ):
            return []
        ii = self.ii
        keys = self._keys
        problems: List[str] = []
        # Ordered as the former key -> row-counters dict sorted by str.
        for i in sorted(
            range(len(keys)),
            key=lambda i: str((keys[i], usage[i * ii:(i + 1) * ii])),
        ):
            for row in range(ii):
                counted = usage[i * ii + row]
                held = len(holders[i * ii + row])
                if counted != held:
                    problems.append(
                        f"resource {keys[i]!r} row {row}: counter says "
                        f"{counted}, holder list says {held}"
                    )
        return problems

    def utilization(self) -> Dict[ResourceKey, float]:
        """Fraction of each resource's kernel slots in use."""
        ii = self.ii
        usage = self._usage
        return {
            key: sum(usage[i * ii:(i + 1) * ii]) / (capacity * ii)
            for i, (key, capacity) in enumerate(
                zip(self._keys, self._capacity)
            )
            if capacity > 0
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModuloReservationTable(ii={self.ii}, "
            f"placed={len(self._held)})"
        )
