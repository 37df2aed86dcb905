"""Model-based differential of the int-indexed modulo reservation table.

:class:`ReferenceTable` is the dict-keyed table the scheduler used
before the table moved onto the pools' dense key indices: per-key
row-counter arrays plus ``(key, row)`` -> holder-list dicts.  Random
step sequences drive both tables in lockstep through the compiled-demand
hot path (``probe``, ``conflicting``, ``place_demand``) and the
key-based face (``available``, ``conflicting_ops``, ``place``) plus
``remove``; every step must agree on results and exceptions, and on the
oversubscription and consistency reports afterwards.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mrt.table as table_module
from repro.machine import four_cluster_fs, four_cluster_grid, two_cluster_gp
from repro.mrt import ModuloReservationTable

MACHINES = {
    "2gp": two_cluster_gp(),
    "4fs": four_cluster_fs(),
    "grid": four_cluster_grid(),
}

#: Placements and removals are listed twice so tables fill up.
STEP_KINDS = [
    "place", "place_unchecked", "place_demand", "place_demand_unchecked",
    "remove", "probe", "available", "conflicting", "conflicting_ops",
    "place", "place_unchecked", "place_demand", "place_demand_unchecked",
    "remove",
]


class ReferenceTable:
    """The dict-keyed reservation table (the model)."""

    def __init__(self, machine, ii, force_validate=False):
        self.ii = ii
        self.force_validate = force_validate
        self._capacity = machine.resource_capacities()
        self._slots: Dict[Tuple[object, int], List[object]] = {}
        self._usage = {key: [0] * ii for key in self._capacity}
        self._held: Dict[object, List[Tuple[object, int]]] = {}

    def available(self, keys, cycle):
        row = cycle % self.ii
        demand: Dict[object, int] = {}
        for key in keys:
            demand[key] = demand.get(key, 0) + 1
        return all(
            self._usage[key][row] + count <= self._capacity[key]
            for key, count in demand.items()
        )

    def conflicting_ops(self, keys, cycle):
        row = cycle % self.ii
        demand: Dict[object, int] = {}
        for key in keys:
            demand[key] = demand.get(key, 0) + 1
        conflicting = set()
        for key, count in demand.items():
            holders = self._slots.get((key, row), [])
            if len(holders) + count > self._capacity[key]:
                conflicting.update(holders)
        return conflicting

    def place(self, op_id, keys, cycle, check=True):
        if op_id in self._held:
            raise ValueError(f"operation {op_id!r} is already placed")
        if (check or self.force_validate) and not self.available(
            keys, cycle
        ):
            raise RuntimeError(
                f"resources for {op_id!r} unavailable at cycle {cycle}"
            )
        row = cycle % self.ii
        held = []
        for key in keys:
            self._slots.setdefault((key, row), []).append(op_id)
            self._usage[key][row] += 1
            held.append((key, row))
        self._held[op_id] = held

    def remove(self, op_id):
        held = self._held.pop(op_id, None)
        if held is None:
            raise ValueError(f"operation {op_id!r} is not placed")
        for key, row in held:
            holders = self._slots[(key, row)]
            holders.remove(op_id)
            if not holders:
                del self._slots[(key, row)]
            self._usage[key][row] -= 1

    def oversubscriptions(self):
        over = []
        for key, usage in self._usage.items():
            for row, used in enumerate(usage):
                if used > self._capacity[key]:
                    over.append((key, row, used, self._capacity[key]))
        over.sort(key=lambda item: (str(item[0]), item[1]))
        return over

    def consistency_errors(self):
        problems = []
        for key, usage in sorted(self._usage.items(), key=str):
            for row, counted in enumerate(usage):
                holders = len(self._slots.get((key, row), []))
                if counted != holders:
                    problems.append(
                        f"resource {key!r} row {row}: counter says "
                        f"{counted}, holder list says {holders}"
                    )
        return problems

    def utilization(self):
        return {
            key: sum(self._usage[key]) / (capacity * self.ii)
            for key, capacity in self._capacity.items()
            if capacity > 0
        }


@st.composite
def mrt_runs(draw):
    """A machine, an II and a step sequence over random multi-key
    demands (repeated keys included) and a handful of op ids."""
    machine_name = draw(st.sampled_from(sorted(MACHINES)))
    ii = draw(st.integers(min_value=1, max_value=4))
    n_keys = len(MACHINES[machine_name].resource_capacities())
    # Drawing from a few keys makes repeats and full rows common.
    span = draw(st.integers(min_value=1, max_value=n_keys))
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(STEP_KINDS),
            st.integers(min_value=0, max_value=5),  # op id
            st.lists(
                st.integers(min_value=0, max_value=span - 1),
                min_size=1, max_size=4,
            ),
            st.integers(min_value=-6, max_value=12),  # cycle
        ),
        min_size=8, max_size=60,
    ))
    return machine_name, ii, steps


def _outcome(call):
    """(result, None) or (None, exception signature)."""
    try:
        return call(), None
    except (ValueError, RuntimeError) as err:
        return None, (type(err).__name__, str(err))


def _step(table, model, kind, op_id, keys, cycle):
    demand = table.compile_demand(keys)
    if kind in ("place", "place_unchecked"):
        check = kind == "place"
        got = _outcome(lambda: table.place(op_id, keys, cycle, check))
        want = _outcome(lambda: model.place(op_id, keys, cycle, check))
    elif kind in ("place_demand", "place_demand_unchecked"):
        check = kind == "place_demand"
        got = _outcome(
            lambda: table.place_demand(op_id, demand, cycle, check)
        )
        want = _outcome(lambda: model.place(op_id, keys, cycle, check))
    elif kind == "remove":
        got = _outcome(lambda: table.remove(op_id))
        want = _outcome(lambda: model.remove(op_id))
    elif kind == "probe":
        got = table.probe(demand, cycle)
        want = model.available(keys, cycle)
    elif kind == "available":
        got = table.available(keys, cycle)
        want = model.available(keys, cycle)
    elif kind == "conflicting":
        got = table.conflicting(demand, cycle)
        want = model.conflicting_ops(keys, cycle)
    else:
        got = table.conflicting_ops(keys, cycle)
        want = model.conflicting_ops(keys, cycle)
    assert got == want, kind


def _assert_same_books(table, model, keys, ii):
    assert table.oversubscriptions() == model.oversubscriptions()
    assert table.consistency_errors() == model.consistency_errors() == []
    assert table.utilization() == model.utilization()
    assert sorted(table.placed_ops()) == sorted(model._held)
    for key in keys:
        for row in range(ii):
            assert table.used(key, row) == model._usage[key][row]
            assert sorted(table.holders(key, row)) == sorted(
                model._slots.get((key, row), [])
            )


class TestTableMatchesReferenceModel:
    @pytest.mark.parametrize("force_validate", [False, True])
    @given(run=mrt_runs())
    @settings(max_examples=120, deadline=None)
    def test_every_step_matches_reference(self, force_validate, run):
        machine_name, ii, steps = run
        machine = MACHINES[machine_name]
        saved = table_module._FORCE_VALIDATE
        table_module._FORCE_VALIDATE = force_validate
        try:
            table = ModuloReservationTable(machine, ii)
            model = ReferenceTable(machine, ii, force_validate)
            keys = list(machine.resource_capacities())
            assert list(table.layout.keys) == keys
            for kind, op_id, key_indices, cycle in steps:
                demand_keys = [keys[i] for i in key_indices]
                _step(table, model, kind, op_id, demand_keys, cycle)
                _assert_same_books(table, model, keys, ii)
        finally:
            table_module._FORCE_VALIDATE = saved

    def test_corrupted_books_reported_like_the_reference(self):
        machine = MACHINES["2gp"]
        table = ModuloReservationTable(machine, 2)
        model = ReferenceTable(machine, 2)
        for target in (table, model):
            target.place("a", ["bus", ("rd", 0)], 1)
            target.place("b", ["bus"], 1)
        # Inflate a counter behind the holder lists' back.
        table._usage[table.layout.index["bus"] * 2 + 1] += 1
        model._usage["bus"][1] += 1
        table._usage[table.layout.index[("wr", 1)] * 2] += 1
        model._usage[("wr", 1)][0] += 1
        assert table.consistency_errors() == model.consistency_errors()
        assert len(table.consistency_errors()) == 2
