"""Property-based tests on resource pool invariants, and a model-based
differential of the int-indexed pools against the frozen dict-based
reference pools."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference_assignment import ReferencePools
from repro.machine import four_cluster_fs, four_cluster_grid, two_cluster_gp
from repro.mrt import PoolOverflowError, ResourcePools


def _keys(pools):
    return sorted(pools.keys(), key=str)


@st.composite
def pool_operations(draw):
    """A sequence of reserve/release/checkpoint operations."""
    ii = draw(st.integers(min_value=1, max_value=6))
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["reserve", "release"]))
        key_index = draw(st.integers(min_value=0, max_value=8))
        ops.append((kind, key_index))
    return ii, ops


class TestPoolInvariants:
    @given(pool_operations())
    @settings(max_examples=80, deadline=None)
    def test_usage_never_exceeds_capacity_or_goes_negative(self, case):
        ii, ops = case
        pools = ResourcePools(two_cluster_gp(), ii=ii)
        keys = _keys(pools)
        for kind, key_index in ops:
            key = keys[key_index % len(keys)]
            if kind == "reserve":
                try:
                    pools.reserve([key])
                except PoolOverflowError:
                    assert pools.free(key) == 0
            else:
                try:
                    pools.release([key])
                except ValueError:
                    assert pools.used(key) == 0
            assert 0 <= pools.used(key) <= pools.capacity(key)

    @given(pool_operations())
    @settings(max_examples=60, deadline=None)
    def test_checkpoint_restore_is_exact(self, case):
        ii, ops = case
        pools = ResourcePools(two_cluster_gp(), ii=ii)
        keys = _keys(pools)
        # Apply the first half, snapshot, apply the rest, restore.
        half = len(ops) // 2
        for kind, key_index in ops[:half]:
            key = keys[key_index % len(keys)]
            try:
                pools.reserve([key]) if kind == "reserve" else (
                    pools.release([key])
                )
            except (PoolOverflowError, ValueError):
                pass
        snapshot = pools.checkpoint()
        expected = {key: pools.used(key) for key in keys}
        for kind, key_index in ops[half:]:
            key = keys[key_index % len(keys)]
            try:
                pools.reserve([key]) if kind == "reserve" else (
                    pools.release([key])
                )
            except (PoolOverflowError, ValueError):
                pass
        pools.restore(snapshot)
        assert {key: pools.used(key) for key in keys} == expected

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_capacity_linear_in_ii(self, ii):
        pools = ResourcePools(two_cluster_gp(), ii=ii)
        assert pools.capacity("bus") == 2 * ii
        assert pools.capacity(("issue", 0, "gp")) == 4 * ii

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_can_reserve_agrees_with_reserve(self, key_indices):
        pools = ResourcePools(two_cluster_gp(), ii=2)
        keys = _keys(pools)
        request = [keys[i % len(keys)] for i in key_indices]
        if not request:
            return
        if pools.can_reserve(request):
            pools.reserve(request)  # must not raise
        else:
            with pytest.raises(PoolOverflowError):
                pools.reserve(request)


#: Enum issue keys (4fs), string issue keys and a bus (2gp), link keys
#: (grid).
MODEL_MACHINES = {
    "2gp": two_cluster_gp(),
    "4fs": four_cluster_fs(),
    "grid": four_cluster_grid(),
}

STEP_KINDS = [
    "reserve", "release", "can_reserve", "take", "fits",
    "checkpoint", "restore", "mark", "rollback",
]


@st.composite
def model_runs(draw):
    """A machine, an II and a sequence of pool steps over random
    multi-key demands (repeated keys included)."""
    machine_name = draw(st.sampled_from(sorted(MODEL_MACHINES)))
    ii = draw(st.integers(min_value=1, max_value=3))
    n_keys = len(MODEL_MACHINES[machine_name].resource_capacities())
    # Drawing from a few keys makes repeats and full pools common.
    span = draw(st.integers(min_value=2, max_value=n_keys))
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(STEP_KINDS),
            st.lists(
                st.integers(min_value=0, max_value=span - 1),
                min_size=1, max_size=5,
            ),
        ),
        min_size=1, max_size=60,
    ))
    return machine_name, ii, steps


def _outcome(call):
    """(result, None) or (None, exception signature)."""
    try:
        return call(), None
    except PoolOverflowError as err:
        return None, ("overflow", err.key, err.capacity, str(err))
    except ValueError as err:
        return None, ("value", str(err))


class TestPoolsMatchReferenceModel:
    @given(model_runs())
    @settings(max_examples=150, deadline=None)
    def test_every_step_matches_reference(self, run):
        machine_name, ii, steps = run
        machine = MODEL_MACHINES[machine_name]
        pools = ResourcePools(machine, ii)
        model = ReferencePools(machine, ii)
        keys = pools.keys()
        assert keys == list(model._capacity)
        snapshots = []
        marks = []
        for kind, key_indices in steps:
            demand_keys = [keys[i] for i in key_indices]
            before = [pools.used(key) for key in keys]
            if kind in ("reserve", "take"):
                if kind == "reserve":
                    got = _outcome(lambda: pools.reserve(demand_keys))
                else:
                    demand = pools.compile_demand(demand_keys)
                    got = _outcome(lambda: pools.take(demand))
                want = _outcome(lambda: model.reserve(demand_keys))
                assert got == want
                if got[1] is not None:  # a failed reserve changes nothing
                    assert [pools.used(key) for key in keys] == before
            elif kind == "release":
                got = _outcome(lambda: pools.release(demand_keys))
                want = _outcome(lambda: model.release(demand_keys))
                assert got == want
            elif kind in ("can_reserve", "fits"):
                if kind == "can_reserve":
                    got = pools.can_reserve(demand_keys)
                else:
                    got = pools.fits(pools.compile_demand(demand_keys))
                assert got == model.can_reserve(demand_keys)
            elif kind == "checkpoint":
                snapshot = pools.checkpoint()
                assert snapshot == model.checkpoint()
                snapshots.append(snapshot)
            elif kind == "restore" and snapshots:
                snapshot = snapshots[-1]
                pools.restore(snapshot)
                model.restore(snapshot)
            elif kind == "mark":
                marks.append((pools.mark(), model.checkpoint()))
            elif kind == "rollback" and marks:
                mark, model_snapshot = marks.pop()
                pools.rollback(mark)
                model.restore(model_snapshot)
                assert pools.checkpoint() == model_snapshot
            assert {key: pools.used(key) for key in keys} == model._used
            for key in keys:
                assert pools.free(key) == model.free(key)
            for cluster in range(machine.n_clusters):
                assert pools.free_cluster_slots(cluster) == (
                    model.free_cluster_slots(cluster)
                )
                assert pools.max_reservable_copies(cluster) == (
                    model.max_reservable_copies(cluster)
                )
