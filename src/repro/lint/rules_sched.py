"""``SCHED4xx`` — modulo-schedule constraints and modulo properties.

The first three rules are the historical independent validator
(:mod:`repro.scheduling.verify`) re-expressed with stable codes; the
resource rule now accounts with the *same* compiled demands the
scheduler's reservation table uses (:meth:`compile_demand`), so the
validator and the hot path can no longer drift apart silently.  The
remaining rules check modulo properties (schedule domain, II sanity,
pipeline depth), the MRT's double-entry occupancy bookkeeping, and — on
demand — a differential cross-check against the frozen slow-reference
pipeline.
"""

from __future__ import annotations

import zlib

from ..mrt.table import ModuloReservationTable
from .registry import Finding, rule


def _rebuilt_mrt(target):
    """Rebuild (once per target) the reservation table of a schedule.

    Every operation is placed with ``check=False`` so oversubscribed
    rows accumulate instead of raising; the placement problems found on
    the way are cached alongside.  Tests may pre-seed
    ``target.cache["mrt"]`` with a corrupted table to exercise the
    consistency rules.
    """
    if "mrt" in target.cache:
        return target.cache["mrt"], target.cache.get("mrt_problems", [])
    schedule = target.schedule
    annotated = schedule.annotated
    problems = []
    table = None
    if schedule.ii >= 1:
        table = ModuloReservationTable(annotated.machine, schedule.ii)
        ddg = annotated.ddg
        start_map = schedule.start
        cluster_of = annotated.cluster_of
        resources_of = annotated.resources_of
        # A non-copy node's demand — and whether the table can compile
        # it — depends only on (opcode, cluster): memoize the compiled
        # demand together with that verdict so the rebuild is
        # O(distinct demands) derivation work.  Copies route per node
        # and memoize on their resource keys.
        resource_memo = {}
        demand_verdict = {}
        for node in ddg.nodes:
            node_id = node.node_id
            start = start_map.get(node_id)
            if start is None:
                continue  # SCHED404 reports the missing placement
            if node.is_copy:
                try:
                    keys = resources_of(node_id)
                except (ValueError, KeyError) as exc:
                    problems.append(
                        (node_id,
                         f"resource demand underivable: {exc}")
                    )
                    continue
                key_tuple = tuple(keys)
                entry = demand_verdict.get(key_tuple)
                if entry is None:
                    entry = demand_verdict[key_tuple] = _compiled(
                        table, key_tuple
                    )
            else:
                try:
                    memo_key = (node.opcode, cluster_of[node_id])
                except KeyError as exc:
                    problems.append(
                        (node_id,
                         f"resource demand underivable: {exc}")
                    )
                    continue
                entry = resource_memo.get(memo_key)
                if entry is None:
                    try:
                        keys = resources_of(node_id)
                    except (ValueError, KeyError) as exc:
                        entry = (
                            None,
                            f"resource demand underivable: {exc}",
                        )
                    else:
                        entry = _compiled(table, keys)
                    resource_memo[memo_key] = entry
            demand, verdict = entry
            if verdict is not True:
                problems.append((node_id, verdict))
                continue
            table.place_demand(node_id, demand, start, check=False)
    target.cache["mrt"] = table
    target.cache["mrt_problems"] = problems
    return table, problems


def _compiled(table, keys):
    """``(compiled demand, True)``, or ``(None, problem)`` when a key is
    unknown to the table — the same compiled demand the scheduler
    probes with."""
    try:
        return table.compile_demand(keys), True
    except KeyError as exc:
        return None, f"unknown resource key: {exc}"


@rule(
    "SCHED401", "dependence-violation", "error",
    "a dependence inequality start(dst) >= start(src) + latency(src) "
    "- II*distance is violated",
    requires=["schedule"], artifact="schedule",
)
def check_dependences(target, config):
    schedule = target.schedule
    ddg = schedule.annotated.ddg
    ii = schedule.ii
    for edge in ddg.edges:
        src_start = schedule.start.get(edge.src)
        dst_start = schedule.start.get(edge.dst)
        if src_start is None or dst_start is None:
            continue  # SCHED404 reports the missing placement
        lower = src_start + ddg.latency(edge.src) - ii * edge.distance
        if dst_start < lower:
            yield Finding(
                location=f"edge {edge.src}->{edge.dst}",
                message=(
                    f"{ddg.node(edge.src)} -> {ddg.node(edge.dst)} "
                    f"(distance {edge.distance}): start "
                    f"{dst_start} < required {lower}"
                ),
            )


@rule(
    "SCHED402", "resource-oversubscription", "error",
    "a kernel row uses more slots of some resource pool than its "
    "per-cycle capacity",
    requires=["schedule"], artifact="schedule",
)
def check_resources(target, config):
    table, _ = _rebuilt_mrt(target)
    if table is None:
        return
    for key, row, used, capacity in table.oversubscriptions():
        yield Finding(
            location=f"row {row}",
            message=(
                f"resource {key!r} oversubscribed in kernel row "
                f"{row}: {used} > {capacity}"
            ),
        )


@rule(
    "SCHED403", "annotated-structure", "error",
    "the scheduled annotated graph fails its structural legality "
    "re-validation",
    requires=["schedule"], artifact="schedule",
)
def check_structure(target, config):
    schedule = target.schedule
    try:
        schedule.annotated.validate()
    except ValueError as exc:
        yield Finding(location="annotated", message=str(exc))


@rule(
    "SCHED404", "schedule-domain-mismatch", "error",
    "the start map and the node set disagree (unscheduled node, or a "
    "start entry for a node that does not exist)",
    requires=["schedule"], artifact="schedule",
)
def check_schedule_domain(target, config):
    schedule = target.schedule
    node_ids = set(schedule.annotated.ddg.node_ids)
    start_ids = set(schedule.start)
    for node_id in sorted(node_ids - start_ids):
        yield Finding(
            location=f"node {node_id}",
            message=f"node {node_id} has no start cycle",
        )
    for node_id in sorted(start_ids - node_ids):
        yield Finding(
            location=f"node {node_id}",
            message=f"start map covers unknown node {node_id}",
        )


@rule(
    "SCHED405", "invalid-ii", "error",
    "an initiation interval below 1 has no kernel rows",
    requires=["schedule"], artifact="schedule",
)
def check_ii(target, config):
    if target.schedule.ii < 1:
        yield Finding(
            location="ii",
            message=f"II is {target.schedule.ii}, must be >= 1",
        )


@rule(
    "SCHED406", "excessive-schedule-span", "warning",
    "the schedule's makespan exceeds the serial-chain bound (sum of "
    "all latencies), signalling runaway start cycles",
    requires=["schedule"], artifact="schedule",
)
def check_schedule_span(target, config):
    schedule = target.schedule
    if schedule.ii < 1 or not schedule.start:
        return
    ddg = schedule.annotated.ddg
    # Executing every operation back to back is the worst sensible
    # schedule of one iteration; anything beyond it means some start
    # cycle drifted off (each op still occupies >= 1 issue cycle).
    serial_bound = sum(
        max(1, node.latency) for node in ddg.nodes
    )
    if schedule.makespan > serial_bound:
        yield Finding(
            location="makespan",
            message=(
                f"makespan {schedule.makespan} exceeds the "
                f"serial-chain bound {serial_bound}"
            ),
            hint="check for pathologically late start cycles",
        )


@rule(
    "SCHED407", "mrt-occupancy-divergence", "error",
    "the reservation table's counter-based occupancy (the probe fast "
    "path) disagrees with its holder lists (the REPRO_MRT_VALIDATE "
    "re-walk path)",
    requires=["schedule"], artifact="schedule",
)
def check_mrt_consistency(target, config):
    table, _ = _rebuilt_mrt(target)
    if table is None:
        return
    for problem in table.consistency_errors():
        yield Finding(location="mrt", message=problem)


@rule(
    "SCHED408", "unknown-resource-demand", "error",
    "an operation's resource demand cannot be derived or refers to a "
    "pool the machine does not provide",
    requires=["schedule"], artifact="schedule",
)
def check_resource_demands(target, config):
    _, problems = _rebuilt_mrt(target)
    for node_id, problem in problems:
        yield Finding(
            location=f"node {node_id}",
            message=f"node {node_id}: {problem}",
        )


@rule(
    "SCHED490", "differential-reference", "error",
    "the fast pipeline's result diverges from the frozen "
    "slow-reference pipeline (II, copy count, or start cycles)",
    requires=["graph", "machine"], artifact="pipeline",
    default_enabled=False,
)
def check_differential(target, config):
    """Cross-check against :mod:`repro.baselines` on sampled loops.

    Expensive (compiles the loop twice more), so it is default-off and
    honours ``config.differential_sample``: a loop runs when the CRC of
    its name falls in the sampled residue class, giving a deterministic
    corpus-stable sample.
    """
    name = target.name or (target.graph.name if target.graph else "")
    sample = config.differential_sample
    if sample > 1 and zlib.crc32(name.encode("utf-8")) % sample != 0:
        return
    from ..baselines import (
        ReferenceCompilationError,
        reference_compile_loop,
    )
    from ..core.driver import CompilationError, compile_loop

    ddg = target.graph
    machine = target.effective_machine
    try:
        fast = compile_loop(ddg, machine)
    except (CompilationError, ValueError) as exc:
        fast = None
        fast_error = str(exc)
    try:
        slow = reference_compile_loop(ddg, machine)
    except (ReferenceCompilationError, ValueError) as exc:
        slow = None
        slow_error = str(exc)
    if (fast is None) != (slow is None):
        which, error = (
            ("fast", fast_error) if fast is None
            else ("reference", slow_error)
        )
        yield Finding(
            location="pipeline",
            message=f"only the {which} pipeline failed to compile: "
                    f"{error}",
        )
        return
    if fast is None:
        return  # both failed identically: differential holds
    if fast.ii != slow.ii:
        yield Finding(
            location="ii",
            message=f"fast pipeline II {fast.ii} != reference II "
                    f"{slow.ii}",
        )
        return
    if fast.annotated.copy_count != slow.copy_count:
        yield Finding(
            location="copies",
            message=(
                f"fast pipeline inserted "
                f"{fast.annotated.copy_count} copies, reference "
                f"{slow.copy_count}"
            ),
        )
    if dict(fast.schedule.start) != slow.start:
        diff = [
            node_id
            for node_id in fast.schedule.start
            if slow.start.get(node_id) != fast.schedule.start[node_id]
        ]
        yield Finding(
            location="start-cycles",
            message=(
                f"start cycles diverge from the reference on "
                f"{len(diff)} node(s): {sorted(diff)[:8]}"
            ),
        )
