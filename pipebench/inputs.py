"""Seeded inputs shared by every workload: loops, machines and variants.

The loops of one run are the 44 hand-written kernels, a fixed
``generate_suite`` draw, and a seeded draw of one loop per node-count
class.  Only the seeded part changes with ``--seed``.  It is stratified
by size because loop size drives compile time, copies and II excess: an
unstratified draw of the same size moved ``ii_excess_mean`` and
``copies_per_op`` by ~12 % and ``op_p99_ms`` by ~45 % between seeds,
which no bound could absorb; with classes up to 40 nodes the seeds
still moved ``ii_excess_mean`` by ~10 %.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.variants import AssignmentConfig
from repro.ddg.graph import Ddg
from repro.machine.machine import Machine
from repro.machine.presets import STANDARD_PRESETS
from repro.service.tasks import VARIANTS
from repro.workloads import all_kernels, generate_suite
from repro.workloads.synthetic import GeneratorProfile, generate_loop

#: The paper machines of Figures 12-19 plus the Section 6 grid.
PAPER_MACHINES = ("2gp", "4gp", "2fs", "4fs", "grid")

#: Variant slug -> config, named as the compile service names them.
ALL_VARIANTS: Dict[str, AssignmentConfig] = dict(VARIANTS)

#: The fixed part of every run's draw: the paper suite's seed.
BASE_SEED = 1998
BASE_LOOPS = 16

#: Node-count classes of the seeded draw, one loop each.  The loops
#: above 24 nodes (up to 161) stay in the fixed part: they dominate
#: compile time, copies and the latency tail, so letting the seed pick
#: them would let it swing every metric.
SEEDED_CLASSES = (
    (2, 4), (5, 6), (7, 8), (9, 10),
    (11, 13), (14, 16), (17, 20), (21, 24),
)


def seeded_draw(seed: int) -> List[Ddg]:
    """The first loop of each node-count class in ``generate_suite``'s
    stream for ``seed`` (same generator, same names)."""
    rng = random.Random(seed)
    profile = GeneratorProfile()
    picked: Dict[int, Ddg] = {}
    index = 0
    while len(picked) < len(SEEDED_CLASSES):
        ddg = generate_loop(rng, profile, name=f"seed{seed}_{index:04d}")
        index += 1
        for slot, (low, high) in enumerate(SEEDED_CLASSES):
            if slot not in picked and low <= len(ddg) <= high:
                picked[slot] = ddg
                break
    return [picked[slot] for slot in range(len(SEEDED_CLASSES))]


def make_loops(seed: int) -> List[Ddg]:
    """Fresh ``Ddg`` objects for one run or one round.

    Regenerated rather than copied so every per-``Ddg`` memo (views,
    RecMII) starts cold, as it does in a real campaign.

    The seeded loops come first.  The engine splits the list into
    contiguous chunks and its last chunk ends each call, so with the
    seeded loops last the seed picked ``campaign_pool``'s latency tail:
    one seed's grid calls took 270 ms against 230 ms for another.
    """
    loops = seeded_draw(seed)
    loops += all_kernels()
    loops += generate_suite(BASE_LOOPS, seed=BASE_SEED, name_prefix="base")
    return loops


def build_machines(names) -> Dict[str, Machine]:
    """The named presets, built the way the service's workers build them."""
    return {name: STANDARD_PRESETS[name]() for name in names}
