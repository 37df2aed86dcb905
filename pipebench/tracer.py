"""Spans around calls into the program's layers, recorded from outside it.

:class:`Tracer` replaces a fixed list of public functions with wrappers
that record one span per call: name, layer, start, end, parent span and
op id.  Parents and op ids travel in context variables, so the
coroutines of the compile service's front door each keep their own.
Spans stay in memory and are written out when the run ends.

Self time is computed by a sweep over span boundaries: each instant is
split evenly among the innermost spans open at that instant.  For
strictly nested spans this is the usual "span minus its children"; when
front-door requests overlap, no instant is counted twice, so the layer
self times never add up to more than the wall clock.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

_parent: contextvars.ContextVar = contextvars.ContextVar(
    "pipebench_parent", default=None
)
_op: contextvars.ContextVar = contextvars.ContextVar(
    "pipebench_op", default=None
)

# Span record fields (lists, for cheap in-place updates).
NAME, LAYER, START, END, PARENT, OP, INFO = range(7)


def _assign_info(args, kwargs, result, info) -> None:
    stats = kwargs.get("stats")
    info["failed"] = result is None
    if stats is not None:
        info["evictions"] = stats.evictions
        info["forced"] = stats.forced_placements


def _failed_info(args, kwargs, result, info) -> None:
    info["failed"] = result is None


def _compile_info(args, kwargs, result, info) -> None:
    info["attempts"] = result.attempts


def _cache_get_info(args, kwargs, result, info) -> None:
    info["hit"] = result is not None


def _submit_info(args, kwargs, result, info) -> None:
    fn_name, payload = args[1], args[2]
    info["task"] = fn_name
    if fn_name == "compile_batch":
        info["batch"] = len(payload)
    submitted = time.perf_counter()

    def done(future) -> None:
        info["task_s"] = time.perf_counter() - submitted
        if future.exception() is None:
            info["execute_s"] = future.result().execute_s

    result.add_done_callback(done)


#: (owner, attribute, span name, layer, observer).  The first group is
#: what ``repro.core.driver`` calls, patched where the driver looks them
#: up; ``compile_loop`` is patched where the experiment runner and the
#: benchmark look it up.  Observers read facts off arguments and results.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.core.driver", "mii", "ddg.mii", "ddg", None),
    ("repro.core.driver", "assign_clusters", "core.assign", "core",
     _assign_info),
    ("repro.core.driver", "modulo_schedule", "scheduling.schedule",
     "scheduling", _failed_info),
    ("repro.core.driver", "assert_valid", "scheduling.verify",
     "scheduling", None),
    ("repro.core.driver", "compile_loop", "driver.compile", "core",
     _compile_info),
    ("repro.analysis.experiment", "compile_loop", "driver.compile",
     "core", _compile_info),
    ("repro.lint.engine", "lint_compiled", "lint.gate", "lint", None),
    ("repro.certify.gate", "certify_compiled", "certify.gate", "certify",
     None),
    ("repro.sim.machine", "simulate_schedule", "sim.check", "sim", None),
    ("repro.analysis.experiment", "run_experiment",
     "analysis.run_experiment", "analysis", None),
    ("repro.analysis.experiment:UnifiedBaseline", "ii_for",
     "analysis.baseline", "analysis", None),
    ("repro.analysis.engine", "run_engine_experiment",
     "analysis.engine", "analysis", None),
    ("repro.service.pool:WorkerPool", "warm_up", "pool.warm_up",
     "service", None),
    ("repro.service.pool:WorkerPool", "submit", "pool.submit", "service",
     _submit_info),
    ("repro.service.frontdoor:CompileService", "submit",
     "frontdoor.submit", "service", None),
    ("repro.service.cache:ShardedResultCache", "get", "cache.get",
     "service", _cache_get_info),
    ("repro.service.cache:ShardedResultCache", "put", "cache.put",
     "service", None),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """In-memory span recorder that patches :data:`TARGETS` while
    installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        self.spans.append([
            name, layer, time.perf_counter(), None, _parent.get(),
            _op.get(), {},
        ])
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record one span around a block of the benchmark's own code."""
        index = self._open(name, layer)
        token = _parent.set(index)
        try:
            yield self.spans[index][INFO]
        finally:
            _parent.reset(token)
            self._close(index)

    def _wrap(self, fn, name: str, layer: str, observe):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                index = tracer._open(name, layer)
                token = _parent.set(index)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    _parent.reset(token)
                    tracer._close(index)
                if observe is not None:
                    observe(args, kwargs, result, tracer.spans[index][INFO])
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name, layer)
            token = _parent.set(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                _parent.reset(token)
                tracer._close(index)
            if observe is not None:
                observe(args, kwargs, result, tracer.spans[index][INFO])
            return result
        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Patch every target (idempotent)."""
        if self._saved:
            return
        for owner_name, attribute, name, layer, observe in TARGETS:
            owner = _resolve(owner_name)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute,
                    self._wrap(original, name, layer, observe))

    def uninstall(self) -> None:
        """Restore every patched target."""
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        fields = ("name", "layer", "start", "end", "parent", "op", "info")
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(fields, record))) + "\n")


@contextlib.contextmanager
def op_scope(op_id):
    """Tag the spans opened inside the block with ``op_id``."""
    token = _op.set(op_id)
    try:
        yield
    finally:
        _op.reset(token)


def self_times(spans: List[list], start: float, end: float
               ) -> Dict[int, float]:
    """Self seconds of every span inside ``[start, end]``, by index."""
    events = []
    for index, record in enumerate(spans):
        if record[END] is None or record[START] < start \
                or record[END] > end:
            continue
        events.append((record[START], 1, index))
        events.append((record[END], 0, index))
    # Closes sort before opens at equal times.
    events.sort()
    open_children: Dict[int, int] = {}
    leaves: set = set()
    result: Dict[int, float] = {}
    previous = start
    for instant, is_open, index in events:
        if leaves:
            share = (instant - previous) / len(leaves)
            for leaf in leaves:
                result[leaf] = result.get(leaf, 0.0) + share
        previous = instant
        parent = spans[index][PARENT]
        if parent not in open_children:
            parent = None
        if is_open:
            open_children[index] = 0
            leaves.add(index)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            del open_children[index]
            leaves.discard(index)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return result
