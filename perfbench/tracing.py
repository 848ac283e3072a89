"""Spans around each layer's public entry points, recorded from outside.

The traced pass replaces, for its duration only, the module attributes
through which ``repro.runtime.stencil_op``, ``repro.runtime.batch`` and
``repro.compiler.driver`` call into the layers below them (and the
``CMArray``/``CMBatch`` scatter and gather methods) with wrappers that
open a span, call the original, close the span and attach the work the
call did as counts.  Nothing under ``src/`` changes: uninstalling puts
the original objects back.

Spans are kept in memory and written out once, as Chrome trace-event
JSON, when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

from repro.compiler import driver
from repro.runtime import batch as batch_mod
from repro.runtime import cm_array, stencil_op
from repro.runtime.halo import halo_buffer_name
from repro.stencil.pattern import CoeffKind

WORD = 4  # bytes per float32 word


class Span:
    __slots__ = ("name", "via", "start", "end", "children", "counts")

    def __init__(self, name, via):
        self.name = name
        self.via = via
        self.children = []
        self.counts = {}
        self.start = self.end = 0.0

    @property
    def seconds(self):
        return self.end - self.start

    def walk(self):
        """This span's descendants, depth first (not the span itself)."""
        for child in self.children:
            yield child
            yield from child.walk()


class Tracer:
    """An in-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.roots = []
        self._open = []

    def begin(self, name, via=""):
        parent = self._open[-1] if self._open else None
        span = Span(name, via)
        (parent.children if parent else self.roots).append(span)
        self._open.append(span)
        span.start = perf_counter()
        return span

    def end(self, span):
        span.end = perf_counter()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, fn, name, via, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name, via)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        return traced

    def write_chrome(self, path, metadata):
        """Write every span as a Chrome trace-event ("X") record."""
        origin = min((s.start for s in self.roots), default=0.0)
        events = []

        def emit(span):
            events.append({
                "name": span.name,
                "cat": span.via or "bench",
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 0,
                "tid": 0,
                "args": span.counts,
            })
            for child in span.children:
                emit(child)

        for root in self.roots:
            emit(root)
        path.write_text(json.dumps(
            {"traceEvents": events, "otherData": metadata}
        ))


# ----------------------------------------------------------------------
# Work counts attached to spans
# ----------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _tap_traffic(pattern):
    """(useful flops, bytes moved) per output point of one application.

    Bytes: every non-constant tap reads one data word, every ARRAY
    coefficient one coefficient word, and the result is written once.
    """
    words = 1
    for tap in pattern.taps:
        if not tap.is_constant_term:
            words += 1
        if tap.coeff.kind is CoeffKind.ARRAY:
            words += 1
    return pattern.useful_flops_per_point(), words * WORD


def _kernel_counts(pattern, updates):
    flops, nbytes = _tap_traffic(pattern)
    return {"updates": updates, "flops": updates * flops, "bytes": updates * nbytes}


def _count_fast(args, kwargs, result):
    pattern = _arg(args, kwargs, 0, "pattern")
    machine = _arg(args, kwargs, 1, "machine")
    stack = machine.stacked(kwargs["result_name"])
    return _kernel_counts(pattern, stack.size if result else 0)


def _count_fast_stack(args, kwargs, result):
    return _kernel_counts(_arg(args, kwargs, 0, "pattern"), kwargs["out"].size)


def _count_blocked(args, kwargs, result):
    pattern = _arg(args, kwargs, 0, "pattern")
    nodes = math.prod(kwargs["ping"].shape[:-2])
    rows, cols = kwargs["subgrid_shape"]
    pad, steps = kwargs["pad"], kwargs["steps"]
    computed = nodes * sum(
        (rows + 2 * ring * pad) * (cols + 2 * ring * pad)
        for ring in range(steps)
    )
    useful = nodes * rows * cols * steps
    counts = _kernel_counts(pattern, computed)
    counts["redundant_points"] = computed - useful
    return counts


def _count_exact(args, kwargs, result):
    node = _arg(args, kwargs, 1, "node")
    rows, cols = node.memory.buffer(kwargs["result_name"]).shape
    return {"cycles": int(result), "updates": rows * cols}


def _count_exchange(args, kwargs, result):
    source = _arg(args, kwargs, 0, "source")
    name = kwargs.get("into") or halo_buffer_name(source.name)
    padded = source.machine.stacked(name)
    return {"bytes": 0 if padded is None else padded.nbytes}


def _count_exchange_padded(args, kwargs, result):
    return {"bytes": _arg(args, kwargs, 1, "padded").nbytes}


def _count_depth(args, kwargs, result):
    return {"depth": int(result)}


# ----------------------------------------------------------------------
# The wrapped entry points
# ----------------------------------------------------------------------

#: (owner, attribute, span name, count function).  The owner is the
#: module whose global the layer above calls through, so a wrapper sees
#: exactly the calls that module makes; span ``via`` records it.
BINDINGS = (
    (driver, "parse_subroutine", "fortran.parse", None),
    (driver, "recognize_subroutine", "fortran.recognize", None),
    (driver, "compile_fortran", "compiler.compile_fortran", None),
    (driver, "compile_stencil", "compiler.compile_stencil", None),
    (stencil_op, "select_block_depth", "compiler.select_block_depth", _count_depth),
    (stencil_op, "exchange_halo", "halo.exchange_halo", _count_exchange),
    (stencil_op, "exchange_halo_deep", "halo.exchange_halo_deep", _count_exchange_padded),
    (stencil_op, "machine_execute_fast", "executor.machine_execute_fast", _count_fast),
    (stencil_op, "machine_execute_blocked", "blocking.machine_execute_blocked", _count_blocked),
    (stencil_op, "node_execute_exact", "machine.node_execute_exact", _count_exact),
    (stencil_op, "seal_checksums", "abft.seal_checksums", None),
    (stencil_op, "verify_and_correct", "abft.verify_and_correct", None),
    (batch_mod, "exchange_halo_batch", "halo.exchange_halo_batch", _count_exchange_padded),
    (batch_mod, "exchange_halo_deep", "halo.exchange_halo_deep", _count_exchange_padded),
    (batch_mod, "exchange_halo_deep_width", "halo.exchange_halo_deep_width", _count_exchange_padded),
    (batch_mod, "exchange_halo_group", "halo.exchange_halo_group", _count_exchange_padded),
    (batch_mod, "machine_execute_fast_stack", "executor.machine_execute_fast_stack", _count_fast_stack),
    (batch_mod, "machine_execute_blocked", "blocking.machine_execute_blocked", _count_blocked),
    (batch_mod, "seal_checksums", "abft.seal_checksums", None),
    (batch_mod, "verify_and_correct", "abft.verify_and_correct", None),
    (cm_array.CMArray, "from_numpy", "cm_array.distribute", None),
    (cm_array.CMArray, "to_numpy", "cm_array.gather", None),
    (batch_mod.CMBatch, "from_numpy", "cm_array.distribute", None),
    (batch_mod.CMBatch, "to_numpy", "cm_array.gather", None),
)


def _via(owner):
    return owner.__name__.rsplit(".", 1)[-1]


@contextmanager
def installed(tracer):
    """Route every binding in :data:`BINDINGS` through ``tracer``."""
    saved = []
    try:
        for owner, attr, name, count in BINDINGS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    tracer.wrap(original.__func__, name, _via(owner), count)
                )
            else:
                wrapped = tracer.wrap(original, name, _via(owner), count)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Per-op reconciliation and layer metrics
# ----------------------------------------------------------------------


def reconcile(op):
    """The op's self time: its span minus its direct children.

    Raises unless the children are disjoint and lie inside the op span;
    only then do the children and the self time sum to the op span.
    """
    covered = 0.0
    cursor = op.start
    for child in sorted(op.children, key=lambda s: s.start):
        if child.start < cursor or child.end > op.end:
            raise AssertionError(
                f"span {child.name!r} overlaps a sibling or leaves its op"
            )
        covered += child.seconds
        cursor = child.end
    return op.seconds - covered


def _sum(spans, prefix, via=None, key=None):
    total = 0
    for span in spans:
        if span.name.startswith(prefix) and (via is None or span.via == via):
            total += span.seconds if key is None else span.counts.get(key, 0)
    return total


def op_layers(op):
    """Per-layer figures of one traced op span."""
    spans = list(op.walk())
    kernels = "executor."
    updates = _sum(spans, kernels, key="updates")
    nbytes = _sum(spans, kernels, key="bytes")
    exact_s = _sum(spans, "machine.")
    cycles = _sum(spans, "machine.", key="cycles")
    return {
        "compiler.select_depth_s": _sum(spans, "compiler.select_block_depth"),
        "halo.exchange_s": _sum(spans, "halo."),
        "halo.exchanges": sum(s.name.startswith("halo.") for s in spans),
        "halo.bytes_computed": _sum(spans, "halo.", key="bytes"),
        "executor.taps_s": _sum(spans, kernels),
        "executor.updates": updates,
        "executor.bytes_computed": nbytes,
        "executor.ops_per_byte": (
            _sum(spans, kernels, key="flops") / nbytes if nbytes else 0.0
        ),
        "blocking.blocked_s": _sum(spans, "blocking."),
        "blocking.redundant_points": _sum(
            spans, "blocking.", key="redundant_points"
        ),
        "abft.seal_s": _sum(spans, "abft.seal"),
        "abft.verify_s": _sum(spans, "abft.verify"),
        "abft.seals": sum(s.name == "abft.seal_checksums" for s in spans),
        "abft.verifies": sum(s.name == "abft.verify_and_correct" for s in spans),
        "batch.exchange_s": _sum(spans, "halo.", via="batch"),
        "batch.taps_s": _sum(spans, "executor.", via="batch")
        + _sum(spans, "blocking.", via="batch"),
        "machine.exact_s": exact_s,
        "machine.cycles": cycles,
        "machine.cycles_per_s": cycles / exact_s if exact_s else 0.0,
        "op.self_s": reconcile(op),
    }


def setup_layers(setup):
    """Per-layer figures of one traced cold start."""
    spans = list(setup.walk())
    return {
        "fortran.parse_s": _sum(spans, "fortran."),
        "compiler.compile_s": _sum(spans, "compiler.compile_stencil"),
        "cm_array.distribute_s": _sum(spans, "cm_array.distribute"),
        "cm_array.gather_s": _sum(spans, "cm_array.gather"),
    }


def medians(rows):
    """Per-key median over a list of same-keyed dicts."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
