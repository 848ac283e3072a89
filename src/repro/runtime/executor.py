"""Node-level execution of compiled stencils.

Two execution modes with identical semantics:

* **exact** -- the half-strips run through the cycle-stepped sequencer
  + WTL3164 model: real register contents, ring-buffer rotation,
  writeback timing, and exact cycle counts.  One sequencer walk drives
  every node at once, each node a lane of the FPU's float32 state (the
  machine is synchronous SIMD).  Used by the correctness tests (and
  usable anywhere, just slow).
* **fast** -- numerics computed vectorized per node in the *same
  accumulation order* the schedules use (so results are bit-identical in
  float32), with cycles from the closed-form cost model that the exact
  mode validates.  Used by the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..compiler.plan import CompiledStencil
from ..machine.fpu import FpuStats, Wtl3164
from ..machine.machine import CM2
from ..machine.memory import MachinePort, MemoryPort, parity_word
from ..machine.node import Node
from ..machine.sequencer import Sequencer
from ..stencil.offsets import BoundaryMode
from ..stencil.pattern import CoeffKind, StencilPattern
from .cm_array import CMArray
from .faults import FaultGuard, NonFiniteInputError
from .halo import halo_buffer_name
from .strips import StripSchedule


class ExecutionSetupError(ValueError):
    """Arrays handed to the executor do not match the compiled stencil."""


def shape_mismatch(label: str, got, want) -> str:
    """A mismatch message naming the first offending axis and the
    expected extent there (instead of letting numpy raise a deep
    broadcast error from inside the tap loop)."""
    got = tuple(int(n) for n in got)
    want = tuple(int(n) for n in want)
    if len(got) != len(want):
        return (
            f"{label} shape {got} (rank {len(got)}) != "
            f"expected shape {want} (rank {len(want)})"
        )
    for axis, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return (
                f"{label} shape {got}: axis {axis} has extent {g}, "
                f"expected extent {w} (full expected shape {want})"
            )
    return f"{label} shape {got} != expected shape {want}"


def check_arrays(
    compiled: CompiledStencil,
    source: CMArray,
    coefficients: Dict[str, CMArray],
    result: CMArray,
) -> None:
    """Validate that the run-time arrays match the compiled statement.

    Every array the tap loop will touch is shape-checked here --
    coefficients, fused extra sources, and fused extra-term coefficient
    arrays *whether or not* they were passed in ``coefficients`` -- so
    a mismatch raises a :class:`ExecutionSetupError` (a ``ValueError``)
    naming the offending axis, never a numpy broadcast error.
    """
    pattern = compiled.pattern
    if result.global_shape != source.global_shape:
        raise ExecutionSetupError(
            shape_mismatch(
                "result array", result.global_shape, source.global_shape
            )
        )
    for name in pattern.coefficient_names():
        if name not in coefficients:
            raise ExecutionSetupError(
                f"missing coefficient array {name!r} "
                f"(statement needs {pattern.coefficient_names()})"
            )
        if coefficients[name].global_shape != source.global_shape:
            raise ExecutionSetupError(
                shape_mismatch(
                    f"coefficient {name!r}",
                    coefficients[name].global_shape,
                    source.global_shape,
                )
            )
    extra_terms = getattr(pattern, "extra_terms", ())
    if extra_terms:
        sample_node = next(iter(source.machine.nodes()))
        subgrid_shape = source.subgrid_shape
        for term in extra_terms:
            buffer = sample_node.memory.view(term.source)
            if buffer is None:
                raise ExecutionSetupError(
                    f"missing fused extra-source array {term.source!r}; create "
                    "it as a CMArray on the same machine before applying"
                )
            if tuple(buffer.shape) != subgrid_shape:
                raise ExecutionSetupError(
                    shape_mismatch(
                        f"fused extra-source {term.source!r} subgrid",
                        tuple(buffer.shape),
                        subgrid_shape,
                    )
                )
            coeff = term.coeff
            if coeff.kind is not CoeffKind.ARRAY:
                continue
            if coeff.name in coefficients:
                # Previously unvalidated: a wrong-shaped extra-term
                # coefficient passed in ``coefficients`` surfaced as a
                # numpy broadcast error deep in the executor.
                if coefficients[coeff.name].global_shape != source.global_shape:
                    raise ExecutionSetupError(
                        shape_mismatch(
                            f"fused extra-term coefficient {coeff.name!r}",
                            coefficients[coeff.name].global_shape,
                            source.global_shape,
                        )
                    )
                continue
            coeff_buffer = sample_node.memory.view(coeff.name)
            if coeff_buffer is None:
                raise ExecutionSetupError(
                    f"missing fused extra-term coefficient {coeff.name!r}"
                )
            if tuple(coeff_buffer.shape) != subgrid_shape:
                raise ExecutionSetupError(
                    shape_mismatch(
                        f"fused extra-term coefficient {coeff.name!r} subgrid",
                        tuple(coeff_buffer.shape),
                        subgrid_shape,
                    )
                )


def check_finite_arrays(
    compiled: CompiledStencil,
    source: CMArray,
    coefficients: Dict[str, CMArray],
) -> None:
    """Reject NaN/Inf in the input arrays up front, naming the offender.

    The opt-in ``apply_stencil(check_finite=True)`` validation: without
    it, a single NaN in the source silently propagates through every
    iteration (the FPU saturates, it does not trap).
    """
    machine = source.machine

    def all_finite(name: str) -> bool:
        stack = machine.stacked(name)
        if stack is not None:
            return bool(np.isfinite(stack).all())
        return all(
            bool(np.isfinite(node.memory.buffer(name)).all())
            for node in machine.nodes()
        )

    names = [source.name]
    names += list(coefficients)
    for term in getattr(compiled.pattern, "extra_terms", ()):
        if term.source not in names:
            names.append(term.source)
        coeff = term.coeff
        if coeff.kind is CoeffKind.ARRAY and coeff.name not in names:
            names.append(coeff.name)
    for name in names:
        if not all_finite(name):
            raise NonFiniteInputError(
                f"input array {name!r} contains NaN/Inf "
                "(apply_stencil was called with check_finite=True)"
            )


def exact_walk(
    compiled: CompiledStencil,
    memory: MemoryPort,
    schedule: StripSchedule,
    *,
    source_name: str,
    result_name: str,
    halo: int,
) -> FpuStats:
    """Walk the sequencer once over the strip schedule and return the
    WTL3164's cycle accounting.  ``memory`` is one node's
    :class:`~repro.machine.memory.NodeMemory`, or every node's at once
    through a :class:`~repro.machine.memory.MachinePort`.
    """
    params = compiled.params
    memory.ensure_constant_pages(compiled.scalar_coefficient_values())
    any_plan = next(iter(compiled.plans.values()))
    fpu = Wtl3164(
        params,
        memory,
        zero_reg=any_plan.allocation.zero_reg,
        unit_reg=any_plan.allocation.unit_reg,
    )
    sequencer = Sequencer(
        params,
        memory,
        source_buffer=halo_buffer_name(source_name),
        result_buffer=result_name,
        halo=halo,
    )
    for strip in schedule.strips:
        fpu.stall(params.strip_setup_cycles, "strip-setup")
        for job in strip.half_strips:
            if job.lines > 0:
                sequencer.run_half_strip(strip.plan, job, fpu)
    fpu.drain()
    return fpu.stats


def machine_execute_exact(
    compiled: CompiledStencil,
    machine: CM2,
    schedule: StripSchedule,
    *,
    source_name: str,
    result_name: str,
    halo: int,
) -> int:
    """Run every node's subgrid through the cycle-stepped datapath in
    one sequencer walk, each cycle's float32 work applied to all nodes
    at once (the machine is synchronous SIMD).

    Returns the exact cycle count, which is every node's count.  Each
    node's result is bit-identical to :func:`node_execute_exact` on that
    node alone.
    """
    port = MachinePort(machine)
    try:
        stats = exact_walk(
            compiled,
            port,
            schedule,
            source_name=source_name,
            result_name=result_name,
            halo=halo,
        )
    finally:
        port.settle()
    return stats.cycles


def node_execute_exact(
    compiled: CompiledStencil,
    node: Node,
    schedule: StripSchedule,
    *,
    source_name: str,
    result_name: str,
    halo: int,
) -> int:
    """Run one node's whole subgrid through the cycle-stepped datapath:
    the one-node walk of :func:`machine_execute_exact`.

    Returns the exact cycle count (identical on every node: the machine
    is synchronous SIMD).
    """
    return exact_walk(
        compiled,
        node.memory,
        schedule,
        source_name=source_name,
        result_name=result_name,
        halo=halo,
    ).cycles


def node_execute_fast(
    pattern: StencilPattern,
    node: Node,
    *,
    source_name: str,
    result_name: str,
    halo: int,
) -> None:
    """Compute one node's subgrid vectorized, in schedule order.

    Accumulates taps in statement order with float32 rounding after every
    multiply and every add -- exactly the chained multiply-add semantics
    of the WTL3164 model, so the result is bit-identical to exact mode.
    """
    padded = node.memory.buffer(halo_buffer_name(source_name))
    result = node.memory.buffer(result_name)
    rows, cols = result.shape
    acc = np.zeros((rows, cols), dtype=np.float32)
    # The FPU saturates silently; overflow to inf is a data property,
    # not an execution error.
    with np.errstate(over="ignore", invalid="ignore"):
        for tap in pattern.taps:
            coeff = _coefficient_subgrid(tap, node, rows, cols)
            if tap.is_constant_term:
                product = np.float32(1.0) * coeff
            else:
                window = padded[
                    halo + tap.dy : halo + tap.dy + rows,
                    halo + tap.dx : halo + tap.dx + cols,
                ]
                if tap.coeff.kind is CoeffKind.UNIT:
                    product = np.float32(1.0) * window
                else:
                    product = coeff * window
            acc = acc + product.astype(np.float32)
        # Fused extra terms join the chain after the base taps, in order.
        for term in getattr(pattern, "extra_terms", ()):
            data = node.memory.buffer(term.source)
            coeff = _term_coefficient_subgrid(term.coeff, node, rows, cols)
            acc = acc + (coeff * data).astype(np.float32)
    result[:] = acc


def machine_execute_fast(
    pattern: StencilPattern,
    machine: CM2,
    *,
    source_name: str,
    result_name: str,
    halo: int,
    guard: Optional[FaultGuard] = None,
) -> bool:
    """Compute every node's subgrid in one batched tap-accumulation loop.

    The machine-wide analogue of :func:`node_execute_fast`: one slice of
    the stacked padded source per tap, one chained multiply-add per tap,
    accumulated in statement order with float32 rounding after every
    multiply and every add.  Because float32 arithmetic is elementwise
    deterministic, the result is bit-identical to the per-node loop (and
    therefore to exact mode) -- only the interpreter overhead changes:
    O(taps) array operations total instead of O(taps) per node.

    Returns True when the batched path ran; False (having written
    nothing) when any involved buffer is not backed by intact machine
    storage, in which case the caller must run the per-node loop.
    """
    halo_name = halo_buffer_name(source_name)
    extra_terms = getattr(pattern, "extra_terms", ())
    names = {halo_name, result_name}
    for tap in pattern.taps:
        if tap.coeff.kind is CoeffKind.ARRAY:
            names.add(tap.coeff.name)
    for term in extra_terms:
        names.add(term.source)
        if term.coeff.kind is CoeffKind.ARRAY:
            names.add(term.coeff.name)
    stacks = {}
    for name in names:
        stack = machine.stacked(name)
        if stack is None:
            return False
        stacks[name] = stack

    padded = stacks[halo_name]
    result = stacks[result_name]
    rows, cols = result.shape[2:]
    # One accumulator and one product buffer for the whole machine; the
    # in-place ufunc calls perform the same float32 multiply and add as
    # the per-node temporaries, so the rounding chain is unchanged --
    # they just skip the intermediate allocations.
    acc = np.zeros(result.shape, dtype=np.float32)
    scratch = np.empty(result.shape, dtype=np.float32)
    # The FPU saturates silently; overflow to inf is a data property,
    # not an execution error.
    with np.errstate(over="ignore", invalid="ignore"):
        for tap in pattern.taps:
            coeff = _stacked_coefficient(tap.coeff, stacks)
            if tap.is_constant_term:
                np.multiply(np.float32(1.0), coeff, out=scratch)
            else:
                window = padded[
                    :,
                    :,
                    halo + tap.dy : halo + tap.dy + rows,
                    halo + tap.dx : halo + tap.dx + cols,
                ]
                if tap.coeff.kind is CoeffKind.UNIT:
                    np.multiply(np.float32(1.0), window, out=scratch)
                else:
                    np.multiply(coeff, window, out=scratch)
            np.add(acc, scratch, out=acc)
        # Fused extra terms join the chain after the base taps, in order.
        for term in extra_terms:
            coeff = _stacked_coefficient(term.coeff, stacks)
            np.multiply(coeff, stacks[term.source], out=scratch)
            np.add(acc, scratch, out=acc)
    result[...] = acc
    if guard is not None:
        guard.inject_poison(result)
        guard.verify_finite(result, f"fast executor result {result_name!r}")
    return True


def machine_execute_fast_stack(
    pattern: StencilPattern,
    *,
    padded: np.ndarray,
    coeff_stacks: Dict[str, np.ndarray],
    halo: int,
    out: np.ndarray,
    acc: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """The fast tap-accumulation loop on raw stacks (batched runs).

    Exactly :func:`machine_execute_fast`'s rounding chain -- taps in
    statement order, float32 rounding after every multiply and every add
    -- but operating on explicit arrays instead of named machine
    buffers.  ``padded`` carries any leading batch axes ahead of the
    node grid (subgrid axes at ``-2``/``-1``); 4-d coefficient stacks
    broadcast across them, so one ufunc call per tap serves the whole
    batch and every element's float32 chain matches the per-grid run
    bit for bit.

    ``out``, ``acc``, and ``scratch`` share ``padded``'s leading axes
    with unpadded subgrid extents; ``acc`` is zeroed here.  Patterns
    with fused extra terms are not supported on this path (the batch
    entry point rejects them up front).
    """
    if getattr(pattern, "extra_terms", ()):
        raise ExecutionSetupError(
            "the stacked batch executor does not support fused extra terms"
        )
    rows, cols = out.shape[-2:]
    acc[...] = np.float32(0.0)
    # The FPU saturates silently; overflow to inf is a data property,
    # not an execution error.
    with np.errstate(over="ignore", invalid="ignore"):
        for tap in pattern.taps:
            coeff = _stacked_coefficient(tap.coeff, coeff_stacks)
            if tap.is_constant_term:
                np.multiply(np.float32(1.0), coeff, out=scratch)
            else:
                window = padded[
                    ...,
                    halo + tap.dy : halo + tap.dy + rows,
                    halo + tap.dx : halo + tap.dx + cols,
                ]
                if tap.coeff.kind is CoeffKind.UNIT:
                    np.multiply(np.float32(1.0), window, out=scratch)
                else:
                    np.multiply(coeff, window, out=scratch)
            np.add(acc, scratch, out=acc)
    out[...] = acc


def machine_execute_blocked(
    pattern: StencilPattern,
    *,
    ping: np.ndarray,
    pong: np.ndarray,
    deep_coeffs: Dict[str, np.ndarray],
    subgrid_shape,
    pad: int,
    steps: int,
    scratch: np.ndarray,
    check_fixed_point: bool = True,
    guard: Optional[FaultGuard] = None,
):
    """Run one temporal block: ``steps`` locally fused sub-iterations.

    ``ping`` holds the block input with a valid ``steps * pad``-deep
    halo (filled by :func:`~repro.runtime.halo.exchange_halo_deep`);
    ``pong`` is its ping-pong partner, and ``deep_coeffs`` the
    deep-padded coefficient stacks.  Sub-iteration ``t`` applies the
    stencil over the whole still-valid region -- the subgrid plus a
    ``(steps - 1 - t) * pad``-deep ghost ring -- accumulating taps in
    statement order with float32 rounding after every multiply and add,
    exactly :func:`machine_execute_fast` over an enlarged subgrid.  The
    ghost ring reproduces, bit for bit, what the neighbors compute in
    their own interiors (same data via the deep exchange, same
    coefficients via ``deep_coeffs``, same rounding chain), so consuming
    it instead of re-exchanging changes no result bits.  FILL boundary
    semantics are re-applied to the out-of-bounds bands after every
    sub-iteration, exactly the state a fresh exchange would restore.

    Returns ``(final, fixed)``: the buffer holding the last iterate
    (its subgrid at ``[deep : deep + rows, deep : deep + cols]``) and
    whether a machine-wide fixed point was detected after the first
    sub-iteration (in which case ``final`` already equals every later
    iterate and the caller may stop computing).

    Under ``guard`` (chaos runs), each sub-iteration's valid output
    region is parity-sealed after the FILL re-application and verified
    before the next sub-iteration reads it -- the read window of
    sub-iteration ``t + 1`` is exactly the sealed region of ``t`` -- and
    the injector may flip bits in the ping-pong stacks between
    sub-iterations.  The final region is parity- and finiteness-checked
    before the block returns, so corruption injected after the last
    seal cannot escape.

    The tap loop indexes every operand *lane-minor*: subgrid axes first,
    then the lead axes and the node grid (the machine is synchronous
    SIMD -- one local address, every node at once).  Any layout gives
    the same bits; on the lane-minor stacks of
    :meth:`~repro.machine.memory.MachineStorage.scratch` each ufunc
    streams contiguous runs of at least ``nodes * lead`` floats instead
    of one node's tile row.  Everything else (FILL, seals, the fixed
    point check, the injector) works on the native-order views.
    """
    rows, cols = subgrid_shape
    deep = steps * pad
    dim_row, dim_col = pattern.plane_dims
    row_fills = (
        pattern.boundary.get(dim_row, BoundaryMode.CIRCULAR)
        is BoundaryMode.FILL
    )
    col_fills = (
        pattern.boundary.get(dim_col, BoundaryMode.CIRCULAR)
        is BoundaryMode.FILL
    )
    fill = np.float32(pattern.fill_value)

    # Lane-minor views, built once per block; 4-d coefficient stacks
    # broadcast across any lead (batch) axes of the iterates.
    lead = ping.ndim - 4
    src_lanes, dst_lanes = _lane_minor(ping), _lane_minor(pong)
    prod_lanes = _lane_minor(scratch)
    coeff_lanes = {
        name: np.expand_dims(
            _lane_minor(stack), tuple(range(2, 2 + lead - (stack.ndim - 4)))
        )
        for name, stack in deep_coeffs.items()
    }
    src, dst = ping, pong
    sealed: Optional[int] = None
    sealed_view: Optional[np.ndarray] = None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            ghost = (steps - 1 - t) * pad
            out_rows = rows + 2 * ghost
            out_cols = cols + 2 * ghost
            base = deep - ghost
            if guard is not None and sealed is not None:
                # sealed_view (the previous sub-iteration's valid output
                # region) is exactly the window this sub-iteration reads.
                guard.verify_parity(
                    sealed_view,
                    sealed,
                    f"block sub-iteration {t} input",
                )
            # Accumulate straight into the destination region; the
            # rounding chain is the per-tap multiply and add of
            # machine_execute_fast, only the final buffer copy is gone.
            # Float32 multiply and add are elementwise and the taps stay
            # in statement order, so neither the lane-minor iteration
            # order nor the batch axes riding along change any bits.
            acc = dst_lanes[base : base + out_rows, base : base + out_cols]
            prod = prod_lanes[:out_rows, :out_cols]
            acc[...] = np.float32(0.0)
            for tap in pattern.taps:
                if tap.coeff.kind is CoeffKind.ARRAY:
                    coeff = coeff_lanes[tap.coeff.name][
                        base : base + out_rows, base : base + out_cols
                    ]
                elif tap.coeff.kind is CoeffKind.SCALAR:
                    coeff = np.float32(tap.coeff.value)
                else:
                    coeff = np.float32(1.0)
                if tap.is_constant_term:
                    np.multiply(np.float32(1.0), coeff, out=prod)
                else:
                    window = src_lanes[
                        base + tap.dy : base + tap.dy + out_rows,
                        base + tap.dx : base + tap.dx + out_cols,
                    ]
                    if tap.coeff.kind is CoeffKind.UNIT:
                        np.multiply(np.float32(1.0), window, out=prod)
                    else:
                        np.multiply(coeff, window, out=prod)
                np.add(acc, prod, out=acc)
            if row_fills:
                dst[..., 0, :, :deep, :] = fill
                dst[..., -1, :, deep + rows :, :] = fill
            if col_fills:
                dst[..., :, 0, :, :deep] = fill
                dst[..., :, -1, :, deep + cols :] = fill
            if guard is not None:
                sealed_view = dst[
                    ..., base : base + out_rows, base : base + out_cols
                ]
                sealed = parity_word(sealed_view)
            if t == 0 and steps > 1 and check_fixed_point:
                # The subgrids alone tile the global array, so
                # machine-wide interior equality means a true fixed
                # point: every later iterate reproduces this one.
                if np.array_equal(
                    dst[..., deep : deep + rows, deep : deep + cols],
                    src[..., deep : deep + rows, deep : deep + cols],
                ):
                    if guard is not None:
                        guard.verify_finite(
                            dst[..., deep : deep + rows, deep : deep + cols],
                            "temporal block fixed-point output",
                        )
                    return dst, True
            if guard is not None:
                guard.inject_scratch([("ping stack", ping), ("pong stack", pong)])
            src, dst = dst, src
            src_lanes, dst_lanes = dst_lanes, src_lanes
    if guard is not None:
        # The last seal covers exactly the final subgrid region; verify
        # it so a flip injected after the last sub-iteration (or a NaN
        # produced inside the block) cannot escape the block.
        guard.verify_parity(sealed_view, sealed, "temporal block output")
        guard.verify_finite(
            src[..., deep : deep + rows, deep : deep + cols],
            "temporal block output",
        )
    return src, False


def _lane_minor(stack: np.ndarray) -> np.ndarray:
    """``stack`` (``(..., grid_rows, grid_cols, rows, cols)``) indexed
    subgrid axes first: ``(rows, cols, ..., grid_rows, grid_cols)``."""
    return np.moveaxis(stack, (-2, -1), (0, 1))


def _stacked_coefficient(coeff, stacks: Dict[str, np.ndarray]):
    """The machine-wide coefficient operand: a stacked array or a scalar.

    Scalar and unit coefficients multiply as float32 *scalars*; numpy's
    scalar-times-array float32 arithmetic rounds identically to the
    per-node full-page multiply, so the chain stays bit-exact.
    """
    if coeff.kind is CoeffKind.ARRAY:
        return stacks[coeff.name]
    if coeff.kind is CoeffKind.SCALAR:
        return np.float32(coeff.value)
    return np.float32(1.0)


def _coefficient_subgrid(tap, node: Node, rows: int, cols: int) -> np.ndarray:
    return _term_coefficient_subgrid(tap.coeff, node, rows, cols)


def _term_coefficient_subgrid(
    coeff, node: Node, rows: int, cols: int
) -> np.ndarray:
    if coeff.kind is CoeffKind.ARRAY:
        return node.memory.buffer(coeff.name)
    if coeff.kind is CoeffKind.SCALAR:
        return np.full((rows, cols), np.float32(coeff.value), dtype=np.float32)
    return np.ones((rows, cols), dtype=np.float32)
