"""Batched multi-convolution: one machine pass for N grids x F filters.

The paper's run-time library amortizes communication *within* one
stencil application (one padded buffer, all four neighbors at once) and
temporal blocking amortizes it *across iterations* of one filter.  This
module amortizes it across an entire workload: ``apply_stencil_batch``
applies ``F`` compiled filters to ``B`` independent grids in one call,
and every filter that tolerates the same boundary treatment reads the
*same* exchanged halo.

Storage extends the classic ``(grid_rows, grid_cols, rows, cols)``
stacks with leading axes::

    source   (B,    grid_rows, grid_cols, rows,  cols )
    halo     (B,    grid_rows, grid_cols, rows', cols')   shared per group
    result   (B, F, grid_rows, grid_cols, rows,  cols )

Because every halo helper indexes the node grid at ``-4``/``-3`` and the
subgrid at ``-2``/``-1``, the same four slice assignments that exchange
one grid's halo exchange all ``B`` at once -- the amortization
primitive.  Filters are grouped by boundary treatment ``(row mode, col
mode, fill value)``; each group's first exchange per iteration is ONE
machine pass of ``B`` messages serving every member filter, instead of
the ``B x F`` messages a loop of solo calls would send.  Groups whose
members share a footprint (same pad, same corner reach) exchange at
exactly that footprint; mixed-footprint groups exchange once at the
widest member's pad with composed corners, and each filter reads its own
centered sub-window -- bit-identical to that filter's own exchange.

Front-end accounting draws the same distinction the sequencer hardware
does.  The address generator iterates the batch axis with a run-time
base-address stride, so the front end *issues* each filter's half-strip
schedule once per machine pass regardless of ``B`` (``host_half_strips``),
while the sequencer *executes* it ``B`` times (``total_half_strips``,
and the dispatch cycles inside the compute totals).  Host per-call
overhead is charged once per group machine pass, not once per
(grid, filter) -- this is where the batch throughput win over a loop of
solo calls comes from on small subgrids.

Bit-identity contract: ``apply_stencil_batch(...)`` entry ``(b, f)``
equals the result of ``apply_stencil(filters[f], sources[b], ...)``
bit for bit in float32, for every boundary mode, block depth, and
execution mode -- the batched executors replay the exact per-tap
multiply/add rounding chain of the solo paths, and shared halos are
provably bit-identical to per-filter halos (centered sub-windows and
composed corners reproduce the solo exchange's bytes; corner-skipping
filters never read corner cells).

Hard faults: the batched runtime detects dead nodes and dead links like
the solo guarded path (deadlines, checksums, reroutes) but does not arm
spare-node remapping -- a batch's working set has no per-name node
views to migrate -- so :class:`~repro.runtime.faults.NodeDeadError`
propagates as a typed error instead of triggering recovery.  The
stencil service refuses to combine spares with batched jobs for this
reason.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compiler.plan import CompiledStencil
from ..machine.machine import CM2
from ..machine.params import MachineParams
from ..stencil.offsets import BoundaryMode
from ..stencil.pattern import StencilPattern
from .blocking import (
    array_coefficient_names,
    block_compute_cycles,
    block_steps,
    blockable,
    depth_cap,
)
from .abft import seal_checksums, verify_and_correct
from .cm_array import CMArray
from .decomposition import Decomposition
from .executor import (
    ExecutionSetupError,
    machine_execute_blocked,
    machine_execute_fast_stack,
    shape_mismatch,
)
from .faults import (
    FaultError,
    FaultGuard,
    FaultInjector,
    FaultStats,
    NonFiniteInputError,
    ResiliencePolicy,
)
from .halo import (
    deep_exchange_cost,
    exchange_halo_batch,
    exchange_halo_deep,
    exchange_halo_deep_width,
    exchange_halo_group,
)
from .stencil_op import apply_stencil
from .strips import StripSchedule


class CMBatch:
    """A batch of distributed arrays stored as one machine-wide stack.

    The batched counterpart of :class:`~repro.runtime.cm_array.CMArray`:
    ``lead_shape`` axes (batch entries, and for results a filter axis)
    sit ahead of the node grid, so one stacked buffer of shape
    ``lead_shape + (grid_rows, grid_cols, rows, cols)`` holds every
    entry and whole-machine operations (halo exchange, the stacked fast
    executor) serve all of them in one pass.  There are no per-node
    views -- the batch axes are a sequencer-side addressing construct;
    per-node code paths (exact mode) stage individual entries through
    ordinary :class:`CMArray` storage.
    """

    def __init__(
        self,
        name: str,
        machine: CM2,
        lead_shape: Tuple[int, ...],
        global_shape: Tuple[int, int],
    ) -> None:
        lead_shape = tuple(int(extent) for extent in lead_shape)
        if not lead_shape or any(extent < 1 for extent in lead_shape):
            raise ValueError(
                f"lead_shape must be a non-empty tuple of positive "
                f"extents, got {lead_shape}"
            )
        self.name = name
        self.machine = machine
        self.lead_shape = lead_shape
        self.decomposition = Decomposition(tuple(global_shape), machine)
        self._stacked = machine.alloc_batch_stacked(
            name, lead_shape, self.decomposition.subgrid_shape
        )

    @property
    def global_shape(self) -> Tuple[int, int]:
        return self.decomposition.global_shape

    @property
    def subgrid_shape(self) -> Tuple[int, int]:
        return self.decomposition.subgrid_shape

    @property
    def stacked(self) -> np.ndarray:
        """The whole-machine ``lead_shape + (grid_rows, grid_cols,
        rows, cols)`` stack."""
        return self._stacked

    @classmethod
    def from_numpy(cls, name: str, machine: CM2, array: np.ndarray) -> "CMBatch":
        """Create a batch from host data: the last two axes are the
        global array extents, everything ahead of them is the lead
        shape (scatter)."""
        array = np.asarray(array, dtype=np.float32)
        if array.ndim < 3:
            raise ValueError(
                f"a batch needs at least one lead axis ahead of the "
                f"global extents, got shape {array.shape}"
            )
        batch = cls(
            name, machine, tuple(array.shape[:-2]), tuple(array.shape[-2:])
        )
        batch.set(array)
        return batch

    def set(self, array: np.ndarray) -> None:
        """Scatter host data into every entry's node subgrids."""
        array = np.asarray(array, dtype=np.float32)
        want = self.lead_shape + self.global_shape
        if tuple(array.shape) != want:
            raise ValueError(
                f"array shape {array.shape} does not match the batch "
                f"shape {want}"
            )
        grid_rows, grid_cols = self.machine.shape
        rows, cols = self.subgrid_shape
        self._stacked[...] = array.reshape(
            self.lead_shape + (grid_rows, rows, grid_cols, cols)
        ).swapaxes(-3, -2)

    def fill(self, value: float) -> None:
        self._stacked[...] = np.float32(value)

    def to_numpy(self) -> np.ndarray:
        """Gather every entry into one host array of shape
        ``lead_shape + global_shape``."""
        return self._stacked.swapaxes(-3, -2).reshape(
            self.lead_shape + self.global_shape
        )

    def like(self, name: str, lead_shape: Optional[Tuple[int, ...]] = None) -> "CMBatch":
        """A new zero-filled batch on the same machine and global shape."""
        return CMBatch(
            name,
            self.machine,
            self.lead_shape if lead_shape is None else lead_shape,
            self.global_shape,
        )

    def free(self) -> None:
        """Release the machine storage backing this batch."""
        self.machine.storage.free(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows, cols = self.global_shape
        lead = "x".join(str(extent) for extent in self.lead_shape)
        return f"CMBatch({self.name!r}, {lead} of {rows}x{cols})"


@dataclass(frozen=True)
class FilterCost:
    """Per-filter cost attribution inside one batched run.

    Attributes:
        name: the filter's display name.
        index: its position in the run's filter tuple.
        block_depth: temporal block depth this filter ran at.
        pad: the filter's own halo width.
        shared_exchanges: group machine passes this filter shared (each
            one ``batch`` messages split across the group's members).
        own_exchanges: messages charged solely to this filter (iterated
            re-exchanges of its diverged state; later temporal blocks).
        coeff_exchanges: coefficient deep exchanges this filter caused
            (charged once each, amortized over the whole batch).
        comm_cycles: this filter's exchange cycles -- its own messages
            plus an even share of each shared machine pass (hence a
            float).
        compute_cycles: node compute cycles over all ``batch`` copies.
        half_strips: executed microcode invocations (scaled by
            ``batch``; the sequencer runs the schedule once per entry).
        useful_flops: useful flops this filter contributed to the run.
    """

    name: str
    index: int
    block_depth: int
    pad: int
    shared_exchanges: int
    own_exchanges: int
    coeff_exchanges: int
    comm_cycles: float
    compute_cycles: int
    half_strips: int
    useful_flops: int


@dataclass(frozen=True)
class BatchStencilRun:
    """The outcome and full accounting of one batched multi-convolution.

    Attributes:
        filters: the compiled filters, in application order.
        machine: the machine the batch ran on.
        result: the ``(batch, filter)``-lead result batch; entry
            ``[b, f]`` is filter ``f`` applied to grid ``b``.
        batch: number of independent source grids ``B``.
        iterations: iterations applied (every filter, every grid).
        exact: whether the cycle-stepped oracle path ran.
        block_depths: per-filter temporal block depth.
        num_exchanges: source halo messages charged over the whole run
            (a shared group pass counts ``batch`` messages -- the halos
            really move -- but rides on one machine pass).
        coeff_exchanges: coefficient deep exchanges (blocked runs);
            charged once per (coefficient, depth), NOT per batch entry.
        total_comm_cycles: all exchange cycles over the whole run.
        total_compute_cycles: all node compute cycles (scaled by
            ``batch``).
        total_half_strips: microcode invocations *executed* by the
            sequencer (scaled by ``batch``).
        host_half_strips: half-strip schedules *issued* by the front
            end -- once per (filter, machine pass), NOT scaled by
            ``batch``: the sequencer's batch-stride address loop repeats
            an issued schedule locally.
        host_calls: run-time-library invocations the host made (one per
            group machine pass; one per later temporal block).
        per_filter: per-filter attribution, one :class:`FilterCost`
            per filter.
        faults: chaos-run accounting; None on ordinary runs.
    """

    filters: Tuple[CompiledStencil, ...]
    machine: CM2
    result: CMBatch
    batch: int
    iterations: int
    exact: bool
    block_depths: Tuple[int, ...]
    num_exchanges: int
    coeff_exchanges: int
    total_comm_cycles: int
    total_compute_cycles: int
    total_half_strips: int
    host_half_strips: int
    host_calls: int
    per_filter: Tuple[FilterCost, ...]
    faults: Optional[FaultStats] = None

    @property
    def params(self) -> MachineParams:
        return self.filters[0].params

    @property
    def fault_stats(self) -> FaultStats:
        """Fault accounting, all-zero for ordinary (unguarded) runs."""
        return self.faults if self.faults is not None else FaultStats()

    @property
    def host_seconds_total(self) -> float:
        """Front-end time: per-call fixed cost for every library
        invocation plus the issue cost of every *issued* half strip
        (issued once per machine pass, independent of ``batch``)."""
        return (
            self.host_calls * self.params.host_fixed_s
            + self.host_half_strips * self.params.host_halfstrip_s
        )

    @property
    def elapsed_seconds(self) -> float:
        return (
            self.params.seconds(
                self.total_compute_cycles + self.total_comm_cycles
            )
            + self.host_seconds_total
        )

    @property
    def useful_flops(self) -> int:
        return sum(cost.useful_flops for cost in self.per_filter)

    @property
    def mflops(self) -> float:
        """Sustained useful Mflops over the whole batched run."""
        return self.useful_flops / self.elapsed_seconds / 1e6

    @property
    def gflops(self) -> float:
        return self.mflops / 1e3

    def describe(self) -> str:
        rows, cols = self.result.subgrid_shape
        return (
            f"{len(self.filters)} filters x {self.batch} grids on "
            f"{self.machine.num_nodes} nodes, {rows}x{cols} subgrids, "
            f"{self.iterations} iterations: {self.elapsed_seconds:.4f} s, "
            f"{self.mflops:.1f} Mflops ({self.num_exchanges} halo "
            f"messages, {self.host_calls} host calls)"
        )


@dataclass(frozen=True)
class _Group:
    """Filters sharing one halo exchange: same boundary treatment.

    ``uniform`` groups (every member the same pad AND the same corner
    reach) exchange at exactly that footprint, honoring the corner-step
    skip; mixed groups exchange once at ``width`` (the widest member's
    pad) with composed corners, and each member reads its own centered
    sub-window.
    """

    indices: Tuple[int, ...]
    uniform: bool
    width: int
    representative: StencilPattern


def _boundary_key(pattern: StencilPattern):
    dim_row, dim_col = pattern.plane_dims
    row_mode = pattern.boundary.get(dim_row, BoundaryMode.CIRCULAR)
    col_mode = pattern.boundary.get(dim_col, BoundaryMode.CIRCULAR)
    fill = (
        float(np.float32(pattern.fill_value))
        if BoundaryMode.FILL in (row_mode, col_mode)
        else None
    )
    return (row_mode, col_mode, fill)


def _filter_groups(patterns: Sequence[StencilPattern]) -> List[_Group]:
    """Partition filters into halo-sharing groups by boundary treatment."""
    by_key: Dict[object, List[int]] = {}
    order: List[object] = []
    for index, pattern in enumerate(patterns):
        key = _boundary_key(pattern)
        if key not in by_key:
            by_key[key] = []
            order.append(key)
        by_key[key].append(index)
    groups = []
    for key in order:
        indices = tuple(by_key[key])
        pads = [patterns[i].border_widths().max_width for i in indices]
        corners = [patterns[i].needs_corner_exchange() for i in indices]
        uniform = len(set(pads)) == 1 and len(set(corners)) == 1
        groups.append(
            _Group(
                indices=indices,
                uniform=uniform,
                width=max(pads),
                representative=patterns[indices[0]],
            )
        )
    return groups


def _merge_fault_stats(
    total: Optional[FaultStats], extra: FaultStats
) -> FaultStats:
    """Accumulate one staged run's fault accounting into the batch's."""
    if total is None:
        total = FaultStats()
    for kind, count in extra.injected.items():
        total.injected[kind] = total.injected.get(kind, 0) + count
    for kind, count in extra.detected.items():
        total.detected[kind] = total.detected.get(kind, 0) + count
    for name in FaultStats._COUNTER_FIELDS:
        setattr(total, name, getattr(total, name) + getattr(extra, name))
    total.events.extend(extra.events)
    total.degradations = total.degradations + extra.degradations
    return total


def _resolve_coefficient_stacks(
    machine: CM2,
    filters: Sequence[CompiledStencil],
    coefficients: Dict[str, CMArray],
    global_shape: Tuple[int, int],
) -> Dict[str, np.ndarray]:
    """The machine-wide stack behind every coefficient name any filter
    reads: the caller's array when supplied, otherwise a resident
    stacked array under the statement name."""
    stacks: Dict[str, np.ndarray] = {}
    for compiled in filters:
        for name in array_coefficient_names(compiled.pattern):
            if name in stacks:
                continue
            array = coefficients.get(name)
            if array is not None:
                if array.machine is not machine:
                    raise ExecutionSetupError(
                        f"coefficient {name!r} lives on a different machine"
                    )
                if array.global_shape != tuple(global_shape):
                    raise ExecutionSetupError(
                        shape_mismatch(
                            f"coefficient {name!r}",
                            array.global_shape,
                            tuple(global_shape),
                        )
                    )
                stack = machine.stacked(array.name)
            else:
                stack = machine.stacked(name)
            if stack is None:
                raise ExecutionSetupError(
                    f"coefficient {name!r} is neither supplied nor resident "
                    f"on the machine as a stacked array"
                )
            stacks[name] = stack
    return stacks


def _resolve_batch_depths(
    filters: Sequence[CompiledStencil],
    subgrid_shape: Tuple[int, int],
    iterations: int,
    exact: bool,
    guarded: bool,
    block_depth: Union[int, str],
    batch: int,
    machine: Optional[CM2],
    tenant: Optional[str],
) -> Tuple[int, ...]:
    """Per-filter temporal block depths for a batched run.

    Exact mode, single calls, and guarded (chaos) runs resolve every
    filter to depth 1 -- the guarded batch protocol exchanges and
    verifies per iteration.  ``"auto"`` prices each filter through the
    batch-aware cost model (coefficient exchanges amortize over the
    whole batch, so blocking pays off earlier than solo).
    """
    if block_depth == "auto":
        requested = None
    elif isinstance(block_depth, int) and not isinstance(block_depth, bool):
        if block_depth < 1:
            raise ValueError(
                f"block_depth must be a positive int or 'auto', "
                f"got {block_depth}"
            )
        requested = block_depth
    else:
        raise ValueError(
            f"block_depth must be a positive int or 'auto', got {block_depth!r}"
        )
    if exact or guarded or iterations < 2:
        return tuple(1 for _ in filters)
    if requested is not None:
        return tuple(
            min(requested, depth_cap(f.pattern, subgrid_shape, iterations))
            if blockable(f.pattern)
            else 1
            for f in filters
        )
    from ..compiler.driver import select_batch_block_depths

    return select_batch_block_depths(
        filters,
        subgrid_shape,
        iterations,
        batch,
        machine=machine,
        tenant=tenant,
    )


def _new_counters(num_filters: int) -> Dict[str, object]:
    return {
        "num_exchanges": 0,
        "coeff_exchanges": 0,
        "total_comm_cycles": 0,
        "total_compute_cycles": 0,
        "total_half_strips": 0,
        "host_half_strips": 0,
        "host_calls": 0,
        "f_shared": [0] * num_filters,
        "f_own": [0] * num_filters,
        "f_coeff": [0] * num_filters,
        "f_comm": [0.0] * num_filters,
        "f_compute": [0] * num_filters,
        "f_strips": [0] * num_filters,
        "faults": None,
    }


def _run_unblocked(
    filters: Sequence[CompiledStencil],
    source_stack: np.ndarray,
    result6: np.ndarray,
    coeff_stacks: Dict[str, np.ndarray],
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
    iterations: int,
    groups: List[_Group],
    machine: CM2,
    guard: Optional[FaultGuard],
) -> Dict[str, object]:
    """The per-iteration batched fast path (all block depths 1).

    Iteration 0 of each group is the amortized machine pass: every
    member filter reads the same exchanged source halo.  From iteration
    1 on, filter states have diverged, so each group re-exchanges all
    its members' states in one 6-d machine pass (``batch * members``
    messages -- the data really differs -- but still one host call and
    one set of slice assignments per group).

    No fixed-point short-circuit: the solo path charges skipped
    iterations in full anyway, so computing them keeps bits and totals
    identical at less bookkeeping.
    """
    rows, cols = subgrid_shape
    batch = int(source_stack.shape[0])
    counters = _new_counters(len(filters))
    schedules = [StripSchedule.cached(f, subgrid_shape) for f in filters]
    pass_cycles = [schedule.compute_cycles(params) for schedule in schedules]
    pass_strips = [schedule.num_half_strips for schedule in schedules]

    # ABFT per filter: each filter's result slab gets its own seal
    # (sealed after the pass, SDC window opened, verified before the
    # next gather reads it and once more at run end).  The checksum
    # vectors ride the same leading (batch,) axis as the data, so mixed
    # pads and shared k==0 halos need no special casing.  Uncorrectable
    # damage raises the typed SdcUncorrectableError straight out of the
    # batched run -- like a dead node, batched runs do not arm the
    # rollback ladder.
    abft_on = guard is not None and guard.policy.abft
    abft_words = batch * rows * cols

    def abft_key(fi: int) -> str:
        return f"__abft_batch_f{fi}__"

    def abft_verify(fi: int, site: str) -> None:
        guard.charge_abft(abft_words, verifies=1)
        corrected = verify_and_correct(
            result6[:, fi],
            machine.storage.get_abft(abft_key(fi)),
            site=site,
            guard=guard,
        )
        if corrected:
            guard.charge_sdc_correction(corrected)

    for k in range(iterations):
        for gi, group in enumerate(groups):
            members = group.indices
            width = group.width
            padded_shape = (rows + 2 * width, cols + 2 * width)
            if k == 0:
                # Every filter reads the same source: one machine pass
                # of `batch` messages serves the whole group.
                padded = machine.scratch_stacked(
                    f"__batch_halo_g{gi}__", padded_shape, (batch,)
                )
                copies = batch
                stack = source_stack
                views = {fi: padded for fi in members}
            else:
                # Diverged filter states: one machine pass still, but
                # every (entry, filter) halo is its own message.  The
                # advanced-indexed gather is a copy; the exchange reads
                # and verifies against that copy, and results are
                # written straight back into the result stack.
                padded = machine.scratch_stacked(
                    f"__batch_halo6_g{gi}__",
                    padded_shape,
                    (batch, len(members)),
                )
                copies = batch * len(members)
                if abft_on:
                    # Verify every member's slab before the gather
                    # copies it into the exchange: corrupted bits must
                    # never leave the resident tile.
                    for fi in members:
                        abft_verify(
                            fi,
                            f"abft batched gather "
                            f"(filter {fi}, iteration {k})",
                        )
                stack = result6[:, list(members)]
                views = {fi: padded[:, j] for j, fi in enumerate(members)}
            if group.uniform:
                stats = exchange_halo_batch(
                    stack,
                    padded,
                    group.representative,
                    subgrid_shape,
                    params,
                    copies=copies,
                    guard=guard,
                    site=f"batch exchange (group {gi}, iteration {k})",
                )
            else:
                stats = exchange_halo_group(
                    stack,
                    padded,
                    group.representative,
                    subgrid_shape,
                    params,
                    width,
                    copies=copies,
                    guard=guard,
                    site=f"group exchange (group {gi}, iteration {k})",
                )
            counters["host_calls"] += 1
            counters["num_exchanges"] += copies
            counters["total_comm_cycles"] += copies * stats.cycles
            for fi in members:
                if k == 0:
                    counters["f_shared"][fi] += 1
                    counters["f_comm"][fi] += (
                        batch * stats.cycles / len(members)
                    )
                else:
                    counters["f_own"][fi] += batch
                    counters["f_comm"][fi] += batch * stats.cycles

            for fi in members:
                compiled = filters[fi]
                out = result6[:, fi]
                attempt = 0
                while True:
                    attempt += 1
                    machine_execute_fast_stack(
                        compiled.pattern,
                        padded=views[fi],
                        coeff_stacks=coeff_stacks,
                        halo=width,
                        out=out,
                    )
                    counters["host_half_strips"] += pass_strips[fi]
                    if guard is None:
                        break
                    guard.inject_poison(out)
                    try:
                        guard.verify_finite(
                            out,
                            f"batched fast executor result "
                            f"(filter {fi}, iteration {k})",
                        )
                    except FaultError:
                        # The failed pass still burned its cycles; the
                        # padded input is untouched by the executor, so
                        # a recompute is a clean retry.
                        guard.charge_compute(
                            batch * pass_cycles[fi],
                            batch * pass_strips[fi],
                            recovery=True,
                        )
                        if attempt > guard.policy.max_retries:
                            raise
                        guard.note_recompute()
                        continue
                    guard.charge_compute(
                        batch * pass_cycles[fi], batch * pass_strips[fi]
                    )
                    break
                counters["total_compute_cycles"] += batch * pass_cycles[fi]
                counters["total_half_strips"] += batch * pass_strips[fi]
                counters["f_compute"][fi] += batch * pass_cycles[fi]
                counters["f_strips"][fi] += batch * pass_strips[fi]
                if abft_on:
                    machine.storage.seal_abft(
                        abft_key(fi), seal_checksums(result6[:, fi])
                    )
                    guard.charge_abft(abft_words, seals=1)
                    guard.inject_sdc(
                        [(
                            f"batched result stack (filter {fi})",
                            result6[:, fi],
                        )]
                    )

    if abft_on:
        # Run-end sweep: the last iteration's SDC windows have not been
        # verified yet; nothing unverified may reach the caller.
        for fi in range(len(filters)):
            abft_verify(fi, f"abft batched run end (filter {fi})")
            machine.storage.clear_abft(abft_key(fi))

    if guard is not None:
        counters["num_exchanges"] = guard.exchanges
        counters["coeff_exchanges"] = guard.coeff_exchanges
        counters["total_comm_cycles"] = guard.comm_cycles
        counters["total_compute_cycles"] = guard.compute_cycles
        counters["total_half_strips"] = guard.half_strips
        counters["faults"] = guard.stats
    return counters


def _run_blocked(
    filters: Sequence[CompiledStencil],
    source_stack: np.ndarray,
    result6: np.ndarray,
    coeff_stacks: Dict[str, np.ndarray],
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
    iterations: int,
    depths: Tuple[int, ...],
    groups: List[_Group],
    machine: CM2,
) -> Dict[str, object]:
    """The temporally blocked batched path (any filter's depth > 1).

    Every filter runs blocked at its own depth (depth-1 filters run
    one-step blocks, which are bit- and cost-identical to per-iteration
    exchanges with composed-corner halos).  Per group, the *first*
    block's input is one shared machine pass at the largest deep width
    any member needs; each filter copies its centered window out
    locally.  Coefficient deep exchanges are charged once per
    (coefficient, deep width) -- amortized over the whole batch, where a
    loop of solo blocked calls would pay them ``batch`` times.  Later
    blocks re-exchange each filter's own diverged state.
    """
    rows, cols = subgrid_shape
    batch = int(source_stack.shape[0])
    counters = _new_counters(len(filters))

    for gi, group in enumerate(groups):
        members = group.indices
        pads = {
            fi: filters[fi].pattern.border_widths().max_width
            for fi in members
        }
        deeps = {fi: depths[fi] * pads[fi] for fi in members}
        wide = max(deeps.values())
        shared = machine.scratch_stacked(
            f"__batch_deep_g{gi}__",
            (rows + 2 * wide, cols + 2 * wide),
            (batch,),
        )
        shared_stats = exchange_halo_deep_width(
            source_stack,
            shared,
            group.representative,
            subgrid_shape,
            params,
            wide,
        )
        counters["host_calls"] += 1
        counters["num_exchanges"] += batch
        counters["total_comm_cycles"] += batch * shared_stats.cycles
        for fi in members:
            counters["f_shared"][fi] += 1
            counters["f_comm"][fi] += (
                batch * shared_stats.cycles / len(members)
            )

        coeff_done: Dict[Tuple[str, int], np.ndarray] = {}
        for fi in members:
            compiled = filters[fi]
            pattern = compiled.pattern
            pad = pads[fi]
            deep = deeps[fi]
            blocks = list(block_steps(iterations, depths[fi]))
            padded_shape = (rows + 2 * deep, cols + 2 * deep)
            # The blocked working set is lane-minor, like the solo one.
            ping, pong, prod = (
                machine.storage.scratch(
                    f"__batch_blk_{role}_{gi}_{fi}__",
                    padded_shape,
                    (batch,),
                    lane_minor=True,
                )
                for role in ("ping", "pong", "prod")
            )
            deep_coeffs: Dict[str, np.ndarray] = {}
            for name in array_coefficient_names(pattern):
                buf = coeff_done.get((name, deep))
                if buf is None:
                    # One 4-d exchange serves every batch entry -- the
                    # coefficients are shared across the batch, so this
                    # is charged ONCE, not `batch` times.
                    buf = machine.storage.scratch(
                        f"{name}__deep{deep}_g{gi}__",
                        padded_shape,
                        lane_minor=True,
                    )
                    coeff_stats = exchange_halo_deep(
                        coeff_stacks[name],
                        buf,
                        pattern,
                        subgrid_shape,
                        params,
                        depths[fi],
                    )
                    coeff_done[(name, deep)] = buf
                    counters["coeff_exchanges"] += 1
                    counters["total_comm_cycles"] += coeff_stats.cycles
                    counters["f_coeff"][fi] += 1
                    counters["f_comm"][fi] += coeff_stats.cycles
                deep_coeffs[name] = buf

            for index, steps in enumerate(blocks):
                deep_b = steps * pad
                if deep_b < deep:
                    delta = deep - deep_b
                    window = (
                        Ellipsis,
                        slice(delta, delta + rows + 2 * deep_b),
                        slice(delta, delta + cols + 2 * deep_b),
                    )
                    ping_v, pong_v = ping[window], pong[window]
                    coeffs_v = {
                        name: buf[window] for name, buf in deep_coeffs.items()
                    }
                else:
                    ping_v, pong_v, coeffs_v = ping, pong, deep_coeffs
                if index == 0:
                    # The shared group exchange already holds this
                    # filter's deep halo: its centered sub-window is
                    # bit-identical to the filter's own deep exchange.
                    # A local copy, no messages.
                    offset = wide - deep_b
                    ping_v[...] = shared[
                        ...,
                        offset : offset + rows + 2 * deep_b,
                        offset : offset + cols + 2 * deep_b,
                    ]
                else:
                    block_stats = exchange_halo_deep(
                        result6[:, fi],
                        ping_v,
                        pattern,
                        subgrid_shape,
                        params,
                        steps,
                    )
                    counters["host_calls"] += 1
                    counters["num_exchanges"] += batch
                    counters["total_comm_cycles"] += batch * block_stats.cycles
                    counters["f_own"][fi] += batch
                    counters["f_comm"][fi] += batch * block_stats.cycles
                final, fixed = machine_execute_blocked(
                    pattern,
                    ping=ping_v,
                    pong=pong_v,
                    deep_coeffs=coeffs_v,
                    subgrid_shape=subgrid_shape,
                    pad=pad,
                    steps=steps,
                    scratch=prod,
                )
                result6[:, fi] = final[
                    ..., deep_b : deep_b + rows, deep_b : deep_b + cols
                ]
                cycles, strips = block_compute_cycles(
                    compiled, subgrid_shape, steps
                )
                counters["total_compute_cycles"] += batch * cycles
                counters["total_half_strips"] += batch * strips
                counters["host_half_strips"] += strips
                counters["f_compute"][fi] += batch * cycles
                counters["f_strips"][fi] += batch * strips
                if fixed:
                    # Every batch entry hit the fixed point at once (the
                    # blocked executor compares the whole stack); charge
                    # the skipped blocks in full, like the solo path.
                    for later_steps in blocks[index + 1 :]:
                        later_stats = deep_exchange_cost(
                            pattern, subgrid_shape, params, later_steps
                        )
                        counters["host_calls"] += 1
                        counters["num_exchanges"] += batch
                        counters["total_comm_cycles"] += (
                            batch * later_stats.cycles
                        )
                        counters["f_own"][fi] += batch
                        counters["f_comm"][fi] += batch * later_stats.cycles
                        later_cycles, later_strips = block_compute_cycles(
                            compiled, subgrid_shape, later_steps
                        )
                        counters["total_compute_cycles"] += (
                            batch * later_cycles
                        )
                        counters["total_half_strips"] += batch * later_strips
                        counters["host_half_strips"] += later_strips
                        counters["f_compute"][fi] += batch * later_cycles
                        counters["f_strips"][fi] += batch * later_strips
                    break
    return counters


def _run_exact(
    filters: Sequence[CompiledStencil],
    source_stack: np.ndarray,
    result6: np.ndarray,
    coefficients: Dict[str, CMArray],
    subgrid_shape: Tuple[int, int],
    global_shape: Tuple[int, int],
    iterations: int,
    machine: CM2,
    faults: Optional[FaultInjector],
    resilience: Optional[ResiliencePolicy],
) -> Dict[str, object]:
    """The staged exact oracle: one cycle-stepped solo run per
    ``(grid, filter)`` pair through :func:`apply_stencil`.

    Exact mode exercises the per-node datapath, which addresses named
    node buffers -- there is nothing to amortize, so the accounting is
    the plain sum of the staged runs (``host_half_strips`` equals the
    executed total).  This is the verification oracle the batched fast
    paths are measured against, not a performance path.
    """
    batch = int(source_stack.shape[0])
    counters = _new_counters(len(filters))
    grid_rows, grid_cols = machine.shape
    rows, cols = subgrid_shape
    merged: Optional[FaultStats] = None
    try:
        for b in range(batch):
            host_entry = (
                source_stack[b]
                .swapaxes(-3, -2)
                .reshape(grid_rows * rows, grid_cols * cols)
            )
            staged = CMArray.from_numpy(
                "__batch_exact_src__", machine, host_entry
            )
            for fi, compiled in enumerate(filters):
                staged_result = CMArray(
                    "__batch_exact_res__", machine, tuple(global_shape)
                )
                run = apply_stencil(
                    compiled,
                    staged,
                    coefficients,
                    staged_result,
                    iterations=iterations,
                    exact=True,
                    faults=faults,
                    resilience=resilience,
                )
                result6[b, fi] = staged_result.stacked
                counters["num_exchanges"] += run.exchanges
                counters["total_comm_cycles"] += run.comm_cycles_total
                counters["total_compute_cycles"] += run.compute_cycles_total
                counters["total_half_strips"] += run.half_strips_total
                counters["host_half_strips"] += run.half_strips_total
                counters["host_calls"] += run.host_calls
                counters["f_own"][fi] += run.exchanges
                counters["f_comm"][fi] += run.comm_cycles_total
                counters["f_compute"][fi] += run.compute_cycles_total
                counters["f_strips"][fi] += run.half_strips_total
                if run.faults is not None:
                    merged = _merge_fault_stats(merged, run.faults)
    finally:
        machine.free_stacked("__batch_exact_src__")
        machine.free_stacked("__batch_exact_res__")
    counters["faults"] = merged
    return counters


def apply_stencil_batch(
    filters: Sequence[CompiledStencil],
    sources: Union[CMBatch, Sequence[CMArray]],
    coefficients: Optional[Dict[str, CMArray]] = None,
    result: Union[CMBatch, str, None] = None,
    *,
    iterations: int = 1,
    exact: bool = False,
    block_depth: Union[int, str] = 1,
    check_finite: bool = False,
    faults: Optional[FaultInjector] = None,
    resilience: Optional[ResiliencePolicy] = None,
    abft: bool = False,
    tenant: Optional[str] = None,
) -> BatchStencilRun:
    """Apply ``F`` compiled filters to ``B`` grids in one machine-wide
    batched call.

    Args:
        filters: the compiled stencils to apply, all sharing machine
            parameters.  Fused extra terms are not supported on the
            batched path.
        sources: a ``(B,)``-lead :class:`CMBatch`, or a sequence of
            :class:`~repro.runtime.cm_array.CMArray` on the same machine
            and global shape (staged into a batched scratch stack).
        coefficients: coefficient arrays by statement name, shared by
            every filter and batch entry (unsupplied names fall back to
            resident machine arrays, like solo calls).
        result: a ``(B, F)``-lead :class:`CMBatch`, its name, or None
            to create one named ``<result>__batch__``.
        iterations: iterations per (grid, filter), each feeding its own
            previous iterate back, exactly like ``iterations`` solo
            calls.
        exact: run the staged cycle-stepped oracle instead of the
            batched fast path.
        block_depth: temporal block depth: ``1`` per-iteration
            exchanges, an int > 1 a requested depth (clamped per filter
            to what its pad and the subgrid support), ``"auto"`` the
            per-filter batch-aware modeled optimum.  Bit-identical at
            every depth.
        check_finite: validate source and coefficients up front,
            raising :class:`~repro.runtime.faults.NonFiniteInputError`
            naming the offending array.
        faults: a seeded :class:`~repro.runtime.faults.FaultInjector`
            for chaos runs; switches onto the guarded batch path
            (checksummed retried group exchanges, poison/finiteness
            verification and bounded recompute per filter pass).  Block
            depths are forced to 1.  Dead nodes raise
            :class:`~repro.runtime.faults.NodeDeadError` -- batched runs
            do not arm spare-node remapping.
        resilience: detection/recovery knobs for the guarded path.
        abft: switch onto the guarded path with
            :attr:`ResiliencePolicy.abft` enabled: every filter's
            result slab is checksum-sealed after its pass and verified
            before the next gather (and at run end), single corrupted
            words forward-corrected in place, multi-cell damage raised
            as the typed
            :class:`~repro.runtime.faults.SdcUncorrectableError` (see
            :mod:`repro.runtime.abft`).
        tenant: tenant id scoping compile/depth cache telemetry.

    Returns:
        a :class:`BatchStencilRun`; entry ``[b, f]`` of its result is
        bit-identical to ``apply_stencil(filters[f], sources[b], ...)``.
    """
    filters = tuple(filters)
    if not filters:
        raise ValueError("at least one compiled filter is required")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    coefficients = dict(coefficients or {})

    params = filters[0].params
    for fi, compiled in enumerate(filters[1:], start=1):
        if compiled.params != params:
            raise ExecutionSetupError(
                f"filter {fi} was compiled for different machine "
                f"parameters; a batch shares one machine configuration"
            )

    # ------------------------------------------------------------------
    # Source staging
    # ------------------------------------------------------------------
    if isinstance(sources, CMBatch):
        if len(sources.lead_shape) != 1:
            raise ExecutionSetupError(
                f"a source batch must have exactly one lead axis "
                f"(the batch), got lead shape {sources.lead_shape}"
            )
        machine = sources.machine
        batch = sources.lead_shape[0]
        global_shape = sources.global_shape
        subgrid_shape = sources.subgrid_shape
        source_stack = sources.stacked
        source_names = {sources.name}
    else:
        entries = list(sources)
        if not entries:
            raise ValueError("sources must not be empty")
        machine = entries[0].machine
        global_shape = entries[0].global_shape
        subgrid_shape = entries[0].subgrid_shape
        for i, array in enumerate(entries):
            if array.machine is not machine:
                raise ExecutionSetupError(
                    f"batch source {i} ({array.name!r}) lives on a "
                    f"different machine"
                )
            if array.global_shape != global_shape:
                raise ExecutionSetupError(
                    shape_mismatch(
                        f"batch source {i} ({array.name!r})",
                        array.global_shape,
                        global_shape,
                    )
                )
        batch = len(entries)
        source_stack = machine.scratch_stacked(
            "__batch_source__", subgrid_shape, (batch,)
        )
        for b, array in enumerate(entries):
            stack = machine.stacked(array.name)
            if stack is not None:
                source_stack[b] = stack
            else:
                for node in machine.nodes():
                    source_stack[b, node.coord.row, node.coord.col] = (
                        node.memory.buffer(array.name)
                    )
        source_names = {array.name for array in entries}

    # ------------------------------------------------------------------
    # Filter validation
    # ------------------------------------------------------------------
    rows, cols = subgrid_shape
    for fi, compiled in enumerate(filters):
        pattern = compiled.pattern
        label = pattern.name or f"filter {fi}"
        if getattr(pattern, "extra_terms", ()):
            raise ExecutionSetupError(
                f"the batched runtime does not support fused extra terms "
                f"({label})"
            )
        pad = pattern.border_widths().max_width
        if pad > min(rows, cols):
            raise ExecutionSetupError(
                f"halo width {pad} of {label} exceeds the subgrid extent "
                f"{subgrid_shape}; the exchange primitive reaches only "
                f"immediate neighbors"
            )

    coeff_stacks = _resolve_coefficient_stacks(
        machine, filters, coefficients, global_shape
    )

    # ------------------------------------------------------------------
    # Result resolution (alias checks BEFORE any allocation can clobber
    # a same-named source)
    # ------------------------------------------------------------------
    if result is None:
        result = f"{filters[0].pattern.result}__batch__"
    if isinstance(result, str):
        if result in source_names:
            raise ExecutionSetupError(
                f"result {result!r} must not alias a source array"
            )
        result = CMBatch(
            result, machine, (batch, len(filters)), global_shape
        )
    else:
        if result is sources or result.name in source_names:
            raise ExecutionSetupError(
                f"result {result.name!r} must not alias a source array"
            )
        if result.machine is not machine:
            raise ExecutionSetupError(
                f"result {result.name!r} lives on a different machine"
            )
        want = (batch, len(filters)) + tuple(global_shape)
        got = result.lead_shape + result.global_shape
        if got != want:
            raise ExecutionSetupError(
                shape_mismatch(f"result batch {result.name!r}", got, want)
            )

    if check_finite:
        if not np.isfinite(source_stack).all():
            raise NonFiniteInputError(
                "batch source contains non-finite values"
            )
        for name, stack in coeff_stacks.items():
            if not np.isfinite(stack).all():
                raise NonFiniteInputError(
                    f"coefficient array {name!r} contains non-finite values"
                )

    if abft:
        if resilience is None:
            resilience = ResiliencePolicy(abft=True)
        elif not resilience.abft:
            resilience = replace(resilience, abft=True)
    guarded = faults is not None or resilience is not None
    depths = _resolve_batch_depths(
        filters,
        subgrid_shape,
        iterations,
        exact,
        guarded,
        block_depth,
        batch,
        machine,
        tenant,
    )
    groups = _filter_groups([compiled.pattern for compiled in filters])
    result6 = result.stacked

    if exact:
        counters = _run_exact(
            filters,
            source_stack,
            result6,
            coefficients,
            subgrid_shape,
            global_shape,
            iterations,
            machine,
            faults,
            resilience,
        )
    elif any(depth > 1 for depth in depths):
        counters = _run_blocked(
            filters,
            source_stack,
            result6,
            coeff_stacks,
            subgrid_shape,
            params,
            iterations,
            depths,
            groups,
            machine,
        )
    elif guarded:
        guard = FaultGuard(policy=resilience, injector=faults)
        guard.attach_machine(machine)
        counters = _run_unblocked(
            filters,
            source_stack,
            result6,
            coeff_stacks,
            subgrid_shape,
            params,
            iterations,
            groups,
            machine,
            guard,
        )
    else:
        counters = _run_unblocked(
            filters,
            source_stack,
            result6,
            coeff_stacks,
            subgrid_shape,
            params,
            iterations,
            groups,
            machine,
            None,
        )

    per_filter = []
    for fi, compiled in enumerate(filters):
        pattern = compiled.pattern
        per_filter.append(
            FilterCost(
                name=pattern.name or f"filter{fi}",
                index=fi,
                block_depth=depths[fi],
                pad=pattern.border_widths().max_width,
                shared_exchanges=counters["f_shared"][fi],
                own_exchanges=counters["f_own"][fi],
                coeff_exchanges=counters["f_coeff"][fi],
                comm_cycles=counters["f_comm"][fi],
                compute_cycles=counters["f_compute"][fi],
                half_strips=counters["f_strips"][fi],
                useful_flops=(
                    batch
                    * iterations
                    * rows
                    * cols
                    * machine.num_nodes
                    * pattern.useful_flops_per_point()
                ),
            )
        )

    return BatchStencilRun(
        filters=filters,
        machine=machine,
        result=result,
        batch=batch,
        iterations=iterations,
        exact=exact,
        block_depths=depths,
        num_exchanges=counters["num_exchanges"],
        coeff_exchanges=counters["coeff_exchanges"],
        total_comm_cycles=counters["total_comm_cycles"],
        total_compute_cycles=counters["total_compute_cycles"],
        total_half_strips=counters["total_half_strips"],
        host_half_strips=counters["host_half_strips"],
        host_calls=counters["host_calls"],
        per_filter=tuple(per_filter),
        faults=counters["faults"],
    )
