"""Temporal blocking: deep-halo multi-iteration fusion.

The contract under test is strict bit-identity: a blocked run at any
depth must reproduce, bit for bit in float32, what ``T`` sequential
single-exchange iterations produce -- across boundary modes, pads, and
tail blocks -- while exchanging halos only ``ceil(k / T)`` times and
reusing its preallocated ping-pong buffers across calls.
"""

import math

import numpy as np
import pytest

from repro.compiler.driver import compile_stencil
from repro.machine.machine import CM2
from repro.machine.memory import MachineStorage
from repro.machine.params import MachineParams
from repro.runtime import stencil_op
from repro.runtime.batch import CMBatch, apply_stencil_batch
from repro.runtime.blocking import blocked_costs, depth_cap
from repro.runtime.cm_array import CMArray
from repro.runtime.executor import machine_execute_blocked
from repro.runtime.faults import FaultInjector, FaultKind
from repro.runtime.halo import exchange_halo_deep, halo_buffer_name
from repro.runtime.stencil_op import apply_stencil
from repro.stencil.gallery import cross, diamond, square
from repro.stencil.offsets import BoundaryMode
from repro.stencil.pattern import pattern_from_offsets

SHAPE = (16, 24)  # 4 nodes -> 2x2 grid of 8x12 subgrids
ITERATIONS = 7  # not a multiple of any tested depth > 1: tail blocks


def boundary_variant(pattern, mode, fill_value=0.0):
    """The same taps under a chosen boundary mode."""
    modes = {
        "torus": {1: BoundaryMode.CIRCULAR, 2: BoundaryMode.CIRCULAR},
        "fill": {1: BoundaryMode.FILL, 2: BoundaryMode.FILL},
        "mixed": {1: BoundaryMode.FILL, 2: BoundaryMode.CIRCULAR},
    }[mode]
    return pattern_from_offsets(
        [tap.offset for tap in pattern.taps],
        name=f"{pattern.name}_{mode}",
        boundary=modes,
        fill_value=fill_value,
    )


def make_problem(pattern, *, num_nodes=4, seed=0, shape=SHAPE):
    params = MachineParams(num_nodes=num_nodes)
    machine = CM2(params)
    compiled = compile_stencil(pattern, params)
    rng = np.random.default_rng(seed)
    x = CMArray.from_numpy(
        "X", machine, rng.standard_normal(shape).astype(np.float32)
    )
    coeffs = {
        name: CMArray.from_numpy(
            name, machine, rng.standard_normal(shape).astype(np.float32)
        )
        for name in pattern.coefficient_names()
    }
    return machine, compiled, x, coeffs


GALLERY = [
    ("cross1", lambda: cross(1)),  # pad 1, no corner taps
    ("cross2", lambda: cross(2)),  # pad 2
    ("cross3", lambda: cross(3)),  # pad 3: depth clamps at 8x12 subgrids
    ("square1", lambda: square(1)),  # pad 1 with corner taps
    ("diamond2", lambda: diamond(2)),  # pad 2, diagonal reach
]


class TestBitIdentity:
    @pytest.mark.parametrize("patname,make", GALLERY)
    @pytest.mark.parametrize("mode", ["torus", "fill", "mixed"])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_blocked_equals_unblocked_bit_for_bit(
        self, patname, make, mode, depth
    ):
        pattern = boundary_variant(make(), mode, fill_value=1.5)
        _, compiled, x, coeffs = make_problem(pattern)
        reference = apply_stencil(
            compiled, x, coeffs, "R_REF", iterations=ITERATIONS
        )
        _, compiled2, x2, coeffs2 = make_problem(pattern)
        blocked = apply_stencil(
            compiled2,
            x2,
            coeffs2,
            "R_BLK",
            iterations=ITERATIONS,
            block_depth=depth,
        )
        np.testing.assert_array_equal(
            blocked.result.to_numpy(), reference.result.to_numpy()
        )
        cap = depth_cap(pattern, x.subgrid_shape, ITERATIONS)
        assert blocked.block_depth == min(depth, cap)

    def test_auto_depth_is_feasible_and_bit_identical(self):
        pattern = cross(1)
        _, compiled, x, coeffs = make_problem(pattern, seed=9)
        reference = apply_stencil(compiled, x, coeffs, "R_REF", iterations=12)
        _, compiled2, x2, coeffs2 = make_problem(pattern, seed=9)
        auto = apply_stencil(
            compiled2, x2, coeffs2, "R_AUTO", iterations=12, block_depth="auto"
        )
        np.testing.assert_array_equal(
            auto.result.to_numpy(), reference.result.to_numpy()
        )
        assert 1 <= auto.block_depth <= depth_cap(pattern, x.subgrid_shape, 12)

    def test_source_array_is_never_modified(self):
        pattern = square(1)
        _, compiled, x, coeffs = make_problem(pattern, seed=4)
        before = x.to_numpy().copy()
        apply_stencil(compiled, x, coeffs, "R", iterations=6, block_depth=3)
        np.testing.assert_array_equal(x.to_numpy(), before)

    def test_invalid_depth_rejected(self):
        pattern = cross(1)
        _, compiled, x, coeffs = make_problem(pattern)
        with pytest.raises(ValueError):
            apply_stencil(compiled, x, coeffs, "R", iterations=4, block_depth=0)
        with pytest.raises(ValueError):
            apply_stencil(
                compiled, x, coeffs, "R", iterations=4, block_depth="deep"
            )

    def test_per_node_mode_resolves_to_unblocked(self):
        pattern = cross(1)
        _, compiled, x, coeffs = make_problem(pattern, seed=7)
        run = apply_stencil(
            compiled,
            x,
            coeffs,
            "R",
            iterations=4,
            batched=False,
            block_depth=4,
        )
        assert run.block_depth == 1
        _, compiled2, x2, coeffs2 = make_problem(pattern, seed=7)
        reference = apply_stencil(compiled2, x2, coeffs2, "R2", iterations=4)
        np.testing.assert_array_equal(
            run.result.to_numpy(), reference.result.to_numpy()
        )


class TestExchangeAccounting:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_blocked_run_exchanges_ceil_k_over_t(self, depth):
        pattern = cross(1)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, "R", iterations=ITERATIONS, block_depth=depth
        )
        assert run.block_depth == depth
        assert run.exchanges == math.ceil(ITERATIONS / depth)
        assert run.coeff_exchanges == len(pattern.coefficient_names())

    def test_blocked_totals_match_the_cost_model(self):
        pattern = square(1)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, "R", iterations=ITERATIONS, block_depth=3
        )
        costs = blocked_costs(compiled, x.subgrid_shape, ITERATIONS, 3)
        assert run.comm_cycles_total == costs.total_comm_cycles
        assert run.compute_cycles_total == costs.total_compute_cycles
        assert run.half_strips_total == costs.total_half_strips
        assert run.block_comm == costs.block_comm

    def test_unblocked_run_aggregates_per_iteration_comm(self):
        """Satellite: every iteration's exchange is charged, not just
        the first one's."""
        pattern = cross(2)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(compiled, x, coeffs, "R", iterations=5)
        assert run.exchanges == 5
        assert run.comm_cycles_total == 5 * run.comm.cycles
        single = apply_stencil(compiled, x, coeffs, "R1")
        assert single.exchanges == 1
        assert single.comm_cycles_total == single.comm.cycles

    def test_blocked_exchange_cycles_beat_unblocked(self):
        """The point of the whole exercise: fewer, deeper exchanges cost
        fewer total comm cycles once the run is long enough to amortize
        the per-coefficient deep exchanges."""
        pattern = cross(1)
        params = MachineParams(num_nodes=16)
        machine = CM2(params)
        compiled = compile_stencil(pattern, params)
        rng = np.random.default_rng(0)
        x = CMArray.from_numpy(
            "X", machine, rng.standard_normal((16, 16)).astype(np.float32)
        )
        coeffs = {
            name: CMArray.from_numpy(
                name, machine, rng.standard_normal((16, 16)).astype(np.float32)
            )
            for name in pattern.coefficient_names()
        }
        unblocked = apply_stencil(compiled, x, coeffs, "RU", iterations=32)
        blocked = apply_stencil(
            compiled, x, coeffs, "RB", iterations=32, block_depth=4
        )
        assert blocked.exchanges == 8
        assert blocked.comm_cycles_total < unblocked.comm_cycles_total

    def test_blocked_fixed_point_still_charges_whole_run(self):
        """An all-zero iterate is a fixed point; the blocked loop stops
        computing but the accounting still covers every block."""
        pattern = cross(1)
        params = MachineParams(num_nodes=4)
        machine = CM2(params)
        compiled = compile_stencil(pattern, params)
        x = CMArray.from_numpy(
            "X", machine, np.zeros(SHAPE, dtype=np.float32)
        )
        rng = np.random.default_rng(1)
        coeffs = {
            name: CMArray.from_numpy(
                name, machine, rng.standard_normal(SHAPE).astype(np.float32)
            )
            for name in pattern.coefficient_names()
        }
        run = apply_stencil(
            compiled, x, coeffs, "R", iterations=8, block_depth=2
        )
        np.testing.assert_array_equal(
            run.result.to_numpy(), np.zeros(SHAPE, dtype=np.float32)
        )
        assert run.exchanges == 4
        costs = blocked_costs(compiled, x.subgrid_shape, 8, 2)
        assert run.comm_cycles_total == costs.total_comm_cycles


class TestPingPongReuse:
    def test_no_new_allocations_after_warm_up(self):
        pattern = square(1)
        machine, compiled, x, coeffs = make_problem(pattern, seed=11)
        apply_stencil(
            compiled, x, coeffs, "R", iterations=ITERATIONS, block_depth=3
        )
        warm = machine.storage.scratch_allocations
        assert warm > 0
        for seed in range(3):
            apply_stencil(
                compiled, x, coeffs, "R", iterations=ITERATIONS, block_depth=3
            )
        assert machine.storage.scratch_allocations == warm

    def test_ping_pong_pair_is_stable_across_calls(self):
        pattern = cross(1)
        machine, compiled, x, coeffs = make_problem(pattern, seed=12)
        apply_stencil(compiled, x, coeffs, "R", iterations=4, block_depth=2)
        from repro.runtime.halo import halo_buffer_name

        shape = tuple(s + 4 for s in x.subgrid_shape)
        ping, pong = machine.pingpong_stacked(halo_buffer_name("X"), shape)
        apply_stencil(compiled, x, coeffs, "R", iterations=4, block_depth=2)
        ping2, pong2 = machine.pingpong_stacked(halo_buffer_name("X"), shape)
        assert ping is ping2 and pong is pong2

    def test_depth_change_reallocates_then_stabilizes(self):
        pattern = cross(1)
        machine, compiled, x, coeffs = make_problem(pattern, seed=13)
        apply_stencil(compiled, x, coeffs, "R", iterations=8, block_depth=2)
        after_d2 = machine.storage.scratch_allocations
        apply_stencil(compiled, x, coeffs, "R", iterations=8, block_depth=4)
        after_d4 = machine.storage.scratch_allocations
        assert after_d4 > after_d2  # deeper halo -> bigger buffers
        apply_stencil(compiled, x, coeffs, "R", iterations=8, block_depth=4)
        assert machine.storage.scratch_allocations == after_d4


class TestPerNodeFixedPoint:
    def test_per_node_fast_path_short_circuits(self, monkeypatch):
        """Satellite: the batched=False fast path stops computing at a
        fixed point too, with identical charging semantics."""
        pattern = pattern_from_offsets([(0, 0)], name="identity")
        params = MachineParams(num_nodes=4)
        machine = CM2(params)
        compiled = compile_stencil(pattern, params)
        rng = np.random.default_rng(3)
        x_host = rng.standard_normal(SHAPE).astype(np.float32)
        x = CMArray.from_numpy("X", machine, x_host)
        coeffs = {
            "C1": CMArray.from_numpy(
                "C1", machine, np.ones(SHAPE, dtype=np.float32)
            )
        }
        calls = []
        real = stencil_op.node_execute_fast

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(stencil_op, "node_execute_fast", counting)
        run = apply_stencil(
            compiled, x, coeffs, "R", iterations=50, batched=False
        )
        np.testing.assert_array_equal(run.result.to_numpy(), x_host)
        # One iteration's worth of per-node work, not fifty.
        assert len(calls) == machine.num_nodes
        # ...while the accounting still charges the full run.
        assert run.exchanges == 50
        assert run.comm_cycles_total == 50 * run.comm.cycles
        one = apply_stencil(compiled, x, coeffs, "R1", batched=False)
        assert run.elapsed_seconds == pytest.approx(50 * one.elapsed_seconds)


# ---------------------------------------------------------------------------
# The lane-minor working set
# ---------------------------------------------------------------------------

LAYOUT_GRID = (2, 2)
LAYOUT_SUBGRID = (12, 12)
LAYOUT_CASES = [
    (patname, make, depth, tail, lead)
    for patname, make in GALLERY
    for depth in (2, 3, 4)
    # A tail block runs one step fewer inside the full-depth buffers.
    for tail in (False, True)
    for lead in ((), (3,))
    if depth * make().border_widths().max_width <= min(LAYOUT_SUBGRID)
]


def run_one_block(pattern, *, depth, tail, lead, lane_minor, seed=0):
    """One ``machine_execute_blocked`` call on buffers allocated
    lane-minor or native, exactly as the blocked orchestrators lay them
    out.  Returns the block's subgrid output and its fixed-point flag."""
    rows, cols = LAYOUT_SUBGRID
    params = MachineParams(num_nodes=LAYOUT_GRID[0] * LAYOUT_GRID[1])
    storage = MachineStorage(LAYOUT_GRID)
    rng = np.random.default_rng(seed)
    source = rng.standard_normal(
        lead + LAYOUT_GRID + LAYOUT_SUBGRID
    ).astype(np.float32)
    pad = pattern.border_widths().max_width
    steps = depth - 1 if tail else depth
    deep, deep_b = depth * pad, steps * pad
    padded_shape = (rows + 2 * deep, cols + 2 * deep)
    ping, pong, prod = (
        storage.scratch(role, padded_shape, lead, lane_minor=lane_minor)
        for role in ("ping", "pong", "prod")
    )
    deep_coeffs = {}
    for name in pattern.coefficient_names():
        coeff = rng.standard_normal(LAYOUT_GRID + LAYOUT_SUBGRID)
        buf = storage.scratch(
            f"{name}__deep__", padded_shape, lane_minor=lane_minor
        )
        exchange_halo_deep(
            coeff.astype(np.float32), buf, pattern, LAYOUT_SUBGRID, params,
            depth,
        )
        deep_coeffs[name] = buf
    delta = deep - deep_b
    window = (
        Ellipsis,
        slice(delta, delta + rows + 2 * deep_b),
        slice(delta, delta + cols + 2 * deep_b),
    )
    ping, pong = ping[window], pong[window]
    deep_coeffs = {name: buf[window] for name, buf in deep_coeffs.items()}
    exchange_halo_deep(source, ping, pattern, LAYOUT_SUBGRID, params, steps)
    final, fixed = machine_execute_blocked(
        pattern,
        ping=ping,
        pong=pong,
        deep_coeffs=deep_coeffs,
        subgrid_shape=LAYOUT_SUBGRID,
        pad=pad,
        steps=steps,
        scratch=prod,
    )
    out = final[..., deep_b : deep_b + rows, deep_b : deep_b + cols]
    return np.ascontiguousarray(out), fixed


def lanes_first(stack):
    return np.moveaxis(stack, (-2, -1), (0, 1))


class TestLaneMinorLayout:
    @pytest.mark.parametrize("mode", ["torus", "fill", "mixed"])
    @pytest.mark.parametrize(
        "patname,make,depth,tail,lead",
        LAYOUT_CASES,
        ids=[
            f"{p}-T{d}{'-tail' if t else ''}{'-batch' if lead else ''}"
            for p, _, d, t, lead in LAYOUT_CASES
        ],
    )
    def test_lane_minor_equals_native_as_uint32(
        self, patname, make, depth, tail, lead, mode
    ):
        pattern = boundary_variant(make(), mode, fill_value=1.5)
        native, fixed_native = run_one_block(
            pattern, depth=depth, tail=tail, lead=lead, lane_minor=False
        )
        lanes, fixed_lanes = run_one_block(
            pattern, depth=depth, tail=tail, lead=lead, lane_minor=True
        )
        np.testing.assert_array_equal(
            lanes.view(np.uint32), native.view(np.uint32)
        )
        assert fixed_lanes == fixed_native

    def test_solo_working_set_is_lane_minor(self):
        pattern = square(1)
        machine, compiled, x, coeffs = make_problem(pattern, seed=14)
        apply_stencil(compiled, x, coeffs, "R", iterations=5, block_depth=2)
        halo = halo_buffer_name("X")
        names = [f"{halo}__ping__", f"{halo}__pong__", f"{halo}__prod__"]
        names += [f"{name}__deep__" for name in pattern.coefficient_names()]
        padded = tuple(n + 4 for n in x.subgrid_shape)
        for name in names:
            stack = machine.storage.lookup(name)
            assert stack.shape == machine.shape + padded, name
            assert lanes_first(stack).flags.c_contiguous, name
        # Distributed arrays keep the native layout.
        assert machine.stacked("X").flags.c_contiguous

    def test_batch_working_set_is_lane_minor(self):
        params = MachineParams(num_nodes=4)
        machine = CM2(params, shape=(2, 2))
        patterns = [cross(1), square(1)]
        filters = [compile_stencil(p, params) for p in patterns]
        rng = np.random.default_rng(15)
        source = CMBatch.from_numpy(
            "Xb", machine, rng.standard_normal((2,) + SHAPE).astype(np.float32)
        )
        coeffs = {
            name: CMArray.from_numpy(
                name, machine, rng.standard_normal(SHAPE).astype(np.float32)
            )
            for name in sorted(
                {n for p in patterns for n in p.coefficient_names()}
            )
        }
        apply_stencil_batch(
            filters, source, coeffs, iterations=5, block_depth=2
        )
        stacks = dict(machine.storage.tile_stacks())
        iterates = [n for n in stacks if n.startswith("__batch_blk_")]
        deep_coeffs = [
            n for n in stacks if "__deep" in n and n.split("__")[0] in coeffs
        ]
        assert len(iterates) == 3 * len(filters)  # ping, pong, prod
        assert {n.split("__")[0] for n in deep_coeffs} == set(coeffs)
        for name in iterates + deep_coeffs:
            assert lanes_first(stacks[name]).flags.c_contiguous, name
        # The shared group exchange and the unblocked scratch are native.
        shared = machine.storage.lookup("__batch_deep_g0__")
        assert shared.flags.c_contiguous

    @pytest.mark.parametrize("lane_minor", [False, True])
    def test_scratch_bitflip_reports_the_native_index_it_flipped(
        self, lane_minor
    ):
        storage = MachineStorage((2, 4))
        stack = storage.scratch(
            "ping", (6, 5), (3,), lane_minor=lane_minor
        )
        stack[...] = np.arange(stack.size, dtype=np.float32).reshape(
            stack.shape
        )
        before = stack.copy()
        injector = FaultInjector(
            seed=21, rates={FaultKind.SCRATCH_BITFLIP: 1.0}
        )
        (event,) = injector.inject_scratch([("ping stack", stack)])
        changed = np.argwhere(
            stack.view(np.uint32) != before.view(np.uint32)
        )
        assert len(changed) == 1
        index = tuple(int(i) for i in changed[0])
        bit = int(event.detail.split()[1])
        assert event.detail == f"bit {bit} at {index}"
        assert stack.view(np.uint32)[index] == (
            before.view(np.uint32)[index] ^ np.uint32(1 << bit)
        )
        # The same seed flips the same logical word in either layout.
        native = MachineStorage((2, 4)).scratch("ping", (6, 5), (3,))
        native[...] = before
        (again,) = FaultInjector(
            seed=21, rates={FaultKind.SCRATCH_BITFLIP: 1.0}
        ).inject_scratch([("ping stack", native)])
        assert again.detail == event.detail
        np.testing.assert_array_equal(
            native.view(np.uint32), stack.view(np.uint32)
        )
