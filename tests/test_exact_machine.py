"""Exact mode walks the sequencer once for the whole machine.

The CM-2 is synchronous SIMD, so :func:`machine_execute_exact` steps one
WTL3164 whose float32 state carries a node ("lane") axis.  These tests
hold it to the per-node oracle: every node's slice of one machine walk
must equal :func:`node_execute_exact` on that node alone, bit for bit,
with identical cycle and datapath accounting -- across the gallery,
both ring-sizing strategies, a non-square node grid, constant pages,
fused extra terms, detached buffers, spare nodes, and the paper's full
2,048-node machine.
"""

import numpy as np
import pytest

from repro.compiler.codegen import ExtraTerm
from repro.compiler.driver import compile_fortran, compile_stencil
from repro.compiler.fusion import fuse
from repro.machine.machine import CM2
from repro.machine.isa import MemRef
from repro.machine.memory import AccessCounts, MachinePort, MemoryError_
from repro.machine.params import MachineParams
from repro.runtime.cm_array import CMArray
from repro.runtime.executor import (
    exact_walk,
    machine_execute_exact,
    node_execute_exact,
)
from repro.runtime.halo import exchange_halo
from repro.runtime.stencil_op import apply_stencil
from repro.runtime.strips import StripSchedule
from repro.stencil import gallery
from repro.stencil.pattern import Coefficient

#: 8 nodes as a non-square 2x4 grid of 8x10 subgrids (strips 8 + 2).
GRID = (2, 4)
SHAPE = (16, 40)

STATEMENTS = {
    "scalar_coefficients": (
        "R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X - 0.125 * CSHIFT(X, 2, +1)"
    ),
    "constant_term": "R = C1 * CSHIFT(X, 1, -1) + C2",
}

STRATEGIES = ("paper", "optimal")

PATTERNS = [
    *(fn.__name__ for fn in (
        gallery.cross5,
        gallery.cross9,
        gallery.square9,
        gallery.diamond13,
        gallery.asymmetric5,
        gallery.border_demo,
    )),
    *STATEMENTS,
]


def base_pattern(name, params):
    if name in STATEMENTS:
        return compile_fortran(STATEMENTS[name], params).pattern
    return getattr(gallery, name)()


def fused_stencil(params):
    term = ExtraTerm(source="Y", coeff=Coefficient.array("CY"))
    return fuse(gallery.cross5(), [term], params)


def make_machine(params, *, spares=0):
    return CM2(params, shape=GRID, spares=spares)


def distribute(compiled, machine, seed=0):
    """Distribute the source ``X``, the coefficients and any fused extra
    sources, named as the statement names them; returns
    ``(source, coefficients)``."""
    rng = np.random.default_rng(seed)

    def array(name):
        data = rng.standard_normal(SHAPE).astype(np.float32)
        return CMArray.from_numpy(name, machine, data)

    source = array("X")
    coefficients = {
        name: array(name) for name in compiled.pattern.coefficient_names()
    }
    for name in getattr(compiled.pattern, "extra_source_names", tuple)():
        array(name)
    return source, coefficients


def prepared(compiled, *, spares=0):
    """A machine with its inputs distributed and halos exchanged:
    ``(machine, schedule, pad)``, result buffer ``R`` zeroed."""
    machine = make_machine(compiled.params, spares=spares)
    source, _ = distribute(compiled, machine)
    CMArray("R", machine, SHAPE)
    pad = exchange_halo(source, compiled.pattern, compiled.params).pad
    schedule = StripSchedule.cached(compiled, source.subgrid_shape)
    return machine, schedule, pad


def bits(array):
    return np.ascontiguousarray(array).view(np.uint32)


def reset_counts(machine):
    for node in machine.nodes():
        node.memory.counts = AccessCounts()


def compiled_for(name, strategy):
    params = MachineParams(num_nodes=GRID[0] * GRID[1])
    if name == "fused":
        return fused_stencil(params)
    pattern = base_pattern(name, params)
    return compile_stencil(pattern, params, strategy=strategy)


CASES = [
    *((name, strategy) for name in PATTERNS for strategy in STRATEGIES),
    ("fused", "paper"),
]


class TestPerNodeOracle:
    @pytest.mark.parametrize("name,strategy", CASES)
    def test_machine_walk_matches_each_node_alone(self, name, strategy):
        compiled = compiled_for(name, strategy)
        machine, schedule, pad = prepared(compiled)
        walk = dict(source_name="X", result_name="R", halo=pad)

        cycles = machine_execute_exact(compiled, machine, schedule, **walk)
        port = MachinePort(machine)
        machine_stats = exact_walk(compiled, port, schedule, **walk)
        port.settle()
        assert machine_stats.cycles == cycles
        assert cycles == schedule.compute_cycles(compiled.params)
        walked = machine.stacked("R").copy()
        assert np.isfinite(walked).all()

        machine.stacked("R")[...] = np.nan
        for node in machine.nodes():
            alone = node_execute_exact(compiled, node, schedule, **walk)
            row, col = node.coord.row, node.coord.col
            np.testing.assert_array_equal(
                bits(node.memory.buffer("R")), bits(walked[row, col])
            )
            assert alone == cycles
        # The accounting is the instruction stream's, the same on every
        # node: one one-node walk stands for all of them.
        node = next(machine.nodes())
        node_stats = exact_walk(compiled, node.memory, schedule, **walk)
        assert node_stats == machine_stats
        assert node_stats.stall_reasons == machine_stats.stall_reasons

    @pytest.mark.parametrize(
        "name", ["square9", "scalar_coefficients", "fused"]
    )
    def test_node_counts_match_a_one_lane_walk(self, name):
        compiled = compiled_for(name, "paper")
        machine, schedule, pad = prepared(compiled)
        walk = dict(source_name="X", result_name="R", halo=pad)

        reset_counts(machine)
        machine_execute_exact(compiled, machine, schedule, **walk)
        walked = [
            (node.memory.counts.reads, node.memory.counts.writes)
            for node in machine.nodes()
        ]
        reset_counts(machine)
        alone = []
        for node in machine.nodes():
            node_execute_exact(compiled, node, schedule, **walk)
            counts = node.memory.counts
            alone.append((counts.reads, counts.writes))
        assert walked == alone
        assert walked[0][0] > 0 and walked[0][1] == SHAPE[0] * SHAPE[1] // 8


class TestStaging:
    """Buffers without an intact machine stack go through one staged
    copy per call: gathered before the walk, written ones scattered
    back after it."""

    @pytest.mark.parametrize("detached", ["C1", "R"])
    def test_detached_buffer(self, detached):
        params = MachineParams(num_nodes=8)
        compiled = compile_stencil(gallery.square9(), params)
        machine = make_machine(params)
        source, coefficients = distribute(compiled, machine, seed=3)
        result = CMArray("R", machine, SHAPE)

        # Replace one node's buffer with different data: the node now
        # disagrees with the stack, which only a gather from node memory
        # (or, for the result, a scatter back into it) can honour.
        node = machine.node(0, 1)
        tile = np.random.default_rng(9).standard_normal((8, 10))
        node.memory.install(detached, tile.astype(np.float32))
        assert machine.stacked(detached) is None
        fast = apply_stencil(compiled, source, coefficients, "F").result
        run = apply_stencil(compiled, source, coefficients, result, exact=True)
        np.testing.assert_array_equal(
            bits(run.result.to_numpy()), bits(fast.to_numpy())
        )
        assert run.compute_cycles == StripSchedule.cached(
            compiled, source.subgrid_shape
        ).compute_cycles(params)

    def test_mismatched_node_buffer_is_a_typed_error(self):
        params = MachineParams(num_nodes=8)
        machine = make_machine(params)
        CMArray("C1", machine, SHAPE)
        machine.node(1, 3).memory.install("C1", np.zeros((8, 9)))
        with pytest.raises(MemoryError_, match="differs in shape"):
            MachinePort(machine).read(MemRef("C1", 0, 0))

    def test_after_spare_remap(self):
        params = MachineParams(num_nodes=8)
        compiled = compile_stencil(gallery.cross9(), params)
        machine = make_machine(params, spares=1)
        source, coefficients = distribute(compiled, machine, seed=4)
        fast = apply_stencil(compiled, source, coefficients, "F").result
        machine.remap_node(1, 2)
        assert machine.stacked("X") is not None
        run = apply_stencil(compiled, source, coefficients, "E", exact=True)
        np.testing.assert_array_equal(
            bits(run.result.to_numpy()), bits(fast.to_numpy())
        )


class TestFullMachine:
    def test_2048_nodes_square9(self):
        """The paper's full machine: 2,048 nodes of 8x8 (a 256x512
        grid), exact bit-identical to fast with exact cycles."""
        params = MachineParams(num_nodes=2048)
        machine = CM2(params)
        compiled = compile_stencil(gallery.square9(), params)
        shape = (machine.grid_rows * 8, machine.grid_cols * 8)
        assert shape == (256, 512)
        rng = np.random.default_rng(5)
        source = CMArray.from_numpy(
            "X", machine, rng.standard_normal(shape).astype(np.float32)
        )
        coefficients = {
            name: CMArray.from_numpy(
                name, machine, rng.standard_normal(shape).astype(np.float32)
            )
            for name in compiled.pattern.coefficient_names()
        }
        fast = apply_stencil(compiled, source, coefficients, "F")
        exact = apply_stencil(compiled, source, coefficients, "E", exact=True)
        np.testing.assert_array_equal(
            bits(exact.result.to_numpy()), bits(fast.result.to_numpy())
        )
        schedule = StripSchedule.cached(compiled, source.subgrid_shape)
        assert exact.compute_cycles == schedule.compute_cycles(params)
        assert exact.compute_cycles == fast.compute_cycles
