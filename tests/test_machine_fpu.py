"""Tests for the WTL3164 pipeline model: timing, chaining, validation."""

import numpy as np
import pytest

from repro.machine.fpu import ScheduleError, Wtl3164
from repro.machine.isa import Instr, LoadOp, MAOp, MemRef, NopOp, StoreOp
from repro.machine.machine import CM2
from repro.machine.memory import MachinePort, MemoryError_, NodeMemory
from repro.machine.params import MachineParams
from repro.stencil.pattern import Coefficient

#: A single node (scalar registers) and four nodes stepped as lanes.
LANES = [(), (4,)]


def lane_memory(lanes):
    """The test buffers behind a memory of the given lane shape: one
    node's memory, or a port over a machine whose node ``i`` holds
    ``data + 16 * i`` (so the lanes carry different values)."""
    data = np.arange(16, dtype=np.float32).reshape(4, 4)
    coeff = np.full((4, 4), 2.0, dtype=np.float32)
    if not lanes:
        mem = NodeMemory()
        mem.install("data", data)
        mem.install("coeff", coeff)
        mem.allocate("out", (4, 4))
        return mem
    (nodes,) = lanes
    machine = CM2(MachineParams(num_nodes=nodes))
    stack = machine.alloc_stacked("data", (4, 4))
    stack[...] = data + 16 * np.arange(nodes, dtype=np.float32).reshape(
        machine.shape + (1, 1)
    )
    machine.alloc_stacked("coeff", (4, 4))[...] = coeff
    machine.alloc_stacked("out", (4, 4))
    return MachinePort(machine)


@pytest.fixture
def lanes():
    return ()


@pytest.fixture
def memory(lanes):
    return lane_memory(lanes)


@pytest.fixture
def params():
    return MachineParams(num_nodes=1)


def make_fpu(params, memory, unit_reg=None):
    return Wtl3164(params, memory, zero_reg=0, unit_reg=unit_reg)


def load(reg, row, col, buffer="data"):
    return Instr(LoadOp(reg=reg, row=row, col=col), MemRef(buffer, row, col))


def ma(data_reg, dest, *, thread=0, first=True, last=True, row=0, col=0):
    return Instr(
        MAOp(
            coeff=Coefficient.array("coeff"),
            data_reg=data_reg,
            dest_reg=dest,
            thread=thread,
            first=first,
            last=last,
            result_col=col,
        ),
        MemRef("coeff", row, col),
    )


def store(reg, row, col):
    return Instr(StoreOp(reg=reg, result_col=col), MemRef("out", row, col))


def nop(n=1):
    return [Instr(NopOp("test"), None)] * n


class TestBasicDataflow:
    def test_load_compute_store(self, params, memory):
        """coeff[0,1] * data[0,1] = 2 * 1 = 2."""
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(2)  # load latency
        fpu.run([ma(2, 2, row=0, col=1)])
        fpu.stall(6)  # writeback + reversal gap
        fpu.run([store(2, 0, 1)])
        fpu.drain()
        assert memory.buffer("out")[0, 1] == np.float32(2.0)

    def test_load_latency_respected(self, params, memory):
        """A register read before its load lands sees the old value."""
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        # Value lands at cycle 0 + 2; a read at cycle 1 is uninitialized.
        with pytest.raises(ScheduleError, match="uninitialized"):
            fpu.run([ma(2, 2)])

    def test_chained_accumulation(self, params, memory):
        """Three chained multiply-adds accumulate 2*(d0 + d1 + d2)."""
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 1, 0), load(3, 1, 1), load(4, 1, 2)])
        fpu.stall(2)
        # One thread issues every other cycle: interleave with nops.
        fpu.step(ma(2, 4, first=True, last=False, row=1, col=0))
        fpu.step(Instr(NopOp("interleave"), None))
        fpu.step(ma(3, 4, first=False, last=False, row=1, col=1))
        fpu.step(Instr(NopOp("interleave"), None))
        fpu.step(ma(4, 4, first=False, last=True, row=1, col=2))
        fpu.stall(6)
        fpu.run([store(4, 1, 0)])
        fpu.drain()
        expected = np.float32(2.0 * (4 + 5 + 6))
        assert memory.buffer("out")[1, 0] == expected

    def test_two_interleaved_threads(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 0), load(3, 0, 1)])
        fpu.stall(2)
        fpu.step(ma(2, 2, thread=0, row=0, col=0))
        fpu.step(ma(3, 3, thread=1, row=0, col=1))
        fpu.stall(6)
        fpu.run([store(2, 0, 0), nop(1)[0], store(3, 0, 1)])
        fpu.drain()
        assert memory.buffer("out")[0, 0] == np.float32(0.0)  # 2 * 0
        assert memory.buffer("out")[0, 1] == np.float32(2.0)  # 2 * 1

    def test_writeback_at_issue_plus_four(self, params, memory):
        """The destination register still holds its old value until
        exactly issue + 4 -- the 'just barely' reuse window."""
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1), load(3, 0, 2)])
        fpu.stall(2)
        fpu.step(ma(2, 3, row=0, col=1))  # issued cycle 4, lands cycle 8
        # Cycles 5..7: register 3 still holds data[0,2] = 2.0.
        assert fpu.regs[3] == np.float32(2.0)
        fpu.stall(3)  # cycles 5, 6, 7
        assert fpu.regs[3] == np.float32(2.0)
        fpu.stall(1)  # cycle 8: writeback applied at start
        assert fpu.regs[3] == np.float32(2.0 * 1.0)


class TestValidation:
    def test_store_before_writeback_rejected(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(2)
        fpu.step(ma(2, 2))
        fpu.stall(2)  # not enough: writeback lands at +4
        with pytest.raises(ScheduleError, match="writeback"):
            fpu.step(store(2, 0, 0))

    def test_pipe_reversal_needs_gap(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(1)  # one intervening cycle < the 2-cycle penalty
        with pytest.raises(ScheduleError, match="reversed"):
            fpu.step(store(0, 0, 0))  # zero reg is valid; read-to-write flip

    def test_pipe_reversal_with_gap_allowed(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(4)
        fpu.stall(params.pipe_reversal_penalty)
        fpu.step(store(0, 0, 0))  # stores 0.0; legal

    def test_write_to_zero_register_rejected(self, params, memory):
        fpu = make_fpu(params, memory)
        with pytest.raises(ScheduleError, match="reserved"):
            fpu.step(ma(0, 0))

    def test_write_to_unit_register_rejected(self, params, memory):
        fpu = make_fpu(params, memory, unit_reg=1)
        with pytest.raises(ScheduleError, match="reserved"):
            fpu.step(ma(1, 1))

    def test_load_into_reserved_register_rejected(self, params, memory):
        fpu = make_fpu(params, memory)
        with pytest.raises(ScheduleError, match="reserved"):
            fpu.step(load(0, 0, 0))

    def test_uninitialized_read_rejected(self, params, memory):
        fpu = make_fpu(params, memory)
        with pytest.raises(ScheduleError, match="uninitialized"):
            fpu.step(ma(5, 5))

    def test_register_out_of_range(self, params, memory):
        fpu = make_fpu(params, memory)
        with pytest.raises(ScheduleError, match="register file"):
            fpu.step(load(99, 0, 0))

    def test_chain_protocol_new_chain_while_open(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(2)
        fpu.step(ma(2, 2, first=True, last=False))
        fpu.step(Instr(NopOp("x"), None))
        with pytest.raises(ScheduleError, match="open"):
            fpu.step(ma(2, 2, first=True, last=True))

    def test_unclosed_chain_detected_at_drain(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(2)
        fpu.step(ma(2, 2, first=True, last=False))
        with pytest.raises(ScheduleError, match="unclosed"):
            fpu.drain()


    def test_out_of_bounds_access_rejected(self, params, memory):
        fpu = make_fpu(params, memory)
        with pytest.raises(MemoryError_, match="outside buffer 'data'"):
            fpu.step(load(2, 4, 0))

    def test_unknown_buffer_rejected(self, params, memory):
        fpu = make_fpu(params, memory)
        with pytest.raises(MemoryError_, match="no buffer named"):
            fpu.step(load(2, 0, 0, buffer="missing"))


class TestValidationFourLanes(TestValidation):
    """Every malformed stream above, on a unit stepping four nodes as
    lanes of one machine port."""

    @pytest.fixture
    def lanes(self):
        return (4,)


def _reserved_write(fpu):
    fpu.step(ma(0, 0))


def _uninitialized_read(fpu):
    fpu.step(ma(5, 5))


def _open_chain(fpu):
    fpu.run([load(2, 0, 1)])
    fpu.stall(2)
    fpu.step(ma(2, 2, first=True, last=False))
    fpu.drain()


def _pipe_reversal(fpu):
    fpu.run([load(2, 0, 1)])
    fpu.stall(1)
    fpu.step(store(0, 0, 0))


def _store_before_writeback(fpu):
    fpu.run([load(2, 0, 1)])
    fpu.stall(2)
    fpu.step(ma(2, 2))
    fpu.stall(2)
    fpu.step(store(2, 0, 0))


MALFORMED = [
    _reserved_write,
    _uninitialized_read,
    _open_chain,
    _pipe_reversal,
    _store_before_writeback,
]


class TestLaneParity:
    """Schedule checks depend on the instruction stream alone, so a lane
    unit rejects a malformed stream exactly where one node does."""

    @pytest.mark.parametrize("stream", MALFORMED, ids=lambda f: f.__name__[1:])
    def test_same_error_at_same_cycle(self, params, stream):
        outcomes = []
        for lanes in LANES:
            fpu = make_fpu(params, lane_memory(lanes))
            with pytest.raises(ScheduleError) as info:
                stream(fpu)
            outcomes.append((str(info.value), fpu.cycle, fpu.stats))
        assert outcomes[0] == outcomes[1]

    def test_lanes_compute_their_own_values(self, params):
        memory = lane_memory((4,))
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(2)
        fpu.step(ma(2, 2, row=0, col=1))
        fpu.stall(6)
        fpu.run([store(2, 0, 1)])
        fpu.drain()
        memory.settle()
        out = memory.buffer("out")[:, 0, 1]
        expected = np.float32(2.0) * (1 + 16 * np.arange(4, dtype=np.float32))
        np.testing.assert_array_equal(out, expected)


class TestRounding:
    def test_chained_ma_rounds_after_multiply(self, params, memory):
        """The WTL3164 is chained, not fused: the product rounds to
        float32 before the add."""
        mem = NodeMemory()
        # Pick values where fused and chained differ.
        a = np.float32(1.0000001)
        mem.install("data", np.array([[a]], dtype=np.float32))
        mem.install("coeff", np.array([[a]], dtype=np.float32))
        mem.allocate("out", (1, 1))
        fpu = make_fpu(params, mem)
        fpu.run([load(2, 0, 0)])
        fpu.stall(2)
        fpu.step(ma(2, 2, row=0, col=0))
        fpu.stall(6)
        fpu.run([store(2, 0, 0)])
        fpu.drain()
        chained = np.float32(np.float32(a * a) + np.float32(0.0))
        assert mem.buffer("out")[0, 0] == chained


class TestStats:
    def test_cycle_accounting(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(2, "fill")
        fpu.step(ma(2, 2))
        fpu.stall(6, "drain")
        fpu.step(store(2, 0, 0))
        assert fpu.stats.cycles == 11
        assert fpu.stats.loads == 1
        assert fpu.stats.ma_issues == 1
        assert fpu.stats.stores == 1
        assert fpu.stats.stalls == 8
        assert fpu.stats.stall_reasons["fill"] == 2

    def test_drain_counts_cycles(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        drained = fpu.drain()
        assert drained == 2  # load latency outstanding


class TestSpecialValues:
    def test_infinity_propagates(self, params):
        mem = NodeMemory()
        mem.install("data", np.array([[np.inf]], dtype=np.float32))
        mem.install("coeff", np.array([[2.0]], dtype=np.float32))
        mem.allocate("out", (1, 1))
        fpu = make_fpu(params, mem)
        fpu.run([load(2, 0, 0)])
        fpu.stall(2)
        fpu.step(ma(2, 2, row=0, col=0))
        fpu.stall(6)
        fpu.run([store(2, 0, 0)])
        fpu.drain()
        assert np.isinf(mem.buffer("out")[0, 0])

    def test_nan_propagates(self, params):
        mem = NodeMemory()
        mem.install("data", np.array([[np.nan]], dtype=np.float32))
        mem.install("coeff", np.array([[1.0]], dtype=np.float32))
        mem.allocate("out", (1, 1))
        fpu = make_fpu(params, mem)
        fpu.run([load(2, 0, 0)])
        fpu.stall(2)
        fpu.step(ma(2, 2, row=0, col=0))
        fpu.stall(6)
        fpu.run([store(2, 0, 0)])
        fpu.drain()
        assert np.isnan(mem.buffer("out")[0, 0])

    def test_overflow_rounds_to_infinity(self, params):
        """float32 arithmetic throughout: 1e30 * 1e30 overflows."""
        mem = NodeMemory()
        mem.install("data", np.array([[1e30]], dtype=np.float32))
        mem.install("coeff", np.array([[1e30]], dtype=np.float32))
        mem.allocate("out", (1, 1))
        fpu = make_fpu(params, mem)
        with np.errstate(over="ignore"):
            fpu.run([load(2, 0, 0)])
            fpu.stall(2)
            fpu.step(ma(2, 2, row=0, col=0))
            fpu.stall(6)
            fpu.run([store(2, 0, 0)])
            fpu.drain()
        assert np.isinf(mem.buffer("out")[0, 0])
