"""The simulated CM-2: datapath, memory, sequencer, and node grid."""

from .fpu import FpuStats, ScheduleError, Wtl3164
from .geometry import (
    NodeCoord,
    all_coords,
    gray_code,
    grid_shape,
    hamming_distance,
    node_address,
)
from .isa import (
    ONES_BUFFER,
    AbstractOp,
    Instr,
    LoadOp,
    MAOp,
    MemDirection,
    MemRef,
    NopOp,
    StoreOp,
    const_buffer_name,
)
from .machine import CM2
from .memory import (
    MachinePort,
    MachineStorage,
    MemoryError_,
    NodeMemory,
    StorageCheckpoint,
    parity_word,
)
from .microcode import (
    MICROCODE_MEMORY_WORDS,
    MicrocodeRoutine,
    full_strip_routine,
    half_strip_routine,
    routine_set,
)
from .node import Node
from .params import FULL_CM2, SIXTEEN_NODE, MachineParams
from .router import (
    RoutedCost,
    Transfer,
    binary_embedding,
    corner_transfers,
    exchange_route_cost,
    four_neighbor_transfers,
    gray_embedding,
    route,
    schedule_transfers,
)
from .sequencer import HalfStripJob, Sequencer

__all__ = [
    "AbstractOp",
    "CM2",
    "FULL_CM2",
    "FpuStats",
    "HalfStripJob",
    "Instr",
    "LoadOp",
    "MAOp",
    "MemDirection",
    "MemRef",
    "MachinePort",
    "MachineStorage",
    "MemoryError_",
    "MicrocodeRoutine",
    "StorageCheckpoint",
    "parity_word",
    "MICROCODE_MEMORY_WORDS",
    "Node",
    "NodeCoord",
    "RoutedCost",
    "Transfer",
    "binary_embedding",
    "corner_transfers",
    "exchange_route_cost",
    "four_neighbor_transfers",
    "gray_embedding",
    "route",
    "schedule_transfers",
    "NodeMemory",
    "NopOp",
    "ONES_BUFFER",
    "ScheduleError",
    "Sequencer",
    "SIXTEEN_NODE",
    "StoreOp",
    "MachineParams",
    "Wtl3164",
    "all_coords",
    "const_buffer_name",
    "full_strip_routine",
    "gray_code",
    "grid_shape",
    "half_strip_routine",
    "hamming_distance",
    "node_address",
    "routine_set",
]
