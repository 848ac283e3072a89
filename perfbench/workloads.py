"""The four benchmark workloads.

Each workload is one single-threaded process running one homogeneous
public-API call per op.  A workload knows how to

* draw its host inputs from a seeded generator (``inputs``), outside
  every timed region;
* build the machine state a user would build (``setup``): compile,
  ``CM2``, distribute the inputs;
* run one op (``op``) and gather its output to the host (``output``);
* compute the expected output with the independent reference
  interpreter, :func:`repro.baseline.reference.reference_stencil`
  (``reference``).

Entry points are looked up through their modules at call time
(``driver.compile_fortran``, ``stencil_op.apply_stencil``...), so the
traced pass's wrappers see every call.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.baseline.reference import reference_stencil
from repro.compiler import driver
from repro.machine.geometry import grid_shape
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime import batch as batch_mod
from repro.runtime import cm_array
from repro.runtime import stencil_op
from repro.stencil import gallery

ROOT = Path(__file__).resolve().parent.parent


def _coefficients(names, shape, rng, k=None):
    """Coefficient arrays whose weights sum to about 1 per point.

    With data in [0.5, 1.5] this keeps long iterated runs in normal
    float32 range; denormals would distort host time.
    """
    k = k or len(names)
    return {
        name: rng.uniform(0.8 / k, 1.2 / k, shape).astype(np.float32)
        for name in names
    }


def _iterate_reference(pattern, x, coeffs, iterations):
    for _ in range(iterations):
        x = reference_stencil(pattern, x, coeffs)
    return x


class _Workload:
    nodes: int
    sub: tuple  # subgrid per node

    @property
    def shape(self):
        rows, cols = grid_shape(self.nodes)
        return (rows * self.sub[0], cols * self.sub[1])

    def output(self, run):
        return run.result.to_numpy()


class _Solo(_Workload):
    """One ``apply_stencil`` call per op on a single distributed grid."""

    coeff_names: tuple
    iterations: int = 1
    op_kwargs: dict = {}

    def inputs(self, rng):
        return {
            "x": rng.uniform(0.5, 1.5, self.shape).astype(np.float32),
            "coeffs": _coefficients(self.coeff_names, self.shape, rng),
        }

    def compile(self, params):
        raise NotImplementedError

    def setup(self, inputs):
        params = MachineParams(num_nodes=self.nodes)
        machine = CM2(params)
        compiled = self.compile(params)
        names = compiled.pattern.coefficient_names()
        if names != self.coeff_names:
            raise ValueError(
                f"{self.name}: pattern coefficients {names} != "
                f"{self.coeff_names}"
            )
        from_numpy = cm_array.CMArray.from_numpy
        state = {
            "compiled": compiled,
            "x": from_numpy("X", machine, inputs["x"]),
            "coeffs": {
                name: from_numpy(name, machine, array)
                for name, array in inputs["coeffs"].items()
            },
            "result": cm_array.CMArray("R", machine, self.shape),
        }
        return state

    def op(self, state):
        return stencil_op.apply_stencil(
            state["compiled"],
            state["x"],
            state["coeffs"],
            state["result"],
            iterations=self.iterations,
            **self.op_kwargs,
        )

    def reference(self, inputs, state):
        return _iterate_reference(
            state["compiled"].pattern,
            inputs["x"],
            inputs["coeffs"],
            self.iterations,
        )

    def updates_per_op(self):
        return self.shape[0] * self.shape[1] * self.iterations


class SoloLarge(_Solo):
    """The paper's cross5 board: NumPy bandwidth in tap accumulation
    plus one shallow exchange per iteration (the model picks T=1)."""

    name = "solo_large"
    nodes = 16
    sub = (256, 256)
    coeff_names = ("C1", "C2", "C3", "C4", "C5")
    iterations = 50
    op_kwargs = {"block_depth": "auto"}

    def compile(self, params):
        source = (ROOT / "examples" / "cross5.f90").read_text()
        return driver.compile_fortran(source, params)


class BlockedAbft(_Solo):
    """The small-subgrid Gordon Bell regime: per-call overhead of the
    deep exchange, the blocked executor (T=2) and ABFT seal/verify."""

    name = "blocked_abft"
    nodes = 1024
    sub = (6, 6)
    coeff_names = tuple(f"C{i}" for i in range(1, 10))
    iterations = 192
    op_kwargs = {"block_depth": "auto", "abft": True}

    def compile(self, params):
        return driver.compile_stencil(gallery.square9(), params)


class ExactSeismic(_Solo):
    """Radius-2 seismic9.f90, in the paper's positional spelling,
    through the cycle-stepped datapath: the machine layer does the
    work."""

    name = "exact_seismic"
    nodes = 16
    sub = (32, 32)
    coeff_names = tuple(f"C{i}" for i in range(1, 10))
    op_kwargs = {"exact": True}

    def compile(self, params):
        source = (ROOT / "examples" / "seismic9.f90").read_text()
        return driver.compile_fortran(source, params)


class BatchMulticonv(_Workload):
    """One ``apply_stencil_batch`` call per op: the four Table 1 filters
    over B grids, the only workload entering ``runtime/batch.py`` and
    the grouped exchange."""

    name = "batch_multiconv"
    nodes = 256
    sub = (32, 32)
    batch = 4
    iterations = 8
    patterns = (gallery.cross5, gallery.cross9, gallery.square9, gallery.diamond13)
    coeff_names = tuple(f"C{i}" for i in range(1, 14))

    def inputs(self, rng):
        # Coefficients are shared by every filter; scaling by the
        # largest filter's tap count keeps every filter's weights
        # summing to at most about 1.
        return {
            "x": rng.uniform(
                0.5, 1.5, (self.batch,) + self.shape
            ).astype(np.float32),
            "coeffs": _coefficients(
                self.coeff_names, self.shape, rng, k=len(self.coeff_names)
            ),
        }

    def setup(self, inputs):
        params = MachineParams(num_nodes=self.nodes)
        machine = CM2(params)
        filters = tuple(
            driver.compile_stencil(make(), params) for make in self.patterns
        )
        from_numpy = cm_array.CMArray.from_numpy
        return {
            "filters": filters,
            "x": batch_mod.CMBatch.from_numpy("XB", machine, inputs["x"]),
            "coeffs": {
                name: from_numpy(name, machine, array)
                for name, array in inputs["coeffs"].items()
            },
            "result": batch_mod.CMBatch(
                "RB", machine, (self.batch, len(filters)), self.shape
            ),
        }

    def op(self, state):
        return batch_mod.apply_stencil_batch(
            state["filters"],
            state["x"],
            state["coeffs"],
            state["result"],
            iterations=self.iterations,
        )

    def reference(self, inputs, state):
        out = np.empty(
            (self.batch, len(state["filters"])) + self.shape, np.float32
        )
        for b in range(self.batch):
            for f, compiled in enumerate(state["filters"]):
                out[b, f] = _iterate_reference(
                    compiled.pattern,
                    inputs["x"][b],
                    inputs["coeffs"],
                    self.iterations,
                )
        return out

    def updates_per_op(self):
        points = self.shape[0] * self.shape[1]
        return points * self.iterations * len(self.patterns) * self.batch


WORKLOADS = {
    w.name: w
    for w in (SoloLarge, BlockedAbft, BatchMulticonv, ExactSeismic)
}
