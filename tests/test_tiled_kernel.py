"""The cache-tiled tap kernel and the fixed-point check folded into it.

:func:`~repro.runtime.executor.accumulate_taps` covers its output in
tiles of at most ``_TILE_FLOATS`` floats and runs the whole float32
multiply-add chain per tile.  Every element's chain is the same under
any tiling, so the tile size must not move a bit.  These tests shrink
the budget until the tiles split a batch axis, a node-grid axis,
subgrid rows, and a subgrid row longer than the budget, and hold every
fast path (machine, per-node, batched) to exact mode word for word.

The unguarded solo loop asks the kernel to compare each finished tile
with its source interior (the fixed-point check); it must stop exactly
where the separate full-stack check stops, never on a NaN, and never
while any tile -- the last one included -- still differs.
"""

import numpy as np
import pytest

from repro.analysis.chaos import boundary_variant
from repro.compiler.codegen import ExtraTerm
from repro.compiler.driver import compile_fortran, compile_stencil
from repro.compiler.fusion import fuse
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime import executor, stencil_op
from repro.runtime.batch import CMBatch, apply_stencil_batch
from repro.runtime.cm_array import CMArray
from repro.runtime.faults import ResiliencePolicy
from repro.runtime.stencil_op import apply_stencil
from repro.stencil import gallery
from repro.stencil.pattern import Coefficient, StencilPattern, Tap

#: 8 nodes as a 2x4 grid of 8x10 subgrids: machine stacks (2, 4, 8, 10).
GRID = (2, 4)
SHAPE = (16, 40)
BATCH = 3

#: Tile budgets and the stack axis each one splits: (3, 2, 4, 8, 10)
#: batch stacks for "batch", (2, 4, 8, 10) machine stacks otherwise.
SPLITS = {
    "whole": 1 << 16,  # one tile: the whole stack
    "batch": 1500,  # 640-float batch entries, 2 + 1 per tile
    "node_grid": 200,  # 80-float subgrids, 2 + 2 nodes per tile
    "rows": 30,  # 10-float rows, 3 + 3 + 2 per tile
    "row_chunks": 7,  # a 10-float row cut 7 + 3
}

STATEMENTS = {
    "unit_and_scalar": "R = CSHIFT(X, 1, -1) + X + 0.5 * CSHIFT(X, 2, +1)",
    "scalar_constant": "R = C1 * CSHIFT(X, 1, -1) + 2.5",
    "array_constant": "R = 0.25 * CSHIFT(X, 1, -1) + C2 + X",
    "mixed_boundary": (
        "R = C1 * EOSHIFT(X, 1, -1, 2.5) + C2 * CSHIFT(X, 2, +1)"
    ),
}

GALLERY = (
    "cross5",
    "cross9",
    "square9",
    "diamond13",
    "asymmetric5",
    "border_demo",
)

CASES = [*GALLERY, "square9_fill", *STATEMENTS, "fused", "fused_scalar"]


def params():
    return MachineParams(num_nodes=GRID[0] * GRID[1])


def compiled_case(name):
    if name in GALLERY:
        return compile_stencil(getattr(gallery, name)(), params())
    if name == "square9_fill":
        pattern = boundary_variant(gallery.square9(), "fill")
        return compile_stencil(pattern, params())
    if name in STATEMENTS:
        return compile_fortran(STATEMENTS[name], params())
    coeff = (
        Coefficient.array("CY")
        if name == "fused"
        else Coefficient.scalar(-0.75)
    )
    return fuse(gallery.cross5(), [ExtraTerm(source="Y", coeff=coeff)], params())


def identity():
    """``R = X``: one UNIT tap at (0, 0), a fixed point of any data."""
    return StencilPattern([Tap((0, 0), Coefficient.unit())], name="identity")


def bits(array):
    return np.ascontiguousarray(array).view(np.uint32)


def solo_run(compiled, *, seed=0, source=None, coeffs=None, **kwargs):
    """Distribute ``X``, the coefficients and any fused extra sources on
    a fresh machine and run ``apply_stencil``; returns the run."""
    machine = CM2(compiled.params, shape=GRID)
    rng = np.random.default_rng(seed)

    def array(name, data=None):
        if data is None:
            data = rng.standard_normal(SHAPE).astype(np.float32)
        return CMArray.from_numpy(name, machine, data)

    x = array("X", source)
    coefficients = {
        name: array(name, (coeffs or {}).get(name))
        for name in compiled.pattern.coefficient_names()
    }
    for term in getattr(compiled.pattern, "extra_terms", ()):
        array(term.source)
    return apply_stencil(compiled, x, coefficients, "R", **kwargs)


_EXACT = {}


def exact_bits(name):
    if name not in _EXACT:
        run = solo_run(compiled_case(name), iterations=2, exact=True)
        _EXACT[name] = bits(run.result.to_numpy())
    return _EXACT[name]


@pytest.fixture(params=list(SPLITS))
def budget(request, monkeypatch):
    monkeypatch.setattr(executor, "_TILE_FLOATS", SPLITS[request.param])
    return SPLITS[request.param]


class TestTiles:
    @pytest.mark.parametrize(
        "shape, split, axis",
        [
            ((BATCH, *GRID, 8, 10), "batch", 0),
            ((*GRID, 8, 10), "node_grid", 1),
            ((*GRID, 8, 10), "rows", 2),
            ((*GRID, 8, 10), "row_chunks", 3),
            ((8, 10), "row_chunks", 1),
            ((*GRID, 8, 10), "whole", None),
        ],
    )
    def test_cover_every_element_once(self, monkeypatch, shape, split, axis):
        """Whole trailing axes while they fit, a chunk of the next axis
        outward, single indices further out; every element once."""
        monkeypatch.setattr(executor, "_TILE_FLOATS", SPLITS[split])
        seen = np.zeros(shape, dtype=np.int64)
        tiles = executor._tiles(shape)
        for tile in tiles:
            view = seen[tile]
            assert 0 < view.size <= SPLITS[split]
            view += 1
            if axis is None:
                assert tile == tuple(slice(0, n) for n in shape)
                continue
            assert all(isinstance(i, int) for i in tile[:axis])
            assert isinstance(tile[axis], slice)
            assert tile[axis + 1 :] == tuple(slice(0, n) for n in shape[axis + 1 :])
        assert (seen == 1).all()
        assert (len(tiles) == 1) == (axis is None)

    def test_budget_sizes_of_the_benchmark_shapes(self):
        """One 256x256 subgrid; four node rows of a 16x16 grid of 32x32
        subgrids per batch entry; 1,024 nodes of 6x6 in one tile."""
        tiles = executor._tiles((4, 4, 256, 256))
        assert len(tiles) == 16 and tiles[5][:2] == (1, slice(1, 2))
        tiles = executor._tiles((4, 16, 16, 32, 32))
        assert len(tiles) == 16 and tiles[1][1] == slice(4, 8)
        assert executor._tiles((32, 32, 6, 6)) == [
            tuple(slice(0, n) for n in (32, 32, 6, 6))
        ]


class TestBitIdentity:
    @pytest.mark.parametrize("name", CASES)
    def test_machine_pass_matches_exact(self, budget, name):
        run = solo_run(compiled_case(name), iterations=2)
        assert run.batched
        assert np.array_equal(bits(run.result.to_numpy()), exact_bits(name))

    @pytest.mark.parametrize("name", ["square9", "mixed_boundary", "fused"])
    def test_per_node_pass_matches_exact(self, budget, name):
        run = solo_run(compiled_case(name), iterations=2, batched=False)
        assert not run.batched
        assert np.array_equal(bits(run.result.to_numpy()), exact_bits(name))

    @pytest.mark.parametrize("boundary", ["torus", "fill"])
    def test_batch_matches_exact(self, budget, monkeypatch, boundary):
        """Three filters in one exchange group, so iteration 1 hands the
        kernel strided ``padded[:, j]`` views; 4-d ARRAY coefficients
        broadcast across the batch axis."""
        strided = []
        kernel = executor.accumulate_taps

        def recording(pattern, padded, *args, **kwargs):
            strided.append(not padded.flags.c_contiguous)
            return kernel(pattern, padded, *args, **kwargs)

        monkeypatch.setattr(executor, "accumulate_taps", recording)
        machine = CM2(params(), shape=GRID)
        patterns = [
            boundary_variant(p, boundary)
            for p in (gallery.cross5(), gallery.square9(), gallery.diamond13())
        ]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        filters.append(compile_fortran(STATEMENTS["array_constant"], machine.params))
        rng = np.random.default_rng(7)
        names = sorted({n for f in filters for n in f.pattern.coefficient_names()})
        coeffs = {
            n: CMArray.from_numpy(
                n, machine, rng.standard_normal(SHAPE).astype(np.float32)
            )
            for n in names
        }
        data = rng.standard_normal((BATCH, *SHAPE)).astype(np.float32)
        source = CMBatch.from_numpy("Xb", machine, data)
        fast = apply_stencil_batch(filters, source, coeffs, iterations=2)
        exact = apply_stencil_batch(
            filters, source, coeffs, result="Rexact", iterations=2, exact=True
        )
        assert any(strided)
        assert np.array_equal(
            bits(fast.result.to_numpy()), bits(exact.result.to_numpy())
        )


def counting_fast_passes(monkeypatch):
    """Count the machine passes the solo loop runs."""
    calls = []
    real = stencil_op.machine_execute_fast

    def counting(*args, **kwargs):
        calls.append(kwargs.get("check_fixed_point", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(stencil_op, "machine_execute_fast", counting)
    return calls


class TestFixedPointFold:
    ITERATIONS = 6

    def test_identity_stops_where_the_full_stack_check_stops(
        self, budget, monkeypatch
    ):
        """The folded check stops after the first pass, like the per-node
        check and the guarded loop's full-stack check, with the same
        charged exchanges and the same bits."""
        compiled = compile_stencil(identity(), params())
        per_node = solo_run(compiled, iterations=self.ITERATIONS, batched=False)
        guarded = solo_run(
            compiled,
            iterations=self.ITERATIONS,
            resilience=ResiliencePolicy(),
        )
        calls = counting_fast_passes(monkeypatch)
        run = solo_run(compiled, iterations=self.ITERATIONS)
        assert calls == [True]
        for other in (per_node, guarded):
            assert run.num_exchanges == other.num_exchanges == self.ITERATIONS
            assert run.total_comm_cycles == other.total_comm_cycles
            assert run.elapsed_seconds == other.elapsed_seconds
            assert np.array_equal(
                bits(run.result.to_numpy()), bits(other.result.to_numpy())
            )

    def test_nan_is_never_a_fixed_point(self, budget, monkeypatch):
        source = np.ones(SHAPE, dtype=np.float32)
        source[3, 17] = np.nan
        calls = counting_fast_passes(monkeypatch)
        run = solo_run(
            compile_stencil(identity(), params()),
            source=source,
            iterations=self.ITERATIONS,
        )
        assert len(calls) == self.ITERATIONS
        assert calls[-1] is False
        assert np.isnan(run.result.to_numpy()).sum() == 1

    @pytest.mark.parametrize("where", [(0, 0), (-1, -1)])
    def test_one_differing_word_keeps_iterating(
        self, budget, monkeypatch, where
    ):
        """``R = C1 * X`` with ``C1 = 1`` except one word: the pass
        differs from its source only there -- in the first tile, or in
        the last tile under every budget -- so no iteration may stop."""
        scale = np.ones(SHAPE, dtype=np.float32)
        scale[where] = 2.0
        calls = counting_fast_passes(monkeypatch)
        run = solo_run(
            compile_stencil(
                StencilPattern([Tap((0, 0), Coefficient.array("C1"))]),
                params(),
            ),
            source=np.ones(SHAPE, dtype=np.float32),
            coeffs={"C1": scale},
            iterations=self.ITERATIONS,
        )
        assert len(calls) == self.ITERATIONS
        expected = np.ones(SHAPE, dtype=np.float32)
        expected[where] = 2.0**self.ITERATIONS
        assert np.array_equal(run.result.to_numpy(), expected)

    def test_guarded_loop_keeps_the_separate_check(self, monkeypatch):
        """The guarded loop seals and may inject between the pass and its
        check, so it never asks the kernel for the folded answer."""
        calls = counting_fast_passes(monkeypatch)
        solo_run(
            compile_stencil(identity(), params()),
            iterations=self.ITERATIONS,
            abft=True,
        )
        assert calls == [False]
