"""End-to-end MDAG execution: the catalogue's bound apps, planned and run."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.blas import reference
from repro.fpga.memory import DramModel
from repro.streaming import (
    BoundMDAG,
    ExecutionError,
    ReadBinding,
    build_engine,
    execute_plan,
)

from helpers import bound_app

RNG = np.random.default_rng(101)


def f32(a):
    return np.asarray(a, dtype=np.float32)


class TestAxpydotExecution:
    def test_single_component_run(self):
        n, width, alpha = 256, 8, 0.7
        w, v, u = (f32(RNG.normal(size=n)) for _ in range(3))
        g, _, value, mem = bound_app("axpydot", (w, v, u), alpha,
                                     width=width)
        result = execute_plan(g, mem)
        assert result.plan.fully_streamed
        assert len(result.reports) == 1
        want = float(reference.dot(reference.axpy(-alpha, v, w), u))
        assert value() == pytest.approx(want, rel=1e-3)

    def test_io_matches_streaming_count(self):
        n, width = 128, 4
        w, v, u = (f32(RNG.normal(size=n)) for _ in range(3))
        g, _, _, mem = bound_app("axpydot", (w, v, u), 0.5, width=width)
        result = execute_plan(g, mem)
        assert result.io_elements == 3 * n + 1

    def test_unbound_node_rejected(self):
        n = 16
        g, _, _, mem = bound_app("axpydot", [f32(np.ones(n))] * 3, 1.0,
                                 width=2)
        g.bindings.pop("dot")
        with pytest.raises(ExecutionError, match="unbound"):
            execute_plan(g, mem)

    def test_wrong_binding_kind_rejected(self):
        g = BoundMDAG()
        g.add_module("m")
        mem = DramModel()
        with pytest.raises(ExecutionError):
            g.bind("m", ReadBinding(mem.allocate("b", 4), 1))


class TestAtaxExecution:
    M = N = 16
    TILE = 4
    WIDTH = 4

    def _bound(self):
        a, x = (f32(RNG.normal(size=(self.M, self.N))),
                f32(RNG.normal(size=self.N)))
        g, options, value, mem = bound_app("atax", (a, x), tile=self.TILE,
                                           width=self.WIDTH)
        return g, options, value, mem, a.T @ (a @ x)

    def test_split_plan_executes_in_two_components(self):
        """Without the window the planner cuts the reconvergent edge (so
        there is no single engine to build)."""
        g, _, value, mem, want = self._bound()
        with pytest.raises(ExecutionError, match="2 components"):
            build_engine(g, mem)
        result = execute_plan(g, mem)
        assert result.plan.num_components == 2
        assert len(result.reports) == 2
        np.testing.assert_allclose(value(), want, rtol=1e-3, atol=1e-3)

    def test_sized_plan_executes_in_one_component(self):
        g, options, value, mem, want = self._bound()
        result = execute_plan(g, mem, **options)
        assert result.plan.num_components == 1
        np.testing.assert_allclose(value(), want, rtol=1e-3, atol=1e-3)

    def test_sized_plan_moves_less_data_than_split(self):
        g, _, _, mem, _ = self._bound()
        split = execute_plan(g, mem)
        g, options, _, mem, _ = self._bound()
        sized = execute_plan(g, mem, **options)
        assert sized.io_elements < split.io_elements
        # the split re-reads A: difference ~ one pass over the matrix
        assert split.io_elements - sized.io_elements >= self.M * self.N - 8

    def test_matches_handwritten_app(self):
        """The bound ATAX run through execute_plan by hand gives the
        bytes and cycles of ``atax_streaming``, which runs it the same
        way (plus the catalogue's caches)."""
        from repro.apps import atax_streaming
        from repro.host import FblasContext
        a, x = (f32(RNG.normal(size=(self.M, self.N))),
                f32(RNG.normal(size=self.N)))
        g, options, value, mem = bound_app("atax", (a, x), tile=self.TILE,
                                           width=self.WIDTH)
        by_hand = execute_plan(g, mem, **options)
        ctx = FblasContext()
        app = atax_streaming(ctx, ctx.copy_to_device(a),
                             ctx.copy_to_device(x), tile=self.TILE,
                             width=self.WIDTH)
        assert value().tobytes() == app.value.tobytes()
        assert by_hand.cycles == app.cycles


SIDE, TILE, WIDTH = 32, 8, 4             # the bench's executor sizes


def _executor_cycles():
    """Cycles of ATAX and BICG (both through ``execute_plan``)."""
    from repro.apps import atax_streaming, bicg_streaming
    from repro.host import FblasContext
    rng = np.random.default_rng(5)
    ctx = FblasContext()
    a, x, r = (ctx.copy_to_device(f32(rng.normal(size=shape)))
               for shape in ((SIDE, SIDE), SIDE, SIDE))
    return (atax_streaming(ctx, a, x, tile=TILE, width=WIDTH).cycles,
            bicg_streaming(ctx, a, x, r, tile=TILE, width=WIDTH).cycles)


def test_cycles_do_not_depend_on_the_hash_seed():
    """Components are sets and the engine steps kernels in registration
    order, so the executor registers in MDAG insertion order: under every
    seed the apps count the same cycles (ATAX 789)."""
    want = _executor_cycles()
    assert want[0] == 789
    for seed in "012":
        child = subprocess.run(
            [sys.executable, __file__], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONHASHSEED": seed,
                              "PYTHONPATH": os.pathsep.join(sys.path)})
        assert child.stdout.split() == [str(c) for c in want], \
            (seed, child.stderr)


if __name__ == "__main__":
    print(*_executor_cycles())
