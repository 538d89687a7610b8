"""End-to-end MDAG execution: bind kernels, plan, run, compare."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.blas import level1, level2, reference
from repro.fpga.memory import DramModel
from repro.fpga.resources import level1_latency
from repro.models.iomodel import atax_min_channel_depth
from repro.streaming import (
    BoundMDAG,
    ComputeBinding,
    ExecutionError,
    ReadBinding,
    WriteBinding,
    execute_plan,
    matrix_stream,
    row_tiles,
    scalar_stream,
    vector_stream,
)

RNG = np.random.default_rng(101)


def f32(a):
    return np.asarray(a, dtype=np.float32)


def build_axpydot(mem, w, v, u, alpha, n, width):
    """Fig. 6 as a bound MDAG."""
    g = BoundMDAG()
    g.add_interface("read_w")
    g.add_interface("read_v")
    g.add_interface("read_u")
    g.add_module("axpy")
    g.add_module("dot")
    g.add_interface("write_beta")
    sig = vector_stream(n)
    g.connect("read_w", "axpy", sig, sig, dst_port="w")
    g.connect("read_v", "axpy", sig, sig, dst_port="v")
    g.connect("axpy", "dot", sig, sig, src_port="z", dst_port="z")
    g.connect("read_u", "dot", sig, sig, dst_port="u")
    g.connect("dot", "write_beta", scalar_stream(), scalar_stream(),
              src_port="res", dst_port="res")
    beta = mem.allocate("beta_out", 1)
    g.bind("read_w", ReadBinding(mem.bind("w_buf", w), width))
    g.bind("read_v", ReadBinding(mem.bind("v_buf", v), width))
    g.bind("read_u", ReadBinding(mem.bind("u_buf", u), width))
    g.bind("axpy", ComputeBinding(
        lambda ins, outs: level1.axpy_kernel(
            n, -alpha, ins["v"], ins["w"], outs["z"], width),
        latency=level1_latency("map", width)))
    g.bind("dot", ComputeBinding(
        lambda ins, outs: level1.dot_kernel(
            n, ins["z"], ins["u"], outs["res"], width),
        latency=level1_latency("map_reduce", width)))
    g.bind("write_beta", WriteBinding(beta, 1))
    return g, beta


class TestAxpydotExecution:
    def test_single_component_run(self):
        n, width, alpha = 256, 8, 0.7
        w, v, u = (f32(RNG.normal(size=n)) for _ in range(3))
        mem = DramModel(num_banks=4)
        g, beta = build_axpydot(mem, w, v, u, alpha, n, width)
        result = execute_plan(g, mem)
        assert result.plan.fully_streamed
        assert len(result.reports) == 1
        want = float(reference.dot(reference.axpy(-alpha, v, w), u))
        assert beta.data[0] == pytest.approx(want, rel=1e-3)

    def test_io_matches_streaming_count(self):
        n, width = 128, 4
        w, v, u = (f32(RNG.normal(size=n)) for _ in range(3))
        mem = DramModel(num_banks=4)
        g, _ = build_axpydot(mem, w, v, u, 0.5, n, width)
        result = execute_plan(g, mem)
        assert result.io_elements == 3 * n + 1

    def test_unbound_node_rejected(self):
        n = 16
        mem = DramModel()
        g, _ = build_axpydot(mem, f32(np.ones(n)), f32(np.ones(n)),
                             f32(np.ones(n)), 1.0, n, 2)
        g.bindings.pop("dot")
        with pytest.raises(ExecutionError, match="unbound"):
            execute_plan(g, mem)

    def test_wrong_binding_kind_rejected(self):
        g = BoundMDAG()
        g.add_module("m")
        mem = DramModel()
        with pytest.raises(ExecutionError):
            g.bind("m", ReadBinding(mem.allocate("b", 4), 1))


def _bind_gemv_pair(g, mem, m, n, tile, width):
    """The zero ``y`` operands and the two GEMVs that ATAX and BICG share."""
    g.bind("read_z1", ReadBinding(
        mem.bind("z1", np.zeros(m, dtype=np.float32)), width))
    g.bind("read_z2", ReadBinding(
        mem.bind("z2", np.zeros(n, dtype=np.float32)), width))
    lat = level1_latency("map_reduce", width)
    g.bind("gemv", ComputeBinding(
        lambda ins, outs: level2.gemv_row_tiles(
            m, n, 1.0, 0.0, ins["A"], ins["x"], ins["y"], outs["out"],
            tile, tile, width), latency=lat))
    g.bind("gemvT", ComputeBinding(
        lambda ins, outs: level2.gemv_transposed_row_tiles(
            m, n, 1.0, 0.0, ins["A"], ins["x"], ins["y"], outs["out"],
            tile, tile, width), latency=lat))


def build_atax(mem, a, x, tile, width):
    """Fig. 8 as a bound MDAG (A is M x N)."""
    m, n = a.shape
    sched = row_tiles(m, n, tile, tile)
    g = BoundMDAG()
    g.add_interface("read_A")
    g.add_interface("read_x")
    g.add_interface("read_z1")
    g.add_interface("read_z2")
    g.add_module("gemv")
    g.add_module("gemvT")
    g.add_interface("write_y")
    asig = matrix_stream(sched)
    g.connect("read_A", "gemv", asig, asig, dst_port="A")
    g.connect("read_A", "gemvT", asig, asig, dst_port="A")
    xsig = vector_stream(n, replay=m // tile)
    g.connect("read_x", "gemv", xsig, xsig, dst_port="x")
    g.connect("read_z1", "gemv", vector_stream(m), vector_stream(m),
              dst_port="y")
    g.connect("gemv", "gemvT", vector_stream(m), vector_stream(m),
              src_port="out", dst_port="x")
    g.connect("read_z2", "gemvT", vector_stream(n), vector_stream(n),
              dst_port="y")
    g.connect("gemvT", "write_y", vector_stream(n), vector_stream(n),
              src_port="out", dst_port="y")

    y = mem.allocate("atax_y", n)
    g.bind("read_A", ReadBinding(mem.bind("A_buf", a), width,
                                 order=sched.indices()))
    g.bind("read_x", ReadBinding(mem.bind("x_buf", x), width,
                                 repeat=m // tile))
    _bind_gemv_pair(g, mem, m, n, tile, width)
    g.bind("write_y", WriteBinding(y, n, width))
    return g, y


def build_bicg(mem, a, p, r, tile, width):
    """Fig. 7 as a bound MDAG: one read of A fans out to q = A p and
    s = A^T r, through channels as deep as ``bicg_streaming`` makes them."""
    m, n = a.shape
    sched = row_tiles(m, n, tile, tile)
    g = BoundMDAG()
    for node in ("read_A", "read_p", "read_r", "read_z1", "read_z2"):
        g.add_interface(node)
    g.add_module("gemv")
    g.add_module("gemvT")
    g.add_interface("write_q")
    g.add_interface("write_s")
    asig = matrix_stream(sched)
    fan = max(8 * width, 4 * tile)
    g.connect("read_A", "gemv", asig, asig, dst_port="A", depth=fan)
    g.connect("read_A", "gemvT", asig, asig, dst_port="A", depth=fan)
    psig = vector_stream(n, replay=m // tile)
    g.connect("read_p", "gemv", psig, psig, dst_port="x")
    for src, dst, port, size in (("read_r", "gemvT", "x", m),
                                 ("read_z1", "gemv", "y", m),
                                 ("read_z2", "gemvT", "y", n)):
        g.connect(src, dst, vector_stream(size), vector_stream(size),
                  dst_port=port)
    g.connect("gemv", "write_q", vector_stream(m), vector_stream(m),
              src_port="out", dst_port="q")
    g.connect("gemvT", "write_s", vector_stream(n), vector_stream(n),
              src_port="out", dst_port="s")

    g.bind("read_A", ReadBinding(mem.bind("A_buf", a), width,
                                 order=sched.indices()))
    g.bind("read_p", ReadBinding(mem.bind("p_buf", p), width,
                                 repeat=m // tile))
    g.bind("read_r", ReadBinding(mem.bind("r_buf", r), width))
    _bind_gemv_pair(g, mem, m, n, tile, width)
    q, s = mem.allocate("bicg_q", m), mem.allocate("bicg_s", n)
    g.bind("write_q", WriteBinding(q, m, width))
    g.bind("write_s", WriteBinding(s, n, width))
    return g, (q, s)


class TestAtaxExecution:
    M = N = 16
    TILE = 4
    WIDTH = 4

    def _arrays(self):
        return (f32(RNG.normal(size=(self.M, self.N))),
                f32(RNG.normal(size=self.N)))

    def test_split_plan_executes_in_two_components(self):
        a, x = self._arrays()
        mem = DramModel(num_banks=4)
        g, y = build_atax(mem, a, x, self.TILE, self.WIDTH)
        result = execute_plan(g, mem)
        assert result.plan.num_components == 2
        assert len(result.reports) == 2
        np.testing.assert_allclose(y.data, a.T @ (a @ x),
                                   rtol=1e-3, atol=1e-3)

    def test_sized_plan_executes_in_one_component(self):
        a, x = self._arrays()
        mem = DramModel(num_banks=4)
        g, y = build_atax(mem, a, x, self.TILE, self.WIDTH)
        window = atax_min_channel_depth(self.N, self.TILE) + 8 * self.WIDTH
        result = execute_plan(g, mem,
                              windows={("read_A", "gemvT"): window},
                              buffer_budget=4 * window)
        assert result.plan.num_components == 1
        np.testing.assert_allclose(y.data, a.T @ (a @ x),
                                   rtol=1e-3, atol=1e-3)

    def test_sized_plan_moves_less_data_than_split(self):
        a, x = self._arrays()
        mem1 = DramModel(num_banks=4)
        g1, _ = build_atax(mem1, a, x, self.TILE, self.WIDTH)
        split = execute_plan(g1, mem1)
        mem2 = DramModel(num_banks=4)
        g2, _ = build_atax(mem2, a, x, self.TILE, self.WIDTH)
        window = atax_min_channel_depth(self.N, self.TILE) + 8 * self.WIDTH
        sized = execute_plan(g2, mem2,
                             windows={("read_A", "gemvT"): window},
                             buffer_budget=4 * window)
        assert sized.io_elements < split.io_elements
        # the split re-reads A: difference ~ one pass over the matrix
        assert split.io_elements - sized.io_elements >= self.M * self.N - 8

    def test_matches_handwritten_app(self):
        """The generic executor reproduces the hand-built atax app."""
        from repro.apps import atax_streaming
        from repro.host import FblasContext
        a, x = self._arrays()
        mem = DramModel(num_banks=4)
        g, y = build_atax(mem, a, x, self.TILE, self.WIDTH)
        window = atax_min_channel_depth(self.N, self.TILE) + 8 * self.WIDTH
        execute_plan(g, mem, windows={("read_A", "gemvT"): window},
                     buffer_budget=4 * window)
        ctx = FblasContext()
        app = atax_streaming(ctx, ctx.copy_to_device(a),
                             ctx.copy_to_device(x), tile=self.TILE,
                             width=self.WIDTH)
        np.testing.assert_allclose(y.data, app.value, rtol=1e-4, atol=1e-4)


SIDE, TILE, WIDTH = 32, 8, 4             # the bench's executor sizes


def _operands():
    rng = np.random.default_rng(5)
    return [f32(rng.normal(size=shape))
            for shape in ((SIDE, SIDE), SIDE, SIDE)]


def _executor_cycles():
    """Cycles of one-component ATAX and of BICG through ``execute_plan``."""
    a, x, r = _operands()
    mem = DramModel(num_banks=4)
    g, _y = build_atax(mem, a, x, TILE, WIDTH)
    window = atax_min_channel_depth(SIDE, TILE) + 8 * WIDTH
    atax = execute_plan(g, mem, windows={("read_A", "gemvT"): window},
                        buffer_budget=4 * window)
    mem = DramModel(num_banks=4)
    g, (q, s) = build_bicg(mem, a, x, r, TILE, WIDTH)
    bicg = execute_plan(g, mem)
    np.testing.assert_allclose(q.data, a @ x, rtol=1e-3, atol=1e-3)
    np.testing.assert_allclose(s.data, a.T @ r, rtol=1e-3, atol=1e-3)
    return atax.cycles, bicg.cycles


def test_cycles_do_not_depend_on_the_hash_seed():
    """Components are sets and the engine steps kernels in registration
    order, so the executor registers in MDAG insertion order: under every
    seed its counts are the hand-wired apps' (ATAX 789)."""
    from repro.apps import atax_streaming, bicg_streaming
    from repro.host import FblasContext
    ctx = FblasContext()
    a, x, r = map(ctx.copy_to_device, _operands())
    want = [atax_streaming(ctx, a, x, tile=TILE, width=WIDTH).cycles,
            bicg_streaming(ctx, a, x, r, tile=TILE, width=WIDTH).cycles]
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
