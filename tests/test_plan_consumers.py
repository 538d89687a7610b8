"""One typed plan IR, five consumers: single-source-of-truth tests.

The tentpole property: every downstream subsystem — analyzer, certifier,
executor, code generator, drift reporter — consumes the *same* compiled
:class:`repro.plan.PlanIR`.  These tests prove the compiled artifact is
interchangeable with the live object everywhere (same diagnostics, same
schedules, byte-identical SimReports, identical emitted source), that the
executor's ``plan_cache`` really skips recompilation, and that the newly
executable Level-2 patterns let BICG and GEMVER certify whole-program.
"""

import numpy as np
import pytest

from repro.analysis import analyze_rates, certify, ensure_certified, \
    schedule_key
from repro.apps import (bicg_reference, bicg_streaming, gemver_reference,
                        gemver_streaming)
from repro.blas import level1
from repro.fpga.engine import Engine
from repro.fpga.util import duplicate_kernel, sink_kernel, source_kernel
from repro.host.context import FblasContext
from repro.plan import PlanCache, PlanIR, compile_plan, mdag_fingerprint
from repro.streaming import execute_plan, scalar_stream, vector_stream

from helpers import bound_app

RNG = np.random.default_rng(42)


def f32(a):
    return np.asarray(a, dtype=np.float32)


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

def _axpy_dot_engine(n=128, width=4):
    """A fully patterned source-fed chain (certifiable)."""
    eng = Engine(mode="event")
    cx = eng.channel("cx", 4 * width)
    cx1 = eng.channel("cx1", 4 * width)
    cx2 = eng.channel("cx2", 4 * width)
    cy = eng.channel("cy", 4 * width)
    cz = eng.channel("cz", 4 * width)
    cres = eng.channel("cres", 4)
    out = []
    data_x = [np.float32(i % 19 - 9) for i in range(n)]
    data_y = [np.float32(i % 5 - 2) for i in range(n)]
    eng.add_kernel("src_x", source_kernel(cx, data_x, width))
    eng.add_kernel("src_y", source_kernel(cy, data_y, width))
    eng.add_kernel("dup_x", duplicate_kernel(cx, (cx1, cx2), n, width))
    eng.add_kernel("axpy", level1.axpy_kernel(n, 0.5, cx1, cy, cz, width),
                   latency=6)
    eng.add_kernel("dot", level1.dot_kernel(n, cz, cx2, cres, width),
                   latency=8)
    eng.add_kernel("sink", sink_kernel(cres, 1, 1, out))
    return eng


# ---------------------------------------------------------------------------
# Analyzer + certifier consume the compiled IR
# ---------------------------------------------------------------------------

class TestAnalyzerOnPlanIR:
    def test_rates_identical_live_vs_compiled(self):
        """analyze_rates(engine) == analyze_rates(compile_plan(engine))
        diagnostic for diagnostic."""
        eng = _axpy_dot_engine()
        live = analyze_rates(eng)
        compiled = analyze_rates(compile_plan(eng))
        assert ([d.to_dict() for d in live.diagnostics]
                == [d.to_dict() for d in compiled.diagnostics])
        assert live.passes_run == compiled.passes_run

    def test_certify_identical_live_vs_compiled(self):
        eng = _axpy_dot_engine()
        res_live, sched_live = certify(eng)
        res_ir, sched_ir = certify(compile_plan(eng))
        assert ([d.to_dict() for d in res_live.diagnostics]
                == [d.to_dict() for d in res_ir.diagnostics])
        assert sched_live is not None and sched_ir is not None
        assert sched_live.to_dict() == sched_ir.to_dict()

    def test_schedule_key_is_plan_key(self):
        eng = _axpy_dot_engine()
        assert schedule_key(eng) == compile_plan(eng).plan_key

    def test_certified_schedule_memoized_on_plan_key(self):
        """Two separately built identical engines share one certificate
        through a PlanCache keyed on plan_key."""
        cache = PlanCache()
        first = ensure_certified(_axpy_dot_engine(), cache=cache)
        second = ensure_certified(_axpy_dot_engine(), cache=cache)
        assert first is second
        assert cache.hits >= 1

    def test_certified_engine_replays_precompiled_schedule(self):
        """Route the certificate through compile_plan() explicitly: an
        engine handed a cache pre-populated from the compiled IR runs
        certified without re-deriving anything, byte-identical to event."""
        plan = compile_plan(_axpy_dot_engine())
        cache = PlanCache()
        ensure_certified(plan, cache=cache)
        assert plan.plan_key in cache

        def run(mode, schedule_cache=None):
            eng = _axpy_dot_engine()
            eng.mode = mode
            if schedule_cache is not None:
                eng._schedule_cache = schedule_cache
            rep = eng.run()
            return (rep.to_dict(),
                    {n: (k.stats.active_cycles, k.stats.stall_cycles)
                     for n, k in eng.kernels.items()})

        hits_before = cache.hits
        certified = run("certified", cache)
        assert cache.hits > hits_before          # the IR-derived entry hit
        assert certified == run("event")


# ---------------------------------------------------------------------------
# Executor consumes (and caches) the compiled IR
# ---------------------------------------------------------------------------

class TestExecutorOnPlanIR:
    def _fresh(self):
        n, width, alpha = 96, 4, 0.75
        w, v, u = (f32(RNG.normal(size=n)) for _ in range(3))
        g, _, beta, mem = bound_app("axpydot", (w, v, u), alpha,
                                    width=width)
        return g, mem, beta, (w, v, u, alpha)

    def test_execution_records_plan_ir(self):
        g, mem, beta, _ = self._fresh()
        result = execute_plan(g, mem)
        assert isinstance(result.plan_ir, PlanIR)
        assert result.plan_ir.edges            # planned decisions captured

    def test_precompiled_plan_runs_byte_identical(self):
        """execute_plan(plan=compile_plan(mdag)) must equal the
        compile-inside path in results, cycles, and I/O."""
        g1, mem1, beta1, (w, v, u, alpha) = self._fresh()
        auto = execute_plan(g1, mem1)
        g2, _, beta2, mem2 = bound_app("axpydot", (w, v, u), alpha,
                                       width=4)
        pre = execute_plan(g2, mem2, plan=compile_plan(
            g2, device=mem2.device_label))
        assert [r.to_dict() for r in auto.reports] \
            == [r.to_dict() for r in pre.reports]
        assert auto.io_elements == pre.io_elements
        assert beta1() == beta2()
        assert auto.plan_ir.plan_key == pre.plan_ir.plan_key

    def test_plan_cache_hits_skip_recompilation(self):
        """Repeat executions through one PlanCache: the second run hits
        the fingerprint and replays the recorded PlanIR object."""
        cache = PlanCache()
        g1, mem1, _, (w, v, u, alpha) = self._fresh()
        r1 = execute_plan(g1, mem1, plan_cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        g2, _, _, mem2 = bound_app("axpydot", (w, v, u), alpha, width=4)
        r2 = execute_plan(g2, mem2, plan_cache=cache)
        assert cache.hits == 1
        assert r2.plan_ir is r1.plan_ir        # the cached object itself
        assert [r.to_dict() for r in r1.reports] \
            == [r.to_dict() for r in r2.reports]

    def test_fingerprint_distinguishes_budgets(self):
        g, _, _, _ = self._fresh()
        assert (mdag_fingerprint(g, None, 0)
                != mdag_fingerprint(g, None, 1024))

    def test_modes_agree_through_precompiled_plan(self):
        """All engine cores fed the same precompiled PlanIR agree."""
        outcomes = {}
        for mode in ("dense", "event", "bulk"):
            w, v, u, alpha = self._payload()
            g, _, beta, mem = bound_app("axpydot", (w, v, u), alpha,
                                        width=4)
            res = execute_plan(g, mem, plan=compile_plan(g), mode=mode)
            outcomes[mode] = ([r.to_dict() for r in res.reports],
                              res.io_elements, beta().tobytes())
        assert outcomes["dense"] == outcomes["event"] == outcomes["bulk"]

    def _payload(self):
        rng = np.random.default_rng(7)
        return (f32(rng.normal(size=96)), f32(rng.normal(size=96)),
                f32(rng.normal(size=96)), 0.6)


# ---------------------------------------------------------------------------
# Codegen consumes the compiled IR
# ---------------------------------------------------------------------------

class TestCodegenOnPlanIR:
    def _mdag_and_specs(self, n=1024, width=16):
        from repro.codegen import RoutineSpec
        from repro.streaming import MDAG
        g = MDAG()
        g.add_interface("read_w")
        g.add_interface("read_v")
        g.add_interface("read_u")
        g.add_module("my_axpy")
        g.add_module("my_dot")
        g.add_interface("write_beta")
        sig = vector_stream(n)
        g.connect("read_v", "my_axpy", sig, sig)
        g.connect("read_w", "my_axpy", sig, sig)
        g.connect("my_axpy", "my_dot", sig, sig)
        g.connect("read_u", "my_dot", sig, sig)
        g.connect("my_dot", "write_beta", scalar_stream(), scalar_stream())
        specs = {
            "my_axpy": RoutineSpec("axpy", "my_axpy", width=width),
            "my_dot": RoutineSpec("dot", "my_dot", width=width),
        }
        return g, specs

    def test_emission_from_explicit_plan_matches_default(self):
        from repro.codegen.composition import emit_composition
        mdag, specs = self._mdag_and_specs()
        default = emit_composition(mdag, specs, name="fig6")
        explicit = emit_composition(mdag, specs, name="fig6",
                                    plan=compile_plan(mdag))
        assert default == explicit

    def test_channel_depths_come_from_plan(self):
        """Every emitted channel declaration carries the planned depth."""
        from repro.codegen.composition import emit_composition
        mdag, specs = self._mdag_and_specs()
        plan = compile_plan(mdag)
        src = emit_composition(mdag, specs)
        for e in plan.edges:
            decl = (f"channel float {e.src}__{e.dst} "
                    f"__attribute__((depth({e.depth})));")
            assert decl in src


# ---------------------------------------------------------------------------
# Drift consumes the compiled IR's predictions
# ---------------------------------------------------------------------------

class TestDriftOnPlanIR:
    def test_entries_from_plan_reads_predictions(self):
        from repro.telemetry.drift import entries_from_plan
        plan = PlanIR().with_predictions(cycles_lo=100, cycles_hi=100,
                                         io_elements=400)
        cyc, io = entries_from_plan("demo", plan, 110.0, 440.0)
        assert (cyc.quantity, cyc.modeled, cyc.measured) \
            == ("cycles", 100, 110.0)
        assert (io.quantity, io.modeled) == ("io_elements", 400)
        assert cyc.rel_error == pytest.approx(10 / 110)

    def test_entries_from_plan_requires_predictions(self):
        from repro.telemetry.drift import entries_from_plan
        with pytest.raises(ValueError, match="no cycle prediction"):
            entries_from_plan("demo", PlanIR(), 1.0, 1.0)

    def test_probes_route_through_compiled_plans(self):
        """The four Sec. V probes still produce sane, unflagged drift."""
        from repro.telemetry.drift import drift_report
        report = drift_report(apps=("axpydot",))
        assert len(report.entries) == 2
        assert not report.flagged()


# ---------------------------------------------------------------------------
# Satellite: BICG / GEMVER certify whole-program (executable Level-2
# patterns) and stay byte-identical across every core.
# ---------------------------------------------------------------------------

class TestLevel2WholeProgram:
    N = 16

    def _bicg(self, mode, tile=None, width=4):
        rng = np.random.default_rng(3)
        ctx = FblasContext()
        n = self.N
        a = ctx.copy_to_device(f32(rng.normal(size=(n, n))))
        p = ctx.copy_to_device(f32(rng.normal(size=n)))
        r = ctx.copy_to_device(f32(rng.normal(size=n)))
        res = bicg_streaming(ctx, a, p, r, tile=tile or n, width=width,
                             mode=mode)
        return res, (np.array(a.data), np.array(p.data), np.array(r.data))

    def _gemver(self, mode, tile=None, width=4):
        rng = np.random.default_rng(5)
        ctx = FblasContext()
        n = self.N
        a = ctx.copy_to_device(f32(rng.normal(size=(n, n))))
        vs = [ctx.copy_to_device(f32(rng.normal(size=n)))
              for _ in range(6)]
        res = gemver_streaming(ctx, a, *vs, 1.5, -0.5, tile=tile or n,
                               width=width, mode=mode)
        return res, (np.array(a.data), *[np.array(v.data) for v in vs])

    def test_bicg_certifies_whole_program(self):
        """mode="certified" runs end to end: every kernel in the Fig. 7
        composition now carries an executable pattern."""
        res, (a, p, r) = self._bicg("certified")
        q, s = res.value
        ref_q, ref_s = bicg_reference(a, p, r)
        assert np.allclose(q, ref_q, rtol=1e-4)
        assert np.allclose(s, ref_s, rtol=1e-4)

    def test_gemver_certifies_whole_program(self):
        res, (a, *vs) = self._gemver("certified")
        b, x, w = res.value
        rb, rx, rw = gemver_reference(a, *vs, 1.5, -0.5)
        assert np.allclose(b, rb, rtol=1e-4)
        assert np.allclose(x, rx, rtol=1e-3, atol=1e-4)
        assert np.allclose(w, rw, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("tile", [None, 4, 8])
    def test_bicg_byte_identical_across_modes(self, tile):
        base = None
        for mode in ("dense", "event", "bulk", "certified"):
            if mode == "certified" and tile is not None:
                continue       # small tiles keep ragged epilogues dynamic
            res, _ = self._bicg(mode, tile=tile)
            q, s = res.value
            key = (res.cycles, res.kernel_steps, q.tobytes(), s.tobytes())
            if base is None:
                base = (mode, key)
            else:
                assert key == base[1], f"{mode} diverged from {base[0]}"

    @pytest.mark.parametrize("tile", [None, 4, 8])
    def test_gemver_byte_identical_across_modes(self, tile):
        base = None
        for mode in ("dense", "event", "bulk", "certified"):
            if mode == "certified" and tile is not None:
                continue
            res, _ = self._gemver(mode, tile=tile)
            b, x, w = res.value
            key = (res.cycles, res.kernel_steps, b.tobytes(), x.tobytes(),
                   w.tobytes())
            if base is None:
                base = (mode, key)
            else:
                assert key == base[1], f"{mode} diverged from {base[0]}"

    def test_transposed_gemv_matches_reference_ragged(self):
        """The declare-only fallback (tile_m % width) still computes the
        same result, just without the fast path."""
        res_e, (a, p, r) = self._bicg("event", tile=6, width=4)
        res_b, _ = self._bicg("bulk", tile=6, width=4)
        q, s = res_e.value
        ref_q, ref_s = bicg_reference(a, p, r)
        assert np.allclose(q, ref_q, rtol=1e-4)
        assert np.allclose(s, ref_s, rtol=1e-4)
        assert res_e.cycles == res_b.cycles
