"""The multi-tenant simulation service: admission, deadlines, overload,
supervision, per-plan degradation, batched fusion, exactly-once."""

import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, KernelFault, inject
from repro.fpga.errors import (DeadlineExceeded, SimulationError,
                               TransientFaultError)
from repro.host.api import Fblas
from repro.service import (AdmissionRejected, AppJob, PlanJob, RoutineJob,
                           ServiceClosed, ServiceOverload, SimulationService)
from repro.telemetry.ledger import LedgerQuery, fleet_report

RNG = np.random.default_rng(42)
N, W = 256, 16


def f32(n=N):
    return RNG.standard_normal(n).astype(np.float32)


def stock_dot(x, y, width=W):
    fb = Fblas(width=width)
    return fb.dot(fb.copy_to_device(x), fb.copy_to_device(y))


def stock_axpy(a, x, y, width=W):
    fb = Fblas(width=width)
    return fb.axpy(a, fb.copy_to_device(x), fb.copy_to_device(y))


def make_service(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("max_queue", 64)
    kw.setdefault("engine_mode", "bulk")
    kw.setdefault("width", W)
    return SimulationService(**kw)


class TestBasics:
    def test_dot_bit_identical_to_single_caller(self):
        x, y = f32(), f32()
        with make_service() as svc:
            got = svc.call(RoutineJob("dot", (x, y)), timeout=60)
        assert np.float32(got) == np.float32(stock_dot(x, y))

    def test_axpy_bit_identical_and_caller_arrays_untouched(self):
        a, x, y = 0.7, f32(), f32()
        y0 = y.copy()
        with make_service() as svc:
            got = svc.call(RoutineJob("axpy", (a, x, y)), timeout=60)
        assert np.array_equal(got, stock_axpy(a, x, y))
        assert np.array_equal(y, y0)        # by-value semantics

    def test_worker_call_log_is_cleared_with_the_jobs_buffers(
            self, monkeypatch):
        """A worker keeps one ``Fblas`` for the life of the service."""
        workers = []
        real = SimulationService._worker_fblas
        monkeypatch.setattr(
            SimulationService, "_worker_fblas",
            lambda svc: workers.append(real(svc)) or workers[-1])
        x, y = f32(), f32()
        with make_service(workers=1, max_batch=1) as svc:
            for _ in range(500):
                svc.call(RoutineJob("dot", (x, y)), timeout=60)
        assert not workers[0].records and not workers[0].context.mem.buffers

    def test_ticket_carries_run_id_and_tenant(self):
        with make_service() as svc:
            t = svc.submit(RoutineJob("dot", (f32(), f32())), tenant="acme")
            t.result(timeout=60)
            assert t.tenant == "acme"
            recs = [r for r in svc.ledger.records()
                    if r.kind == "service.request"]
            assert [r.run_id for r in recs] == [t.run_id]
            assert recs[0].tenant == "acme"
            assert recs[0].outcome == "ok"

    def test_closed_service_refuses_submissions(self):
        svc = make_service()
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(RoutineJob("dot", (f32(), f32())))


class TestAdmission:
    def test_unknown_routine_rejected_with_fb500(self):
        with make_service() as svc:
            with pytest.raises(AdmissionRejected) as exc:
                svc.submit(RoutineJob("frobnicate"), tenant="t0")
            assert [d.code for d in exc.value.diagnostics] == ["FB500"]
            rec = [r for r in svc.ledger.records()
                   if r.kind == "service.request"][-1]
            assert rec.outcome == "rejected"
            assert rec.tenant == "t0"
            assert rec.extra["diagnostics"] == ["FB500"]

    def test_bad_dtype_rejected(self):
        bad = np.arange(8, dtype=np.int32)
        with make_service() as svc:
            with pytest.raises(AdmissionRejected):
                svc.submit(RoutineJob("dot", (bad, bad)))


class TestOverloadAndDeadlines:
    def test_full_queue_sheds_load_with_typed_error(self):
        gate = threading.Event()
        blocker = AppJob(lambda mode: gate.wait(10), name="blocker")
        svc = make_service(workers=1, max_queue=1, max_batch=1)
        try:
            first = svc.submit(blocker)
            time.sleep(0.2)              # let the worker pick it up
            queued = svc.submit(RoutineJob("dot", (f32(), f32())))
            with pytest.raises(ServiceOverload):
                svc.submit(RoutineJob("dot", (f32(), f32())))
            rec = [r for r in svc.ledger.records()
                   if r.kind == "service.request"][-1]
            assert rec.outcome == "overload"
            gate.set()
            first.result(timeout=30)
            queued.result(timeout=30)    # shed load, nothing lost
        finally:
            gate.set()
            svc.close()

    def test_deadline_expires_in_queue(self):
        gate = threading.Event()
        svc = make_service(workers=1, max_queue=8, max_batch=1)
        try:
            svc.submit(AppJob(lambda mode: gate.wait(10), name="blocker"))
            time.sleep(0.2)
            t = svc.submit(RoutineJob("dot", (f32(), f32())),
                           deadline_s=0.05)
            time.sleep(0.3)
            gate.set()
            with pytest.raises(DeadlineExceeded):
                t.result(timeout=30)
            rec = next(r for r in svc.ledger.records()
                       if r.run_id == t.run_id)
            assert rec.outcome == "deadline"      # not "deadlock"
            assert rec.extra["stage"] == "queue"
        finally:
            gate.set()
            svc.close()

    def test_deadline_bounds_recovery_retries(self):
        def run(mode):
            time.sleep(0.1)
            raise TransientFaultError("injected")

        with make_service(workers=1) as svc:
            t = svc.submit(AppJob(run, name="flaky"), deadline_s=0.05)
            with pytest.raises(DeadlineExceeded) as exc:
                t.result(timeout=30)
            # Chained to the fault that triggered the re-attempt.
            assert isinstance(exc.value.__cause__, TransientFaultError)


class TestSupervision:
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_poison_job_kills_worker_but_loses_nothing(self):
        with make_service(workers=1, max_batch=1) as svc:
            poison = svc.submit(AppJob(
                lambda mode: (_ for _ in ()).throw(SystemExit(3)),
                name="poison"))
            followers = [svc.submit(RoutineJob("dot", (f32(), f32())))
                         for _ in range(4)]
            with pytest.raises(BaseException):
                poison.result(timeout=30)
            for t in followers:          # queue survived the crash
                assert isinstance(t.result(timeout=60), np.float32)
            deadline = time.monotonic() + 5
            while svc.stats()["worker_restarts"] < 1:
                assert time.monotonic() < deadline, "no restart observed"
                time.sleep(0.02)

    def test_transient_fault_recovers_without_caller_visible_error(self):
        x, y = f32(), f32()
        expected = stock_dot(x, y)
        plan = FaultPlan(seed=1, kernel_faults=(
            KernelFault(kernel="dot", at_cycle=3, kind="crash"),))
        with make_service(workers=1, max_batch=1) as svc:
            with inject(plan) as ctx:
                got = svc.call(RoutineJob("dot", (x, y)), timeout=60)
            assert ctx.faults_injected == 1
        assert np.float32(got) == np.float32(expected)
        rec = [r for r in svc.ledger.records()
               if r.kind == "service.request"][-1]
        assert rec.outcome == "ok"
        assert rec.retries >= 1
        assert rec.recovery["actions"][0]["action"] == "retry"


class TestDegradation:
    def test_demotion_is_per_plan_not_per_fleet(self):
        modes_a, modes_b = [], []

        def fragile(mode):
            modes_a.append(mode)
            if mode == "bulk":
                raise SimulationError("bulk invariant violated")
            return "ok"

        def healthy(mode):
            modes_b.append(mode)
            return "ok"

        with make_service(workers=1) as svc:
            svc.call(AppJob(fragile, name="fragile"), timeout=30)
            assert modes_a == ["bulk", "event"]
            assert svc.demotions() == {"app.fragile": "event"}
            # The demoted plan starts demoted next time...
            svc.call(AppJob(fragile, name="fragile"), timeout=30)
            assert modes_a[2:] == ["event"]
            # ...while other plans keep the fast tier.
            svc.call(AppJob(healthy, name="healthy"), timeout=30)
            assert modes_b == ["bulk"]
            svc.reset_demotions()
            assert svc.demotions() == {}


class TestBatching:
    @staticmethod
    def _fuse_backlog(width, count, max_batch, runs):
        """DOTs queued behind one busy worker fuse into runs of up to
        ``max_batch`` and return the event-tier single caller's bytes."""
        jobs = [(f32(), f32()) for _ in range(count)]
        expected = [stock_dot(x, y, width=width) for x, y in jobs]
        gate = threading.Event()
        svc = make_service(workers=1, max_batch=max_batch, width=width,
                           max_queue=128)
        try:
            svc.submit(AppJob(lambda mode: gate.wait(10), name="blocker"))
            time.sleep(0.2)
            tickets = [svc.submit(RoutineJob("dot", (x, y)))
                       for x, y in jobs]
            gate.set()
            got = [t.result(timeout=60) for t in tickets]
        finally:
            gate.set()
            svc.close()
        assert all(np.float32(g) == np.float32(e)
                   for g, e in zip(got, expected))
        stats = svc.stats()
        assert (stats["batched_runs"], stats["fused_jobs"]) == (runs, count)
        fused = [r for r in svc.ledger.records()
                 if r.kind == "service.request" and "batched" in r.extra]
        assert len(fused) == count and all(r.outcome == "ok" for r in fused)

    def test_backlog_fuses_with_bit_identical_results(self):
        """Width 16 is over bank 0's budget (FB402): the fused run steps."""
        self._fuse_backlog(W, 6, max_batch=8, runs=1)

    def test_certified_backlog_fuses_into_full_batches(self):
        """Width 8 certifies: 64 jobs replay windows as four runs of 16."""
        self._fuse_backlog(8, 64, max_batch=16, runs=4)

    def test_incompatible_shapes_never_fuse(self):
        assert RoutineJob("dot", (f32(128), f32(128))).batch_key() != \
            RoutineJob("dot", (f32(256), f32(256))).batch_key()
        assert RoutineJob("scal", (2.0, f32())).batch_key() is None


class TestPlanJobs:
    @staticmethod
    def _axpydot_build(w, v, u, alpha, n, width):
        from repro.blas import level1
        from repro.fpga.resources import level1_latency
        from repro.streaming import (BoundMDAG, ComputeBinding, ReadBinding,
                                     WriteBinding, scalar_stream,
                                     vector_stream)

        def build(ctx):
            mem = ctx.mem
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
            return g, (lambda: float(beta.data[0]))
        return build

    def test_repeat_plans_hit_the_shared_cache_across_tenants(self):
        w, v, u = f32(), f32(), f32()
        job = PlanJob(self._axpydot_build(w, v, u, 0.7, N, W),
                      name="axpydot")
        with make_service(workers=2) as svc:
            values = [svc.call(job, tenant=f"tenant-{i % 4}", timeout=60)
                      for i in range(8)]
            stats = svc.plan_cache.stats()
        assert len(set(values)) == 1
        assert (stats["entries"], stats["misses"], stats["hits"]) == (1, 1, 7)


class TestConcurrentTenantsUnderFaults:
    def test_eight_tenants_exactly_once_bit_identical(self):
        pool = [("dot", (f32(), f32())) for _ in range(3)] + \
               [("axpy", (0.5, f32(), f32())) for _ in range(3)]
        expected = [stock_dot(*p[1]) if p[0] == "dot" else stock_axpy(*p[1])
                    for p in pool]

        def app_dot(mode):
            # Fixed buffer/kernel names so memory faults can target it.
            from repro.fpga import (DramModel, Engine, read_kernel,
                                    sink_kernel)
            from repro.blas import level1 as l1
            mem = DramModel()
            eng = Engine(memory=mem, mode=mode)
            bx = mem.bind("app_x", pool[0][1][0])
            by = mem.bind("app_y", pool[0][1][1])
            cx = eng.channel("ax", 64)
            cy = eng.channel("ay", 64)
            cr = eng.channel("ar", 4)
            eng.add_kernel("app_read_x", read_kernel(mem, bx, cx, W))
            eng.add_kernel("app_read_y", read_kernel(mem, by, cy, W))
            eng.add_kernel("app_dot", l1.dot_kernel(N, cx, cy, cr, width=W))
            out = []
            eng.add_kernel("app_sink", sink_kernel(cr, 1, 1, out))
            eng.run()
            return out[0]

        # The acceptance campaign: kernel crash + channel hang (a frozen
        # reader starving its downstream channel) + DRAM ecc, all
        # one-shot.  Crashes are armed on both the single and the
        # batched kernel names so the campaign fires whether or not the
        # backlog happened to fuse.  (A "drop" fault is deliberately
        # absent: a dropped element is a *deterministic* deadlock the
        # ladder must never retry, so it cannot belong to a campaign
        # whose contract is that every request completes.)
        from repro.faults import MemoryFault
        plan = FaultPlan(
            seed=9,
            kernel_faults=(
                KernelFault(kernel="dot", at_cycle=2, kind="crash"),
                KernelFault(kernel="batched_dot", at_cycle=2, kind="crash"),
                KernelFault(kernel="axpy", at_cycle=2, kind="freeze",
                            cycles=64),
                KernelFault(kernel="batched_axpy", at_cycle=2,
                            kind="freeze", cycles=64),
                KernelFault(kernel="read0", at_cycle=4, kind="freeze",
                            cycles=48),
            ),
            memory_faults=(
                MemoryFault(kind="ecc_fatal", cycle=1, buffer="app_x"),
            ),
        )

        results = {}
        errors = {}

        with make_service(workers=4, max_queue=256) as svc:
            with inject(plan) as fctx:
                def tenant(tid):
                    rng = np.random.default_rng(tid)
                    tickets = []
                    for k in range(6):
                        idx = int(rng.integers(len(pool)))
                        routine, payload = pool[idx]
                        tickets.append(
                            (svc.submit(RoutineJob(routine, payload),
                                        tenant=f"tenant-{tid}"), idx))
                    tickets.append(
                        (svc.submit(AppJob(app_dot, name="appdot"),
                                    tenant=f"tenant-{tid}"), "app"))
                    for t, idx in tickets:
                        try:
                            results[(tid, t.run_id)] = (idx, t.result(120))
                        except Exception as exc:     # noqa: BLE001
                            errors[(tid, t.run_id)] = exc

                threads = [threading.Thread(target=tenant, args=(tid,))
                           for tid in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            assert not errors, f"requests failed: {errors}"
            assert len(results) == 8 * 7             # zero lost
            app_expected = stock_dot(*pool[0][1])
            for (tid, rid), (idx, value) in results.items():
                exp = app_expected if idx == "app" else expected[idx]
                if isinstance(exp, np.ndarray):
                    assert np.array_equal(value, exp)
                else:
                    assert np.float32(value) == np.float32(exp)
            assert fctx.faults_injected >= 3          # campaign fired
            recs = [r for r in svc.ledger.records()
                    if r.kind == "service.request"]
            # Exactly one classified record per request.
            assert len(recs) == 8 * 7
            assert all(r.outcome == "ok" for r in recs)
            assert sum(r.retries for r in recs) >= 1   # recovery ran
            q = LedgerQuery(recs)
            per_tenant = q.tenant_summary()
            assert set(per_tenant) == {f"tenant-{i}" for i in range(8)}
            assert all(row["requests"] == 7
                       for row in per_tenant.values())


class TestTenantReporting:
    def test_fleet_report_has_tenant_section(self):
        with make_service() as svc:
            svc.call(RoutineJob("dot", (f32(), f32())), tenant="acme")
            with pytest.raises(AdmissionRejected):
                svc.submit(RoutineJob("nope"), tenant="initech")
            report = fleet_report(svc.ledger.records())
        assert "tenant" in report
        assert "acme" in report
        assert "initech" in report
