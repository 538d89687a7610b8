"""Recovery ladder: retry, checkpoint/restart, tier demotion.

Directed unit tests for :mod:`repro.faults.recovery` (the fault campaign
exercises recovery only when a generated crash lands inside a kernel's
work window, so these pin the machinery with hand-placed faults).
"""

import numpy as np
import pytest

from repro.blas import level1, reference
from repro.faults import (FaultPlan, KernelFault, MemoryCheckpoint,
                          RecoveryOutcome, RetryPolicy, inject,
                          run_with_recovery)
from repro.faults.campaign import OUTCOMES, render_summary, run_campaign
from repro.fpga.errors import (DeadlineExceeded, DeadlockError,
                               KernelCrashError, SimulationError)
from repro.fpga.memory import DramModel
from repro.fpga.resources import level1_latency
from repro.host.api import Fblas
from repro.streaming import (BoundMDAG, ComputeBinding, ReadBinding,
                             WriteBinding, execute_plan, scalar_stream,
                             vector_stream)


class _Flaky:
    """Attempt that fails ``fail`` times, then returns the mode it ran in."""

    def __init__(self, fail, exc_factory):
        self.fail = fail
        self.exc_factory = exc_factory
        self.calls = 0

    def __call__(self, mode):
        self.calls += 1
        if self.calls <= self.fail:
            raise self.exc_factory()
        return mode


def _crash():
    return KernelCrashError("k", 3)


class TestRunWithRecovery:
    def test_transient_fault_retries_then_succeeds(self):
        attempt = _Flaky(1, _crash)
        out = run_with_recovery(attempt)
        assert out.result == "event"
        assert out.retries == 1 and out.demotions == 0
        assert out.recovered
        assert out.actions == [{
            "action": "retry", "mode": "event",
            "error": "KernelCrashError", "backoff_s": 0.01,
        }]

    def test_backoff_grows_geometrically(self):
        attempt = _Flaky(3, _crash)
        policy = RetryPolicy(max_retries=3, backoff_base=0.5,
                             backoff_factor=2.0)
        out = run_with_recovery(attempt, policy=policy)
        assert [a["backoff_s"] for a in out.actions] == [0.5, 1.0, 2.0]

    def test_exhausted_budget_reraises(self):
        attempt = _Flaky(5, _crash)
        with pytest.raises(KernelCrashError):
            run_with_recovery(attempt, policy=RetryPolicy(max_retries=2))
        assert attempt.calls == 3        # initial try + 2 retries

    def test_deadlock_is_never_retried(self):
        attempt = _Flaky(1, lambda: DeadlockError(7, {"k": "pop"}))
        with pytest.raises(DeadlockError):
            run_with_recovery(attempt)
        assert attempt.calls == 1

    def test_watchdog_trip_demotes_down_the_ladder(self):
        calls = []

        def attempt(mode):
            calls.append(mode)
            if mode != "dense":
                raise SimulationError(f"{mode} tier wedged")
            return "ok"

        out = run_with_recovery(attempt, mode="bulk")
        assert calls == ["bulk", "event", "dense"]
        assert out.result == "ok" and out.mode == "dense"
        assert out.demotions == 2 and out.retries == 0
        assert [(a["from"], a["to"]) for a in out.actions] == [
            ("bulk", "event"), ("event", "dense")]

    def test_dense_tier_failure_reraises(self):
        with pytest.raises(SimulationError):
            run_with_recovery(_Flaky(9, lambda: SimulationError("x")),
                              mode="dense")

    def test_demotion_disabled_reraises(self):
        with pytest.raises(SimulationError):
            run_with_recovery(_Flaky(9, lambda: SimulationError("x")),
                              policy=RetryPolicy(demote=False),
                              mode="bulk")

    def test_restore_runs_before_every_reattempt(self):
        restored = []
        attempt = _Flaky(2, _crash)
        run_with_recovery(attempt, policy=RetryPolicy(max_retries=2),
                          restore=lambda: restored.append(attempt.calls))
        # restore fired after attempt 1 and 2 failed, before 2 and 3 ran
        assert restored == [1, 2]

    def test_demotion_does_not_consume_retry_budget(self):
        seen = []

        def attempt(mode):
            seen.append(mode)
            if mode == "bulk":
                raise SimulationError("wedge")
            if len(seen) < 4:
                raise KernelCrashError("k", 1)
            return "ok"

        out = run_with_recovery(attempt, mode="bulk",
                                policy=RetryPolicy(max_retries=2))
        assert out.result == "ok"
        assert out.demotions == 1 and out.retries == 2

    def test_ambient_context_counters_updated(self):
        with inject(FaultPlan(seed=0)) as ctx:
            run_with_recovery(_Flaky(1, _crash))
        assert ctx.retries == 1

    def test_outcome_to_dict_shape(self):
        out = RecoveryOutcome(result=1, mode="dense", retries=2,
                              demotions=1,
                              actions=[{"action": "retry"}])
        doc = out.to_dict()
        assert doc == {"mode": "dense", "retries": 2, "demotions": 1,
                       "recovered": True,
                       "actions": [{"action": "retry"}]}


class _FakeClock:
    """Deterministic clock: advances ``step`` seconds per reading."""

    def __init__(self, step=1.0, start=100.0):
        self.now = start
        self.step = step

    def __call__(self):
        t = self.now
        self.now += self.step
        return t


class TestRecoveryDeadline:
    def test_expired_budget_stops_retries_and_chains_the_cause(self):
        attempt = _Flaky(5, _crash)
        with pytest.raises(DeadlineExceeded) as exc:
            run_with_recovery(attempt, policy=RetryPolicy(max_retries=5),
                              deadline_s=2.5, clock=_FakeClock(step=1.0))
        # t0=100, pre-check 101, attempt1 fails, pre-retry check 102
        # (1 retry consumed), attempt2 fails, check 103 >= 102.5: stop.
        assert attempt.calls == 2
        assert isinstance(exc.value.__cause__, KernelCrashError)
        assert exc.value.deadline_s == 2.5

    def test_deadline_error_carries_the_forensic_summary(self):
        attempt = _Flaky(5, _crash)
        with pytest.raises(DeadlineExceeded, match=r"1 retries"):
            run_with_recovery(attempt, policy=RetryPolicy(max_retries=5),
                              deadline_s=2.5, clock=_FakeClock(step=1.0))

    def test_checked_before_first_attempt(self):
        attempt = _Flaky(0, _crash)
        with pytest.raises(DeadlineExceeded):
            run_with_recovery(attempt, deadline_s=0.5,
                              clock=_FakeClock(step=1.0))
        assert attempt.calls == 0         # never even tried

    def test_completed_attempt_is_never_discarded(self):
        # The attempt finishes after the deadline has technically
        # passed; the result still comes back — the deadline bounds
        # *further recovery work*, not a result that arrived late.
        clock = _FakeClock(step=10.0)
        out = run_with_recovery(lambda mode: "late-but-done",
                                deadline_s=15.0, clock=clock)
        assert out.result == "late-but-done"

    def test_deadline_bounds_demotions_too(self):
        calls = []

        def attempt(mode):
            calls.append(mode)
            raise SimulationError(f"{mode} wedged")

        with pytest.raises(DeadlineExceeded) as exc:
            run_with_recovery(attempt, mode="bulk", deadline_s=2.5,
                              clock=_FakeClock(step=1.0))
        assert calls == ["bulk", "event"]      # dense never reached
        assert isinstance(exc.value.__cause__, SimulationError)

    def test_classified_distinct_from_deadlock(self):
        from repro.telemetry.ledger import classify_outcome
        ddl = DeadlineExceeded("budget", deadline_s=1.0, elapsed_s=2.0)
        dlk = DeadlockError(7, {"k": "pop"})
        assert classify_outcome(ddl) == "deadline"
        assert classify_outcome(dlk) == "deadlock"
        assert classify_outcome(ddl) != classify_outcome(dlk)

    def test_no_deadline_means_no_clock_pressure(self):
        out = run_with_recovery(_Flaky(2, _crash),
                                policy=RetryPolicy(max_retries=3),
                                clock=_FakeClock(step=1e9))
        assert out.retries == 2 and out.result == "event"


class TestMemoryCheckpoint:
    def test_restore_is_in_place_and_complete(self):
        mem = DramModel(num_banks=2)
        buf = mem.bind("v", np.arange(8, dtype=np.float32))
        array_before = buf.data
        ckpt = MemoryCheckpoint.capture(mem)

        buf.data[...] = -1.0
        buf.elements_read += 40
        buf.elements_written += 4
        mem.bank_stats[0].bytes_read += 128
        mem.bank_stats[1].ecc_events += 2

        ckpt.restore()
        assert buf.data is array_before          # aliasing views survive
        np.testing.assert_array_equal(buf.data,
                                      np.arange(8, dtype=np.float32))
        assert buf.elements_read == 0 and buf.elements_written == 0
        assert mem.bank_stats[0].bytes_read == 0
        assert mem.bank_stats[1].ecc_events == 0

    def test_capture_of_no_memory_is_none(self):
        assert MemoryCheckpoint.capture(None) is None


class TestHostResilience:
    def _vectors(self, n=64):
        rng = np.random.default_rng(11)
        return (rng.standard_normal(n).astype(np.float32),
                rng.standard_normal(n).astype(np.float32))

    def test_crash_without_resilience_propagates(self):
        x, y = self._vectors()
        fb = Fblas(width=4)
        plan = FaultPlan(seed=0, kernel_faults=(
            KernelFault("dot", 2, "crash"),))
        with inject(plan):
            with pytest.raises(KernelCrashError):
                fb.dot(fb.copy_to_device(x), fb.copy_to_device(y))

    def test_crash_with_resilience_retries_to_success(self):
        x, y = self._vectors()
        fb = Fblas(width=4, resilience=True)
        plan = FaultPlan(seed=0, kernel_faults=(
            KernelFault("dot", 2, "crash"),))
        with inject(plan) as ctx:
            res = fb.dot(fb.copy_to_device(x), fb.copy_to_device(y))
        assert res == pytest.approx(float(reference.dot(x, y)), rel=1e-4)
        assert fb.last_recovery is not None
        assert fb.last_recovery.retries == 1
        assert fb.last_recovery.recovered
        assert ctx.faults_injected == 1 and ctx.retries == 1

    def test_certified_failure_demotes_once_to_event(self):
        """The ladder has a rung for the tier the host and the service
        ask for: a ``SimulationError`` on the certified tier demotes to
        event instead of propagating.  No fault in the vocabulary can
        wedge a certified run on its own (kernel faults are refused at
        certification, value faults keep the cadence), so the failure is
        the one only that tier can have — its window replay, broken here
        by an observer — under a seeded plan whose one-shot fault has
        already fired when it strikes."""
        from repro.faults import ChannelFault
        from repro.fpga.observers import TraceObserver

        class BrokenWindow(TraceObserver):
            def on_window(self, start, cycles, window):
                raise SimulationError("window replay failed")

        class Watched(Fblas):
            def _engine(self):
                eng = super()._engine()
                eng.add_observer(BrokenWindow())
                return eng

        x, y = self._vectors(4096)
        plan = FaultPlan(seed=3, channel_faults=(
            ChannelFault("in0", 5, "corrupt", bit=30),))

        def dot(cls, mode, **kw):
            fb = cls(width=8, engine_mode=mode, **kw)
            return fb, fb.dot(fb.copy_to_device(x), fb.copy_to_device(y))

        _, clean = dot(Fblas, "event")
        with inject(plan):
            _, faulted = dot(Fblas, "event")
        assert faulted != clean                 # the fault is real
        with inject(plan):
            with pytest.raises(SimulationError):
                dot(Watched, "certified")       # no ladder: it propagates
        with inject(plan) as ctx:
            fb, res = dot(Watched, "certified", resilience=True)
        out = fb.last_recovery
        assert out.mode == "event"
        assert out.demotions == 1 and out.retries == 0
        assert out.actions == [{"action": "demote", "from": "certified",
                                "to": "event", "error": "SimulationError"}]
        # One-shot: the fault fired in the failed attempt and does not
        # replay, so the demoted run returns the clean event-tier bytes.
        assert ctx.faults_injected == 1 and ctx.demotions == 1
        assert np.asarray(res).tobytes() == np.asarray(clean).tobytes()
        assert fb.engine_mode == "certified"    # demotion was per call


class TestExecutorRecovery:
    def _build(self, mem, n, width, w, v, u, alpha):
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

    def test_component_retry_recovers_result(self):
        n, width, alpha = 64, 4, 0.7
        rng = np.random.default_rng(5)
        w, v, u = (rng.standard_normal(n).astype(np.float32)
                   for _ in range(3))
        mem = DramModel(num_banks=2)
        g, beta = self._build(mem, n, width, w, v, u, alpha)
        plan = FaultPlan(seed=0, kernel_faults=(
            KernelFault("axpy", 3, "crash"),))
        with inject(plan):
            result = execute_plan(g, mem, recovery=True)
        assert result.recovered
        assert result.recovery[0]["retries"] == 1
        want = float(reference.dot(reference.axpy(-alpha, v, w), u))
        assert beta.data[0] == pytest.approx(want, rel=1e-3)

    def test_no_fault_recovery_log_is_clean(self):
        n, width = 32, 4
        rng = np.random.default_rng(6)
        w, v, u = (rng.standard_normal(n).astype(np.float32)
                   for _ in range(3))
        mem = DramModel(num_banks=2)
        g, _ = self._build(mem, n, width, w, v, u, 0.5)
        result = execute_plan(g, mem, recovery=True)
        assert result.recovery is not None
        assert not result.recovered
        assert all(r["retries"] == 0 for r in result.recovery)

    def test_recovery_off_by_default(self):
        n, width = 32, 4
        rng = np.random.default_rng(7)
        w, v, u = (rng.standard_normal(n).astype(np.float32)
                   for _ in range(3))
        mem = DramModel(num_banks=2)
        g, _ = self._build(mem, n, width, w, v, u, 0.5)
        result = execute_plan(g, mem)
        assert result.recovery is None and not result.recovered


class TestCampaignSmoke:
    def test_small_campaign_completes_explained(self):
        doc = run_campaign(seed=3, apps=("axpydot",), budget=6)
        assert doc["schema"] == "repro.faultcampaign/1"
        assert len(doc["trials"]) == 6
        assert sum(doc["summary"].values()) == 6
        assert set(doc["summary"]) <= set(OUTCOMES)
        assert doc["unexplained_hangs"] == 0

    def test_render_summary_mentions_apps_and_outcomes(self):
        doc = run_campaign(seed=3, apps=("axpydot",), budget=4)
        text = render_summary(doc)
        assert "axpydot" in text
        assert "faults injected:" in text
        assert "unexplained hangs: 0" in text


class TestCampaignCliUsage:
    """A typo or a nonsense size is argparse's one-line usage error (exit
    2), never a traceback or a silent no-op: exit 1 means an unexplained
    hang to CI."""

    @pytest.mark.parametrize("argv", [
        ["--apps", "nope"], ["--apps", ","], ["--n", "0"], ["--budget", "0"],
    ], ids=["apps-unknown", "apps-empty", "n-zero", "budget-zero"])
    def test_bad_argument_is_a_usage_error(self, argv, capsys):
        from repro.faults.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["campaign", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[0]}" in err and "Traceback" not in err
