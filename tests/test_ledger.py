"""Tests for the correlated run ledger (``repro.telemetry.ledger``).

Unit coverage of the record schema (lossless round-trip, including a
hypothesis sweep), the size-rotated JSONL sink, the query/aggregate
layer and the fleet report — then the acceptance scenario from the
observability PR: one run_id correlating a faulted + recovered
certified host call across the RunRecord, the recovery report and the
Chrome trace, with cache deltas and the predicted band populated.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.faults import FaultPlan, MemoryFault, inject
from repro.fpga import DeadlockError
from repro.fpga.errors import EccError, KernelCrashError, LivelockError
from repro.host.api import Fblas, FblasContext
from repro.telemetry.ledger import (RUN_RECORD_SCHEMA, JsonlSink, LedgerQuery,
                                    RunLedger, RunRecord, classify_outcome,
                                    correlate, current_run_id, fleet_report,
                                    mint_run_id, read_ledger, run_scope)


# -- ids and correlation -----------------------------------------------------

class TestCorrelation:
    def test_ids_are_unique_and_monotonic(self):
        a, b = mint_run_id(), mint_run_id()
        assert a != b
        assert a.startswith("r-") and b.startswith("r-")
        assert int(a.rsplit("-", 1)[1]) < int(b.rsplit("-", 1)[1])

    def test_current_is_none_outside_any_scope(self):
        assert current_run_id() is None

    def test_correlate_nests_like_a_stack(self):
        with correlate("r-outer") as rid:
            assert rid == "r-outer"
            assert current_run_id() == "r-outer"
            with correlate("r-inner"):
                assert current_run_id() == "r-inner"
            assert current_run_id() == "r-outer"
        assert current_run_id() is None

    def test_correlate_pops_on_exception(self):
        with pytest.raises(RuntimeError):
            with correlate("r-x"):
                raise RuntimeError("boom")
        assert current_run_id() is None


class TestClassifyOutcome:
    @pytest.mark.parametrize("exc,label", [
        (DeadlockError(5, {}), "deadlock"),
        (LivelockError(5, {}), "livelock"),
        (KernelCrashError("k", 3), "transient_fault"),
        (EccError("buf", 0, 2), "transient_fault"),
        (ValueError("nope"), "error"),
    ])
    def test_known_families(self, exc, label):
        assert classify_outcome(exc) == label

    def test_analysis_error_is_rejected(self):
        # Matched by class *name* over the MRO — build a stand-in rather
        # than a full diagnostics result.
        class AnalysisError(Exception):
            pass
        assert classify_outcome(AnalysisError()) == "rejected"


# -- the record --------------------------------------------------------------

def _full_record() -> RunRecord:
    return RunRecord(
        run_id="r-abc-000001", kind="host.call", parent_id=None,
        label="dot", engine_mode="certified", cycles=98, stall_cycles=12,
        kernel_steps=40, wall_seconds=0.002, plan_key="pk123",
        mdag_fingerprint="fp456", plan_cache={"hits": 1, "misses": 0},
        schedule_cache={"hits": 0, "misses": 1}, predicted_cycles=(4, 159),
        in_band=True, bulk={"windows": 2, "bulk_cycles": 64, "probes": 0,
                            "cooldowns": 0},
        faults_injected=1, retries=1, demotions=0,
        recovery={"mode": "certified", "retries": 1},
        outcome="ok", error=None, extra={"seed": 7})


class TestRunRecord:
    def test_round_trip_is_lossless(self):
        rec = _full_record()
        clone = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert clone == rec

    def test_schema_tag_leads_the_document(self):
        doc = _full_record().to_dict()
        assert doc["schema"] == RUN_RECORD_SCHEMA

    def test_from_dict_rejects_foreign_schema(self):
        doc = _full_record().to_dict()
        doc["schema"] = "someone.else/9"
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_dict(doc)

    def test_band_check_sets_in_band(self):
        rec = RunRecord(run_id="r", kind="engine.run",
                        predicted_cycles=(10, 20), cycles=15)
        rec.band_check()
        assert rec.in_band is True
        rec.cycles = 25
        rec.band_check()
        assert rec.in_band is False

    def test_band_excess_measures_overshoot(self):
        rec = RunRecord(run_id="r", kind="engine.run",
                        predicted_cycles=(10, 100), cycles=130)
        assert rec.band_excess() == pytest.approx(0.3)
        rec.cycles = 90
        assert rec.band_excess() == 0.0
        rec.predicted_cycles = None
        assert rec.band_excess() is None

    @pytest.mark.parametrize("row", ["[1, 2]", '"x"', "null", "3"],
                             ids=["list", "string", "null", "number"])
    def test_read_ledger_rejects_a_row_that_is_not_an_object(
            self, tmp_path, row):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(_full_record().to_dict()) + "\n"
                        + row + "\n")
        with pytest.raises(ValueError,
                           match=r"bad\.jsonl:2: bad ledger row"):
            read_ledger(str(path))

    @pytest.mark.parametrize("field,value", [
        ("bulk", [1]), ("memory", [1]), ("predicted_cycles", [1]),
        ("schedule_cache", "x"), ("extra", 5), ("predicted_cycles", 7),
        ("cycles", [1]), ("wall_seconds", "soon"),
    ], ids=["bulk-list", "memory-list", "band-short", "cache-string",
            "extra-number", "band-number", "cycles-list", "wall-string"])
    def test_read_ledger_rejects_a_field_of_the_wrong_shape(
            self, tmp_path, field, value):
        doc = _full_record().to_dict()
        doc[field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ValueError,
                           match=rf"bad\.jsonl:1: bad ledger row: {field}"):
            read_ledger(str(path))

    @settings(max_examples=50, deadline=None)
    @given(
        cycles=st.integers(min_value=0, max_value=10**9),
        stalls=st.integers(min_value=0, max_value=10**6),
        wall=st.floats(min_value=0, max_value=1e3, allow_nan=False),
        outcome=st.sampled_from(["ok", "deadlock", "transient_fault",
                                 "error"]),
        band=st.one_of(st.none(), st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=10**6))),
        label=st.one_of(st.none(), st.text(max_size=20)),
        extra=st.dictionaries(st.text(max_size=8),
                              st.integers(), max_size=3),
    )
    def test_round_trip_property(self, cycles, stalls, wall, outcome,
                                 band, label, extra):
        rec = RunRecord(run_id=mint_run_id(), kind="engine.run",
                        label=label, cycles=cycles, stall_cycles=stalls,
                        wall_seconds=wall, predicted_cycles=band,
                        outcome=outcome, extra=extra)
        payload = json.dumps(rec.to_dict(), sort_keys=True)
        assert RunRecord.from_dict(json.loads(payload)) == rec


# -- storage -----------------------------------------------------------------

class TestJsonlSink:
    def test_appends_parseable_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        sink = JsonlSink(str(path))
        sink.write(_full_record())
        sink.write(_full_record())
        rows = [json.loads(x) for x in path.read_text().splitlines()]
        assert len(rows) == 2
        assert all(r["schema"] == RUN_RECORD_SCHEMA for r in rows)

    def test_rotates_at_max_bytes(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        sink = JsonlSink(str(path), max_bytes=2000)
        for _ in range(20):
            sink.write(_full_record())
        assert sink.rotations >= 1
        assert (tmp_path / "ledger.jsonl.1").exists()
        # both generations stay parseable
        assert read_ledger(str(path))
        assert read_ledger(str(path) + ".1")

    def test_read_ledger_skips_blanks_and_flags_garbage(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        good = json.dumps(_full_record().to_dict())
        path.write_text(good + "\n\n" + good + "\n")
        assert len(read_ledger(str(path))) == 2
        path.write_text(good + "\nnot json\n")
        with pytest.raises(ValueError, match=":2:"):
            read_ledger(str(path))


class TestRunLedger:
    def test_ring_is_bounded_but_counts_everything(self):
        led = RunLedger(capacity=3)
        for i in range(5):
            led.append(RunRecord(run_id=f"r-{i}", kind="engine.run"))
        assert len(led) == 3
        assert led.appended == 5
        assert [r.run_id for r in led] == ["r-2", "r-3", "r-4"]

    def test_find_and_children(self):
        led = RunLedger()
        led.append(RunRecord(run_id="r-p", kind="host.call"))
        led.append(RunRecord(run_id="r-c1", kind="engine.run",
                             parent_id="r-p"))
        led.append(RunRecord(run_id="r-c2", kind="engine.run",
                             parent_id="r-p"))
        assert led.find("r-p").kind == "host.call"
        assert led.find("r-nope") is None
        assert [r.run_id for r in led.children("r-p")] == ["r-c1", "r-c2"]

    def test_append_writes_through_to_sink(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        led = RunLedger(path=str(path))
        led.append(_full_record())
        assert read_ledger(str(path))[0].run_id == "r-abc-000001"

    def test_merge_rolls_up_child_facts(self):
        led = RunLedger()
        parent = RunRecord(run_id="r-p", kind="host.call", cycles=100)
        led.append(RunRecord(run_id="r-c1", kind="engine.run",
                             parent_id="r-p", cycles=60, stall_cycles=5,
                             kernel_steps=30, faults_injected=1,
                             predicted_cycles=(10, 70)))
        led.append(RunRecord(run_id="r-c2", kind="engine.run",
                             parent_id="r-p", cycles=40, stall_cycles=3,
                             kernel_steps=20, predicted_cycles=(5, 50)))
        led.merge_children_into(parent)
        assert parent.stall_cycles == 8
        assert parent.kernel_steps == 50
        assert parent.faults_injected == 1
        assert parent.predicted_cycles == (15, 120)
        assert parent.in_band is True

    def test_merge_ignores_failed_attempts_for_the_band(self):
        # A crashed-then-retried certified call has TWO banded children;
        # only the successful attempt may contribute, else the parent's
        # band doubles while its cycles reflect one attempt.
        led = RunLedger()
        parent = RunRecord(run_id="r-p", kind="host.call", cycles=95)
        led.append(RunRecord(run_id="r-c1", kind="engine.run",
                             parent_id="r-p", cycles=2,
                             predicted_cycles=(4, 159),
                             outcome="transient_fault", error="EccError"))
        led.append(RunRecord(run_id="r-c2", kind="engine.run",
                             parent_id="r-p", cycles=95,
                             predicted_cycles=(4, 159)))
        led.merge_children_into(parent)
        assert parent.predicted_cycles == (4, 159)
        assert parent.in_band is True

    def test_merge_refuses_partial_bands(self):
        led = RunLedger()
        parent = RunRecord(run_id="r-p", kind="host.call", cycles=100)
        led.append(RunRecord(run_id="r-c1", kind="engine.run",
                             parent_id="r-p", cycles=60,
                             predicted_cycles=(10, 70)))
        led.append(RunRecord(run_id="r-c2", kind="engine.run",
                             parent_id="r-p", cycles=40))   # no band
        led.merge_children_into(parent)
        assert parent.predicted_cycles is None


class TestRunScope:
    def test_success_appends_and_times(self):
        led = RunLedger()
        with run_scope(led, "host.call", label="dot") as rec:
            assert current_run_id() == rec.run_id
            rec.cycles = 42
        assert led.records() == [rec]
        assert rec.outcome == "ok"
        assert rec.wall_seconds >= 0.0

    def test_failure_is_classified_and_still_appended(self):
        led = RunLedger()
        with pytest.raises(KernelCrashError):
            with run_scope(led, "engine.run") as rec:
                raise KernelCrashError("k", 1)
        assert rec.outcome == "transient_fault"
        assert rec.error == "KernelCrashError"
        assert led.records() == [rec]
        assert current_run_id() is None

    def test_nested_scopes_set_parent(self):
        led = RunLedger()
        with run_scope(led, "host.call") as outer:
            with run_scope(led, "engine.run") as inner:
                pass
        assert inner.parent_id == outer.run_id
        assert outer.parent_id is None


# -- querying ----------------------------------------------------------------

def _query_fixture():
    recs = []
    for i, cycles in enumerate((100, 200, 300, 400, 1000)):
        recs.append(RunRecord(
            run_id=f"r-{i}", kind="engine.run", label="dot",
            engine_mode="certified", plan_key="pkA", cycles=cycles,
            predicted_cycles=(50, 350),
            schedule_cache={"hits": 1 if i else 0, "misses": 0 if i else 1}))
    recs.append(RunRecord(run_id="r-x", kind="engine.run", label="axpy",
                          engine_mode="event", plan_key="pkB", cycles=50,
                          outcome="deadlock", error="DeadlockError"))
    for r in recs:
        r.band_check()
    return recs


class TestLedgerQuery:
    def test_filter_chains(self):
        q = LedgerQuery(_query_fixture())
        assert len(q.filter(kind="engine.run")) == 6
        assert len(q.filter(plan_key="pkA", outcome="ok")) == 5
        assert len(q.filter(engine_mode="event")) == 1
        assert len(q.filter(predicate=lambda r: r.cycles > 250)) == 3

    def test_aggregate_percentiles(self):
        agg = LedgerQuery(_query_fixture()).filter(plan_key="pkA") \
            .aggregate("cycles")
        assert agg["count"] == 5
        assert agg["p50"] == 300
        assert agg["p95"] == 1000
        assert agg["max"] == 1000
        assert agg["mean"] == pytest.approx(400)

    def test_aggregate_of_nothing_is_zeroes(self):
        agg = LedgerQuery([]).aggregate("cycles")
        assert agg == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                       "max": 0.0}

    def test_hit_rate(self):
        q = LedgerQuery(_query_fixture())
        assert q.hit_rate("schedule_cache") == pytest.approx(4 / 5)
        assert q.hit_rate("plan_cache") is None

    def test_by_plan_and_outcomes(self):
        q = LedgerQuery(_query_fixture())
        groups = q.by_plan()
        assert set(groups) == {"pkA", "pkB"}
        assert len(groups["pkA"]) == 5
        assert q.outcomes() == {"deadlock": 1, "ok": 5}

    def test_regressions_threshold_and_order(self):
        q = LedgerQuery(_query_fixture())
        # band hi=350: 400 -> +14%, 1000 -> +186%
        regs = q.regressions(0.25)
        assert [(r.cycles, round(e, 2)) for r, e in regs] == [(1000, 1.86)]
        regs = q.regressions(0.1)
        assert [r.cycles for r, _ in regs] == [1000, 400]

    def test_slowest(self):
        q = LedgerQuery(_query_fixture())
        assert [r.cycles for r in q.slowest(2)] == [1000, 400]


class TestFleetReport:
    def test_renders_table_and_summary(self):
        text = fleet_report(_query_fixture(), threshold=0.25)
        assert "run ledger: 6 records" in text
        assert "engine.run: 6" in text
        assert "pkA" in text and "pkB" in text
        assert "+186%!" in text
        assert "deadlock=1" in text
        assert "1 band regression (threshold 25%)" in text

    def test_empty_set(self):
        assert "(empty)" in fleet_report([])

    def test_root_only_fault_accounting(self):
        # The parent rolls the child's fault count up; the report must
        # not sum both rows.
        parent = RunRecord(run_id="r-p", kind="host.call",
                           faults_injected=1, retries=1)
        child = RunRecord(run_id="r-c", kind="engine.run",
                          parent_id="r-p", faults_injected=1)
        text = fleet_report([parent, child])
        assert "faults injected: 1" in text
        assert "retries: 1" in text


# -- the acceptance scenario -------------------------------------------------

class TestEndToEndCorrelation:
    """One run_id joins the ledger row, the recovery report and the
    trace for a faulted + recovered certified host call."""

    @pytest.fixture()
    def faulted_session(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        plan = FaultPlan(seed=0, memory_faults=(
            MemoryFault(kind="ecc_fatal", cycle=2, buffer="buf0"),))
        with telemetry.session(ledger_path=str(path)) as tel:
            with inject(plan) as ctx:
                fb = Fblas(engine_mode="certified", width=8,
                           resilience=True)
                x = fb.copy_to_device(np.arange(8, dtype=np.float32))
                y = fb.copy_to_device(np.ones(8, dtype=np.float32))
                result = fb.dot(x, y)
        return tel, fb, ctx, result, path

    def test_result_survives_the_fault(self, faulted_session):
        _tel, _fb, ctx, result, _path = faulted_session
        assert result == pytest.approx(28.0)
        assert ctx.faults_injected == 1
        assert ctx.retries == 1

    def test_host_record_correlates_everything(self, faulted_session):
        tel, fb, _ctx, _result, _path = faulted_session
        host = tel.ledger.query().filter(kind="host.call").records[0]
        assert host.label == "dot"
        assert host.outcome == "ok"
        assert host.retries == 1
        assert host.faults_injected == 1
        # cache deltas: certificate missed on attempt 1, hit on retry
        assert host.schedule_cache == {"hits": 1, "misses": 1}
        # the certified band made it up from the successful engine run
        assert host.predicted_cycles is not None
        assert host.in_band is True
        # the recovery report carries the same correlation id
        assert fb.last_recovery is not None
        assert fb.last_recovery.to_dict()["run_id"] == host.run_id
        assert host.recovery["run_id"] == host.run_id
        assert host.recovery["recovered"] is True

    def test_engine_children_chain_to_the_host_id(self, faulted_session):
        tel, _fb, _ctx, _result, _path = faulted_session
        host = tel.ledger.query().filter(kind="host.call").records[0]
        kids = tel.ledger.children(host.run_id)
        assert len(kids) == 2
        assert [k.outcome for k in kids] == ["transient_fault", "ok"]
        assert kids[0].error == "EccError"
        assert all(k.engine_mode == "certified" for k in kids)
        ok = kids[1]
        assert ok.predicted_cycles is not None and ok.in_band is True
        assert ok.schedule_cache == {"hits": 1, "misses": 0}

    def test_trace_event_carries_the_run_id(self, faulted_session):
        tel, _fb, _ctx, _result, _path = faulted_session
        host = tel.ledger.query().filter(kind="host.call").records[0]
        events = telemetry.trace_events(tel)
        tagged = [e for e in events
                  if e.get("args", {}).get("run_id") == host.run_id]
        assert any(e["name"] == "host.dot" for e in tagged)

    def test_jsonl_round_trips_and_report_renders(self, faulted_session):
        tel, _fb, _ctx, _result, path = faulted_session
        records = read_ledger(str(path))
        assert {r.run_id for r in records} == \
            {r.run_id for r in tel.ledger}
        text = fleet_report(records)
        assert "run ledger: 3 records" in text
        assert "faults injected: 1   retries: 1" in text
        assert "transient_fault=1" in text

    def test_plan_cache_counters_exported(self, faulted_session):
        tel, _fb, _ctx, _result, _path = faulted_session
        metrics = {m["name"]: m for m in tel.registry.to_dict()["metrics"]}
        cache = metrics.get("plan_cache.requests")
        assert cache is not None
        series = {tuple(sorted(s["labels"].items())): s["value"]
                  for s in cache["series"]}
        key_miss = (("cache", "host.schedule"), ("result", "miss"))
        key_hit = (("cache", "host.schedule"), ("result", "hit"))
        assert series[key_miss] == 1
        assert series[key_hit] == 1


class TestExecutorNesting:
    """execute_plan mints its own record between host and engine."""

    def _build(self, mem, n=32, width=4, alpha=0.7):
        from repro.blas import level1
        from repro.fpga.resources import level1_latency
        from repro.streaming import (BoundMDAG, ComputeBinding, ReadBinding,
                                     WriteBinding, scalar_stream,
                                     vector_stream)
        rng = np.random.default_rng(3)
        w, v, u = (rng.standard_normal(n).astype(np.float32)
                   for _ in range(3))
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
        return g

    def test_execute_plan_record_nests_engine_runs(self):
        from repro.fpga.memory import DramModel
        from repro.streaming import execute_plan
        with telemetry.session() as tel:
            mem = DramModel()
            execute_plan(self._build(mem), mem)
        q = tel.ledger.query()
        plans = q.filter(kind="execute_plan").records
        assert len(plans) == 1
        plan = plans[0]
        assert plan.outcome == "ok"
        assert plan.plan_key, "expected the structural plan key"
        assert plan.mdag_fingerprint, "expected the MDAG fingerprint"
        kids = tel.ledger.children(plan.run_id)
        assert kids and all(k.kind == "engine.run" for k in kids)
        assert plan.cycles == sum(k.cycles for k in kids)

    def test_plan_cache_hit_recorded_on_the_second_call(self):
        from repro.fpga.memory import DramModel
        from repro.plan import PlanCache
        from repro.streaming import execute_plan
        cache = PlanCache(name="test.plan")
        with telemetry.session() as tel:
            mem = DramModel()
            g = self._build(mem)
            execute_plan(g, mem, plan_cache=cache)
            execute_plan(g, mem, plan_cache=cache)
        plans = tel.ledger.query().filter(kind="execute_plan").records
        assert plans[0].plan_cache == {"hits": 0, "misses": 1}
        assert plans[1].plan_cache == {"hits": 1, "misses": 0}
        assert plans[0].mdag_fingerprint == plans[1].mdag_fingerprint
        # ... and the labelled counter saw both lookups
        metrics = {m["name"]: m for m in tel.registry.to_dict()["metrics"]}
        series = {tuple(sorted(s["labels"].items())): s["value"]
                  for s in metrics["plan_cache.requests"]["series"]}
        assert series[(("cache", "test.plan"), ("result", "miss"))] == 1
        assert series[(("cache", "test.plan"), ("result", "hit"))] == 1


class TestHangCorrelation:
    def test_hang_report_carries_the_run_id(self):
        from repro.apps import atax_streaming
        ctx = FblasContext()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)).astype(np.float32)
        x = rng.standard_normal(8).astype(np.float32)
        with telemetry.session() as tel:
            with pytest.raises(DeadlockError) as info:
                atax_streaming(ctx, ctx.copy_to_device(a),
                               ctx.copy_to_device(x),
                               tile=4, width=4, channel_depth=2)
        report = info.value.report
        assert report.run_id is not None
        assert f"[run {report.run_id}]" in report.render_text()
        assert report.to_dict()["run_id"] == report.run_id
        # ... and the failed request is in the ledger under that id
        rec = tel.ledger.find(report.run_id)
        assert rec is not None
        assert rec.outcome == "deadlock"
        assert rec.error == "DeadlockError"

    def test_hang_report_has_no_id_outside_a_session(self):
        from repro.apps import atax_streaming
        ctx = FblasContext()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)).astype(np.float32)
        x = rng.standard_normal(8).astype(np.float32)
        with pytest.raises(DeadlockError) as info:
            atax_streaming(ctx, ctx.copy_to_device(a),
                           ctx.copy_to_device(x),
                           tile=4, width=4, channel_depth=2)
        assert info.value.report.run_id is None


class TestCampaignCorrelation:
    def test_trial_rows_carry_fresh_run_ids(self):
        from repro.faults.campaign import run_campaign
        doc = run_campaign(seed=5, budget=3, apps=("atax",))
        ids = [row["run_id"] for row in doc["trials"]]
        assert len(set(ids)) == 3
        assert all(i.startswith("r-") for i in ids)
