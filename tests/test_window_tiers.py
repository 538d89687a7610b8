"""One window scheduler behind two spellings: ``"bulk"`` replays with a
certificate or steps without one.

``Engine(mode="certified")`` and ``mode="bulk"`` look the same
certificate up and run the same :class:`~repro.fpga.bulk.WindowScheduler`;
they differ only in what happens when the FB4xx rate analysis refuses
the design — the first raises before cycle 0, the second runs the plain
event scheduler and records why.  So for every design the repository
builds:

* ``"bulk"`` shows what ``"event"`` shows — ``SimReport.to_dict()``,
  result bytes, bank counters — whether or not it replayed anything;
* where ``"certified"`` runs, the two replay the same windows
  (``bulk_stats()`` equal key for key);
* where it is refused, ``"bulk"`` replays nothing, executes exactly the
  cycles the event core executes, and its ``fallback_reason`` carries
  one of the refusal's codes;
* a refusal is cheap: a kernel scan when some kernel has no executable
  pattern, one cached analysis per structure otherwise.

The designs: every simulate row of ``test_host_golden.CASES`` in both
precisions, the four Sec. V streaming applications at tile 8 and tile =
n (and against the dense loop), the untransformed ii = latency AXPYDOT,
and the sharded GEMV at 1 / 2 / 4 lanes with and without DRAM.  The
differential suite's certified builders make the same comparison under
hypothesis (``test_engine_differential._assert_certified_matches_event``).
"""

import io
import json
import zlib
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from repro import telemetry
from repro.analysis import AnalysisError
from repro.analysis import schedule as schedule_module
from repro.apps import (atax_streaming, axpydot_streaming, bicg_streaming,
                        gemver_streaming)
from repro.blas import level1
from repro.blas.level2 import build_sharded_gemv_engine
from repro.faults.recovery import DEMOTION
from repro.fpga import Engine, ReproError
from repro.fpga.engine import ENGINE_MODES
from repro.fpga.memory import DramModel
from repro.fpga.observers import EngineObserver, JsonlEventDump
from repro.fpga.resources import level1_latency
from repro.host import Fblas, FblasContext
from repro.plan import PlanCache
from repro.service import SimulationService
from repro.telemetry.ledger import RunRecord, fleet_report
from test_bulk_engine import _pipeline
from test_host_golden import CASES, DTYPES, GOLDEN, TILE, WIDTH, _digest


class _CountsExecuted(EngineObserver):
    """Cycles the event core executes (jumps not counted)."""

    cycles = 0

    def on_window(self, start, cycles, window):
        if not window.quiet:
            self.cycles += cycles


@contextmanager
def _engines():
    """Every engine run inside the block, in order.  Event-mode engines
    get a cycle counter, so the cycles they *execute* (as opposed to
    jump over) can be compared with a stepped bulk run's count."""
    seen = []
    plain = Engine.run

    def run(self, *args, **kwargs):
        seen.append(self)
        if self.mode == "event":
            self.add_observer(_CountsExecuted())
        return plain(self, *args, **kwargs)

    Engine.run = run
    try:
        yield seen
    finally:
        Engine.run = plain


def _shown(drive, mode):
    """``(what a caller can see, engines)`` of ``drive(mode)``."""
    with _engines() as engines:
        payload = drive(mode)
    shown = {
        "payload": payload,
        "reports": [e._build_report().to_dict() for e in engines],
        "banks": [[b.to_dict() for b in e.memory.bank_stats]
                  for e in engines if e.memory is not None],
    }
    return shown, engines


def assert_two_spellings_one_scheduler(drive):
    """The module docstring's contract for one design; returns
    ``(windows replayed by "bulk", its fallback reasons)``."""
    event, event_engines = _shown(drive, "event")
    bulk, bulk_engines = _shown(drive, "bulk")
    assert bulk == event
    assert len(bulk_engines) == len(event_engines)
    reasons = [e._bulk_fallback for e in bulk_engines]
    for stepped, plain in zip(bulk_engines, event_engines):
        if stepped._bulk_fallback is not None:
            assert stepped.bulk_stats() == {
                "windows": 0, "bulk_cycles": 0,
                "stepped_cycles": plain._observers[-1].cycles}
    try:
        certified, certified_engines = _shown(drive, "certified")
    except AnalysisError as exc:
        codes = {d.code for d in exc.diagnostics}
        assert {r.split(":")[0] for r in reasons if r} & codes
    else:
        assert certified == event
        assert reasons == [None] * len(reasons)
        assert ([e.bulk_stats() for e in bulk_engines]
                == [e.bulk_stats() for e in certified_engines])
    return sum(e.bulk_stats()["windows"] for e in bulk_engines), reasons


# ---------------------------------------------------------------------------
# Every design the host API builds
# ---------------------------------------------------------------------------

def _host_drive(case, dtype):
    makers, call, *overrides = CASES[case]

    def drive(mode):
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        fb = Fblas(**{"width": WIDTH, "tile": TILE, "engine_mode": mode,
                      **(overrides[0] if overrides else {})})
        bufs = [fb.copy_to_device(make(rng, DTYPES[dtype]))
                for make in makers]
        result = call(fb, *bufs)
        return [_digest(result), *(b.data.tobytes() for b in bufs)]
    return drive


@pytest.fixture(scope="module")
def scoreboard():
    """The golden file's certified rows: what certifies, what is refused."""
    return json.loads(GOLDEN.read_text())


class TestHostDesigns:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", CASES)
    def test_golden_case(self, case, dtype, scoreboard):
        windows, reasons = assert_two_spellings_one_scheduler(
            _host_drive(case, dtype))
        # "bulk" replays exactly the rows "certified" runs.
        row = scoreboard[f"{case}/{dtype}/certified"]
        if "refused" in row:
            assert windows == 0 and any(reasons)
            assert {r.split(":")[0] for r in reasons if r} <= set(
                row["refused"])
        elif reasons:                   # the call built an engine
            assert windows > 0 and not any(reasons)


# ---------------------------------------------------------------------------
# The Sec. V applications and the sharded GEMV
# ---------------------------------------------------------------------------

N_MAT, N_VEC = 32, 512


def _app_drive(app, tile):
    rng = np.random.default_rng(7)

    def vec(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    a = vec(N_MAT, N_MAT)
    arrays, call = {
        "axpydot": ([vec(N_VEC) for _ in range(3)],
                    lambda ctx, bufs, mode: axpydot_streaming(
                        ctx, *bufs, 0.7, width=8, mode=mode)),
        "atax": ([a, vec(N_MAT)],
                 lambda ctx, bufs, mode: atax_streaming(
                     ctx, *bufs, tile=tile, width=4, mode=mode)),
        "bicg": ([a, vec(N_MAT), vec(N_MAT)],
                 lambda ctx, bufs, mode: bicg_streaming(
                     ctx, *bufs, tile=tile, width=4, mode=mode)),
        "gemver": ([a, *(vec(N_MAT) for _ in range(6))],
                   lambda ctx, bufs, mode: gemver_streaming(
                       ctx, *bufs, 0.7, 0.3, tile=tile, width=4, mode=mode)),
    }[app]

    def drive(mode):
        ctx = FblasContext()
        out = call(ctx, [ctx.copy_to_device(x) for x in arrays], mode)
        values = out.value if isinstance(out.value, tuple) else (out.value,)
        return [np.asarray(v).tobytes() for v in values] + [out.cycles]
    return drive


class TestApplications:
    @pytest.mark.parametrize("app,tile", [
        *(pytest.param(app, N_MAT, id=app)
          for app in ("axpydot", "atax", "bicg", "gemver")),
        *(pytest.param(app, 8, id=f"{app}-tile8")
          for app in ("atax", "bicg", "gemver"))])
    def test_one_tile_certifies_and_replays(self, app, tile):
        """One tile or tiles of 8 (A read in tile order, a gather):
        either way every engine replays windows."""
        windows, reasons = assert_two_spellings_one_scheduler(
            _app_drive(app, tile))
        assert windows > 0 and not any(reasons)

    @pytest.mark.parametrize("app", ("axpydot", "atax", "bicg", "gemver"))
    def test_dense_loop_shows_what_the_event_core_shows(self, app):
        drive = _app_drive(app, 8)
        assert _shown(drive, "dense")[0] == _shown(drive, "event")[0]


def test_event_core_executes_a_sliver_of_a_latency_bound_run(monkeypatch):
    """AXPYDOT without the Sec. III-A transposition: DOT runs at ii = its
    latency (91 in single precision), so >95 % of the cycles have every
    kernel waiting.  The wake-list scheduler executes 253 of the 5 968
    and shows what the dense loop shows; no window spelling has a
    pattern for a reduction at ii > 1."""
    ii = level1_latency("map_reduce", 8, "single")
    monkeypatch.setattr(level1, "dot_kernel",
                        partial(level1.dot_kernel, ii=ii))
    drive = _app_drive("axpydot", 8)
    dense, _ = _shown(drive, "dense")
    event, (eng,) = _shown(drive, "event")
    assert event == dense and eng.now > N_VEC // 8 * ii
    assert 20 * eng._observers[-1].cycles <= eng.now
    windows, reasons = assert_two_spellings_one_scheduler(drive)
    assert windows == 0 and reasons == ["FB404:dot"]


def _sharded_drive(lanes, dram):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((64, 64)).astype(np.float32)
    x, y = (rng.standard_normal(64).astype(np.float32) for _ in range(2))

    def drive(mode):
        mem = (DramModel(num_banks=4, bytes_per_cycle=16, device="u280")
               if dram else None)
        eng, out = build_sharded_gemv_engine(
            a, x, y, 1.5, 0.5, lanes=lanes, tile_n=8, tile_m=16, width=4,
            mode=mode, mem=mem)
        eng.run(max_cycles=1_000_000)
        return [np.asarray(out, dtype=np.float32).tobytes()]
    return drive


@pytest.mark.parametrize("dram", (False, True), ids=("on-chip", "dram"))
@pytest.mark.parametrize("lanes", (1, 2, 4))
def test_sharded_gemv_steps_on_every_lane_count(lanes, dram):
    """``merge_kernel`` is declare-only, so the lanes never certify —
    the one production design only speculation used to accelerate
    (3.8 % of its cycles; DESIGN.md has the row)."""
    windows, reasons = assert_two_spellings_one_scheduler(
        _sharded_drive(lanes, dram))
    assert windows == 0
    assert reasons == ["FB404:merge"]


# ---------------------------------------------------------------------------
# What a refusal costs
# ---------------------------------------------------------------------------

@pytest.fixture
def rate_passes(monkeypatch):
    """Calls of the rate-analysis pass runner."""
    calls = []
    plain = schedule_module.run_passes

    def counted(*args, **kwargs):
        calls.append(args[0])
        return plain(*args, **kwargs)

    monkeypatch.setattr(schedule_module, "run_passes", counted)
    return calls


class TestRefusalIsCheap:
    def _dot(self, fb):
        """One DOT on fixed banks (the bank is part of the structure)."""
        x, y = (fb.copy_to_device(np.ones(64, dtype=np.float32), bank=bank)
                for bank in (0, 1))
        with _engines() as engines:
            fb.dot(x, y)
        return engines[0]

    def test_refused_structure_is_analysed_once(self, rate_passes):
        """FB402 (width 16 asks one bank for 64 B/cycle) passes the
        kernel scan, so it is the analyzer's verdict — paid for once by
        three engines that share a cache."""
        fb = Fblas(width=16, engine_mode="bulk")
        engines = [self._dot(fb) for _ in range(3)]
        assert rate_passes == ["rates"]
        assert [e._bulk_fallback for e in engines] == ["FB402:bank0"] * 3
        assert all(e.schedule is None for e in engines)
        assert fb._schedule_cache.stats() == {
            "entries": 1, "hits": 2, "misses": 1}

    def test_the_cached_refusal_still_raises_on_certified(self, rate_passes):
        cache = PlanCache()
        self._dot(Fblas(width=16, engine_mode="bulk", schedule_cache=cache))
        with pytest.raises(AnalysisError) as exc:
            self._dot(Fblas(width=16, engine_mode="certified",
                            schedule_cache=cache))
        assert {d.code for d in exc.value.diagnostics} == {"FB402"}
        assert rate_passes == ["rates"]

    def test_unpatterned_kernel_is_never_analysed(self, rate_passes):
        """An FB404 refusal of a kernel without an executable pattern is
        a scan of ``engine.kernels``: no plan identity, no cache lookup,
        no rate pass."""
        fb = Fblas(width=WIDTH, tile=TILE, engine_mode="bulk")
        rng = np.random.default_rng(3)
        a = fb.copy_to_device(rng.standard_normal((16, 16))
                              .astype(np.float32))
        x, y = (fb.copy_to_device(rng.standard_normal(16)
                                  .astype(np.float32)) for _ in range(2))
        with _engines() as engines:
            fb.gemv(1.5, a, x, 0.5, y, scheme="cols")
        assert engines[0]._bulk_fallback == "FB404:gemv"
        assert rate_passes == []
        assert fb._schedule_cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0}

    def test_a_bulk_engine_without_a_cache_still_certifies(self, rate_passes):
        eng = Engine(mode="bulk")
        _pipeline(eng)
        eng.run()
        assert rate_passes == ["rates"]
        assert eng.schedule is not None and eng._bulk_windows > 0


# ---------------------------------------------------------------------------
# The ledger says which, and why
# ---------------------------------------------------------------------------

class TestLedgerSaysWhy:
    def _records(self, **fblas):
        fb = Fblas(engine_mode="bulk", **fblas)
        x, y = (fb.copy_to_device(np.ones(64, dtype=np.float32))
                for _ in range(2))
        with telemetry.session() as tel:
            fb.dot(x, y)
        return [r for r in tel.ledger.records() if r.kind == "engine.run"]

    def test_refused_run_names_the_code_and_the_object(self):
        rec, = self._records(width=16)
        assert rec.engine_mode == "bulk"
        assert rec.bulk["windows"] == 0 and rec.bulk["stepped_cycles"] > 0
        assert rec.fallback_reason == "FB402:bank0"
        again = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert again.fallback_reason == rec.fallback_reason
        assert again.bulk == rec.bulk
        assert "stepped instead of replayed: FB402:bank0 x1" in fleet_report(
            [rec])

    def test_watched_certified_bulk_run_has_no_reason(self):
        rec, = self._records(width=8)
        assert rec.bulk["windows"] > 0 and rec.fallback_reason is None
        assert sorted(rec.bulk) == ["bulk_cycles", "stepped_cycles",
                                    "windows"]

    def test_no_session_changes_what_is_simulated(self, tmp_path):
        """Ledger-lite (no observers) also leaves the windows alone."""
        drive = _app_drive("axpydot", 8)
        lite = dict(metrics=False, kernel_slices=False, occupancy=False,
                    ledger_path=str(tmp_path / "ledger.jsonl"))
        for mode in ("event", "bulk"):
            plain, (alone,) = _shown(drive, mode)
            for kwargs in ({}, lite):
                with telemetry.session(**kwargs):
                    watched, (eng,) = _shown(drive, mode)
                assert watched == plain
                assert eng.bulk_stats() == alone.bulk_stats()
        assert alone.bulk_stats()["windows"] > 0

    def test_hook_less_observer_is_still_the_reason(self):
        """An observer is never the reason to step: an event dump rides
        the windows like any other."""
        eng = Engine(mode="bulk", observers=[JsonlEventDump(io.StringIO())])
        _pipeline(eng)
        eng.run()
        assert eng.bulk_stats()["windows"] > 0
        assert eng._bulk_fallback is None

    def test_rows_written_by_the_speculative_tier_still_load(self):
        old = RunRecord(run_id="r", kind="engine.run", engine_mode="bulk",
                        bulk={"windows": 2, "bulk_cycles": 64,
                              "stepped_cycles": 9, "probes": 4,
                              "cooldowns": 3}).to_dict()
        assert RunRecord.from_dict(old).bulk["probes"] == 4


# ---------------------------------------------------------------------------
# One list of modes, checked where it is configured
# ---------------------------------------------------------------------------

class TestModeBoundary:
    def test_the_recovery_ladder_covers_exactly_the_modes(self):
        assert set(DEMOTION) | set(DEMOTION.values()) == set(ENGINE_MODES)

    @pytest.mark.parametrize("build", (
        lambda: Engine(mode="turbo"),
        lambda: Fblas(engine_mode="turbo"),
        lambda: SimulationService(workers=1, engine_mode="turbo"),
    ), ids=("Engine", "Fblas", "SimulationService"))
    def test_unknown_mode_is_refused_at_construction(self, build):
        with pytest.raises(ReproError) as exc:
            build()
        assert isinstance(exc.value, ValueError)
        assert "turbo" in str(exc.value)
        assert all(mode in str(exc.value) for mode in ENGINE_MODES)

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_every_mode_is_accepted_everywhere(self, mode):
        assert Engine(mode=mode).mode == mode
        assert Fblas(engine_mode=mode).engine_mode == mode
        with SimulationService(workers=1, engine_mode=mode) as svc:
            assert svc.engine_mode == mode

    @pytest.mark.parametrize("module,argv", [
        ("repro.telemetry.cli", ["axpydot", "--engine-mode", "turbo"]),
        ("repro.service.__main__", ["--engine-mode", "turbo"]),
        ("repro.faults.__main__", ["campaign", "--mode", "turbo"]),
    ])
    def test_clis_offer_exactly_the_modes(self, module, argv, capsys):
        import importlib
        main = importlib.import_module(module).main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(repr(mode) in err for mode in ENGINE_MODES)

    def test_fblas_takes_no_plan_cache(self):
        """The knob no routine ever read is gone, not renamed."""
        with pytest.raises(TypeError):
            Fblas(plan_cache=PlanCache())
        assert not hasattr(Fblas(), "plan_cache")
