"""Golden HangReport test: the paper's Sec. V "invalid ATAX" case.

ATAX reconverges the matrix stream (``A`` feeds both GEMV and the
transposed GEMV); with an undersized reconvergence channel the design
deadlocks.  The watchdog must turn that hang into a structured forensic
report — circular-wait certificate, channel pressure, and the static
analyzer's FB003 (reconvergent-fanout depth) verdict — instead of a bare
"deadlock at cycle N".
"""

import json

import numpy as np
import pytest

from repro.apps import atax_streaming
from repro.fpga import DeadlockError
from repro.fpga.errors import HANG_REPORT_SCHEMA, HangReport
from repro.host.api import FblasContext


@pytest.fixture()
def atax_deadlock():
    ctx = FblasContext()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)).astype(np.float32)
    x = rng.standard_normal(8).astype(np.float32)
    with pytest.raises(DeadlockError) as info:
        atax_streaming(ctx, ctx.copy_to_device(a), ctx.copy_to_device(x),
                       tile=4, width=4, channel_depth=2)
    return info.value


class TestAtaxHangReport:
    def test_report_attached_and_typed(self, atax_deadlock):
        assert isinstance(atax_deadlock.report, HangReport)
        assert atax_deadlock.report.kind == "deadlock"
        assert atax_deadlock.report.cycle == atax_deadlock.cycle

    def test_blocked_set_names_the_reconvergence(self, atax_deadlock):
        blocked = atax_deadlock.report.blocked
        # The fan-out cannot push into the undersized read_A__gemvT
        # channel while the two GEMVs starve downstream of it.
        assert ("fan_read_A" in blocked
                and "'read_A__gemvT'" in blocked["fan_read_A"])
        assert "gemv" in blocked and "pop" in blocked["gemv"]
        assert "gemvT" in blocked

    def test_wait_for_graph_has_circular_certificate(self, atax_deadlock):
        report = atax_deadlock.report
        assert ("fan_read_A", "gemvT", "read_A__gemvT") in report.wait_for
        assert report.wait_cycles, "expected a circular-wait certificate"
        cycle = report.wait_cycles[0]
        assert {"fan_read_A", "gemv", "gemvT"} <= set(cycle)

    def test_analyzer_blames_reconvergent_fanout(self, atax_deadlock):
        # FB003 is the static checker's reconvergent-fanout-depth code;
        # the forensic pass re-runs the checker on the hung design.
        assert "FB003" in atax_deadlock.report.analysis_codes()

    def test_channel_pressure_shows_starved_consumers(self, atax_deadlock):
        report = atax_deadlock.report
        pressure = {c.channel: c for c in report.channels}
        assert (pressure["read_A__gemvT"].occupancy
                == pressure["read_A__gemvT"].depth == 2)
        assert pressure["gemv__gemvT"].occupancy == 0

    def test_render_text_golden_fragments(self, atax_deadlock):
        text = atax_deadlock.report.render_text()
        assert text.startswith("deadlock at cycle ")
        assert "wait-for graph:" in text
        assert "fan_read_A -> gemvT  (via 'read_A__gemvT')" in text
        assert "circular wait: " in text
        assert "channel pressure:" in text
        assert "FB003" in text

    def test_to_dict_round_trips_through_json(self, atax_deadlock):
        doc = atax_deadlock.report.to_dict()
        assert doc["schema"] == HANG_REPORT_SCHEMA
        clone = json.loads(json.dumps(doc))
        assert clone["kind"] == "deadlock"
        assert clone["cycle"] == atax_deadlock.cycle
        assert any(e == ["fan_read_A", "gemvT", "read_A__gemvT"]
                   for e in clone["wait_for"])
        assert any(d["code"] == "FB003" for d in clone["analysis"])

    def test_exception_message_summarises_blockers(self, atax_deadlock):
        msg = str(atax_deadlock)
        assert "deadlock at cycle" in msg
        assert "fan_read_A" in msg and "read_A__gemvT" in msg

    def test_deterministic_across_runs(self, atax_deadlock):
        ctx = FblasContext()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)).astype(np.float32)
        x = rng.standard_normal(8).astype(np.float32)
        with pytest.raises(DeadlockError) as info:
            atax_streaming(ctx, ctx.copy_to_device(a),
                           ctx.copy_to_device(x),
                           tile=4, width=4, channel_depth=2)
        again = info.value
        assert again.cycle == atax_deadlock.cycle
        assert again.report.to_dict() == atax_deadlock.report.to_dict()

    def test_valid_depth_does_not_trip(self):
        ctx = FblasContext()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)).astype(np.float32)
        x = rng.standard_normal(8).astype(np.float32)
        res = atax_streaming(ctx, ctx.copy_to_device(a),
                             ctx.copy_to_device(x), tile=4, width=4)
        np.testing.assert_allclose(np.asarray(res.value),
                                   a.T @ (a @ x), rtol=1e-3)
