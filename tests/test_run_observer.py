"""The telemetry session's one observer per run, and its one switch.

A full session attaches one :class:`repro.telemetry.RunObserver` to each
engine run; a ledger-lite one attaches none.  ``metrics``,
``kernel_slices`` and ``occupancy`` are three spellings of that one
switch, so a session switched half on is refused.  A run that reaches
:data:`RunObserver.MAX_SLICES` says so in its ``engine.run`` span.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.fpga import Engine
from repro.fpga.errors import ReproError, SessionConfigError
from repro.fpga.util import sink_kernel, source_kernel
from repro.telemetry import RunObserver
from repro.telemetry.chrome_trace import to_chrome_trace


def _run():
    """A 64-element event-tier source -> sink, watched or not."""
    eng = Engine(mode="event")
    ch = eng.channel("c", 4)
    eng.add_kernel("src", source_kernel(ch, np.ones(64, np.float32), 4))
    eng.add_kernel("sink", sink_kernel(ch, 64, 4))
    return eng, eng.run()


@pytest.mark.parametrize("kwargs", (
    {"metrics": False},
    {"kernel_slices": False},
    {"occupancy": False},
    {"metrics": False, "kernel_slices": False},
    {"kernel_slices": False, "occupancy": False},
), ids=("metrics", "slices", "occupancy", "metrics+slices",
        "slices+occupancy"))
def test_a_session_switched_half_on_is_refused(kwargs):
    with pytest.raises(SessionConfigError) as exc:
        with telemetry.session(**kwargs):
            pass                        # pragma: no cover - refused above
    assert isinstance(exc.value, ReproError)
    assert isinstance(exc.value, ValueError)
    assert telemetry.active() is None


@pytest.mark.parametrize("on", (True, False), ids=("full", "lite"))
def test_a_run_gets_one_observer_or_none(on):
    seen = []
    add = Engine.add_observer

    def spy(self, observer):
        seen.append(observer)
        add(self, observer)

    switch = dict(metrics=on, kernel_slices=on, occupancy=on)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "add_observer", spy)
        with telemetry.session(**switch) as tel:
            eng, _report = _run()
    assert [type(o) for o in seen] == ([RunObserver] if on else [])
    assert eng._observers == []
    assert len(tel.runs) == 1 and bool(tel.slices) == on


def test_a_capped_run_marks_its_span(monkeypatch):
    with telemetry.session() as tel:
        _run()
    (span,) = [s for s in tel.spans.spans if s.cat == "engine"]
    assert "slices_truncated" not in span.args
    assert len(tel.slices) > 2

    monkeypatch.setattr(RunObserver, "MAX_SLICES", 2)
    with telemetry.session() as tel:
        _run()
    assert len(tel.slices) == 2
    (span,) = [s for s in tel.spans.spans if s.cat == "engine"]
    assert span.args["slices_truncated"] is True
    (event,) = [e for e in to_chrome_trace(tel)["traceEvents"]
                if e.get("cat") == "engine" and e["ph"] == "B"]
    assert event["args"]["slices_truncated"] is True
