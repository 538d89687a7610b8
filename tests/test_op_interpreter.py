"""One op interpreter, and the dense schedule's record pinned by digest.

Every scheduler steps kernels through ``WakeListScheduler._step``; an
AST guard keeps a second interpreter of ``Pop`` / ``Push`` / ``Clock``
from reappearing under ``src/repro/fpga/``.

``Engine(mode="dense")`` visits every kernel every cycle and reports
each one's state right after it; the differential suites compare the
other schedules against it.  The digests pin the dense record itself:
every hook a recording observer sees (``on_cycle``, ``on_kernel_state``
with the kernel's blocked ``(kind, channel, since)``, ``on_channel_op``,
``on_quiet``, ``on_run_end``), in order, over the Sec. V apps, a
deadlocking ATAX (with its :class:`~repro.fpga.errors.HangReport`),
host ``dot`` / ``axpy`` and a run under a seeded fault plan, hashed to
one SHA-256 digest per scenario.  A digest that moves means the dense
schedule changed what an observer sees;
``python tests/test_op_interpreter.py`` prints the current digests.
"""

import ast
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import atax_streaming, axpydot_streaming, bicg_streaming
from repro.blas import level1
from repro.faults import COMPLETION_SAFE_KINDS, FaultPlan
from repro.fpga import Clock, DeadlockError, Engine, EngineObserver, Pop, Push
from repro.fpga.util import source_kernel
from repro.host import Fblas, FblasContext
from repro.streaming import executor

EXPECTED = {
    "atax": "2f75e3189e9e7a7393055e513f91d09aec0645b688d4a3cffa4b0a9ca9f6d64b",
    "atax_undersized": "5665fb6bda9012331d0409ee069d8c18f29e60d70ec7ac511666488dec8a4df5",
    "axpydot": "1baf287d685d828b5162341c601be817810d2178bc0b676b165f0dee593d67d6",
    "bicg": "088e05df597ac0640aa570f26762ae01ae1b0f3ca61417eab359430da5258342",
    "faulted_chain": "16f15b7443d50243d3673111e38556012c282c3d4f58c5a2825c0d58020f0c21",
    "host_dot_axpy": "d1a272f80ec77d33cdb6f21c66154ad9b70937f1f151f1a49bd7e12ccec3412a",
}


class _Recorder(EngineObserver):
    """Feeds every hook, in order, into one running SHA-256."""

    wants_kernel_states = True

    def __init__(self):
        self._h = hashlib.sha256()

    def log(self, *record) -> None:
        self._h.update(repr(record).encode() + b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()

    def on_cycle(self, t):
        self.log("cycle", t)

    def on_kernel_state(self, t, kernel, state):
        b = kernel.blocked
        self.log("state", t, kernel.name, state,
                 None if b is None else (b.kind, b.channel.name, b.since))

    def on_channel_op(self, t, kernel, channel, kind, count):
        self.log("op", t, kernel.name, channel.name, kind, count)

    def on_quiet(self, start, cycles):
        self.log("quiet", start, cycles)

    def on_run_end(self, report):
        self.log("end", json.dumps(report.to_dict(), sort_keys=True))


def _recording_engine(rec):
    class _Recorded(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.add_observer(rec)
    return _Recorded


def _arrays(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=s).astype(np.float32) for s in shapes]


def _atax(rec, monkeypatch, depth="auto"):
    monkeypatch.setattr(executor, "Engine", _recording_engine(rec))
    a, x = _arrays(1, (16, 16), 16)
    ctx = FblasContext()
    res = atax_streaming(ctx, ctx.copy_to_device(a), ctx.copy_to_device(x),
                         tile=4, width=4, channel_depth=depth, mode="dense")
    rec.log("value", np.asarray(res.value).tobytes())


def _atax_undersized(rec, monkeypatch):
    with pytest.raises(DeadlockError) as exc:
        _atax(rec, monkeypatch, depth=16)
    rec.log("hang", exc.value.cycle,
            json.dumps(exc.value.report.to_dict(), sort_keys=True))


def _axpydot(rec, monkeypatch):
    monkeypatch.setattr(executor, "Engine", _recording_engine(rec))
    ctx = FblasContext()
    bufs = [ctx.copy_to_device(v) for v in _arrays(2, 128, 128, 128)]
    res = axpydot_streaming(ctx, *bufs, 0.7, width=8, mode="dense")
    rec.log("value", repr(res.value))


def _bicg(rec, monkeypatch):
    monkeypatch.setattr(executor, "Engine", _recording_engine(rec))
    ctx = FblasContext()
    bufs = [ctx.copy_to_device(v) for v in _arrays(3, (16, 16), 16, 16)]
    res = bicg_streaming(ctx, *bufs, tile=4, width=4, mode="dense")
    rec.log("value", *(np.asarray(v).tobytes() for v in res.value))


def _host_dot_axpy(rec, monkeypatch):
    fb = Fblas(engine_mode="dense")
    make = fb._engine

    def _engine():
        eng = make()
        eng.add_observer(rec)
        return eng

    monkeypatch.setattr(fb, "_engine", _engine)
    x, y = (fb.copy_to_device(v) for v in _arrays(4, 200, 200))
    rec.log("dot", repr(fb.dot(x, y)))
    fb.axpy(0.5, x, y)
    rec.log("axpy", fb.copy_from_device(y).tobytes())


def _mapper(cin, cout, n, width, sleep):
    done = 0
    while done < n:
        take = min(width, n - done)
        vals = yield Pop(cin, take)
        if take == 1:
            vals = (vals,)
        yield Push(cout, tuple(v + 1.0 for v in vals), 2)
        done += take
        yield Clock(sleep)


def _faulted_chain(rec, monkeypatch):
    n, w = 40, 3
    # Seed 0 fires a corrupt and a freeze inside this run.
    plan = FaultPlan.generate(
        0, channels=("cx", "cy", "c0", "c1"),
        kernels=("src_x", "src_y", "axpy", "dyn"), n_faults=4,
        element_horizon=2 * n, cycle_horizon=4 * n,
        kinds=COMPLETION_SAFE_KINDS)
    eng = Engine(mode="dense", observers=[rec], fault_plan=plan)
    cx, cy, c0, c1 = (eng.channel(c, 6) for c in ("cx", "cy", "c0", "c1"))
    eng.add_kernel("src_x", source_kernel(
        cx, [np.float32(i % 23 - 11) for i in range(n)], w))
    eng.add_kernel("src_y", source_kernel(
        cy, [np.float32(i % 7 - 3) for i in range(n)], w))
    eng.add_kernel("axpy", level1.axpy_kernel(n, 0.5, cx, cy, c0, w),
                   latency=5)
    eng.add_kernel("dyn", _mapper(c0, c1, n, 2, 2))
    out = []

    def sink():
        for _ in range(n):
            out.append((yield Pop(c1)))
            yield Clock()

    eng.add_kernel("sink", sink())
    eng.run()
    rec.log("plan", json.dumps(plan.to_dict(), sort_keys=True))
    rec.log("out", np.asarray(out, dtype=np.float64).tobytes())


SCENARIOS = {
    "atax": _atax,
    "atax_undersized": _atax_undersized,
    "axpydot": _axpydot,
    "bicg": _bicg,
    "host_dot_axpy": _host_dot_axpy,
    "faulted_chain": _faulted_chain,
}


def _digest(name, monkeypatch):
    rec = _Recorder()
    SCENARIOS[name](rec, monkeypatch)
    return rec.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dense_record_digest(name, monkeypatch):
    assert _digest(name, monkeypatch) == EXPECTED[name]


_OPS = {"Pop", "Push", "Clock"}
_FPGA = Path(__file__).resolve().parents[1] / "src" / "repro" / "fpga"


def _interpreters():
    """``module:Qualified.name`` of every function under ``fpga/``
    that compares something against the op classes (``kind is Pop``,
    ``type(op) == Clock``, ...)."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Compare) and any(
                    isinstance(n, ast.Name) and n.id in _OPS
                    for n in [child.left, *child.comparators]):
                found.add(f"{module}:{'.'.join(scope)}")
            visit(child, module, inner)

    for path in sorted(_FPGA.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, [])
    return found


def test_one_op_interpreter():
    assert _interpreters() == {"scheduler:WakeListScheduler._step"}


if __name__ == "__main__":
    for scenario in sorted(SCENARIOS):
        with pytest.MonkeyPatch.context() as mp:
            print(f'    "{scenario}": "{_digest(scenario, mp)}",')
