"""The program surface ``bench/`` reaches into, pinned from tier-1.

``bench/`` is not edited by changes that claim a gain, so a refactor
that moves or re-types one of the names it patches or imports makes the
benchmark raise instead of measure — found only after the change is
submitted.  These checks are the fast version of ``python -m pytest
bench``: they fail in seconds, naming what moved.
"""

import ast
import functools
import importlib
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.trace import BOUNDARIES, Tracer  # noqa: E402
from bench.worker import run_request  # noqa: E402
from bench.workloads import SmallRepeatCertified, StreamCertified  # noqa: E402


@pytest.mark.parametrize("boundary", BOUNDARIES,
                         ids=[f"{b[2]}:{b[3]}" for b in BOUNDARIES])
def test_boundary_is_patchable(boundary):
    """``Tracer.installed`` looks each boundary up in its owner's own
    ``__dict__`` and can only wrap a plain function or a
    ``cached_property``: a ``property``, a dataclass field, an inherited
    or a moved name would make the traced pass raise."""
    _layer, _name, module, path, *_note = boundary
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    assert attr in owner.__dict__, f"{module}:{path} moved"
    assert isinstance(owner.__dict__[attr],
                      (types.FunctionType, functools.cached_property)), \
        f"{module}:{path} is a {type(owner.__dict__[attr]).__name__}"


@pytest.mark.parametrize("source", ("probes.py", "workloads.py"))
def test_every_repro_import_resolves(source):
    tree = ast.parse((ROOT / "bench" / source).read_text())
    wanted = [(node.module, alias.name)
              for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and node.level == 0 and node.module.split(".")[0] == "repro"
              for alias in node.names]
    assert wanted
    missing = [f"{module}.{name}" for module, name in wanted
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing


def test_traced_request_crosses_engine_run_once():
    """One small certified DOT under the tracer: exactly one
    ``engine.run`` span, carrying the 606 simulated cycles the traced
    pass divides by, and the wrappers come off afterwards."""
    from repro.fpga.engine import Engine

    plain_run = Engine.__dict__["run"]
    w = SmallRepeatCertified(seed=7, quick=True)
    w.setup()
    tracer = Tracer()
    with w.block_scope():
        run_request(w.script)                   # certifies
        with tracer.installed():
            tracer.request_id = 0
            _times, outs = run_request(w.script, tracer.around)
    assert Engine.__dict__["run"] is plain_run
    runs = [s for s in tracer.finished() if s["name"] == "engine.run"]
    assert len(runs) == 1
    assert runs[0]["args"]["cycles"] == 606
    assert runs[0]["args"]["bulk_cycles"] > 0
    assert w.cycle_pairs(outs)[0][0] == 606
    lookups = [s for s in tracer.finished()
               if s["name"] == "ensure_certified"]
    assert len(lookups) == 1 and lookups[0]["parent"] == runs[0]["id"]


def test_call_records_surface():
    """``fb.records[-3:]`` (one CallRecord per call, in order) and
    ``context.reset_records()`` are how the workloads read cycles and
    keep memory flat."""
    class Small(StreamCertified):
        n_dot, n_axpy, n_gemv, tile = 1 << 10, 1 << 10, 32, 32

    w = Small(seed=7, quick=True)
    w.setup()
    _times, outs = run_request(w.script)
    assert [r.routine for r in w.fb.records[-3:]] == ["dot", "axpy", "gemv"]
    assert all(sim > 0 for sim, _model in w.cycle_pairs(outs))
    w.fb.context.reset_records()
    assert len(w.fb.records) == 0
