"""Plan identity: one key, three routes, roles not names.

``plan_key`` is what certificates are cached under, so it must be

* **one notion** — the engine-side lookup (``schedule_key``, no
  ``PlanIR`` built), the compiled plan and its JSON round trip agree;
* **blind to buffer names** — the same design bound to freshly named
  buffers is the same plan (the service binds ``batch{uid}.x`` anew for
  every burst);
* **sensitive to everything a certificate refers to** — length, lanes,
  depths, latencies, banks, placement, itemsize, device, and whether two
  ports touch the *same* buffer;
* **cheap** — a warm certified host call neither builds a ``PlanIR`` nor
  walks one with ``asdict``/``deepcopy``, bounded by a call count.
"""

import copy
import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis import schedule_key
from repro.blas import level1
from repro.fpga import Engine
from repro.fpga.memory import DramModel, Placement, read_kernel, write_kernel
from repro.host import Fblas
from repro.plan import PlanIR, compile_plan, plan_identity

from test_engine_differential import (
    _build_atax, _build_certified_fanout, _build_inplace_axpy,
    _build_patterned_chain, _build_ramp_chain, _build_tiled, inplace_spec,
    patterned_chain_spec, patterned_fanout_spec, ramp_chain_spec, tiled_spec)


def assert_one_key(eng):
    """The key by each route — engine rows, compiled plan, JSON plan —
    is one key; returns it."""
    plan = compile_plan(eng)
    restored = PlanIR.from_dict(json.loads(plan.to_json()))
    assert restored == plan
    assert schedule_key(eng) == plan.plan_key == restored.plan_key
    return plan.plan_key


# ---------------------------------------------------------------------------
# Route agreement over the differential suite's designs
# ---------------------------------------------------------------------------

def _built(build, spec):
    eng = Engine(memory=spec.get("memory") and spec["memory"]())
    build(eng, spec, [])
    return eng


class TestRoutesAgree:
    @settings(max_examples=40, deadline=None)
    @given(patterned_chain_spec)
    def test_patterned_chains(self, spec):
        assert_one_key(_built(_build_patterned_chain, spec))

    @settings(max_examples=25, deadline=None)
    @given(patterned_fanout_spec)
    def test_patterned_fanout(self, spec):
        assert_one_key(_built(_build_certified_fanout, spec))

    @settings(max_examples=25, deadline=None)
    @given(ramp_chain_spec)
    def test_ramp_chains(self, spec):
        assert_one_key(_built(_build_ramp_chain, spec))

    @settings(max_examples=25, deadline=None)
    @given(tiled_spec)
    def test_tiled_modules(self, spec):
        assert_one_key(_built(_build_tiled, spec))

    @settings(max_examples=25, deadline=None)
    @given(inplace_spec)
    def test_inplace_axpy_through_dram(self, spec):
        spec = dict(spec, memory=lambda: DramModel(num_banks=2,
                                                   bytes_per_cycle=64))
        assert_one_key(_built(_build_inplace_axpy, spec))

    def test_atax(self):
        assert_one_key(_built(_build_atax, {"tile": 4, "width": 2, "lat": 3,
                                            "slack": 0}))

    def test_engine_lookup_builds_no_plan(self):
        """For a live engine ``plan_identity`` hands back rows, not a
        ``PlanIR``; compiling those rows gives the plan of the engine."""
        eng = _built(_build_ramp_chain, {"n": 64, "width": 4, "slack": 2,
                                         "lat": 5, "lat2": 7,
                                         "reduce": True})
        key, rows = plan_identity(eng)
        assert not isinstance(rows, PlanIR)
        assert compile_plan(rows) == compile_plan(eng)
        assert key == compile_plan(rows).plan_key


# ---------------------------------------------------------------------------
# The host API's own designs: dot, in-place axpy, gemv
# ---------------------------------------------------------------------------

class _Capturing(Fblas):
    """Keeps the engine each call builds."""

    def _engine(self):
        self.engine = super()._engine()
        return self.engine


def _host_key(routine, n, width, names, dtype=np.float32):
    fb = _Capturing(width=width, tile=n)
    rng = np.random.default_rng(n)

    def dev(shape, name, bank):
        return fb.copy_to_device(rng.standard_normal(shape).astype(dtype),
                                 name=name, bank=bank)

    x, y = dev(n, names[0], 0), dev(n, names[1], 1)
    if routine == "dot":
        fb.dot(x, y)
    elif routine == "axpy":
        fb.axpy(0.5, x, y)
    else:
        fb.gemv(0.5, dev((n, n), names[2], 2), x, 0.25, y)
    assert any(k.dram for k in compile_plan(fb.engine).kernels)
    return assert_one_key(fb.engine)


class TestHostDesigns:
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(("dot", "axpy", "gemv")),
           st.sampled_from((8, 16, 32)), st.sampled_from((2, 4)),
           st.lists(st.text("abcxyz.0123", min_size=1, max_size=6),
                    min_size=3, max_size=3, unique=True))
    def test_routes_agree_and_names_do_not_matter(self, routine, n, width,
                                                  names):
        assert (_host_key(routine, n, width, names)
                == _host_key(routine, n, width, ("x", "y", "a")))

    def test_routines_and_lengths_differ(self):
        keys = {_host_key(r, n, 4, ("x", "y", "a"))
                for r in ("dot", "axpy", "gemv") for n in (16, 32)}
        assert len(keys) == 6


# ---------------------------------------------------------------------------
# Single mutations of a host-style map design (the shape of a Level-1
# design row: DRAM readers -> module -> DRAM writer)
# ---------------------------------------------------------------------------

BASE = {
    "n": 64, "width": 4, "depth": 64, "lat": 9, "dtype": np.float32,
    "device": "stratix10", "x_placement": Placement.striped((0, 1)),
    "y_bank": 2, "inplace": True, "names": ("x", "y", "z"),
}

MUTATIONS = {
    "n / totals": {"n": 128},
    "width": {"width": 2},
    "channel depth": {"depth": 65},
    "kernel latency": {"lat": 10},
    "bank": {"y_bank": 3},
    "placement kind": {"x_placement": Placement.channel_range(0, 2)},
    "placement channels": {"x_placement": Placement.striped((0, 3))},
    "itemsize": {"dtype": np.float64},
    "device label": {"device": "arria10"},
    "aliasing": {"inplace": False},
}


def _axpy_design(spec):
    """``out <- 0.5*x + y`` through DRAM; ``out`` is ``y`` when in place."""
    n, w, dt = spec["n"], spec["width"], spec["dtype"]
    nx, ny, nz = spec["names"]
    mem = DramModel(num_banks=4, bytes_per_cycle=64, device=spec["device"])
    bx = mem.bind(nx, np.ones(n, dtype=dt), placement=spec["x_placement"])
    by = mem.bind(ny, np.ones(n, dtype=dt), bank=spec["y_bank"])
    # Bound either way, so aliasing changes nothing but who is written.
    bz = mem.bind(nz, np.zeros(n, dtype=dt), bank=spec["y_bank"])
    eng = Engine(memory=mem)
    cx, cy, co = (eng.channel(name, spec["depth"])
                  for name in ("in0", "in1", "out0"))
    eng.add_kernel("read0", read_kernel(mem, bx, cx, w))
    eng.add_kernel("read1", read_kernel(mem, by, cy, w))
    eng.add_kernel("axpy", level1.axpy_kernel(n, 0.5, cx, cy, co, w, dt),
                   latency=spec["lat"])
    eng.add_kernel("write0", write_kernel(
        mem, by if spec["inplace"] else bz, co, n, w))
    return eng


_bases = st.fixed_dictionaries({
    "n": st.sampled_from((16, 64, 96)),
    "width": st.sampled_from((4, 8)),
    "depth": st.integers(8, 300),
    "lat": st.integers(1, 60),
    "inplace": st.booleans(),
})
_buffer_names = st.lists(st.text("abcxyz.0123", min_size=1, max_size=8),
                         min_size=3, max_size=3, unique=True).map(tuple)


class TestWhatTheKeySees:
    @settings(max_examples=25, deadline=None)
    @given(_bases, _buffer_names)
    def test_renaming_every_buffer_keeps_the_key(self, base, names):
        spec = {**BASE, **base}
        assert (assert_one_key(_axpy_design(spec))
                == assert_one_key(_axpy_design({**spec, "names": names})))

    @settings(max_examples=25, deadline=None)
    @given(_bases)
    def test_every_single_mutation_changes_the_key(self, base):
        spec = {**BASE, **base}
        keys = {"base": assert_one_key(_axpy_design(spec))}
        for what, change in MUTATIONS.items():
            (field, value), = change.items()
            if field == "inplace":
                value = not spec["inplace"]
            elif spec[field] == value:
                value = value + 1           # the draw landed on the mutant
            keys[what] = assert_one_key(_axpy_design({**spec, field: value}))
        assert len(set(keys.values())) == len(keys), keys

    def test_aliasing_is_structure_not_a_name(self):
        """In-place ``x, y -> y`` and out-of-place ``x, y -> z`` differ
        although the kernels, channels and per-buffer layouts are the
        same — and swapping which *name* is written does not matter."""
        inplace = _axpy_design(BASE)
        outofplace = _axpy_design({**BASE, "inplace": False})
        assert schedule_key(inplace) != schedule_key(outofplace)
        swapped = _axpy_design({**BASE, "inplace": False,
                                "names": ("x", "z", "y")})
        assert schedule_key(swapped) == schedule_key(outofplace)

    def test_unreferenced_placements_are_keyed_by_layout(self):
        """A hand-built plan may list placements no kernel touches: they
        have no role, so only their layout counts."""
        plan = compile_plan(_axpy_design(BASE))
        extra = dataclasses.replace(plan.placements[0], buffer="spare",
                                    elements=7)
        grown = dataclasses.replace(plan,
                                    placements=plan.placements + (extra,))
        renamed = dataclasses.replace(
            plan, placements=plan.placements + (
                dataclasses.replace(extra, buffer="other"),))
        assert grown.plan_key != plan.plan_key
        assert grown.plan_key == renamed.plan_key


# ---------------------------------------------------------------------------
# Cost of a warm certified host call
# ---------------------------------------------------------------------------

def test_warm_certified_dot_stays_cheap():
    """Python + C calls over three warm requests: <= 1 250 each (3 238
    before the one-pass key, 1 211 measured since), none of them in
    ``asdict``/``deepcopy`` — host-layer call creep fails here before it
    fails the benchmark's 2 % bound on ``host_calls_per_req``."""
    fb = Fblas(width=8, engine_mode="certified")
    rng = np.random.default_rng(7)
    x, y = (fb.copy_to_device(rng.standard_normal(4096).astype(np.float32))
            for _ in range(2))
    want = fb.dot(x, y)                 # certifies
    fb.dot(x, y)
    walkers = {dataclasses.asdict.__code__, copy.deepcopy.__code__}
    calls, walked = 0, []

    def hook(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1
            if event == "call" and frame.f_code in walkers:
                walked.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        got = [fb.dot(x, y) for _ in range(3)]
    finally:
        sys.setprofile(None)
    assert got == [want] * 3
    assert fb._schedule_cache.stats() == {"entries": 1, "hits": 4,
                                          "misses": 1}
    assert not walked
    assert calls / 3 <= 1250, calls / 3


# ---------------------------------------------------------------------------
# The key reaches the run ledger
# ---------------------------------------------------------------------------

def test_ledger_groups_host_calls_by_structure():
    """Certified ``engine.run`` records carry the key the certificate
    lookup computed and their ``host.call`` parents inherit it: two DOTs
    on different buffers group together, a DOT at another ``n`` apart."""
    fb = Fblas(width=8, engine_mode="certified")
    rng = np.random.default_rng(3)

    def pair(n):
        return [fb.copy_to_device(rng.standard_normal(n).astype(np.float32),
                                  bank=b) for b in (0, 1)]

    with telemetry.session(metrics=False, kernel_slices=False,
                           occupancy=False) as tel:
        fb.dot(*pair(512))
        fb.dot(*pair(512))
        fb.dot(*pair(256))
    records = tel.ledger.records()
    runs = [r for r in records if r.kind == "engine.run"]
    calls = [r for r in records if r.kind == "host.call"]
    assert len(runs) == len(calls) == 3
    assert [c.plan_key for c in calls] == [r.plan_key for r in runs]
    assert all(r.plan_key and len(r.plan_key) == 64 for r in runs)
    assert runs[0].plan_key == runs[1].plan_key != runs[2].plan_key
    groups = tel.ledger.query().by_plan()
    assert "-" not in groups
    assert sorted(len(g) for g in groups.values()) == [2, 4]


@pytest.mark.parametrize("mode,width", [
    pytest.param("event", 8, id="event"), pytest.param("bulk", 16, id="bulk")])
def test_uncertified_runs_stay_keyless(mode, width):
    """No certificate, no key: nothing is computed just to label a
    record — on ``"event"``, which never looks one up, and on a
    ``"bulk"`` run the analyzer refuses (FB402 at the default width)."""
    fb = Fblas(width=width, engine_mode=mode)
    x, y = (fb.copy_to_device(np.ones(64, dtype=np.float32))
            for _ in range(2))
    with telemetry.session(metrics=False, kernel_slices=False,
                           occupancy=False) as tel:
        fb.dot(x, y)
    assert [r.plan_key for r in tel.ledger.records()] == [None, None]


def test_certified_bulk_run_carries_the_certificates_key():
    """``"bulk"`` looks the same certificate up as ``"certified"``, so
    its records carry the same key."""
    keys = {}
    for mode in ("bulk", "certified"):
        fb = Fblas(width=8, engine_mode=mode)
        x, y = (fb.copy_to_device(np.ones(64, dtype=np.float32))
                for _ in range(2))
        with telemetry.session(metrics=False, kernel_slices=False,
                               occupancy=False) as tel:
            fb.dot(x, y)
        keys[mode] = [r.plan_key for r in tel.ledger.records()]
    assert keys["bulk"] == keys["certified"]
    assert keys["bulk"][0] == keys["bulk"][1] and len(keys["bulk"][0]) == 64
