"""The typed plan IR (``repro.plan/1``): serialization and identity.

Property tests for the tentpole artifact itself: ``from_dict(to_dict(p))``
reconstructs a structurally equal plan with a stable ``plan_key`` (via an
actual JSON round trip, so the dumps the CLI emits are lossless too), the
key covers exactly the plan's *structure* (not its label or attached
predictions), and the device-catalog identity of the memory is part of
the key — a schedule certified on one board is never replayed on another.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ensure_certified, schedule_key
from repro.fpga.engine import Engine
from repro.fpga.errors import ReproError
from repro.fpga.memory import DramModel, read_kernel, write_kernel
from repro.fpga.util import sink_kernel, source_kernel
from repro.plan import (
    PLAN_SCHEMA,
    PlanCache,
    PlanChannel,
    PlanEdge,
    PlanError,
    PlanIR,
    PlanKernel,
    PlanMemory,
    PlanPlacement,
    PlanPort,
    PlanPrediction,
    PlanTraffic,
    compile_plan,
)

# ---------------------------------------------------------------------------
# Strategies: random but well-formed PlanIR values.
# ---------------------------------------------------------------------------

_names = st.text(alphabet="abcdefgh_", min_size=1, max_size=8)
_opt_int = st.one_of(st.none(), st.integers(0, 10**6))

_ports = st.builds(
    PlanPort,
    channel=_names,
    lanes=st.integers(1, 16),
    latency=st.one_of(st.none(), st.integers(1, 64)),
    total=_opt_int,
)

_traffic = st.builds(
    PlanTraffic,
    buffer=_names,
    bank=st.one_of(st.none(), st.integers(0, 3)),
    elements=st.integers(1, 16),
    itemsize=st.sampled_from((4, 8)),
    kind=st.sampled_from(("read", "write")),
)

_kernels = st.builds(
    PlanKernel,
    name=_names,
    latency=st.integers(1, 64),
    ii=st.integers(1, 4),
    defer=st.integers(0, 4096),
    annotated=st.booleans(),
    patterned=st.booleans(),
    executable=st.booleans(),
    pattern_ii=st.integers(1, 4),
    pattern_defer=st.integers(0, 4096),
    reads=st.tuples(_ports) | st.just(()),
    writes=st.tuples(_ports) | st.just(()),
    annotated_reads=st.tuples(_names) | st.just(()),
    annotated_writes=st.tuples(_ports) | st.just(()),
    dram=st.tuples(_traffic) | st.just(()),
)

# Stream-order descriptors are flat tuples of scalars (see
# repro.streaming.interface.StreamSignature.order).
_orders = st.lists(
    st.one_of(st.integers(0, 999), st.sampled_from(
        ("matrix", "vector", "row_major", "tiles_by_rows"))),
    max_size=5).map(tuple)

_edges = st.builds(
    PlanEdge,
    src=_names, dst=_names,
    src_kind=st.sampled_from(("interface", "compute")),
    dst_kind=st.sampled_from(("interface", "compute")),
    src_port=_names, dst_port=_names,
    produces_total=st.integers(0, 10**6),
    produces_order=_orders,
    consumes_total=st.integers(0, 10**6),
    consumes_order=_orders,
    depth=st.integers(1, 4096),
    materialized=st.booleans(),
    sized=st.booleans(),
)

_plans = st.builds(
    PlanIR,
    subject=_names,
    device=st.one_of(st.none(), _names),
    kernels=st.lists(_kernels, max_size=4).map(tuple),
    channels=st.lists(
        st.builds(PlanChannel, name=_names, depth=st.integers(1, 4096)),
        max_size=4).map(tuple),
    memory=st.one_of(st.none(), st.builds(
        PlanMemory, device=_names, num_banks=st.integers(1, 8),
        bytes_per_cycle=st.integers(1, 256), interleaving=st.booleans())),
    placements=st.lists(
        st.builds(PlanPlacement, buffer=_names,
                  bank=st.one_of(st.none(), st.integers(0, 3)),
                  elements=st.integers(1, 10**6),
                  itemsize=st.sampled_from((4, 8))),
        max_size=3).map(tuple),
    edges=st.lists(_edges, max_size=4).map(tuple),
    components=st.lists(
        st.lists(_names, max_size=3).map(tuple), max_size=3).map(tuple),
    predictions=st.builds(
        PlanPrediction, cycles_lo=_opt_int, cycles_hi=_opt_int,
        io_elements=_opt_int, sequential_io_elements=_opt_int),
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_plans)
    def test_json_round_trip_is_lossless(self, plan):
        """from_dict(json(to_dict(p))) == p, with a stable plan_key."""
        restored = PlanIR.from_dict(json.loads(plan.to_json()))
        assert restored == plan
        assert restored.plan_key == plan.plan_key

    @settings(max_examples=50, deadline=None)
    @given(_plans)
    def test_schema_rides_first(self, plan):
        d = plan.to_dict()
        assert next(iter(d)) == "schema"
        assert d["schema"] == PLAN_SCHEMA

    def test_foreign_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported plan schema"):
            PlanIR.from_dict({"schema": "repro.plan/99"})

    @settings(max_examples=50, deadline=None)
    @given(_plans, _names)
    def test_plan_key_ignores_subject_and_predictions(self, plan, label):
        """The key is structural: relabeling or attaching predictions
        never splits a cache entry."""
        import dataclasses
        relabeled = dataclasses.replace(plan, subject=label)
        predicted = plan.with_predictions(cycles_lo=1, cycles_hi=2,
                                          io_elements=3)
        assert relabeled.plan_key == plan.plan_key
        assert predicted.plan_key == plan.plan_key

    @settings(max_examples=50, deadline=None)
    @given(_plans)
    def test_plan_key_tracks_structure(self, plan):
        """Any structural change — here an extra channel — changes it."""
        import dataclasses
        grown = dataclasses.replace(
            plan, channels=plan.channels + (PlanChannel("zz_extra", 7),))
        assert grown.plan_key != plan.plan_key


# ---------------------------------------------------------------------------
# Device identity: certificates never cross device boundaries.
# ---------------------------------------------------------------------------

def _device_engine(device_label):
    """A tiny certifiable DRAM-fed design on a labeled board."""
    mem = DramModel(num_banks=4, bytes_per_cycle=64, device=device_label)
    data = np.arange(32, dtype=np.float32)
    src = mem.bind("src", data)
    dst = mem.allocate("dst", 32, dtype=np.float32)
    eng = Engine(memory=mem)
    ch = eng.channel("c", 16)
    eng.add_kernel("read", read_kernel(mem, src, ch, 4))
    eng.add_kernel("write", write_kernel(mem, dst, ch, 32, 4))
    return eng


class TestDeviceIdentity:
    def test_same_device_shares_key(self):
        a = _device_engine("stratix10")
        b = _device_engine("stratix10")
        assert schedule_key(a) == schedule_key(b)

    def test_different_device_splits_key(self):
        """The regression the key hardening exists for: identical designs
        on different catalog devices must never share a certificate."""
        a = _device_engine("stratix10")
        b = _device_engine("arria10")
        ka, kb = schedule_key(a), schedule_key(b)
        assert ka != kb
        assert compile_plan(a).memory.device == "stratix10"
        assert compile_plan(b).memory.device == "arria10"

    def test_cache_never_replays_across_devices(self):
        """A schedule certified on one device is a cache *miss* on the
        other — the second device certifies afresh."""
        cache = PlanCache()
        sched_a = ensure_certified(_device_engine("stratix10"), cache=cache)
        assert cache.stats()["entries"] == 1
        misses_before = cache.misses
        sched_b = ensure_certified(_device_engine("arria10"), cache=cache)
        assert cache.misses == misses_before + 1     # no cross-device hit
        assert cache.stats()["entries"] == 2
        assert sched_a is not sched_b

    def test_cache_hit_on_same_device(self):
        cache = PlanCache()
        sched_a = ensure_certified(_device_engine("stratix10"), cache=cache)
        hits_before = cache.hits
        sched_b = ensure_certified(_device_engine("stratix10"), cache=cache)
        assert cache.hits == hits_before + 1
        assert sched_a is sched_b

    def test_memoryless_engines_unaffected(self):
        """No DRAM attached: the key has no device term but still works."""
        def plain():
            eng = Engine()
            ch = eng.channel("c", 8)
            eng.add_kernel("src", source_kernel(
                ch, [np.float32(i) for i in range(16)], 4))
            eng.add_kernel("sink", sink_kernel(ch, 16, 4, []))
            return eng
        assert schedule_key(plain()) == schedule_key(plain())
        assert compile_plan(plain()).memory is None


# ---------------------------------------------------------------------------
# Malformed documents: a typed PlanError, never a bare KeyError/TypeError.
# ---------------------------------------------------------------------------

def _document():
    """A JSON round trip of a compiled plan with every record kind."""
    return json.loads(compile_plan(_device_engine("stratix10")).to_json())


_DROP = object()


def _mutation(path, value=_DROP):
    """Delete the key / item at ``path``, or overwrite it with ``value``."""
    def mutate(doc):
        *parents, last = path
        for p in parents:
            doc = doc[p]
        if value is _DROP:
            del doc[last]
        else:
            doc[last] = value
    return mutate


class TestMalformedDocuments:
    @pytest.mark.parametrize("mutate", [
        _mutation(("kernels", 0, "name")),
        _mutation(("kernels", 0, "dram", 0, "kind")),
        _mutation(("channels", 0, "depth")),
        _mutation(("memory", "device")),
        _mutation(("placements", 0, "bank")),
    ], ids=["kernel.name", "traffic.kind", "channel.depth", "memory.device",
            "placement.bank"])
    def test_dropped_key(self, mutate):
        doc = _document()
        mutate(doc)
        with pytest.raises(PlanError):
            PlanIR.from_dict(doc)

    @pytest.mark.parametrize("mutate", [
        _mutation(("kernels",), "abc"),
        _mutation(("kernels", 0), ["name"]),
        _mutation(("placements", 0), "0"),
        _mutation(("kernels", 0, "latency"), None),
        _mutation(("kernels", 0, "annotated"), 1),
        _mutation(("kernels", 0, "writes"), [5]),
        _mutation(("channels", 0, "depth"), "deep"),
        _mutation(("channels", 0, "name"), 3),
        _mutation(("memory",), [4, 64]),
        _mutation(("predictions",), [1]),
        _mutation(("components",), 5),
        _mutation(("device",), 7),
    ])
    def test_wrong_type(self, mutate):
        doc = _document()
        mutate(doc)
        with pytest.raises(PlanError):
            PlanIR.from_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"schema": "repro.plan/99"}, None, ["repro.plan/1"], "repro.plan/1",
    ])
    def test_wrong_schema_or_not_a_document(self, doc):
        with pytest.raises(PlanError) as exc:
            PlanIR.from_dict(doc)
        # A ReproError that is still the historical ValueError.
        assert isinstance(exc.value, ReproError)
        assert isinstance(exc.value, ValueError)

    def test_the_unmutated_document_rebuilds(self):
        plan = PlanIR.from_dict(_document())
        assert plan.plan_key == compile_plan(
            _device_engine("stratix10")).plan_key

    @settings(max_examples=150, deadline=None)
    @given(_plans, st.data())
    def test_any_single_mutation_is_a_plan_or_a_plan_error(self, plan, data):
        """Drop any key or list item of a round-trip dict, or overwrite
        it with a value of another shape: the result is a plan whose key
        can be computed, or a PlanError."""
        doc = json.loads(plan.to_json())
        paths = []

        def walk(node, path):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for k, v in items:
                paths.append(path + (k,))
                walk(v, path + (k,))

        walk(doc, ())
        path = data.draw(st.sampled_from(paths))
        value = data.draw(st.one_of(
            st.just(_DROP), st.none(), st.booleans(), st.integers(),
            st.text(max_size=3), st.lists(st.integers(), max_size=2),
            st.dictionaries(st.text(max_size=3), st.integers(),
                            max_size=2)))
        _mutation(path, value)(doc)
        try:
            restored = PlanIR.from_dict(doc)
        except PlanError:
            return
        assert len(restored.plan_key) == 64
