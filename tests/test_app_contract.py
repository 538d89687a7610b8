"""The Sec. V apps' contract, pinned on the engines they used to wire.

Each app (and ``atax_broken``) once wired its own ``Engine``; now the
catalogue binds its MDAG and ``execute_plan`` runs it.  ``PINNED`` holds
what the hand-wired engines gave, recorded before they went: cycles, a
SHA-256 prefix of the result bytes, and each bank's (bytes read, bytes
written), at the bench's sizes (AXPYDOT n 512, w 8; the matrix apps
32 x 32, tile 8, w 4) and at 16 x 16, tile 4, w 4 (AXPYDOT n 16, w 4).
Every tier must reproduce them: event, dense and bulk, plus certified
where the design certifies (AXPYDOT; the matrix apps are refused at
these tiles).  The one traffic that moved is AXPYDOT's beta, now a
one-element DRAM write where the hand-wired engine popped it off a sink.

At tile = n (32 x 32, tile 32, w 4) the matrix apps certify; there a
repeated certified call must certify nothing, and every stage of a call
is one ``execute_plan`` ledger record carrying its ``plan_key``.
"""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.apps import APPS, atax_broken, catalogue
from repro.host import FblasContext

#: ``(vector n, vector width, matrix side, tile, matrix width)``.
GEOMETRIES = {"bench": (512, 8, 32, 8, 4), "small": (16, 4, 16, 4, 4)}

PINNED = {
    ("axpydot", "bench"): (208, "eeec0d4e27e9d6c8",
                           ((2048, 0), (2048, 0), (2048, 0), (0, 0))),
    ("bicg", "bench"): (401, "5bc98e251331a9d1",
                        ((4096, 128), (640, 0), (256, 0), (0, 128))),
    ("atax", "bench"): (789, "280cf016e9d317c6",
                        ((4224, 0), (512, 0), (0, 128), (128, 0))),
    ("gemver", "bench"): (897, "4e3f829720832a66",
                          ((5120, 128), (256, 128), (768, 0), (4224, 4096))),
    ("atax_broken", "bench"): (561, "280cf016e9d317c6",
                               ((8320, 0), (512, 0), (0, 128), (128, 0))),
    ("axpydot", "small"): (144, "0faf205515f3fb3d",
                           ((64, 0), (64, 0), (64, 0), (0, 0))),
    ("bicg", "small"): (178, "3dbd666288226d3a",
                        ((1024, 64), (320, 0), (128, 0), (0, 64))),
    ("atax", "small"): (517, "00f6c5e32844da8f",
                        ((1088, 0), (256, 0), (0, 64), (64, 0))),
    ("gemver", "small"): (461, "34827f2b9b2aab52",
                          ((1536, 64), (128, 64), (384, 0), (1088, 1024))),
    ("atax_broken", "small"): (289, "00f6c5e32844da8f",
                               ((2112, 0), (256, 0), (0, 64), (64, 0))),
}

#: AXPYDOT's beta: one float32 written to bank 3 (w, v, u fill 0-2).
BETA_BANK, BETA_BYTES = 3, 4


def _cases():
    for app, geometry in PINNED:
        modes = (("event",) if app == "atax_broken" else
                 ("event", "dense", "bulk") + (("certified",)
                                               if app == "axpydot" else ()))
        for mode in modes:
            yield app, geometry, mode


def _call(app, ctx, arrays, geometry, mode):
    """Bind ``arrays`` on ``ctx`` and run ``app`` at ``mode``; return the
    result and each bank's (bytes read, bytes written) during the call."""
    spec = APPS[app.split("_")[0]]
    _nv, wv, _side, tile, wm = geometry
    matrix = spec.operands[0][1] == 2
    bufs = [ctx.copy_to_device(a) for a in arrays]
    before = [(b.bytes_read, b.bytes_written) for b in ctx.mem.bank_stats]
    sizes = {"tile": tile, "width": wm} if matrix else {"width": wv}
    if app == "atax_broken":
        res = atax_broken(ctx, *bufs, **sizes)
    else:
        res = spec.streaming(ctx, *bufs, *spec.scalars, mode=mode, **sizes)
    banks = tuple((b.bytes_read - r0, b.bytes_written - w0)
                  for b, (r0, w0) in zip(ctx.mem.bank_stats, before))
    return res, banks


def _digest(value):
    h = hashlib.sha256()
    for v in value if isinstance(value, tuple) else (value,):
        h.update(np.asarray(v).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("app,geometry,mode", list(_cases()))
def test_hand_wired_cycles_bytes_and_bank_traffic(app, geometry, mode):
    sizes = GEOMETRIES[geometry]
    spec = APPS[app.split("_")[0]]
    side = sizes[2] if spec.operands[0][1] == 2 else sizes[0]
    arrays = spec.draw(np.random.default_rng(11), side)
    res, banks = _call(app, FblasContext(), arrays, sizes, mode)
    if app == "axpydot":
        read, written = banks[BETA_BANK]
        banks = (*banks[:BETA_BANK], (read, written - BETA_BYTES),
                 *banks[BETA_BANK + 1:])
    assert (res.cycles, _digest(res.value), banks) == PINNED[app, geometry]


@pytest.mark.parametrize("app", ["atax", "bicg", "gemver"])
def test_certified_tile_n_certifies_once_and_records_every_stage(
        app, monkeypatch):
    from repro.analysis import schedule
    certified = []
    real = schedule.certify

    def counting(*args, **kwargs):
        certified.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(schedule, "certify", counting)
    catalogue.CERTIFICATES.clear()      # whatever certified this before
    spec = APPS[app]
    arrays = spec.draw(np.random.default_rng(3), 32)
    sizes = (32, 4, 32, 32, 4)
    event, _ = _call(app, FblasContext(), arrays, sizes, "event")
    runs = []
    for _ in range(2):
        with telemetry.session(metrics=False, kernel_slices=False,
                               occupancy=False) as tel:
            res, _ = _call(app, FblasContext(), arrays, sizes, "certified")
        runs.append((len(certified), tel.ledger.records()))
        assert res.cycles == event.cycles
        assert _digest(res.value) == _digest(event.value)
    # The first call certified every stage; the second found them all.
    stages = 2 if app == "gemver" else 1
    assert runs[0][0] == stages and runs[1][0] == stages
    for _count, records in runs:
        plans = [r for r in records if r.kind == "execute_plan"]
        assert len(plans) == stages
        assert all(r.plan_key for r in plans)
        assert all(r.engine_mode == "certified" for r in plans)
