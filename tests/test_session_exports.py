"""What a full telemetry session exports, pinned by digest.

A full :func:`repro.telemetry.session` (metrics, kernel slices and
occupancy on) turns every watched engine run into six artifacts: the
metrics registry, the kernel slices, the per-run ``SimReport`` summaries,
the run ledger, the Chrome trace and the bottleneck report.  How the
observers fold a run into them may change; what they export may not.
Each scenario below — a certified DOT that rides its windows, an
event-tier ATAX that steps every cycle, GEMVER's two engine runs, a
``"bulk"`` run refused by FB404, a run under a seeded fault plan and a
deadlocked ATAX — is hashed, artifact by artifact, to one SHA-256
digest, recorded before the observers were rewritten to fold each run
once.

Run ids carry a process-unique prefix and a global counter, so every id
is replaced by its order of first appearance before hashing; ledger rows
also drop ``parent_id`` and ``wall_seconds``.
``python tests/test_session_exports.py`` prints the current digests.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from repro import telemetry
from repro.apps import APPS, atax_streaming, catalogue
from repro.blas import level1
from repro.faults import COMPLETION_SAFE_KINDS, FaultPlan
from repro.fpga import Clock, DeadlockError, Engine, Pop, Push
from repro.fpga.util import source_kernel
from repro.host import Fblas, FblasContext
from repro.plan import PlanCache
from repro.telemetry.chrome_trace import to_chrome_trace

EXPECTED = {
    "bulk_refused_fb404": {
        "registry": "b8791a0b6f03c3c3db387a5293b1daf449dcb88cd64293893b689a8fb6afa3c2",
        "slices": "f5cc2cc044e44bc3125ffa60646866c254842aad2f9138c1dd46daa44f48b700",
        "runs": "676f5a458d48757a9ac2e61f814540f749b9d43a4d7ebf8d9ca4b9d1d131ca67",
        "ledger": "2d733688415fe950713bf1022204e0fa71dbdf18f7dcc5d02a06bb06ece7275c",
        "chrome_trace": "eac9894d4a983954d9d96207fbd8c16635615b222469c1bfabcae06c7b44249c",
        "report": "39770939c68d0674fa693375e33e658424b74acc85f1fd40e33d71cd9b1dfec1"
    },
    "certified_dot": {
        "registry": "bb42f0c6c7e90aa4cdff4dfe6d3f1c738c9293902e81f1ed5989cb24673838ad",
        "slices": "ce1bbc6622929b305e6123bf73edb75e79a0d8e757f02f730a77d3977de5599b",
        "runs": "93faccc4f7742deac40bc351f94de8bd7cabe6a328341bafb01b18b059804d0f",
        "ledger": "15d6538584388c21fca6e6793f5ab3f067cfcfe19093a5e1efc3a09f32de192a",
        "chrome_trace": "f01584d6239edf21991a2ec9476c8c01a920e337e2df280ef62fecab20cc12e9",
        "report": "3c50e571c14cf3a9bf673beccc89a2a1da32e8b1f4718594d2c9484768c2c63d"
    },
    "deadlocked_atax": {
        "registry": "0101168377124e75716b24bab9b97d54f306223464889cad5a59734e96057b6e",
        "slices": "1c927ad9e810f15d9d487ee269a296beee0b7722e91542289393a39a9b8695f6",
        "runs": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "ledger": "a799ac82df6016a4b4d688697ff08817351e755a94b300d5fb247eb2e774f338",
        "chrome_trace": "4b4cbf879c14f5c1bd149ce5f43d152ef0dfef1b42b4f68c30dd83ff65c89d2a",
        "report": "07599bbc81694a7a43d0b2d7686bac81d50963b17461d9cefb772c2bba19d356"
    },
    "event_atax": {
        "registry": "2527d3a1c337be397f9469ba1230c1cfe1aa037d3e43c3fa6dc9ec99018f0e98",
        "slices": "465521e10b5d8a7b7b0959e96d7fa8ab383df93c212b2901af51a4d1d3fcf9ba",
        "runs": "cde8a2eed37e23305f939973d58f9880558a22b378deba698c20e28bfcddaedb",
        "ledger": "34c36542778d4710d148099cd6d860aad8be84f078d949a0d70c60fd6b84c7f8",
        "chrome_trace": "5ead34377bd9f4ffc8d1a869df405f16ef19861b6b15c97d7ef953d181d89940",
        "report": "dc349bbdb1051de6810ebd605d60a3c87a55bd88e0304b25e38ff215ddeff470"
    },
    "faulted_chain": {
        "registry": "dd7521fea1ad47954acfe2905f81bb23484bc1b220f4840d99cb80707d4a05ba",
        "slices": "89b4dfc8044c3be0fd39f9e180a82fc5c272757c831ef975713987f7ce622444",
        "runs": "6cf7aa74f58349b91f84576e016b2bcc8cdbfe98b8609a3acd5321f31360bf7a",
        "ledger": "bc8bb6e57986ca7865518613839573cc85f501b037e3708fdc293e19c75b4354",
        "chrome_trace": "0b30625cb85dcff14cebf9252a1102ae0e109a3ca86a6fe10db59f706e57fd53",
        "report": "5fe1de0bf7adbeae4e1935aefa903af372864976fd38b1e90b374bf8900df2dd"
    },
    "gemver": {
        "registry": "1f08923db88a427d4e21a0a3ebaaa306f9b2a9c71f4fa802f714b9cf83c4cd28",
        "slices": "c95df44a92db7d1623d7d2844586fe6593dbceaf7a581defdb6d06e9af6f7d3c",
        "runs": "3b00aaef9a815f4b3f87a175ef550981b32f00224abec2cd9f55265bf3c83172",
        "ledger": "c8f753d780e4621bea18f2d5b0b50f66c08a734a01db4cd981833798a5300ac9",
        "chrome_trace": "6c8ea1cc9678943a86a9b8f7a407f1cc174b98bf6617030ff975c8d8aa09a0fa",
        "report": "603df892f76b5ff89de333343c7a93d040db8231ce02cb3675c561f660603fb1"
    },
}

_RUN_ID = re.compile(r"r-[0-9a-zA-Z]+-[0-9]{6}")


def _arrays(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s).astype(np.float32) for s in shapes]


def _certified_dot():
    fb = Fblas(width=8, engine_mode="certified")
    x, y = (fb.copy_to_device(v) for v in _arrays(1, 4096, 4096))
    fb.dot(x, y)
    fb.dot(x, y)                       # the second hits the certificate
    assert fb.context.records[-1].cycles == 606


def _event_atax():
    ctx = FblasContext()
    APPS["atax"].run(ctx, _arrays(2, (32, 32), 32), width=4, tile=8,
                     mode="event")


def _gemver():
    ctx = FblasContext()
    spec = APPS["gemver"]
    spec.run(ctx, spec.draw(np.random.default_rng(3), 32), width=4,
             tile=8, mode="event")


def _bulk_refused_fb404():
    fb = Fblas(width=4, engine_mode="bulk")
    a, b = _arrays(4, (32, 32), 32)
    a = np.tril(a) + 32 * np.eye(32, dtype=np.float32)
    fb.trsv(fb.copy_to_device(a), fb.copy_to_device(b))


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


def _faulted_chain():
    n, w = 40, 3
    plan = FaultPlan.generate(
        0, channels=("cx", "cy", "c0", "c1"),
        kernels=("src_x", "src_y", "axpy", "dyn"), n_faults=4,
        element_horizon=2 * n, cycle_horizon=4 * n,
        kinds=COMPLETION_SAFE_KINDS)
    eng = Engine(mode="event", fault_plan=plan)
    cx, cy, c0, c1 = (eng.channel(c, 6) for c in ("cx", "cy", "c0", "c1"))
    eng.add_kernel("src_x", source_kernel(
        cx, [np.float32(i % 23 - 11) for i in range(n)], w))
    eng.add_kernel("src_y", source_kernel(
        cy, [np.float32(i % 7 - 3) for i in range(n)], w))
    eng.add_kernel("axpy", level1.axpy_kernel(n, 0.5, cx, cy, c0, w),
                   latency=5)
    eng.add_kernel("dyn", _mapper(c0, c1, n, 2, 2))

    def sink():
        for _ in range(n):
            yield Pop(c1)
            yield Clock()

    eng.add_kernel("sink", sink())
    eng.run()


def _deadlocked_atax():
    ctx = FblasContext()
    a, x = _arrays(5, (16, 16), 16)
    with pytest.raises(DeadlockError):
        atax_streaming(ctx, ctx.copy_to_device(a), ctx.copy_to_device(x),
                       tile=4, width=4, channel_depth=16, mode="event")


SCENARIOS = {
    "certified_dot": _certified_dot,
    "event_atax": _event_atax,
    "gemver": _gemver,
    "bulk_refused_fb404": _bulk_refused_fb404,
    "faulted_chain": _faulted_chain,
    "deadlocked_atax": _deadlocked_atax,
}


def _exports(tel):
    """Every artifact the session exports, as canonical JSON text."""
    rows = []
    for rec in tel.ledger.records():
        d = rec.to_dict()
        for k in ("parent_id", "wall_seconds"):
            del d[k]
        rows.append(d)
    runs = [{k: v for k, v in d.items() if k != "run_id"} for d in tel.runs]
    artifacts = {
        "registry": tel.registry.to_dict(),
        "slices": [repr(s) for s in tel.slices],
        "runs": runs,
        "ledger": rows,
        "chrome_trace": to_chrome_trace(tel),
        "report": tel.report(),
    }
    texts = {k: json.dumps(v, sort_keys=True, default=repr)
             for k, v in artifacts.items()}
    ids = {}
    for k in texts:
        texts[k] = _RUN_ID.sub(
            lambda m: ids.setdefault(m.group(0), f"run#{len(ids)}"),
            texts[k])
    return texts


def _digests(name):
    # The app scenarios export their plan-cache lookups: start each one
    # from empty process-wide caches, whatever ran before it.
    for cache in (catalogue.PLANS, catalogue.CERTIFICATES):
        cache.clear()
    with telemetry.session() as tel:
        SCENARIOS[name]()
    return {k: hashlib.sha256(v.encode()).hexdigest()
            for k, v in _exports(tel).items()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_session_exports_digest(name):
    assert _digests(name) == EXPECTED[name]


def test_watched_runs_really_differ():
    """The scenarios cover windows, stepping, refusals, faults and hangs."""
    with telemetry.session() as tel:
        _certified_dot()
        _bulk_refused_fb404()
        _faulted_chain()
        _deadlocked_atax()
    recs = [r for r in tel.ledger.records() if r.kind == "engine.run"]
    assert recs[0].bulk["windows"] > 0
    assert any((r.fallback_reason or "").startswith("FB404:") for r in recs)
    assert any(r.faults_injected for r in recs)
    assert recs[-1].outcome == "deadlock"


def _certified_dot_drive():
    cache = PlanCache()
    fb = Fblas(width=8, engine_mode="certified", schedule_cache=cache)
    x, y = (fb.copy_to_device(v) for v in _arrays(1, 4096, 4096))
    return cache, lambda: fb.dot(x, y)


def _certified_gemver_drive():
    # A fresh context per call: one context's allocator moves the
    # buffers to other banks, which is another plan.
    spec = APPS["gemver"]
    args = spec.draw(np.random.default_rng(3), 32)
    return catalogue.CERTIFICATES, lambda: spec.run(
        FblasContext(), args, width=4, tile=8, mode="certified")


@pytest.mark.parametrize("drive", (_certified_dot_drive,
                                   _certified_gemver_drive),
                         ids=("dot", "gemver"))
def test_watched_replay_exports_what_a_watched_plan_does(drive):
    """A warm certified request watched by a full session replays its
    recorded script and plans nothing; every artifact it exports equals
    that of the same request planned cold."""
    from test_recorded_scripts import _planning_forbidden

    for cache in (catalogue.PLANS, catalogue.CERTIFICATES):
        cache.clear()
    certificates, request = drive()
    request()                           # certificates and scripts warm

    def watched():
        with telemetry.session() as tel:
            request()
        return _exports(tel)

    scripts = [certificates[k].scripts for k in certificates]
    for script in scripts:
        script.clear()
    cold = watched()                    # hits the certificate, plans
    assert all(scripts), "the planned run recorded no script"
    with _planning_forbidden():
        warm = watched()
    assert warm == cold


if __name__ == "__main__":
    for scenario in sorted(SCENARIOS):
        print(f'    "{scenario}": {json.dumps(_digests(scenario), indent=8)},')
