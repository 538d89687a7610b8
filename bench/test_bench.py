"""Checks on the benchmark itself.  Not part of tier-1 (takes minutes):

    python -m pytest bench -q
"""

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT = ("sim_cycles_per_req", "model_err_pct")


def bench(tmp_path_factory, *args):
    out = tmp_path_factory.mktemp("bench")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--rounds", "2",
         "--quick", "--out", str(out), *args],
        capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads((out / "result.json").read_text()), proc.stdout, out


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    return bench(tmp_path_factory)


@pytest.fixture(scope="module")
def again(tmp_path_factory):
    return bench(tmp_path_factory, "--trace", "0")[0]


@pytest.fixture(scope="module")
def other_seed(tmp_path_factory):
    return bench(tmp_path_factory, "--trace", "0", "--seed", "11")[0]


def test_emits_exactly_the_declared_names(full):
    doc, stdout, out = full
    assert list(doc["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, r in doc["workloads"].items():
        assert r["failed"] == 0 and r["attempted"] >= 1
        for kind in ("end_to_end", "per_layer"):
            assert sorted(r[kind]) == sorted(m["name"] for m in SPEC[kind]), \
                (name, kind)
        assert all(v == v and abs(v) != float("inf")
                   for kind in ("end_to_end", "per_layer")
                   for v in r[kind].values())
        trace = json.loads((out / f"trace-{name}.json").read_text())
        assert trace["traceEvents"], name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f" {m['name']} " in stdout       # printed by name, with unit


def test_names_and_units_fit_the_contract():
    names = [w["name"] for w in SPEC["workloads"]] + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_burst_fuses(full):
    per_layer = full[0]["workloads"]["service_burst"]["per_layer"]
    assert per_layer["service.fused_share"] == 1.0


def test_exact_metrics_repeat_across_runs_and_seeds(full, again, other_seed):
    for name, r in full[0]["workloads"].items():
        for metric in EXACT:
            values = {doc["workloads"][name]["end_to_end"][metric]
                      for doc in (full[0], again, other_seed)}
            assert len(values) == 1, (name, metric, values)


def test_one_workload_prints_the_contract_line(tmp_path_factory):
    _, stdout, _ = bench(tmp_path_factory, "--workload",
                         "small_repeat_certified", "--trace", "0")
    assert "back to back" in stdout
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert sorted(last["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])


def test_wrong_result_fails_the_run(monkeypatch):
    from repro.blas import reference

    from bench import worker

    right = reference.dot
    monkeypatch.setattr(reference, "dot", lambda x, y: right(x, y) + 1)
    stdout = io.StringIO()
    code = worker.main(
        ["--workload", "small_repeat_certified", "--seed", "7", "--quick"],
        stdin=io.StringIO("block\nfinish\n"), stdout=stdout)
    finish = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert finish["failed"] > 0
    assert code != 0
