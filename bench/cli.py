"""The benchmark's parent process: spawns workers, paces them, reports.

It never imports the program under test.  Each workload lives in one
long-lived child (:mod:`bench.worker`); the parent hands out one
fixed-count block at a time, round-robin, so every workload's samples
span the whole invocation and a slow phase of the machine cannot swallow
one workload.  With ``--workload`` (how the driver calls it) there is one
child and its blocks run back to back.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Fresh-interpreter set-ups measured per workload (the worker's own
#: start is the first); ``setup_s`` is their floor.
SETUP_SAMPLES = 5
#: A time-boxed run never stops before ``bench.worker.RSS_BLOCKS`` rounds.
MIN_ROUNDS = 8


class Worker:
    """One workload's child process and the parent's view of it."""

    def __init__(self, workload: str, args: argparse.Namespace) -> None:
        self.workload = workload
        self.base = [sys.executable, "-m", "bench.worker",
                     "--workload", workload, "--seed", str(args.seed),
                     "--out", args.out] + (["--quick"] if args.quick else [])
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]),
            # Hash randomisation reorders sets and dicts of strings from
            # run to run, which moves both timings and call counts.
            PYTHONHASHSEED="0")
        self.setups: List[float] = []
        self.proc = self._spawn(
            ["--e2e", str(int(args.trace != "1")),
             "--layers", str(int(args.trace != "0"))])
        self._expect("ready")

    def _spawn(self, extra: List[str]) -> subprocess.Popen:
        """Start a child and time spawn -> end of its first request."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.base + extra, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True,
                                env=self.env, cwd=ROOT)
        self._expect("cold", proc)
        self.setups.append(time.perf_counter() - t0)
        return proc

    def _expect(self, event: str,
                proc: Optional[subprocess.Popen] = None) -> dict:
        proc = proc or self.proc
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"{self.workload}: worker exited with code "
                f"{proc.wait()} before {event!r}")
        msg = json.loads(line)
        if msg["event"] != event:
            raise RuntimeError(f"{self.workload}: expected {event!r}, "
                               f"got {msg!r}")
        return msg

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._expect(name)

    def cold_sample(self) -> None:
        """One more set-up sample from a throwaway interpreter."""
        self._spawn(["--cold"]).wait()

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.stdin.close()
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def run(args: argparse.Namespace) -> dict:
    """Run the selected workloads; return the result document."""
    t_start = time.perf_counter()
    names = [args.workload] if args.workload else WORKLOADS
    workers: List[Worker] = []
    results: Dict[str, dict] = {}
    rounds = 0
    try:
        for name in names:
            workers.append(Worker(name, args))
        deadline = time.perf_counter() + args.seconds * len(workers) * (
            # A traced run splits its time between the timed rounds and
            # the traced passes that follow them.
            0.4 if args.trace == "1" else 1.0)
        while (rounds < args.rounds if args.rounds
               else rounds < MIN_ROUNDS or time.perf_counter() < deadline):
            for w in workers:
                w.command("block")
                if args.trace != "1" and len(w.setups) < SETUP_SAMPLES:
                    w.cold_sample()
            rounds += 1
        for w in workers:
            msg = w.command("finish")
            code = w.stop()
            if code != 0 and not msg["failed"]:
                raise RuntimeError(f"{w.workload}: worker exit code {code}")
            msg.setdefault("end_to_end", {})
            if args.trace != "1":
                msg["end_to_end"]["setup_s"] = min(w.setups)
            results[w.workload] = msg
    finally:
        for w in workers:
            w.stop()
    first = next(iter(results.values()))
    return {
        "meta": {"seed": args.seed, "rounds": rounds, "quick": args.quick,
                 "round_robin": len(workers) > 1,
                 "nproc": os.cpu_count(), "python": first["python"],
                 "numpy": first["numpy"], "platform": platform.platform(),
                 "wall_s": time.perf_counter() - t_start},
        "workloads": {
            name: {"attempted": r["attempted"], "failed": r["failed"],
                   "end_to_end": r["end_to_end"],
                   "per_layer": r.get("per_layer", {})}
            for name, r in results.items()},
    }


def units() -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def print_table(doc: dict) -> None:
    unit = units()
    meta = doc["meta"]
    print(f"seed {meta['seed']}  rounds {meta['rounds']}  "
          f"nproc {meta['nproc']}  python {meta['python']}  "
          f"numpy {meta['numpy']}  wall {meta['wall_s']:.1f} s")
    if not meta["round_robin"]:
        print("one workload selected: its blocks ran back to back, not "
              "round-robin with the others")
    for name, r in doc["workloads"].items():
        print(f"\n{name}: {r['attempted']} requests, {r['failed']} failed")
        for kind in ("end_to_end", "per_layer"):
            for metric, value in r[kind].items():
                print(f"  {metric:34s} {value:16.6g} {unit[metric]}")


def contract_line(doc: dict, trace: str) -> str:
    """The driver's result object for a one-workload run."""
    (r,) = doc["workloads"].values()
    unit = units()
    kind = "per_layer" if trace == "1" else "end_to_end"
    return json.dumps({
        "correct": r["failed"] == 0, "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in r[kind].items()}})


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="bench", description="fBLAS simulator benchmark")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (blocks back to back) instead "
                         "of all of them round-robin")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="measuring time per workload")
    ap.add_argument("--rounds", type=int, default=0,
                    help="run exactly this many rounds instead of timing "
                         "out on --seconds")
    ap.add_argument("--trace", choices=["0", "1"],
                    help="0: end-to-end metrics only; 1: per-layer metrics "
                         "only; default both")
    ap.add_argument("--quick", action="store_true",
                    help="blocks and probes an eighth the size (tests)")
    ap.add_argument("--out", default="bench/out",
                    help="directory for traces and result.json")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run twice and compare the two runs")
    args = ap.parse_args(argv)

    if args.selfcheck:
        from .compare import compare
        first, second = run(args), run(args)
        return 1 if compare(first, second, symmetric=True) else 0

    doc = run(args)
    out = ROOT / args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(doc, indent=1))
    print_table(doc)
    if args.workload and args.trace:
        print(contract_line(doc, args.trace))
    return 1 if any(r["failed"] for r in doc["workloads"].values()) else 0
