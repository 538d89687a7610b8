"""Compare two result documents metric by metric against the bounds.

``python -m bench.compare A.json B.json`` treats A as the baseline: a
metric fails when B is worse than A by more than its bound.  The
benchmark's ``--selfcheck`` compares two runs of the same code, where
neither is the baseline, so a gap in either direction counts.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from .cli import SPEC

#: Bounds this small mark counts that must repeat exactly.
EXACT = 1e-5


def compare(a: dict, b: dict, symmetric: bool = False) -> int:
    """Print one row per workload x end-to-end metric; return the number
    of rows out of bounds (0 also requires no failed request)."""
    bad = 0
    print(f"{'workload':24s} {'metric':20s} {'A':>14s} {'B':>14s} "
          f"{'gap':>9s} {'bound':>8s}")
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        bad += (wa["failed"] > 0) + (wb["failed"] > 0)
        for m in SPEC["end_to_end"]:
            va, vb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            worse = (vb - va) / va if m["better"] == "lower" \
                else (va - vb) / va
            gap = abs(worse) if symmetric or m["bound"] < EXACT else worse
            ok = gap <= m["bound"]
            bad += not ok
            print(f"{name:24s} {m['name']:20s} {va:14.6g} {vb:14.6g} "
                  f"{gap:+9.2%} {m['bound']:8.2%}{'' if ok else '  FAIL'}")
    print("within bounds" if not bad else f"{bad} out of bounds")
    return bad


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print("usage: python -m bench.compare A.json B.json",
              file=sys.stderr)
        return 2
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))
        if not all(w["end_to_end"] for w in docs[-1]["workloads"].values()):
            print(f"{path}: no end-to-end metrics (a --trace 1 run?)",
                  file=sys.stderr)
            return 2
    return 1 if compare(*docs) else 0


if __name__ == "__main__":
    sys.exit(main())
