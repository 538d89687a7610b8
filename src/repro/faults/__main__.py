"""CLI: ``python -m repro.faults campaign --seed 7 --apps atax,axpydot``.

Runs a seeded fault campaign over the Sec. V applications, prints the
outcome table, and (with ``--out``) writes the full JSON document
(schema ``repro.faultcampaign/1``) for CI artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..fpga.engine import ENGINE_MODES
from .campaign import _to_plain, render_summary, run_campaign


def main(argv=None) -> int:
    from ..apps import APPS
    from ..apps.catalogue import positive_int
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="deterministic fault-injection campaigns")
    sub = parser.add_subparsers(dest="command", required=True)
    camp = sub.add_parser(
        "campaign", help="sweep seeded fault plans over the Sec. V apps")
    camp.add_argument("--seed", type=int, default=7,
                      help="campaign seed (trial i uses seed*1000+i)")
    camp.add_argument("--apps", default=",".join(sorted(APPS)),
                      help=f"comma-separated subset of {', '.join(APPS)}")
    camp.add_argument("--budget", type=positive_int, default=20,
                      help="number of fault trials (round-robin over apps)")
    camp.add_argument("--n", type=positive_int, default=8,
                      help="problem size (vectors length n, matrices n x n)")
    camp.add_argument("--mode", default="event",
                      choices=ENGINE_MODES,
                      help="starting engine tier (demotion may lower it)")
    camp.add_argument("--no-recover", action="store_true",
                      help="disable the retry/demotion recovery ladder")
    camp.add_argument("--out", default=None,
                      help="write the full JSON campaign report here")
    args = parser.parse_args(argv)
    apps = tuple(a.strip() for a in args.apps.split(",") if a.strip())
    if not apps or not set(apps) <= set(APPS):
        camp.error(f"argument --apps: expected a comma-separated subset of "
                   f"{', '.join(APPS)}, got {args.apps!r}")
    try:
        if args.out:
            open(args.out, "a").close()     # before any trial runs
        doc = run_campaign(seed=args.seed, apps=apps,
                           budget=args.budget, size=args.n,
                           recover=not args.no_recover, mode=args.mode)
        print(render_summary(doc))
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(_to_plain(doc), fh, indent=2)
            print(f"\nfull report written to {args.out}")
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    return 1 if doc["unexplained_hangs"] else 0


if __name__ == "__main__":
    sys.exit(main())
