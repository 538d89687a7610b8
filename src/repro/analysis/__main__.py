"""Command-line entry point for the static design checker.

Mirrors ``python -m repro.codegen``: a routine-specification JSON in,
diagnostics out.  ``--demo`` instead analyzes the paper's canonical
invalid composition (the ATAX reconvergence of Sec. V-B) at three stages:
unsized, window-known-but-undersized, and fixed.

Usage::

    python -m repro.analysis routines.json [--device stratix10] [--json]
    python -m repro.analysis --app atax [--sarif]
    python -m repro.analysis --app bicg --plan
    python -m repro.analysis --demo
    python -m repro.analysis --list-codes

Exit status: **0** when no error-severity diagnostic was found, **1**
when at least one was (or, with ``--strict``, any warning), **2** on
usage errors (unknown arguments, unreadable spec files, or combining
``--json`` with ``--sarif``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional

from ..plan import PlanIR
from . import CODES, AnalysisResult, analyze_mdag, analyze_specs


def build_parser() -> argparse.ArgumentParser:
    from ..apps import APPS
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically check FBLAS designs: routine specs, "
                    "resource fit, MDAG validity, and SDF rates.")
    parser.add_argument("spec", nargs="?",
                        help="routine specification JSON file")
    parser.add_argument("--demo", action="store_true",
                        help="analyze the ATAX reconvergence demo instead "
                             "of a spec file")
    parser.add_argument("--app", choices=tuple(APPS),
                        help="analyze a built-in Sec. V application MDAG "
                             "(axpydot additionally runs the FB4xx rate "
                             "passes over its streaming engine)")
    parser.add_argument("--device", choices=("arria10", "stratix10"),
                        help="check resource fit against this device")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON (repro.analysis/1)")
    fmt.add_argument("--sarif", action="store_true",
                     help="emit SARIF 2.1.0 for CI code scanning")
    fmt.add_argument("--plan", action="store_true",
                     help="with --app: dump the compiled plan IR "
                          "(repro.plan/1 JSON) instead of diagnostics")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")
    parser.add_argument("--list-codes", action="store_true",
                        help="print the diagnostic code table and exit")
    return parser


def _emit(result: AnalysisResult, as_json: bool,
          as_sarif: bool = False) -> None:
    if as_sarif:
        print(result.render_sarif())
    else:
        print(result.render_json() if as_json else result.render_text())


def _failed(result: AnalysisResult, strict: bool) -> bool:
    return bool(result.errors) or (strict and bool(result.warnings))


def run_demo(as_json: bool) -> int:
    """The worked ATAX example of Sec. V-B (its catalogue MDAG: 64 x 64,
    tile 8), in three acts."""
    from ..apps import APPS
    from ..models.iomodel import atax_min_channel_depth

    window = atax_min_channel_depth(64, 8)
    mdag = APPS["atax"].mdag()
    stages = []

    # Act 1: nothing known about the reordering window -> FB002.
    stages.append(("unsized reconvergence (no window known)",
                   analyze_mdag(mdag)))
    # Act 2: window known, default 64-deep channel -> FB003 with a fix.
    windows = {("read_A", "gemvT"): window}
    stages.append((f"window known ({window} elements), channel depth "
                   f"{mdag.depth('read_A', 'gemvT')}",
                   analyze_mdag(mdag, windows=windows)))
    # Act 3: apply the suggested fix -> FB008 certificate, no errors.
    mdag.required_depth("read_A", "gemvT", window)
    stages.append((f"after required_depth('read_A', 'gemvT', {window})",
                   analyze_mdag(mdag, windows=windows)))

    for title, result in stages:
        if not as_json:
            print(f"--- {title} ---")
        _emit(result, as_json)
        if not as_json:
            print()
    # The demo showcases an invalid composition: acts 1 and 2 must fail.
    if stages[0][1].ok or stages[1][1].ok or not stages[2][1].ok:
        print("demo invariant violated", file=sys.stderr)
        return 2
    print("demo: the unsized ATAX composition is invalid (exit 1); "
          "act 3 shows the fix.", file=sys.stderr)
    return 1


def _axpydot_engine() -> Any:
    """AXPYDOT's streaming engine on 1024 drawn elements, as the
    executor builds it from the catalogue's bound MDAG, not run."""
    import numpy as np

    from ..apps import APPS
    from ..host.context import FblasContext
    from ..streaming import build_engine
    ctx = FblasContext()
    spec = APPS["axpydot"]
    bufs = [ctx.copy_to_device(a) for a in
            spec.draw(np.random.default_rng(7), 1024)]
    ((mdag, _options),), _value = spec.bind(ctx, *bufs, np.float32(0.5),
                                            width=8)
    return build_engine(mdag, ctx.mem)


def analyze_app(name: str) -> AnalysisResult:
    """Analyze one Sec. V application's catalogue MDAG pre-flight; for
    AXPYDOT, whose streaming engine is fully patterned, merge in the FB4xx
    rate passes (a clean run shows the FB405 certificate), so
    ``--json``/``--sarif`` still emit one document."""
    from ..apps import APPS
    from . import analyze_rates

    result = analyze_mdag(APPS[name].mdag())
    result.subject = f"{name} MDAG"
    if name == "axpydot":
        rates = analyze_rates(_axpydot_engine())
        result.diagnostics.extend(rates.diagnostics)
        result.passes_run.extend(rates.passes_run)
        result.subject = f"axpydot (MDAG + {rates.subject})"
    return result


def plan_for_app(name: str) -> PlanIR:
    """Compile one Sec. V application to its :class:`~repro.plan.PlanIR`:
    AXPYDOT from its live streaming engine (ports, DRAM traffic, memory
    identity), the others from their catalogue MDAGs (planned channel
    depths, I/O predictions)."""
    from ..apps import APPS
    from ..plan import compile_plan

    if name == "axpydot":
        return compile_plan(_axpydot_engine())
    return compile_plan(APPS[name].mdag())


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_codes:
        for code in sorted(CODES):
            print(f"{code}  {CODES[code]}")
        return 0
    if args.demo:
        return run_demo(args.json)
    if args.plan:
        if not args.app:
            print("error: --plan requires --app", file=sys.stderr)
            return 2
        print(plan_for_app(args.app).to_json())
        return 0
    if args.app:
        result = analyze_app(args.app)
        _emit(result, args.json, args.sarif)
        return 1 if _failed(result, args.strict) else 0
    if not args.spec:
        print("error: provide a spec file, --app, --demo, or --list-codes",
              file=sys.stderr)
        return 2

    from ..codegen.spec import SpecError, load_spec
    from ..fpga.device import DEVICES

    try:
        specs = load_spec(args.spec)
    except (SpecError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    device = DEVICES[args.device] if args.device else None
    result = analyze_specs(specs, device=device)
    _emit(result, args.json, args.sarif)
    return 1 if _failed(result, args.strict) else 0


if __name__ == "__main__":           # pragma: no cover - exercised via CLI
    try:
        sys.exit(main())
    except BrokenPipeError:          # e.g. `... --list-codes | head`
        sys.exit(0)
