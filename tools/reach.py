"""Reach audit: which functions under ``src/repro`` does nothing execute?

    python tools/reach.py            # run the audit, print what is unreached
    python tools/reach.py --check    # ... exit 1 on an entry DESIGN.md
                                     #     does not justify

The audit runs tier-1 (``tests/``), the paper reproductions in
``benchmarks/``, every example, the documented CLI smokes and one
``--quick`` pass of each benchmark workload (``bench.worker``, the child
``bench/run.py`` spawns), each in a child interpreter whose path starts
with a generated ``sitecustomize``.  The hook installs a
``sys.setprofile`` / ``threading.setprofile`` recorder of every code
object that runs, so grandchildren started with the inherited
environment count too, and dumps what it saw at exit.  Under pytest the
recorder is re-armed before every setup, call and teardown phase
(``-p reach``), because the tests that count calls install profilers of
their own.  Children started with a scrubbed environment (the CLI tests
pass ``env={"PYTHONPATH": ...}``) do not count; the CLI smokes cover what
they drive.

A function is *reached* when its code object ran at least once.  The
report lists the outermost unreached ``def``s (a function nested in an
unreached one is implied); ``--check`` compares them with the bullets of
DESIGN.md's "Reach audit" section, one ``path::qualname`` each.  Stdlib
only; no test outcome is judged, only what ran.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DESIGN = ROOT / "DESIGN.md"
#: Directory every recording interpreter dumps its reached set into.
OUT_ENV = "REPRO_REACH_OUT"
SECTION = "### Reach audit"

# -- the recorder (runs inside every audited interpreter) ---------------------

_codes: dict = {}


def _record(frame, event, arg, _codes=_codes):
    code = frame.f_code
    _codes[id(code)] = code


def _arm() -> None:
    if sys.getprofile() is not _record:
        sys.setprofile(_record)


def _dump(out: str) -> None:
    sys.setprofile(None)
    threading.setprofile(None)
    prefix = str(SRC) + os.sep
    rows = sorted({(os.path.relpath(c.co_filename, SRC), c.co_firstlineno)
                   for c in list(_codes.values())
                   if c.co_filename.startswith(prefix)})
    fd, _path = tempfile.mkstemp(suffix=".json", dir=out)
    with os.fdopen(fd, "w") as f:
        json.dump(rows, f)


def install() -> None:
    """Start recording when the audit asked for it (``sitecustomize``)."""
    out = os.environ.get(OUT_ENV)
    if out:
        threading.setprofile(_record)
        _arm()
        atexit.register(_dump, out)


def pytest_runtest_setup(item):
    _arm()


def pytest_runtest_call(item):
    _arm()


def pytest_runtest_teardown(item):
    _arm()


# -- what is defined ------------------------------------------------------------

def defined():
    """``{(relpath, firstlineno): (qualname, lines, parent)}`` for every
    ``def`` under ``src/repro``; ``parent`` is the enclosing function's
    key (None at module or class level)."""
    out = {}

    def walk(node, rel, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                key = (rel, first)
                out[key] = (prefix + child.name,
                            child.end_lineno - first + 1, parent)
                walk(child, rel, prefix + child.name + ".", key)
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, prefix + child.name + ".", parent)
            else:
                walk(child, rel, prefix, parent)

    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        walk(ast.parse(path.read_text(), str(path)), rel, "", None)
    return out


def justified():
    """The ``path::qualname`` bullets of DESIGN.md's reach section."""
    text = DESIGN.read_text()
    start = text.find(SECTION)
    if start < 0:
        return set()
    body = text[start + len(SECTION):]
    end = re.search(r"^#", body, re.M)
    body = body[:end.start()] if end else body
    return set(re.findall(r"^[-*] `([\w/.]+::[\w.]+)`", body, re.M))


# -- the audit --------------------------------------------------------------------

def _runs(tmp: Path):
    """``(label, argv, extra PYTHONPATH, stdin)`` of every audited run."""
    py = sys.executable
    spec = tmp / "spec.json"
    spec.write_text(json.dumps({"routine": [
        {"blas_name": "dot", "user_name": "d", "precision": "single",
         "width": 16},
        {"blas_name": "gemv", "user_name": "g", "precision": "single",
         "width": 6, "tile_n_size": 64, "tile_m_size": 64}]}))
    yield "tier-1", [py, "-m", "pytest", "-q", "-p", "reach",
                     "-p", "no:cacheprovider"], [], None
    yield "benchmarks", [py, "-m", "pytest", "-q", "-p", "reach",
                         "-p", "no:cacheprovider", "benchmarks"], \
        [ROOT / "benchmarks"], None
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield f"examples/{example.name}", [py, str(example)], [], None
    cli = [
        ["repro.analysis", "--demo"],
        ["repro.analysis", "--list-codes"],
        ["repro.analysis", str(spec), "--json"],
        ["repro.analysis", "--app", "atax", "--sarif"],
        ["repro.analysis", "--app", "axpydot", "--json"],
        ["repro.analysis", "--app", "bicg", "--plan"],
        ["repro.codegen", str(spec), "--list"],
        ["repro.codegen", str(spec), "-o", str(tmp / "generated")],
        ["repro.telemetry", "atax", "--trace", str(tmp / "t.json"),
         "--metrics", str(tmp / "m.json"), "--report",
         "--ledger", str(tmp / "l.jsonl"), "--prometheus",
         str(tmp / "m.prom")],
        ["repro.telemetry", "axpydot", "--n", "8192", "--width", "8",
         "--engine-mode", "certified", "--ledger", str(tmp / "l.jsonl")],
        ["repro.telemetry", "drift"],
        ["repro.telemetry", "report", str(tmp / "l.jsonl")],
        ["repro.faults", "campaign", "--seed", "7", "--budget", "4",
         "--out", str(tmp / "c.json")],
        ["repro.service", "--tenants", "2", "--requests", "4",
         "--workers", "2", "--faults-seed", "11", "--width", "8",
         "--report", str(tmp / "s.json")],
    ]
    for args in cli:
        label = " ".join(a for a in args if not a.startswith(str(tmp)))
        yield f"python -m {label}", [py, "-m", *args], [], None
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in workloads["workloads"]:
        yield f"bench.worker {w['name']}", [
            py, "-m", "bench.worker", "--workload", w["name"], "--seed",
            "7", "--quick", "--layers", "1", "--out", str(tmp / "bench")], \
            [ROOT], "block\nfinish\n"


def audit():
    """Run every audited program; return the set of reached keys."""
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        hook, out = tmp / "hook", tmp / "out"
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(
            "import reach\nreach.install()\n")
        for label, argv, extra, stdin in _runs(tmp):
            path = [hook, ROOT / "tools", ROOT / "src", *extra]
            env = dict(os.environ, **{
                OUT_ENV: str(out),
                "PYTHONPATH": os.pathsep.join(map(str, path))})
            proc = subprocess.run(argv, cwd=ROOT, env=env, input=stdin,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, text=True)
            print(f"  ran {label} (exit {proc.returncode})",
                  file=sys.stderr)
        reached = set()
        for dump in out.glob("*.json"):
            reached.update(tuple(r) for r in json.loads(dump.read_text()))
    return reached


def unreached(defs, reached):
    """Outermost unreached definitions, sorted by file and line."""
    return sorted(key for key, (_name, _lines, parent) in defs.items()
                  if key not in reached
                  and (parent is None or parent in reached))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tools/reach.py", description=(
        "List src/repro functions that tier-1, the paper benchmarks, the "
        "examples, the CLI smokes and a quick benchmark pass never run."))
    ap.add_argument("--check", action="store_true",
                    help="exit 1 when an unreached function is not "
                         "justified in DESIGN.md")
    args = ap.parse_args(argv)
    defs = defined()
    missing = unreached(defs, audit())
    names = {f"{rel}::{defs[(rel, line)][0]}": (rel, line)
             for rel, line in missing}
    allowed = justified()
    lines = sum(defs[key][1] for key in missing)
    print(f"{len(missing)} of {len(defs)} functions unreached "
          f"({lines} lines):")
    for name in names:
        mark = "  " if name in allowed else "! "
        print(f"{mark}{name}  (line {names[name][1]})")
    stale = sorted(allowed - set(names))
    for name in stale:
        print(f"? {name}: justified in DESIGN.md but reached or gone")
    bad = [name for name in names if name not in allowed]
    if args.check and bad:
        print(f"{len(bad)} unreached function(s) neither deleted nor "
              f"justified in DESIGN.md ({SECTION!r})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
