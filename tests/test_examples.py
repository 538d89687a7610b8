"""Every example script must run to completion and print sane output."""

import runpy
import subprocess
import sys
from pathlib import Path

from repro.apps import atax_streaming
from repro.host import FblasContext


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_examples_directory_has_at_least_three_scripts():
    scripts = list(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 3


def test_quickstart():
    out = run_example("quickstart.py")
    assert "sdot" in out
    assert "sgemm" in out
    assert "cycles" in out
    assert "[simulate]" in out


def test_streaming_composition():
    out = run_example("streaming_composition.py")
    assert "AXPYDOT" in out
    assert "speedup" in out
    assert "deadlock" in out.lower()
    assert "valid=True" in out
    assert "valid=False" in out


def test_codegen_demo():
    out = run_example("codegen_demo.py")
    assert "#pragma unroll" in out
    assert "generated DOT executed" in out
    assert "result" in out


def test_systolic_gemm():
    out = run_example("systolic_gemm.py")
    assert "PE utilization" in out
    assert "Tflop/s" in out


def test_design_space_exploration():
    out = run_example("design_space_exploration.py")
    assert "width sweep" in out
    assert "optimal" in out


def test_composition_executor():
    out = run_example("composition_executor.py")
    assert "reconvergent pairs" in out
    assert "DRAM round trip" in out
    assert "sized channel" in out
    assert "machine-derived" in out
    # Plan B is the hand-wired ATAX application, described as an MDAG.
    size = runpy.run_path(str(EXAMPLES / "composition_executor.py"))
    ctx = FblasContext()
    a, x = ctx.allocate((size["M"], size["N"])), ctx.allocate(size["N"])
    app = atax_streaming(ctx, a, x, tile=size["TILE"], width=size["WIDTH"])
    assert f"executed: {app.cycles} cycles in one engine run" in out


def test_conjugate_gradient():
    out = run_example("conjugate_gradient.py")
    assert "iterations" in out
    assert "gemv" in out
    # converged to a small residual
    assert "e-0" in out


def test_faithful_order_floors():
    out = run_example("faithful_order_floors.py")
    for routine in ("dot", "axpy", "gemv", "gemv^T", "ger", "request"):
        assert f"\n{routine} " in out
    # The script asserts byte equality itself before it prints this.
    assert "same bytes from both columns: yes" in out
