"""Lint and resource-fit passes over codegen routine specifications.

:class:`~repro.codegen.spec.RoutineSpec` already rejects *malformed*
specifications at parse time; these passes catch the next tier — specs
that parse fine but synthesize badly (FB2xx) or do not fit the target
device at all (FB1xx, checked against the Table II catalogs in
:mod:`repro.fpga.device` via the Table I/III calibration in
:mod:`repro.fpga.resources`).

``ctx`` keys consulted:

``device``
    A :class:`~repro.fpga.device.FpgaDevice`; without one the resource
    passes are skipped and only the device-independent lint runs.
"""

from __future__ import annotations

from typing import Iterable

from ..blas.routines import info
from ..fpga.resources import (
    ResourceUsage,
    gemm_systolic_resources,
    interface_module_resources,
    level1_resources,
    level2_resources,
)
from .diagnostics import Diagnostic, Severity
from .passes import register

#: Utilization above which FB102 warns (routing congestion derates
#: frequency well before 100%, see FrequencyModel).
HIGH_UTILIZATION = 0.85


def estimate_spec_resources(spec, device=None) -> ResourceUsage:
    """Resource estimate for one routine spec plus its DRAM interfaces."""
    ri = info(spec.blas_name)
    if ri.level == 1:
        usage = level1_resources(ri.inner_class, spec.width, spec.precision,
                                 include_overhead=True, device=device)
    elif spec.blas_name == "gemm" and spec.systolic_rows:
        usage = gemm_systolic_resources(
            spec.systolic_rows, spec.systolic_cols,
            spec.tile_n_size or spec.systolic_rows,
            spec.tile_m_size or spec.systolic_cols,
            spec.precision, device=device)
    else:
        tile = max(spec.tile_n_size, spec.tile_m_size)
        usage = level2_resources(spec.width, tile, spec.precision,
                                 device=device)
    ports = len(ri.inputs) + len(ri.outputs)
    return usage + interface_module_resources().scaled(ports)


@register("spec", "lint")
def check_spec_lint(specs, ctx) -> Iterable[Diagnostic]:
    """FB201/FB202: non-functional parameters that synthesize badly."""
    for spec in specs:
        if spec.width & (spec.width - 1):
            yield Diagnostic(
                "FB201", Severity.WARNING,
                f"{spec.user_name}: vectorization width {spec.width} is "
                "not a power of two; memory coalescing and the reduction "
                "tree both degrade",
                obj=spec.user_name,
                fix=f"use width {1 << (spec.width.bit_length() - 1)} or "
                    f"{1 << spec.width.bit_length()}")
        if spec.tiled and (spec.tile_n_size % spec.width
                           or spec.tile_m_size % spec.width):
            yield Diagnostic(
                "FB202", Severity.ERROR,
                f"{spec.user_name}: tile sizes "
                f"{spec.tile_n_size}x{spec.tile_m_size} are not multiples "
                f"of the vectorization width {spec.width}; the streaming "
                "inner loop cannot consume a tile row in whole batches",
                obj=spec.user_name,
                fix="pick tile sizes divisible by the width (or shrink "
                    "the width)")


@register("spec", "resources")
def check_resource_fit(specs, ctx) -> Iterable[Diagnostic]:
    """FB100..FB103: will the requested modules fit the device?"""
    device = ctx.get("device")
    if device is None:
        return
    total = ResourceUsage(0, 0, 0, 0)
    for spec in specs:
        usage = estimate_spec_resources(spec, device)
        total = total + usage
        yield Diagnostic(
            "FB100", Severity.INFO,
            f"{spec.user_name}: ~{usage.luts} LUT, {usage.ffs} FF, "
            f"{usage.m20ks} M20K, {usage.dsps} DSP on {device.name}",
            obj=spec.user_name)
        if spec.precision == "double" and not device.hardened_double:
            yield Diagnostic(
                "FB103", Severity.INFO,
                f"{spec.user_name}: {device.name} has no hardened "
                "double-precision DSPs; the datapath is emulated at "
                "roughly 4 DSPs and 10x the soft logic per lane",
                obj=spec.user_name)
    util = total.utilization(device)
    budget = device.available
    detail = (f"{total.alms}/{budget.alms} ALM, {total.ffs}/{budget.ffs} "
              f"FF, {total.m20ks}/{budget.m20ks} M20K, "
              f"{total.dsps}/{budget.dsps} DSP")
    if util > 1.0:
        yield Diagnostic(
            "FB101", Severity.ERROR,
            f"the {len(list(specs))} requested module(s) need "
            f"{util:.0%} of {device.name}'s busiest resource "
            f"({detail}); the design cannot place",
            obj=device.name,
            fix="reduce widths/tile sizes/systolic grid, drop routines, "
                "or target a larger device")
    elif util > HIGH_UTILIZATION:
        yield Diagnostic(
            "FB102", Severity.WARNING,
            f"estimated utilization {util:.0%} of {device.name} "
            f"({detail}); timing closure will derate the clock",
            obj=device.name)
