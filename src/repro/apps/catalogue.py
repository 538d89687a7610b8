"""The Sec. V application catalogue: how every app is described and run.

Each app module describes its composition once: an MDAG builder (the
graph ``python -m repro.analysis --app`` analyzes) and a *binder* that
binds that graph on a context's DRAM and buffers.  A binder returns
``(stages, value)``: the stages, each a ``(BoundMDAG, options)`` pair
built lazily in run order (``options`` go to
:func:`repro.streaming.execute_plan`), and a function reading the app's
value out of its output buffers.  :func:`streamed` turns a binder into
the app's entry point, which runs every stage through ``execute_plan``;
no app wires an engine by hand.

Compiled plans and certificates live in two process-wide caches,
:data:`PLANS` and :data:`CERTIFICATES`.  A caller typically gives each
app call a fresh :class:`~repro.host.FblasContext`, so a per-context
cache would miss on every call; process-wide, a shape plans and
certifies once.  :class:`~repro.plan.PlanCache` is thread-safe, so
service workers share them too.

:data:`repro.apps.APPS` lists the four apps, one :class:`AppSpec` each;
the fault campaign, the drift sweep, ``python -m repro.telemetry`` and
``python -m repro.analysis --app`` iterate it and keep only what is
theirs (trial classification, closed-form models, rate passes).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence, Tuple

import networkx as nx
import numpy as np

from ..host.api import Fblas
from ..host.context import FblasContext
from ..plan import PlanCache
from ..streaming import MDAG, BoundMDAG, execute_plan
from ..telemetry.runtime import span as _telemetry_span

#: Compiled plans of every app stage, keyed by MDAG structure.
PLANS = PlanCache(name="apps.plan")
#: Certificates (and refusals) of the certified and bulk app stages.
CERTIFICATES = PlanCache(name="apps.schedule")

#: Schema tag of :meth:`AppResult.to_dict` documents.
APP_RESULT_SCHEMA = "repro.appresult/1"


def _jsonify(v):
    """Convert an app result value to plain JSON-able Python."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (tuple, list)):
        return [_jsonify(x) for x in v]
    return v


@dataclass
class AppResult:
    """Outcome of one application run."""

    value: object
    cycles: int
    io_elements: int
    seconds: float
    #: Total live kernel-cycles simulated (streaming versions only).
    kernel_steps: int = 0

    def to_dict(self, include_value: bool = True) -> dict:
        """JSON-able form (schema ``repro.appresult/1``).

        The accounting keys (``cycles``, ``kernel_steps``) use the same
        names as :meth:`repro.fpga.engine.SimReport.to_dict` and the
        benchmark baselines, so artifacts agree on vocabulary.  Numpy
        values are converted to plain lists/floats.
        """
        d = {
            "schema": APP_RESULT_SCHEMA,
            "cycles": self.cycles,
            "io_elements": self.io_elements,
            "seconds": self.seconds,
            "kernel_steps": self.kernel_steps,
        }
        if include_value:
            d["value"] = _jsonify(self.value)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AppResult":
        """Inverse of :meth:`to_dict` (values stay plain Python)."""
        return cls(value=d.get("value"), cycles=d["cycles"],
                   io_elements=d["io_elements"], seconds=d["seconds"],
                   kernel_steps=d.get("kernel_steps", 0))


@contextlib.contextmanager
def releasing(mem) -> Iterator[None]:
    """Release every buffer bound on ``mem`` inside the block when it
    ends — also when it raises — so a reused context holds only its
    caller's buffers between app calls."""
    bound = len(mem.buffers)
    try:
        yield
    finally:
        for name in list(mem.buffers)[bound:]:
            mem.release(name)


def precision_of(buf) -> str:
    """``"single"`` or ``"double"``: the precision of a device buffer."""
    return "single" if buf.data.dtype == np.float32 else "double"


def host_app(body):
    """``body(fb, ...)`` makes host calls and returns the app's value;
    the decorated call returns its :class:`AppResult`: cycles and seconds
    sum the call records, I/O is the DRAM traffic delta (the records'
    own totals outside ``"simulate"`` mode).  Host routines return
    copies, so the buffers the body allocates are released with it."""
    @functools.wraps(body)
    def run(fb: Fblas, *args, **kwargs) -> AppResult:
        start = len(fb.records)
        mem = fb.context.mem
        io_before = mem.total_elements_moved
        with releasing(mem):
            value = body(fb, *args, **kwargs)
            recs = fb.records[start:]
            io = (mem.total_elements_moved - io_before
                  if fb.mode == "simulate"
                  else sum(r.io_elements for r in recs))
        return AppResult(value, sum(r.cycles for r in recs), io,
                         sum(r.seconds for r in recs))
    return run


def mdag(nodes: str, edges) -> BoundMDAG:
    """An unbound graph: its node names in kernel registration order (a
    ``read_`` / ``write_`` name is an interface, any other a module) and
    its edges ``(src, dst, signature, depth)``, each end ``node`` or
    ``node.port`` (ports default to ``out`` / ``in``)."""
    g = BoundMDAG()
    for node in dict.fromkeys(nodes.split()):
        if node.startswith(("read_", "write_")):
            g.add_interface(node)
        else:
            g.add_module(node)
    for src, dst, sig, depth in edges:
        (u, _, out), (v, _, inp) = src.partition("."), dst.partition(".")
        g.connect(u, v, sig, sig, depth, out or "out", inp or "in")
    return g


@functools.lru_cache(maxsize=64)
def _structure(builder, *args) -> BoundMDAG:
    g = builder(*args)
    nx.freeze(g.graph)
    return g


def bound_graph(builder, *args) -> BoundMDAG:
    """A :class:`BoundMDAG` to bind, over ``builder(*args)``'s graph.

    The graph is built once per shape and shared, frozen: binders only
    add bindings, so an app call does not pay a networkx graph (about
    10 kB and a few hundred calls per stage) for a shape it has run
    before.
    """
    g = BoundMDAG()
    g.graph = _structure(builder, *args).graph
    return g


def run_app(ctx: FblasContext, name: str, routine_class: str,
            binder: Callable[..., Any], *args, mode: str = "event",
            **sizes) -> AppResult:
    """Bind app ``name`` on ``ctx`` and run its stages in order.

    Cycles and kernel steps sum the stages' reports, I/O is the DRAM
    delta, and seconds use ``routine_class``'s modeled frequency.  The
    buffers the binder binds are released once the value is copied out
    and the I/O counted.
    """
    mem = ctx.mem
    io_before = mem.total_elements_moved
    cycles = steps = 0
    with releasing(mem), _telemetry_span(f"app.{name}", cat="app",
                                         mode=mode, **sizes):
        stages, value = binder(ctx, *args, **sizes)
        for g, options in stages:
            for report in execute_plan(
                    g, mem, mode=mode, plan_cache=PLANS,
                    schedule_cache=CERTIFICATES, **options).reports:
                cycles += report.cycles
                steps += report.kernel_steps
            del g           # the next stage is bound without this one
        value = value()
        io = mem.total_elements_moved - io_before
    return AppResult(
        value, cycles, io,
        cycles / ctx.frequency_for(routine_class, precision_of(args[0])),
        kernel_steps=steps)


def streamed(routine_class: str):
    """Make a binder ``f(ctx, *operands, **sizes) -> (stages, value)``
    the app's streamed entry point ``f(ctx, *operands, mode="event",
    **sizes) -> AppResult`` (:func:`run_app`); ``f.bind`` is the binder.
    """
    def decorate(binder):
        name = binder.__name__.removesuffix("_streaming")

        @functools.wraps(binder)
        def run(ctx: FblasContext, *args, mode: str = "event",
                **sizes) -> AppResult:
            return run_app(ctx, name, routine_class, binder, *args,
                           mode=mode, **sizes)
        run.bind = binder
        return run
    return decorate


@dataclass(frozen=True)
class AppSpec:
    """One Sec. V application, as every consumer of the catalogue sees it."""

    name: str
    #: ``(name, rank)`` of each array operand, in call order: rank 2 is
    #: an ``n x n`` matrix, rank 1 a length-``n`` vector.
    operands: Tuple[Tuple[str, int], ...]
    #: The scalars after the arrays, in call order.
    scalars: Tuple[float, ...]
    #: The streamed entry point; ``streaming.bind`` is its binder.
    streaming: Callable[..., AppResult]
    #: ``reference(*arrays, *scalars)``: the ground truth.
    reference: Callable[..., Any]
    #: The MDAG ``python -m repro.analysis --app`` analyzes.
    mdag: Callable[[], MDAG]
    #: ``python -m repro.telemetry``'s default problem size and width.
    n: int
    width: int

    @property
    def bind(self) -> Callable[..., Any]:
        """``bind(ctx, *buffers, *scalars, width=..[, tile=..])``: the
        ``(stages, value)`` the streamed entry point runs."""
        return self.streaming.bind

    def draw(self, rng: np.random.Generator,
             n: int) -> Tuple[np.ndarray, ...]:
        """Standard-normal float32 operands of size ``n``, in call order."""
        return tuple(rng.standard_normal((n,) * rank).astype(np.float32)
                     for _name, rank in self.operands)

    def run(self, ctx: FblasContext, arrays: Sequence[np.ndarray],
            width: int, tile: int, mode: str = "event") -> AppResult:
        """Bind ``arrays`` on ``ctx`` by operand name (a free variant when
        taken), in argument order, and run the streaming composition;
        ``tile`` only reaches the ones that stream a matrix."""
        bufs = [ctx.copy_to_device(a, name=ctx.free_name(name))
                for (name, _rank), a in zip(self.operands, arrays)]
        sizes = {"width": width}
        if any(rank == 2 for _name, rank in self.operands):
            sizes["tile"] = tile
        return self.streaming(ctx, *bufs, *self.scalars, mode=mode,
                              **sizes)


def positive_int(text: str) -> int:
    """Argparse type of the app CLIs' size flags: an int >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)
