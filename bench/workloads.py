"""The five workloads: what one request is, and how its result is checked.

A request is a fixed script of :class:`Call`\\ s into the program's public
API.  Each call is timed on its own; ``prepare`` steps (restoring an
in-place buffer, building a fresh context) run untimed just before the
call so that every request sees identical bytes.  Inputs come from the
seed here and reach the program only as arrays.

All workloads are float32 on the default Stratix 10 device.  The sizes
and why they were picked are in ``bench/README.md``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.apps import (AppResult, atax_reference, atax_streaming,
                        axpydot_reference, axpydot_streaming, bicg_reference,
                        bicg_streaming, gemver_reference, gemver_streaming)
from repro.blas import reference
from repro.host import Fblas, FblasContext
from repro.models import iomodel
from repro.models.performance import gemv_cycles, level1_cycles
from repro.service import AppJob, RoutineJob, SimulationService

F32 = np.float32


class Call(NamedTuple):
    """One timed call of a request."""

    name: str                                   # span name, e.g. "host.dot"
    layer: str                                  # src/repro package entered
    run: Callable[[], object]
    prepare: Optional[Callable[[], None]] = None


class Workload:
    """Inputs from a seed, a request script, and the means to check it."""

    name = ""
    #: Requests per block.  Fixed counts, never time-boxed loops: the
    #: amount of work (hence peak RSS) must not depend on machine speed.
    block = 1
    #: User-visible requests one run of the script serves.
    jobs = 1

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.rng = np.random.default_rng(seed)
        if quick:
            self.block = max(1, self.block // 8)
        self.script: List[Call] = []

    def vec(self, *shape: int) -> np.ndarray:
        return self.rng.standard_normal(shape).astype(F32)

    def setup(self) -> None:
        """Construct the program objects and move operands to the device."""
        raise NotImplementedError

    @contextmanager
    def block_scope(self) -> Iterator[None]:
        """Entered around every block of requests."""
        yield

    def operands(self) -> List[np.ndarray]:
        """Host arrays one request marshals to the device."""
        raise NotImplementedError

    def reference(self) -> list:
        """Expected results of one request, in script order."""
        raise NotImplementedError

    def cycle_pairs(self, outs: list) -> List[Tuple[int, int]]:
        """``(simulated, closed-form)`` cycles per call of the request
        that just returned ``outs``."""
        raise NotImplementedError

    def restart(self) -> None:
        """Recreate any threads the program runs (the counted passes need
        threads born after their hooks are installed)."""

    def close(self) -> None:
        pass


def flatten(out) -> List[np.ndarray]:
    """A request's results as a flat list of arrays."""
    if out is None:
        return []
    if isinstance(out, AppResult):
        out = out.value
    if isinstance(out, (tuple, list)):
        return [a for o in out for a in flatten(o)]
    return [np.asarray(out)]


class SmallRepeatCertified(Workload):
    """Repeat certified DOT on resident buffers: all overhead, no work."""

    name = "small_repeat_certified"
    block = 1024
    n, width = 4096, 8

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.x, self.y = self.vec(self.n), self.vec(self.n)

    def setup(self) -> None:
        self.fb = Fblas(width=self.width, engine_mode="certified")
        dx = self.fb.copy_to_device(self.x)
        dy = self.fb.copy_to_device(self.y)
        self.script = [Call("host.dot", "host", lambda: self.fb.dot(dx, dy))]

    @contextmanager
    def block_scope(self) -> Iterator[None]:
        # FblasContext.records gains one CallRecord per call and is never
        # trimmed by the program; left alone it drifts peak RSS upward.
        self.fb.context.reset_records()
        yield

    def operands(self) -> List[np.ndarray]:
        return [self.x, self.y]

    def reference(self) -> list:
        return [reference.dot(self.x, self.y)]

    def cycle_pairs(self, outs: list) -> List[Tuple[int, int]]:
        return [(self.fb.records[-1].cycles,
                 level1_cycles("dot", self.n, self.width))]


class SmallRepeatObserved(SmallRepeatCertified):
    """The same request watched by a full telemetry session."""

    name = "small_repeat_observed"
    block = 24

    @contextmanager
    def block_scope(self) -> Iterator[None]:
        self.fb.context.reset_records()
        # A session accumulates runs and slices for as long as it lives;
        # a fresh one per block keeps every block the same size.
        with telemetry.session():
            yield


class StreamCertified(Workload):
    """Large certified DOT, in-place AXPY and in-place GEMV."""

    name = "stream_certified"
    block = 8
    # Width 4, not 8: an in-place map at width 8 needs 64 B/cycle on one
    # bank and fails FB402 (the bank budget is 53 B/cycle).
    width, tile = 4, 512
    n_dot, n_axpy, n_gemv = 1 << 20, 1 << 19, 512
    alpha, beta = 0.5, 0.25

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.dot_x, self.dot_y = self.vec(self.n_dot), self.vec(self.n_dot)
        self.axpy_x, self.axpy_y = self.vec(self.n_axpy), self.vec(self.n_axpy)
        self.a = self.vec(self.n_gemv, self.n_gemv)
        self.gemv_x, self.gemv_y = self.vec(self.n_gemv), self.vec(self.n_gemv)

    def setup(self) -> None:
        fb = self.fb = Fblas(width=self.width, engine_mode="certified",
                             tile=self.tile)
        dx = fb.copy_to_device(self.dot_x, bank=0)
        dy = fb.copy_to_device(self.dot_y, bank=1)
        ax = fb.copy_to_device(self.axpy_x, bank=2)
        ay = fb.copy_to_device(self.axpy_y.copy(), bank=3)
        ga = fb.copy_to_device(self.a, bank=0)
        gx = fb.copy_to_device(self.gemv_x, bank=1)
        gy = fb.copy_to_device(self.gemv_y.copy(), bank=2)

        def restore_axpy() -> None:
            ay.data[...] = self.axpy_y

        def restore_gemv() -> None:
            gy.data[...] = self.gemv_y

        self.script = [
            Call("host.dot", "host", lambda: fb.dot(dx, dy)),
            Call("host.axpy", "host", lambda: fb.axpy(self.alpha, ax, ay),
                 prepare=restore_axpy),
            Call("host.gemv", "host",
                 lambda: fb.gemv(self.alpha, ga, gx, self.beta, gy),
                 prepare=restore_gemv),
        ]

    @contextmanager
    def block_scope(self) -> Iterator[None]:
        self.fb.context.reset_records()     # see SmallRepeatCertified
        yield

    def operands(self) -> List[np.ndarray]:
        return [self.dot_x, self.dot_y, self.axpy_x, self.axpy_y, self.a,
                self.gemv_x, self.gemv_y]

    def reference(self) -> list:
        return [reference.dot(self.dot_x, self.dot_y),
                reference.axpy(self.alpha, self.axpy_x, self.axpy_y),
                reference.gemv(self.alpha, self.a, self.gemv_x, self.beta,
                               self.gemv_y)]

    def cycle_pairs(self, outs: list) -> List[Tuple[int, int]]:
        dot, axpy, gemv = self.fb.records[-3:]
        return [(dot.cycles, level1_cycles("dot", self.n_dot, self.width)),
                (axpy.cycles, level1_cycles("axpy", self.n_axpy, self.width)),
                (gemv.cycles,
                 gemv_cycles(self.n_gemv, self.n_gemv, self.width))]


class AppsEvent(Workload):
    """The four Sec. V streaming applications on the event tier."""

    name = "apps_event"
    block = 12
    n_vec, w_vec = 512, 8
    n_mat, w_mat, tile = 32, 4, 8
    alpha, beta = 0.7, 0.3

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.wvu = [self.vec(self.n_vec) for _ in range(3)]
        self.a = self.vec(self.n_mat, self.n_mat)
        self.atax_x = self.vec(self.n_mat)
        self.bicg_pr = [self.vec(self.n_mat) for _ in range(2)]
        self.gemver_v = [self.vec(self.n_mat) for _ in range(6)]

    def setup(self) -> None:
        # The apps bind fixed buffer names (``atax_y`` ...), so a context
        # cannot be reused: each call gets a fresh one, built untimed.
        def fresh(*arrays: np.ndarray) -> Callable[[], None]:
            def prepare() -> None:
                self.ctx = FblasContext()
                self.bufs = [self.ctx.copy_to_device(a) for a in arrays]
            return prepare

        self.script = [
            Call("apps.axpydot", "apps",
                 lambda: axpydot_streaming(self.ctx, *self.bufs, self.alpha,
                                           width=self.w_vec),
                 prepare=fresh(*self.wvu)),
            Call("apps.atax", "apps",
                 lambda: atax_streaming(self.ctx, *self.bufs, tile=self.tile,
                                        width=self.w_mat),
                 prepare=fresh(self.a, self.atax_x)),
            Call("apps.bicg", "apps",
                 lambda: bicg_streaming(self.ctx, *self.bufs, tile=self.tile,
                                        width=self.w_mat),
                 prepare=fresh(self.a, *self.bicg_pr)),
            Call("apps.gemver", "apps",
                 lambda: gemver_streaming(self.ctx, *self.bufs, self.alpha,
                                          self.beta, tile=self.tile,
                                          width=self.w_mat),
                 prepare=fresh(self.a, *self.gemver_v)),
        ]

    def operands(self) -> List[np.ndarray]:
        return [*self.wvu, self.a, self.atax_x, self.a, *self.bicg_pr,
                self.a, *self.gemver_v]

    def reference(self) -> list:
        return [axpydot_reference(*self.wvu, self.alpha),
                atax_reference(self.a, self.atax_x),
                bicg_reference(self.a, *self.bicg_pr),
                gemver_reference(self.a, *self.gemver_v, self.alpha,
                                 self.beta)]

    def cycle_pairs(self, outs: list) -> List[Tuple[int, int]]:
        n, w = self.n_mat, self.w_mat
        models = [
            iomodel.axpydot(self.n_vec, width=self.w_vec).streaming_cycles,
            # The repo has no composition cycle model for ATAX; it is two
            # dependent GEMV passes over A.
            2 * gemv_cycles(n, n, w),
            iomodel.bicg(n, n, width=w).streaming_cycles,
            iomodel.gemver(n, width=w).streaming_cycles,
        ]
        return [(out.cycles, model) for out, model in zip(outs, models)]


class ServiceBurst(Workload):
    """Bursts of 16 small DOTs through the service, fused into one run."""

    name = "service_burst"
    block = 256
    jobs = 16
    n, width = 256, 8

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.pairs = [(self.vec(self.n), self.vec(self.n))
                      for _ in range(self.jobs)]
        self.bursts = 0

    def service(self) -> SimulationService:
        return SimulationService(workers=1, engine_mode="certified",
                                 width=self.width, max_batch=self.jobs)

    def setup(self) -> None:
        self.svc = self.service()
        self.script = [
            Call("service.submit", "service", self._submit,
                 prepare=self._park),
            Call("service.drain", "service", self._drain),
        ]

    def _park(self) -> None:
        # An ungated burst fuses by thread timing (the worker starts
        # draining while the caller is still submitting).  Parking the one
        # worker on a gate job makes every burst exactly one fused run.
        started, self.gate = threading.Event(), threading.Event()

        def hold(mode: str) -> None:
            started.set()
            self.gate.wait(60)

        self.svc.submit(AppJob(hold, name="gate"))
        if not started.wait(60):
            raise RuntimeError("service worker never picked up the gate job")

    def _submit(self) -> None:
        self.tickets = [self.svc.submit(RoutineJob("dot", pair))
                        for pair in self.pairs]

    def _drain(self) -> list:
        self.gate.set()
        self.bursts += 1
        return [t.result(60) for t in self.tickets]

    def fused_share(self) -> float:
        """Jobs that ran fused over jobs submitted (gate jobs excluded)."""
        stats = self.svc.stats()
        return stats["fused_jobs"] / (stats["submitted"] - self.bursts)

    def operands(self) -> List[np.ndarray]:
        return [a for pair in self.pairs for a in pair]

    def reference(self) -> list:
        return [None, [reference.dot(x, y) for x, y in self.pairs]]

    def cycle_pairs(self, outs: list) -> List[Tuple[int, int]]:
        # The service records no cycles without a telemetry session; a
        # ledger-lite one (no observers, so the certified tier stays
        # engaged) on a throwaway service reads them from the run ledger.
        live, bursts = self.svc, self.bursts
        try:
            with telemetry.session(metrics=False, kernel_slices=False,
                                   occupancy=False) as tel:
                self.svc = self.service()
                try:
                    self._park()
                    self._submit()
                    self._drain()
                finally:
                    self.svc.close()
        finally:
            self.svc, self.bursts = live, bursts
        cycles = sum(r.cycles for r in tel.ledger.records()
                     if r.kind == "engine.run")
        return [(cycles, level1_cycles("dot", self.jobs * self.n, self.width))]

    def restart(self) -> None:
        self.svc.close()
        self.svc = self.service()
        self.bursts = 0

    def close(self) -> None:
        self.svc.close()


WORKLOADS = {cls.name: cls for cls in (
    SmallRepeatCertified, StreamCertified, AppsEvent, SmallRepeatObserved,
    ServiceBurst)}
