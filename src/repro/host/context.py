"""Host-side context: device selection, buffers, call records (Sec. II-B).

Following the OpenCL programming flow, the host programmer transfers data
to the device, invokes FBLAS routines on FPGA memory, and copies results
back.  :class:`FblasContext` owns the simulated board — a device from the
Table II catalog and its DRAM — plus the performance models that turn
simulated cycles into wall-clock estimates for the Sec. VI tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..fpga.device import STRATIX10, FpgaDevice, FrequencyModel, PowerModel
from ..fpga.memory import DramBuffer, DramModel
from ._validate import HostArgumentError, HostValueError


@dataclass
class CallRecord:
    """Accounting for one routine invocation."""

    routine: str
    precision: str
    cycles: int
    frequency: float
    io_elements: int
    flops: int
    mode: str                       # "simulate" or "model"
    power_watts: float = 0.0

    @property
    def seconds(self) -> float:
        return self.cycles / self.frequency

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9 if self.cycles else 0.0

    @property
    def energy_joules(self) -> float:
        """Board energy for the call (power model x modeled time)."""
        return self.power_watts * self.seconds


class FblasContext:
    """A simulated FPGA board bound to the host program.

    Parameters
    ----------
    device:
        Board from :data:`repro.fpga.device.DEVICES` (default Stratix 10).
    frequency:
        Clock the designs are assumed to close at; ``None`` uses the
        per-routine-class calibration of :class:`FrequencyModel`.
    interleaving:
        Whether DRAM buffers stripe across banks.  The Stratix BSP of the
        paper has this *disabled*, which is the default here too.
    default_width / default_tile:
        Non-functional parameters applied when a call does not override
        them (Sec. II-C).
    """

    def __init__(self, device: FpgaDevice = STRATIX10,
                 frequency: Optional[float] = None,
                 interleaving: bool = False,
                 default_width: int = 16,
                 default_tile: int = 256):
        if default_width < 1 or default_tile < 1:
            raise HostValueError("width and tile defaults must be positive")
        self.device = device
        self.interleaving = interleaving
        self.default_width = default_width
        self.default_tile = default_tile
        self._freq_model = FrequencyModel(device)
        self._power_model = PowerModel(device)
        self._fixed_frequency = frequency
        f = frequency or self._freq_model.estimate("level1")
        self.mem = DramModel(
            num_banks=device.dram_banks,
            bytes_per_cycle=device.bytes_per_cycle(f),
            interleaving=interleaving,
            device=device.name)
        self.records: List[CallRecord] = []
        self._buffer_seq = 0

    # -- data movement --------------------------------------------------------
    def copy_to_device(self, array: np.ndarray, name: Optional[str] = None,
                       bank: Optional[int] = None) -> DramBuffer:
        """Transfer a host array into device DRAM."""
        array = np.asarray(array)
        if array.dtype not in (np.float32, np.float64):
            raise HostArgumentError(
                f"FBLAS buffers are float32/float64, got {array.dtype}")
        if name is None:
            name = f"buf{self._buffer_seq}"
            self._buffer_seq += 1
        return self.mem.bind(name, array, bank)

    def allocate(self, shape, dtype=np.float32, name: Optional[str] = None,
                 bank: Optional[int] = None) -> DramBuffer:
        """Allocate a zeroed device buffer."""
        if name is None:
            name = f"buf{self._buffer_seq}"
            self._buffer_seq += 1
        return self.mem.allocate(name, shape, dtype, bank)

    def free_name(self, base: str) -> str:
        """``base`` while no bound buffer has that name, else ``base.N``
        for the first free ``N`` — for callers that bind a buffer of
        their own on every call (the Sec. V applications' outputs)."""
        name, n = base, 0
        while name in self.mem.buffers:
            n += 1
            name = f"{base}.{n}"
        return name

    def copy_from_device(self, buf: DramBuffer) -> np.ndarray:
        """Transfer a device buffer back to the host."""
        return np.array(buf.data, copy=True)

    # -- modelling --------------------------------------------------------------
    def frequency_for(self, routine_class: str, precision: str) -> float:
        if self._fixed_frequency is not None:
            return self._fixed_frequency
        return self._freq_model.estimate(routine_class, precision)

    def record(self, rec: CallRecord) -> CallRecord:
        rec.power_watts = self._power_model.estimate(0.3)
        self.records.append(rec)
        return rec

    @property
    def last_record(self) -> CallRecord:
        if not self.records:
            raise RuntimeError("no routine has been invoked yet")
        return self.records[-1]

    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def reset_records(self) -> None:
        self.records.clear()
