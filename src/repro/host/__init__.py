"""Host API: BLAS-style calls executed on the simulated FPGA."""

from .api import Fblas, Handle, HostArgumentError, HostValueError
from .context import CallRecord, FblasContext
from . import orders

__all__ = ["CallRecord", "Fblas", "FblasContext", "Handle",
           "HostArgumentError", "HostValueError", "orders"]
