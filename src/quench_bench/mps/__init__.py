"""Matrix-product-state machinery: long-range MPO, TDVP, memory model."""

from .memory import MemoryBreakdown, memory_estimate
from .mpo import MpoHamiltonian, build_mpo
from .state import MpsState, site_expectations
from .evolve import TdvpEngine, TdvpStepRecord, benchmark_steps, run_quench

__all__ = [
    "MemoryBreakdown",
    "MpoHamiltonian",
    "MpsState",
    "TdvpEngine",
    "TdvpStepRecord",
    "benchmark_steps",
    "build_mpo",
    "memory_estimate",
    "run_quench",
    "site_expectations",
]
