"""Exception hierarchy shared by all modules.

Every error the toolkit raises deliberately derives from QuenchBenchError so
the CLI can map it to a machine-readable error object and a nonzero exit code.
"""


class QuenchBenchError(Exception):
    """Base class for all toolkit errors."""


class InvalidLattice(QuenchBenchError):
    """Lattice dimensions or spacing are not physical."""


class CutoffTooSmall(QuenchBenchError):
    """Interaction cutoff below the lattice spacing would delete nearest-neighbor physics."""


class TooLargeForOracle(QuenchBenchError):
    """System size exceeds the dense-statevector limit."""


class MemoryBudgetExceeded(QuenchBenchError):
    """Estimated memory for a run exceeds the configured budget."""


class NotEnoughAtoms(QuenchBenchError):
    """Loaded atoms cannot fill the register."""


class InvalidCounts(QuenchBenchError):
    """Rearrangement event counts are inconsistent (e.g. negative exponent)."""


class InvalidPrecision(QuenchBenchError):
    """Precision target alpha must be positive."""


class Unsatisfiable(QuenchBenchError):
    """No attempt count can reach the requested usable-shot target."""


class UnderdeterminedFit(QuenchBenchError):
    """Timing samples do not determine the scaling-law coefficients."""


class InvalidScale(QuenchBenchError):
    """Energy scale for relative drift must be positive."""


class InvalidConfig(QuenchBenchError, ValueError):
    """A config value, CLI flag or function argument is malformed or out of range."""
