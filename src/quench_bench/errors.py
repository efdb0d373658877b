"""Exception hierarchy shared by all modules.

Every deliberate raise in the toolkit is a QuenchBenchError subclass, so the
CLI can map it to a machine-readable error object and a nonzero exit code.
Any malformed or out-of-range value is an InvalidConfig; the other four
types name an outcome a caller handles differently.
"""


class QuenchBenchError(Exception):
    """Base class for all toolkit errors."""


class InvalidConfig(QuenchBenchError, ValueError):
    """A config value, CLI flag or function argument is malformed or out of range."""


class TooLargeForOracle(QuenchBenchError):
    """System size exceeds the dense-statevector limit."""


class MemoryBudgetExceeded(QuenchBenchError):
    """Estimated memory for a run exceeds the configured budget."""


class Unsatisfiable(QuenchBenchError):
    """No attempt count can reach the requested usable-shot target."""


class UnderdeterminedFit(QuenchBenchError):
    """Timing samples do not determine the scaling-law coefficients."""
