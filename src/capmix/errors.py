"""Exception types used across the package.

Everything derives from CapmixError so callers can catch broadly; the CLI
maps subfamilies onto distinct exit codes.
"""


class CapmixError(Exception):
    """Base class for all package-specific errors."""


class ArgumentError(CapmixError, ValueError):
    """Malformed argument (wrong shape, non-positive count, bad enum value)."""


class DomainError(CapmixError, ValueError):
    """State outside the open admissible set (saturations must stay in (0,1))."""


class RootFindError(CapmixError, ArithmeticError):
    """Scalar root-finding failed to reach tolerance within its budget."""


class AssemblyError(CapmixError, ArithmeticError):
    """Assembly at an iterate failed: its state recovery was refused or a
    frozen coefficient evaluated to a non-finite value."""


class LinearSolveError(CapmixError, ArithmeticError):
    """Linear solve singular, non-finite, or above its backward error bound."""


class FixedPointError(CapmixError, ArithmeticError):
    """Picard/homotopy iteration for one time step failed to converge.

    Raised by a step, it carries the last rung's ``sigma``, its
    ``residual`` (inf when no evaluation was accepted) and the count of
    ``refused`` trial evaluations.  ``run_simulation`` re-raises it, and a
    step's AssemblyError or LinearSolveError, with ``step`` and ``time``
    added.
    """


class EntropyViolationError(CapmixError, RuntimeError):
    """Strict mode: a time step violated the discrete entropy inequality."""


class PreconditionError(CapmixError, ValueError):
    """Simulation input violates a documented precondition."""


class ConfigParseError(CapmixError, ValueError):
    """Config file is syntactically malformed (the message names the line)."""


class ConfigValidationError(CapmixError, ValueError):
    """Config parsed but the resulting parameters are inadmissible."""


class OutputError(CapmixError, OSError):
    """Output directory is not writable or an artifact could not be written."""
