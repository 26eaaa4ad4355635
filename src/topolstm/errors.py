"""Exception types shared across the package.

A refusal raises ``ValueError`` for an invalid argument or configuration,
or one of the four ``TopoLstmError`` subclasses below; the CLI maps each of
these five to an exit code (README, "Exit codes").
"""


class TopoLstmError(Exception):
    """Base class for all package-specific errors."""


class DataError(TopoLstmError):
    """Malformed or inconsistent input data (graph files, cascade files)."""


class NumericError(TopoLstmError):
    """Non-finite value encountered where finite math is required."""


class DivergenceError(TopoLstmError):
    """Training diverged: a non-finite loss, probability, cell state or
    parameter, or a finite blow-up (a batch loss far above uniform guessing)."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CheckpointError(TopoLstmError):
    """Checkpoint file is corrupt or does not match the supplied graph/config."""
