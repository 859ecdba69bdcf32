"""Exception taxonomy shared across the simulator and the CLI.

The CLI maps these onto process exit codes, so new error types should
subclass one of the categories below rather than raising bare ValueError
from library code that user input can reach.
"""


class CellshareError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CellshareError):
    """Invalid or unparsable run configuration (CLI exit code 1)."""


class ContractViolation(CellshareError):
    """An operation was called with arguments outside its contract.

    Covers index-out-of-range, dimension mismatches and similar misuse
    that indicates a programming error rather than bad user input.
    """


class MeasurementError(CellshareError):
    """The SINR-report measurement pipeline received an unusable report."""


class TrainingFault(CellshareError):
    """Training aborted (non-finite loss/reward). Carries partial results."""

    artifacts = None


class SearchSpaceError(CellshareError):
    """A brute-force search was asked to enumerate too large a space."""
