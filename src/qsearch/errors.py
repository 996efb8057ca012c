"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
validity refusals exit 3, numerical failures exit 4.
"""


class QSearchError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(QSearchError, ValueError):
    """A parameter is outside its documented domain."""


class OutOfRegimeError(InvalidParameterError):
    """A quantity was requested outside the regime where it is defined."""


class DenseLimitError(QSearchError):
    """A dense matrix was requested above the configured size limit."""


class ContractViolationError(QSearchError):
    """An input violates a structural precondition (e.g. not Hermitian)."""


class ValidityError(QSearchError):
    """A run's validity report fails (>= 1) the margin that its path relies on.

    The message names the margin; run and sweep take force=True, and the
    command line --force, to proceed anyway.
    """


class ConfigError(QSearchError, ValueError):
    """An experiment configuration document is malformed."""
