"""Shared exception types.

The CLI maps these onto exit codes: parse/usage problems -> 2,
resource budget exhaustion -> 3. Everything else that reaches the
user is a verdict, not an exception.
"""


class PointdynError(Exception):
    """Base class for all package errors."""


class MalformedInputError(PointdynError):
    """Unparseable or structurally invalid input (exit code 2)."""


class PreconditionError(PointdynError):
    """An operation's stated precondition fails; message names it."""


class CarrierMismatchError(PreconditionError):
    """Two systems were expected to share a carrier and do not."""


class UnsupportedBackendError(PointdynError):
    """Operation not defined for this backend (message says which)."""


class ResourceBudgetError(PointdynError):
    """Enumeration or search exceeded its budget (exit code 3)."""

    def __init__(self, message: str, requested=None, budget=None):
        super().__init__(message)
        self.requested = requested
        self.budget = budget
