"""Shared exception types."""


class UfdlabError(Exception):
    """Base class for all library errors."""


class HypothesisError(UfdlabError):
    """A mathematical precondition of an operation is violated.  `param`, when
    the checker knows it, is the claim-facing name of the argument that
    breaks the rule, so the claim runner can name that parameter."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


class CapExceeded(UfdlabError):
    """An instance exceeds the configured size caps ("instance too large")."""


def too_large(site: str, cap: str, limit: int, size: int) -> CapExceeded:
    """The error for a cap hit: which function, which cap, its limit and the
    size that went over it."""
    return CapExceeded(f"instance too large: {site} reached {cap} {size}, "
                       f"over the {cap} cap of {limit}")
