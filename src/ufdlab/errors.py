"""Shared exception types."""


class UfdlabError(Exception):
    """Base class for all library errors."""


class HypothesisError(UfdlabError):
    """A mathematical precondition of an operation is violated."""


class CapExceeded(UfdlabError):
    """An instance exceeds the configured size caps ("instance too large")."""


def too_large(site: str, cap: str, limit: int, size: int) -> CapExceeded:
    """The error for a cap hit: which function, which cap, its limit and the
    size that went over it."""
    return CapExceeded(f"instance too large: {site} reached {cap} {size}, "
                       f"over the {cap} cap of {limit}")
