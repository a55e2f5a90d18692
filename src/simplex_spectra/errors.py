"""Exception types shared across the package."""

__all__ = ["ParameterError", "NumericError"]


class ParameterError(ValueError):
    """An argument lies outside an operation's documented domain."""


class NumericError(RuntimeError):
    """A numerical precondition failed; the message carries diagnostics."""

