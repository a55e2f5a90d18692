"""Exception types shared across the package."""

__all__ = ["ParameterError", "SingularityError", "NumericError"]


class ParameterError(ValueError):
    """An argument lies outside an operation's documented domain."""


class SingularityError(ValueError):
    """Evaluation was requested at a point where the quantity is singular."""


class NumericError(RuntimeError):
    """A numerical precondition failed; the message carries diagnostics."""

