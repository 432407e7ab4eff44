"""Shared error types and the explicit "undecided" result."""

from dataclasses import dataclass


class FormatError(ValueError):
    """Malformed textual input (unknown generator, bad file syntax, ...)."""


class DomainError(ValueError):
    """Structurally valid input outside an operation's stated domain."""


class ResourceError(RuntimeError):
    """A configured search or state budget was exceeded.

    The message names the bound that was hit.
    """


@dataclass(frozen=True)
class Undecided:
    """Honest non-answer: the bounded search neither proved nor refuted."""

    reason: str

    def __bool__(self):
        return False
