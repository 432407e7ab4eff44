"""Shared error types."""


class FormatError(ValueError):
    """Malformed textual input (unknown generator, bad file syntax, ...)."""


def parse_int(text: str, what: str) -> int:
    """The integer `text` spells; FormatError naming `what` otherwise."""
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"bad {what} {text.strip()!r}") from None


class DomainError(ValueError):
    """Structurally valid input outside an operation's stated domain."""


class ResourceError(RuntimeError):
    """A configured search or state budget was exceeded.

    The message names the bound that was hit.
    """
