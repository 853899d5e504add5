"""Exception types shared across the package.

Each class carries the process exit code the command line front end maps
it to: 2 for parse errors, 1 for domain (membership/validation) errors,
3 for internal invariant breaches that indicate a bug rather than bad input.
"""

from __future__ import annotations


class FuzzbitError(Exception):
    """Carries the input position, when one is known, as `line L: ` or
    `line L, column C: ` in front of the message."""

    exit_code = 1

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line}, column {col}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(FuzzbitError):
    """Malformed input text."""

    exit_code = 2


class MembershipError(FuzzbitError):
    """A value failed the membership predicate of its model."""

    exit_code = 1


class ValidationError(FuzzbitError):
    """A structurally well-formed circuit failed semantic validation."""

    exit_code = 1


class InternalCheckError(FuzzbitError):
    """A self-check that should never fail did; indicates a bug."""

    exit_code = 3
