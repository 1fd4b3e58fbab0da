"""Exception types shared across the package."""

from __future__ import annotations


class TrialGameError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TrialGameError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    ``problems`` lists what is wrong: one ``"<field> must ..."`` entry per
    offending field when a record rejects its values, else the message.
    """

    def __init__(self, message: str, problems: list[str] | None = None):
        super().__init__(message)
        self.problems = [message] if problems is None else list(problems)


def reject(record: object, problems: list[str]) -> None:
    """Raise one :class:`DomainError` listing every problem of ``record``, if any."""
    if problems:
        raise DomainError(f"invalid {type(record).__name__}: " + "; ".join(problems), problems)


class SearchRangeError(TrialGameError, ValueError):
    """A requested exhaustive search range is too large to enumerate."""


class ConfigError(TrialGameError, ValueError):
    """A run configuration failed validation.

    Carries the full list of offending fields so a caller can report
    every problem at once instead of fixing them one by one.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))
