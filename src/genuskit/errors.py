"""Shared exception types, and the record of one certificate check."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One named check of a certificate: whether it passed, and its witness or reason."""

    name: str
    passed: bool
    witness: str

    def __str__(self) -> str:
        return f"[{'ok' if self.passed else 'FAIL'}] {self.name}: {self.witness}"


class GenusKitError(Exception):
    """Base class for every error raised by this package."""


class FamilyError(GenusKitError, ValueError):
    """A partition family failed validation; the message names the offender."""


class DomainError(GenusKitError):
    """An operation was applied outside its stated domain of definition."""


class VerificationError(GenusKitError):
    """A randomized or exact verification suite found a violation."""
