"""Desk-scale guards for the exhaustive-search entry points.

Every exhaustive enumeration in this package is meant to finish in seconds
on a laptop.  The guards keep accidental `n=30` invocations from melting a
machine; callers that know what they are doing pass ``limit=None`` (the CLI
exposes this as ``--unsafe-scale`` on the subcommands that have it).
"""

from __future__ import annotations

__all__ = ["ScaleLimitError", "check_limit"]


class ScaleLimitError(ValueError):
    """An enumeration was requested beyond its desk-scale guard.  args[0]
    says which value broke which guard; the message adds `hint`, how to
    get past it, which an entry point that takes no ``limit`` replaces."""

    hint = "pass limit=None (CLI: --unsafe-scale) to override"

    def __str__(self):
        return f"{self.args[0]}; {self.hint}"


def check_limit(value: int, limit, what: str) -> None:
    """Raise ScaleLimitError if value exceeds limit (limit=None disables)."""
    if limit is not None and value > limit:
        raise ScaleLimitError(f"{what}={value} exceeds the desk-scale guard {limit}")
