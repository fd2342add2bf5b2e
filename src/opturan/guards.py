"""Desk-scale guards for the exhaustive-search entry points.

Every exhaustive enumeration in this package is meant to finish in seconds
on a laptop.  The guards keep accidental `n=30` invocations from melting a
machine; callers that know what they are doing pass ``limit=None`` (the CLI
exposes this as ``--unsafe-scale``).
"""

from __future__ import annotations

__all__ = ["ScaleLimitError", "check_limit"]


class ScaleLimitError(ValueError):
    """An enumeration was requested beyond its desk-scale guard."""


def check_limit(value: int, limit, what: str) -> None:
    """Raise ScaleLimitError if value exceeds limit (limit=None disables)."""
    if limit is not None and value > limit:
        raise ScaleLimitError(
            f"{what}={value} exceeds the desk-scale guard {limit}; "
            f"pass limit=None (CLI: --unsafe-scale) to override"
        )
