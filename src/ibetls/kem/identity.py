"""Canonical identity strings: the system's only public-key form."""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from .errors import MalformedIdentity


def is_integer_epoch(epoch: str) -> bool:
    """Whether epoch is in ASCII digits; str.isdigit alone also takes "²"."""
    return epoch.isascii() and epoch.isdigit()


def is_epoch(epoch: str) -> bool:
    """Whether epoch is an unsigned integer ("20250101", "7") or an ISO-8601
    date written YYYY-MM-DD ("2025-01-01"), the two forms an identity's last
    segment may take. The date must be what isoformat writes for it, so the
    week dates that fromisoformat reads from Python 3.11 on are refused on
    every version."""
    if is_integer_epoch(epoch):
        return True
    try:
        return datetime.date.fromisoformat(epoch).isoformat() == epoch
    except ValueError:
        return False


@dataclass(frozen=True)
class IdentityString:
    """Dot-separated identity whose final segment is a validity epoch.

    Colons are ordinary characters inside a segment, which is how role
    qualifiers such as ``kubelet:node-01`` are carried.
    """

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.segments) < 2:
            raise MalformedIdentity("identity needs at least one name segment and an epoch")
        for seg in self.segments:
            if not seg:
                raise MalformedIdentity("empty identity segment")
            if "." in seg:
                raise MalformedIdentity(f"segment {seg!r} contains the separator")
        if not is_epoch(self.segments[-1]):
            raise MalformedIdentity(
                f"epoch {self.segments[-1]!r} is neither an unsigned integer nor an ISO date"
            )

    @classmethod
    def parse(cls, text: str) -> "IdentityString":
        return cls(tuple(text.split(".")))

    @property
    def canonical(self) -> str:
        return ".".join(self.segments)

    @property
    def epoch(self) -> str:
        return self.segments[-1]

    @property
    def base(self) -> str:
        """Identity without its epoch; the unit of revocation."""
        return ".".join(self.segments[:-1])

    def __str__(self) -> str:
        return self.canonical
