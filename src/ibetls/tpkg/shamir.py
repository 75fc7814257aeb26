"""Shamir secret sharing of the 32-byte master setup seed.

The field prime is the smallest prime above 2**256, so every 32-byte seed is
a field element and reconstruction is exact. Any t shares determine the
secret; any t-1 reveal nothing (information-theoretic over the field).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kem.sampling import HashStream
from .registry import json_field

PRIME = 2**256 + 297


class ThresholdNotMet(Exception):
    """Fewer shares than the reconstruction threshold."""


class ShareMismatch(Exception):
    """Shares from different share sets (or domains) were mixed."""


@dataclass(frozen=True)
class Share:
    domain: str
    set_id: str       # random tag binding shares of one split together
    index: int        # x-coordinate, 1-based
    value: int        # y-coordinate
    threshold: int

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "setId": self.set_id,
            "index": self.index,
            "value": hex(self.value),
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Share":
        # Files written before the prime was fixed also hold "nodes" and
        # "prime"; both are ignored. A share from another field fails the
        # quorum's a_bar check, as a share of another domain does.
        return cls(
            domain=json_field(data, "domain", str),
            set_id=json_field(data, "setId", str),
            index=json_field(data, "index", int),
            value=int(json_field(data, "value", str), 16),
            threshold=json_field(data, "threshold", int),
        )


@dataclass(frozen=True)
class ShareSet:
    shares: tuple[Share, ...]


def split(
    secret: bytes,
    n_nodes: int,
    threshold: int,
    domain: str,
    rng_seed: bytes,
) -> ShareSet:
    if not 1 <= threshold <= n_nodes:
        raise ValueError("need 1 <= t <= n_nodes")
    secret_int = int.from_bytes(secret, "big")
    if secret_int >= PRIME:
        raise ValueError("secret does not fit in the share field")

    stream = HashStream(rng_seed, b"shamir")
    set_id = stream.read(16).hex()
    # polynomial of degree t-1 with constant term = secret
    coefficients = [secret_int] + [
        int.from_bytes(stream.read(40), "big") % PRIME for _ in range(threshold - 1)
    ]
    shares = []
    for index in range(1, n_nodes + 1):
        value = 0
        for coeff in reversed(coefficients):  # Horner evaluation
            value = (value * index + coeff) % PRIME
        shares.append(Share(domain=domain, set_id=set_id, index=index, value=value,
                            threshold=threshold))
    return ShareSet(shares=tuple(shares))


def reconstruct(shares: list[Share]) -> bytes:
    """The 32-byte secret that shares of one share set encode. The only reader
    of the threshold: it needs that many shares and uses the first that many."""
    if not shares:
        raise ThresholdNotMet("no shares supplied")
    first = shares[0]
    for share in shares[1:]:
        if (share.domain, share.set_id, share.threshold) != (
            first.domain, first.set_id, first.threshold
        ):
            raise ShareMismatch("shares come from different share sets")
    indices = [share.index for share in shares]
    if len(set(indices)) != len(indices):
        raise ShareMismatch("duplicate share indices")
    if len(shares) < first.threshold:
        raise ThresholdNotMet(
            f"{len(shares)} shares supplied, {first.threshold} required"
        )

    subset = shares[: first.threshold]
    secret = 0
    for i, share_i in enumerate(subset):
        numerator, denominator = 1, 1
        for j, share_j in enumerate(subset):
            if i == j:
                continue
            numerator = numerator * (-share_j.index) % PRIME
            denominator = denominator * (share_i.index - share_j.index) % PRIME
        lagrange = numerator * pow(denominator, PRIME - 2, PRIME) % PRIME
        secret = (secret + share_i.value * lagrange) % PRIME
    if secret >= 2**256:  # values edited on disk; no split gives this
        raise ShareMismatch("shares do not interpolate to a 32-byte secret")
    return secret.to_bytes(32, "big")
