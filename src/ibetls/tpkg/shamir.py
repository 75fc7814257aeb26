"""Shamir secret sharing of the 32-byte master setup seed.

The field prime is the smallest prime above 2**256, so every 32-byte seed is
a field element and reconstruction is exact. Any t shares determine the
secret; any t-1 reveal nothing (information-theoretic over the field).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kem.sampling import HashStream

DEFAULT_PRIME = 2**256 + 297


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
    n_nodes: int
    prime: int = DEFAULT_PRIME

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "setId": self.set_id,
            "index": self.index,
            "value": hex(self.value),
            "threshold": self.threshold,
            "nodes": self.n_nodes,
            "prime": hex(self.prime),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Share":
        return cls(
            domain=data["domain"],
            set_id=data["setId"],
            index=int(data["index"]),
            value=int(data["value"], 16),
            threshold=int(data["threshold"]),
            n_nodes=int(data["nodes"]),
            prime=int(data["prime"], 16),
        )


@dataclass(frozen=True)
class ShareSet:
    n_nodes: int
    threshold: int
    shares: tuple[Share, ...]


def split(
    secret: bytes,
    n_nodes: int,
    threshold: int,
    domain: str,
    rng_seed: bytes,
    prime: int = DEFAULT_PRIME,
) -> ShareSet:
    if not 1 <= threshold <= n_nodes:
        raise ValueError("need 1 <= t <= n_nodes")
    secret_int = int.from_bytes(secret, "big")
    if secret_int >= prime:
        raise ValueError("secret does not fit in the share field")

    stream = HashStream(rng_seed, b"shamir")
    set_id = stream.read(16).hex()
    # polynomial of degree t-1 with constant term = secret
    coefficients = [secret_int] + [
        int.from_bytes(stream.read(40), "big") % prime for _ in range(threshold - 1)
    ]
    shares = []
    for index in range(1, n_nodes + 1):
        value = 0
        for coeff in reversed(coefficients):  # Horner evaluation
            value = (value * index + coeff) % prime
        shares.append(Share(domain=domain, set_id=set_id, index=index, value=value,
                            threshold=threshold, n_nodes=n_nodes, prime=prime))
    return ShareSet(n_nodes=n_nodes, threshold=threshold, shares=tuple(shares))


def reconstruct(shares: list[Share]) -> bytes:
    """The 32-byte secret that a qualified subset of one share set encodes."""
    if not shares:
        raise ThresholdNotMet("no shares supplied")
    first = shares[0]
    for share in shares[1:]:
        if (share.domain, share.set_id, share.prime, share.threshold) != (
            first.domain, first.set_id, first.prime, first.threshold
        ):
            raise ShareMismatch("shares come from different share sets")
    indices = [share.index for share in shares]
    if len(set(indices)) != len(indices):
        raise ShareMismatch("duplicate share indices")
    if len(shares) < first.threshold:
        raise ThresholdNotMet(
            f"{len(shares)} shares supplied, {first.threshold} required"
        )

    prime = first.prime
    subset = shares[: first.threshold]
    secret = 0
    for i, share_i in enumerate(subset):
        numerator, denominator = 1, 1
        for j, share_j in enumerate(subset):
            if i == j:
                continue
            numerator = numerator * (-share_j.index) % prime
            denominator = denominator * (share_i.index - share_j.index) % prime
        lagrange = numerator * pow(denominator, prime - 2, prime) % prime
        secret = (secret + share_i.value * lagrange) % prime
    return secret.to_bytes(32, "big")
