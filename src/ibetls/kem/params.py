"""System parameters for the lattice identity KEM.

The desk profile is sized for deterministic correctness on a laptop, not for
security: the correctness margin m*beta*eta + eta < q/4 guarantees zero
decapsulation failures, while the lattice dimensions are far below anything
cryptographically meaningful.
"""

from __future__ import annotations

import functools
import struct
import warnings
from dataclasses import dataclass

from .errors import InvalidParams

NOT_SECURE_BANNER = (
    "ibetls reference parameters are for protocol experiments only and "
    "provide NO cryptographic security"
)


class ToyParametersWarning(UserWarning):
    """Raised whenever a parameter set is instantiated."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3,317,044,064,679,887,385,961,981."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class KemParams:
    """Immutable parameter block shared by master keys, ciphertexts and KDFs.

    n        lattice dimension (rows of A)
    k        gadget length, ceil(log2(q))
    m_bar    columns of the random left block, n*k
    m        total columns, m_bar + n*k
    q        prime modulus with m*q*q in float64's exact-integer range, so
             matmul_mod's product of two wide operands is exact on entries
             in (-q, q)
    ell      shared-secret bit length
    beta     infinity-norm bound on extracted preimages
    eta      infinity-norm bound on encryption noise
    domain_sep   byte string mixed into hash-to-syndrome
    """

    n: int
    k: int
    m_bar: int
    m: int
    q: int
    ell: int
    beta: int
    eta: int
    domain_sep: bytes

    def __post_init__(self) -> None:
        if self.n < 1 or self.ell < 8 or self.ell % 8:
            raise InvalidParams("need n >= 1 and ell a positive multiple of 8")
        if not 1 < self.q < 2**32:
            raise InvalidParams("q must fit in 32 bits")
        if not is_prime(self.q):
            raise InvalidParams(f"q={self.q} is not prime")
        if self.k != (self.q - 1).bit_length():
            raise InvalidParams("k must be ceil(log2(q))")
        if self.m_bar != self.n * self.k or self.m != self.m_bar + self.n * self.k:
            raise InvalidParams("need m_bar = n*k and m = m_bar + n*k")
        if self.m * self.q * self.q >= 2**53:
            raise InvalidParams("m*q*q exceeds float64's exact-integer range")
        if self.beta < 1 or self.eta < 1:
            raise InvalidParams("beta and eta must be positive")
        if self.m * self.beta * self.eta + self.eta >= self.q // 4:
            raise InvalidParams(
                "correctness margin violated: m*beta*eta + eta must be < q/4"
            )
        warnings.warn(NOT_SECURE_BANNER, ToyParametersWarning, stacklevel=2)

    @classmethod
    def create(
        cls, n: int, q: int, ell: int, beta: int, eta: int, domain_sep: bytes
    ) -> "KemParams":
        k = (q - 1).bit_length()
        return cls(
            n=n, k=k, m_bar=n * k, m=2 * n * k, q=q, ell=ell, beta=beta, eta=eta,
            domain_sep=domain_sep,
        )

    @classmethod
    def desk(cls, domain_sep: bytes = b"ibetls-desk-v1") -> "KemParams":
        """Desk-scale profile: n=32, q=2^20-3, ell=256, beta=65, eta=1."""
        return cls.create(n=32, q=1048573, ell=256, beta=65, eta=1, domain_sep=domain_sep)

    @property
    def trapdoor_row_weight(self) -> int:
        """Nonzero entries per trapdoor row; keeps ||X||_inf <= beta - 1."""
        return self.beta - 1

    def header_bytes(self) -> bytes:
        """Canonical fixed-width encoding, hashed into params_hash."""
        return (
            b"IBEK1"
            + struct.pack("<8I", self.n, self.k, self.m_bar, self.m, self.q,
                          self.ell, self.beta, self.eta)
            + struct.pack("<H", len(self.domain_sep))
            + self.domain_sep
        )

    @classmethod
    def from_header(cls, data: bytes) -> tuple["KemParams", int]:
        """Parse a header produced by :meth:`header_bytes`; returns (params, bytes consumed)."""
        if len(data) < 5 + 32 + 2 or data[:5] != b"IBEK1":
            raise InvalidParams("bad parameter header")
        (ds_len,) = struct.unpack("<H", data[37:39])
        end = 39 + ds_len
        if len(data) < end:
            raise InvalidParams("truncated parameter header")
        return _params_of_header(bytes(data[:end])), end


@functools.lru_cache(maxsize=8)
def _params_of_header(header: bytes) -> KemParams:
    """The parameter set one exact header names. Only successful parses are
    cached, so a header that fails KemParams' checks fails on every decode,
    and a repeated header skips the primality test."""
    n, k, m_bar, m, q, ell, beta, eta = struct.unpack("<8I", header[5:37])
    return KemParams(n=n, k=k, m_bar=m_bar, m=m, q=q, ell=ell, beta=beta, eta=eta,
                     domain_sep=header[39:])
