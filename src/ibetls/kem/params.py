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
    q        prime modulus with m*q*q in float64's exact-integer range, so
             matmul_mod's product of two wide operands is exact on entries
             in (-q, q)
    ell      shared-secret bit length
    beta     infinity-norm bound on extracted preimages
    eta      infinity-norm bound on encryption noise
    domain_sep   byte string mixed into hash-to-syndrome
    """

    n: int
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
        if self.m * self.q * self.q >= 2**53:
            raise InvalidParams("m*q*q exceeds float64's exact-integer range")
        if self.beta < 1 or self.eta < 1:
            raise InvalidParams("beta and eta must be positive")
        if self.decryption_noise(self.k, self.k) >= self.q // 4:
            raise InvalidParams(
                "correctness margin violated: m*beta*eta + eta must be < q/4"
            )
        # 3 skips this method and the generated __init__ (file "<string>"),
        # so the warning names the line that built the parameters.
        warnings.warn(NOT_SECURE_BANNER, ToyParametersWarning, stacklevel=3)

    @classmethod
    def desk(cls) -> "KemParams":
        """Desk-scale profile: n=32, q=2^20-3, ell=256, beta=65, eta=1."""
        return cls(n=32, q=1048573, ell=256, beta=65, eta=1, domain_sep=b"ibetls-desk-v1")

    @property
    def k(self) -> int:
        """Gadget length, ceil(log2(q))."""
        return (self.q - 1).bit_length()

    @property
    def m_bar(self) -> int:
        """Columns of the random left block, n*k."""
        return self.n * self.k

    @property
    def m(self) -> int:
        """Total columns, m_bar + n*k."""
        return 2 * self.m_bar

    def rounding_error(self, d: int) -> int:
        """B(d) = round(q / 2^(d+1)), the most that rounding a coefficient of
        Z_q onto the d-bit grid (Decompress_d of Compress_d) moves it; 0 at
        d = k, where q < 2^d."""
        return (self.q + (1 << d)) >> (d + 1)

    def decryption_noise(self, d_u: int, d_v: int) -> int:
        """Worst-case noise decryption sees when c0 travels at d_u bits and c1
        at d_v bits: m*beta*eta + eta + m*beta*B(d_u) + B(d_v). c0's rounding
        error is multiplied by the preimage, hence its m*beta factor.
        Decryption is exact while this is below q/4; at (k, k) it is the
        plain margin."""
        return (self.m * self.beta * (self.eta + self.rounding_error(d_u))
                + self.eta + self.rounding_error(d_v))

    @property
    @functools.lru_cache(maxsize=8)
    def ciphertext_bits(self) -> tuple[int, int]:
        """(d_u, d_v), the bits per coefficient of c0 and of c1 on the wire:
        the pair in [1, k]^2 with the fewest bits per ciphertext whose
        decryption noise stays below q/4. (k, k) always qualifies, as
        __post_init__ checks. The search takes most of a millisecond, so it
        is cached by parameter set: equal parameters decoded from another
        blob reuse it."""
        widths = range(1, self.k + 1)
        return min(((d_u, d_v) for d_u in widths for d_v in widths
                    if self.decryption_noise(d_u, d_v) < self.q // 4),
                   key=lambda pair: self.m * pair[0] + self.ell * pair[1])

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
        """Parse a header produced by :meth:`header_bytes`; returns (params, bytes consumed).

        Only blobs at rest carry one to parse: a master public key or an
        issued key. A peer's share must match the receiver's own header.
        The k, m_bar and m words are not read, only checked."""
        if len(data) < 5 + 32 + 2 or data[:5] != b"IBEK1":
            raise InvalidParams("bad parameter header")
        (ds_len,) = struct.unpack("<H", data[37:39])
        end = 39 + ds_len
        if len(data) < end:
            raise InvalidParams("truncated parameter header")
        n, _, _, _, q, ell, beta, eta = struct.unpack("<8I", data[5:37])
        params = cls(n=n, q=q, ell=ell, beta=beta, eta=eta, domain_sep=bytes(data[39:end]))
        if params.header_bytes() != data[:end]:
            raise InvalidParams("k, m_bar or m do not follow from n and q")
        return params, end
