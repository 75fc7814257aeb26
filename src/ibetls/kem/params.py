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
    beta     infinity-norm bound on extracted preimages; their trapdoor half
             stays within beta-1 and their gadget half is binary
    eta      infinity-norm bound on encryption noise and on the encryption
             secret s
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
        if self.m * self.beta * self.eta + self.eta >= self.q // 4:
            raise InvalidParams(
                "correctness margin violated: m*beta*eta + eta must be < q/4"
            )
        self.share_bits  # raises InvalidParams when the ephemeral KEM cannot decrypt
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

    def decryption_noise(self, d_r: int, d_z: int, d_v: int) -> int:
        """Worst-case noise decryption sees with an extracted key when c0's
        trapdoor half travels at d_r bits, its gadget half at d_z bits and c1
        at d_v bits: eta + m_bar*beta*eta + m_bar*(beta-1)*B(d_r)
        + m_bar*B(d_z) + B(d_v). Every extracted key X = [R*z ; z] has a
        trapdoor half within beta-1 and a binary gadget half, so a column of
        X sums to at most m_bar*beta in absolute value, and c0's rounding
        error is multiplied by each half's own bound. Decryption is exact
        while this is below q/4; at (k, k, k) it is below the plain margin
        m*beta*eta + eta that __post_init__ checks."""
        B = self.rounding_error
        return (self.eta + self.m_bar * self.beta * self.eta
                + self.m_bar * ((self.beta - 1) * B(d_r) + B(d_z)) + B(d_v))

    @property
    @functools.lru_cache(maxsize=8)
    def ciphertext_bits(self) -> tuple[int, int, int]:
        """(d_r, d_z, d_v), the bits per coefficient on the wire of c0's
        trapdoor half (its first m_bar), of its gadget half and of c1: the
        triple in [1, k]^3 with the fewest bits per ciphertext whose
        decryption noise stays below q/4. (k, k, k) always qualifies. The
        search takes a few milliseconds, so it is cached by parameter set:
        equal parameters decoded from another blob reuse it."""
        widths = range(1, self.k + 1)
        return min(((d_r, d_z, d_v) for d_r in widths for d_z in widths for d_v in widths
                    if self.decryption_noise(d_r, d_z, d_v) < self.q // 4),
                   key=lambda bits: self.m_bar * (bits[0] + bits[1]) + self.ell * bits[2])

    def ephemeral_noise(self, d: int) -> int:
        """Worst-case noise ephemeral decryption sees when the share's
        syndromes travel at d bits and ciphertexts at ciphertext_bits:
        eta + m*eta + m_bar*(B(d_r) + B(d_z)) + B(d_v) + n*eta*B(d). The
        secret x is ternary, so e0 and c0's rounding error each count once
        per entry, and the encryption secret s is within eta, so the share's
        rounding error counts eta times in each of its n rows."""
        B = self.rounding_error
        d_r, d_z, d_v = self.ciphertext_bits
        return (self.eta + self.m * self.eta + self.m_bar * (B(d_r) + B(d_z)) + B(d_v)
                + self.n * self.eta * B(d))

    @property
    @functools.lru_cache(maxsize=8)
    def share_bits(self) -> int:
        """Bits per syndrome of an ephemeral share on the wire: the least d in
        [1, k] whose ephemeral_noise stays below q/4. Cached per parameter
        set, as ciphertext_bits is."""
        for d in range(1, self.k + 1):
            if self.ephemeral_noise(d) < self.q // 4:
                return d
        raise InvalidParams("ephemeral decryption noise reaches q/4 even with a lossless share")

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
