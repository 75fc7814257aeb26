"""Deterministic sampling from ChaCha20 keystreams.

Every random choice in the KEM (and in the simulation harness) is drawn from
a :class:`HashStream` so that a seed reproduces bit-identical output on any
platform and numpy version.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms


class HashStream:
    """ChaCha20 (RFC 8439) keystream under a key hashed from seed and label.

    The key is SHA-256 over a versioned label, the seed length, the seed and
    a domain-separation label, so two streams with different labels over the
    same seed are independent. The nonce is zero; each key is used for one
    stream only. Reads are contiguous: read(a) + read(b) == read(a + b).
    """

    def __init__(self, seed: bytes, label: bytes = b"") -> None:
        key = hashlib.sha256(
            b"ibetls.stream.v2\x00" + len(seed).to_bytes(4, "big") + seed + label
        ).digest()
        self._keystream = Cipher(algorithms.ChaCha20(key, bytes(16)), mode=None).encryptor()

    def read(self, n: int) -> bytes:
        return self._keystream.update(bytes(n))

    def u32(self, count: int) -> np.ndarray:
        return np.frombuffer(self.read(4 * count), dtype="<u4")

    def bits(self, count: int) -> np.ndarray:
        raw = np.frombuffer(self.read((count + 7) // 8), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[:count].astype(np.int64)

    def uniform_mod(self, count: int, modulus: int) -> np.ndarray:
        """Uniform values in [0, modulus) by rejection from 32-bit words."""
        if not 0 < modulus < 2**32:
            raise ValueError("modulus must fit in 32 bits")
        limit = (2**32 // modulus) * modulus
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            # reject and reduce in uint32; the int64 widening is the store
            draw = self.u32(count - filled + 8)
            kept = draw[draw < limit][: count - filled] % np.uint32(modulus)
            out[filled : filled + len(kept)] = kept
            filled += len(kept)
        return out

    def signed_uniform(self, count: int, bound: int) -> np.ndarray:
        """Uniform values in [-bound, bound] for bound >= 1; int8 when
        bound <= 7, else int64."""
        span = 2 * bound + 1
        if span <= 16:  # byte-wise rejection; 4x cheaper than the u32 path
            table, rejected = _byte_rejection_tables(bound)
            kept = bytearray()  # a writable buffer, so the result can be erased
            while len(kept) < count:
                # one C pass: bytes >= limit are dropped, the rest map to
                # byte % span - bound as int8
                kept += self.read(count - len(kept) + 16).translate(table, rejected)[
                    : count - len(kept)]
            return np.frombuffer(kept, dtype=np.int8)
        return self.uniform_mod(count, span) - bound

    def signs(self, count: int) -> np.ndarray:
        """Uniform values in {-1, +1}, as int8."""
        raw = np.frombuffer(self.read((count + 7) // 8), dtype=np.uint8)
        return 2 * np.unpackbits(raw, bitorder="little")[:count].view(np.int8) - 1


@functools.lru_cache(maxsize=8)
def _byte_rejection_tables(bound: int) -> tuple[bytes, bytes]:
    """(translation table, rejected bytes) for byte-wise draws in [-bound, bound]."""
    span = 2 * bound + 1
    limit = (256 // span) * span
    table = bytes((b % span - bound) & 0xFF for b in range(256))
    return table, bytes(range(limit, 256))


def limb_bits(inner: int, bound: int) -> int:
    """Largest lb with inner * bound * (2^lb - 1) < 2^24: the limb width at
    which a float32 product against a bound-short operand stays exact."""
    lb = ((2**24 - 1) // max(1, inner * bound) + 1).bit_length() - 1
    if lb < 1:
        raise ValueError("inner * bound leaves no exact float32 limb")
    return lb


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int, bound: int | None = None) -> np.ndarray:
    """Exact (a @ b) mod q for integer matrices.

    Without bound, a and b have entries in (-q, q) and the product is one
    float64 BLAS product, exact because the inner dimension is at most m and
    KemParams keeps m*q*q within float64's exact-integer range.

    With bound, a has entries in [0, q) and b is short, ||b||_inf <= bound
    (checked: ValueError otherwise). a is cut into limbs of
    limb_bits(inner, bound) bits, and all limbs go through one float32
    product against b. Every partial sum is an integer below 2^24 in
    magnitude, so the product is exact in any summation order; the limbs are
    recombined in int64. KemParams' margin m*beta*eta + eta < q/4 keeps
    m*beta below 2^24, so the limbs are at least one bit wide for bound beta
    or 1 and inner <= m. At desk parameters X (bound beta) gets three 7-bit
    limbs and the ternary x two 13-bit limbs.
    """
    if bound is None:
        prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
        return prod.astype(np.int64) % q
    if int(b.max(initial=0)) > bound or int(b.min(initial=0)) < -bound:
        raise ValueError(f"short operand exceeds its bound {bound}")
    lb = limb_bits(b.shape[0], bound)
    limbs = -(-(q - 1).bit_length() // lb)
    shifts = np.arange(limbs, dtype=np.int64)[:, None, None] * lb
    wide = np.asarray(a, dtype=np.int64)
    parts = ((wide[None] >> shifts) & ((1 << lb) - 1)).astype(np.float32)
    prod = parts.reshape(-1, wide.shape[-1]) @ b.astype(np.float32)
    prod = prod.astype(np.int64).reshape(limbs, wide.shape[0], -1)
    return (prod << shifts).sum(axis=0) % q
