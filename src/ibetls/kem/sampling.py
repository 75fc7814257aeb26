"""Deterministic sampling from ChaCha20 keystreams.

Every random choice in the KEM (and in the simulation harness) is drawn from
a :class:`HashStream` so that a seed reproduces bit-identical output on any
platform and numpy version.
"""

from __future__ import annotations

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
        return np.frombuffer(self.read(4 * count), dtype="<u4").astype(np.int64)

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
            draw = self.u32(count - filled + 8)
            kept = draw[draw < limit][: count - filled]
            out[filled : filled + len(kept)] = kept % modulus
            filled += len(kept)
        return out

    def signed_uniform(self, count: int, bound: int) -> np.ndarray:
        """Uniform values in [-bound, bound]; int8 when 0 < bound <= 7, else int64."""
        if bound == 0:
            return np.zeros(count, dtype=np.int64)
        span = 2 * bound + 1
        if span <= 16:  # byte-wise rejection; 4x cheaper than the u32 path
            limit = (256 // span) * span
            # byte -> byte % span - bound, so kept bytes map straight to int8
            table = (np.arange(256) % span - bound).astype(np.int8)
            out = np.empty(count, dtype=np.int8)
            filled = 0
            while filled < count:
                draw = np.frombuffer(self.read(count - filled + 16), dtype=np.uint8)
                kept = draw[draw < limit][: count - filled]
                out[filled : filled + len(kept)] = table[kept]
                filled += len(kept)
            return out
        return self.uniform_mod(count, span) - bound

    def signs(self, count: int) -> np.ndarray:
        """Uniform values in {-1, +1}."""
        return 2 * self.bits(count) - 1


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact (a @ b) mod q for integer matrices with entries in (-q, q).

    One float64 BLAS product, exact because the inner dimension is at most m
    and KemParams keeps m*q*q within float64's exact-integer range.
    """
    prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    return prod.astype(np.int64) % q
