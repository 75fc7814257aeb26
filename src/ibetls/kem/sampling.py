"""Deterministic sampling from SHA-256 counter-mode streams.

Every random choice in the KEM (and in the simulation harness) is drawn from
a :class:`HashStream` so that a 32-byte seed reproduces bit-identical output
on any platform and numpy version.
"""

from __future__ import annotations

import hashlib

import numpy as np

_BLOCK = 32  # SHA-256 output size


class HashStream:
    """Byte stream generated as SHA-256(key || counter).

    The key binds the caller-supplied seed and a domain-separation label, so
    two streams with different labels over the same seed are independent.
    """

    def __init__(self, seed: bytes, label: bytes = b"") -> None:
        self._key = hashlib.sha256(
            b"ibetls.stream\x00" + len(seed).to_bytes(4, "big") + seed + label
        ).digest()
        self._counter = 0
        self._buffer = b""

    def read(self, n: int) -> bytes:
        while len(self._buffer) < n:
            blocks = []
            needed = n - len(self._buffer)
            for _ in range((needed + _BLOCK - 1) // _BLOCK):
                blocks.append(
                    hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
                )
                self._counter += 1
            self._buffer += b"".join(blocks)
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def u32(self, count: int) -> np.ndarray:
        return np.frombuffer(self.read(4 * count), dtype="<u4").astype(np.int64)

    def u64(self, count: int) -> np.ndarray:
        return np.frombuffer(self.read(8 * count), dtype="<u8")

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
        """Uniform values in [-bound, bound]."""
        if bound == 0:
            return np.zeros(count, dtype=np.int64)
        span = 2 * bound + 1
        if span <= 16:  # byte-wise rejection; 4x cheaper than the u32 path
            limit = (256 // span) * span
            out = np.empty(count, dtype=np.int64)
            filled = 0
            while filled < count:
                draw = np.frombuffer(self.read(count - filled + 16), dtype=np.uint8)
                kept = draw[draw < limit][: count - filled]
                out[filled : filled + len(kept)] = kept.astype(np.int64) % span
                filled += len(kept)
            return out - bound
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
