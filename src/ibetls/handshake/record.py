"""AEAD record protection; the record layer itself is standard TLS 1.3 shape.

Per-direction keys and IVs come from a traffic secret; the nonce is the IV
XORed with the record sequence number, so a replayed or reordered ciphertext
fails authentication.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from ..hkdf import hkdf_expand_label
from .wire import ContentType, split_record

TAG_LEN = 16


class RecordAuthError(Exception):
    """Record failed AEAD authentication."""


def _nonce(iv: bytes, seq: int) -> bytes:
    return (int.from_bytes(iv, "big") ^ seq).to_bytes(12, "big")


class DirectionKeys:
    """Sealing or opening context for one direction under one traffic secret."""

    def __init__(self, traffic_secret: bytes) -> None:
        self._aead = ChaCha20Poly1305(hkdf_expand_label(traffic_secret, b"key", b"", 32))
        self._iv = hkdf_expand_label(traffic_secret, b"iv", b"", 12)
        self._seq = 0

    def seal(self, content: bytes, content_type: int) -> bytes:
        inner = content + bytes([content_type])
        header = bytes([ContentType.APPLICATION_DATA]) + (len(inner) + TAG_LEN).to_bytes(2, "big")
        ciphertext = self._aead.encrypt(_nonce(self._iv, self._seq), inner, header)
        self._seq += 1
        return header + ciphertext

    def open(self, rec: bytes) -> tuple[bytes, int]:
        content_type, payload = split_record(rec)
        if content_type != ContentType.APPLICATION_DATA:
            raise RecordAuthError("not an encrypted record")
        header = rec[:3]
        try:
            inner = self._aead.decrypt(_nonce(self._iv, self._seq), payload, header)
        except InvalidTag as exc:
            raise RecordAuthError("record authentication failed") from exc
        self._seq += 1
        if not inner:
            raise RecordAuthError("empty inner plaintext")
        return inner[:-1], inner[-1]


__all__ = ["DirectionKeys", "RecordAuthError"]
