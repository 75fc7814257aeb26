"""HKDF-SHA256 primitives shared by the KEM and the handshake key schedule."""

from __future__ import annotations

import hmac
import struct

HASH_LEN = 32
ZEROS = bytes(HASH_LEN)


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    return hmac.digest(key, data, "sha256")


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    return hmac_sha256(salt if salt else ZEROS, ikm)


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    out = b""
    block = b""
    counter = 1
    while len(out) < length:
        block = hmac_sha256(prk, block + info + bytes([counter]))
        out += block
        counter += 1
    return out[:length]


def hkdf_expand_label(secret: bytes, label: bytes, context: bytes, length: int = HASH_LEN) -> bytes:
    """TLS 1.3 HKDF-Expand-Label with the standard "tls13 " prefix."""
    full = b"tls13 " + label
    info = struct.pack("!H", length) + bytes([len(full)]) + full + bytes([len(context)]) + context
    return hkdf_expand(secret, info, length)
