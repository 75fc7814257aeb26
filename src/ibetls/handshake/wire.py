"""Wire formats: handshake framing, records, and the two identity extensions.

Handshake messages are framed as type(1) || length(3) || body and carried in
records framed as type(1) || length(2) || payload, over any reliable byte
stream. Extensions use the TLS presentation encoding
type(2) || length(2) || data and round-trip exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

from ..kem import IdentityString
from ..kem.codec import SCHEME_ID_ML_KEM, SCHEME_REFERENCE
from ..kem.errors import DecodeError

# scheme ids that may legitimately appear in an ibe_identity_auth extension;
# the ephemeral-KEM codec prefix is internal and never negotiated
EXTENSION_SCHEME_IDS = frozenset({SCHEME_ID_ML_KEM, SCHEME_REFERENCE})


class HandshakeType(IntEnum):
    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    HELLO_RETRY_REQUEST = 6
    ENCRYPTED_EXTENSIONS = 8
    CERTIFICATE = 11            # never emitted; defined for negative checks
    CERTIFICATE_REQUEST = 13    # never emitted
    CERTIFICATE_VERIFY = 15     # never emitted
    FINISHED = 20


class ContentType(IntEnum):
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23


class AlertCode(IntEnum):
    DECODE_ERROR = 50
    IBE_AUTH_FAILURE = 201
    UNSUPPORTED_SCHEME = 202


EXT_IBE_IDENTITY_AUTH = 65280  # private-use codepoints; the design names but
EXT_IBE_IDENTITY = 65281       # does not number these extensions


class Reader:
    """Sequential decoder with strict bounds checking."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str = "field") -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError(f"truncated {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str = "u8") -> int:
        return self.take(1, what)[0]

    def u16(self, what: str = "u16") -> int:
        return struct.unpack("!H", self.take(2, what))[0]

    def u24(self, what: str = "u24") -> int:
        b = self.take(3, what)
        return (b[0] << 16) | (b[1] << 8) | b[2]

    def opaque16(self, what: str = "opaque") -> bytes:
        return self.take(self.u16(what), what)

    def opaque24(self, what: str = "opaque") -> bytes:
        return self.take(self.u24(what), what)

    def done(self) -> bool:
        return self.pos == len(self.data)

    def expect_end(self, what: str = "message") -> None:
        if not self.done():
            raise DecodeError(f"trailing bytes after {what}")


def u16(value: int) -> bytes:
    return struct.pack("!H", value)


def u24(value: int) -> bytes:
    return bytes([(value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF])


def opaque16(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise ValueError("opaque16 overflow")
    return u16(len(data)) + data


def opaque24(data: bytes) -> bytes:
    if len(data) > 0xFFFFFF:
        raise ValueError("opaque24 overflow")
    return u24(len(data)) + data


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Extension:
    extension_type: int
    extension_data: bytes

    def encode(self) -> bytes:
        return u16(self.extension_type) + opaque16(self.extension_data)


def encode_extensions(extensions: list[Extension]) -> bytes:
    body = b"".join(ext.encode() for ext in extensions)
    return u16(len(body)) + body


def decode_extensions(reader: Reader) -> list[Extension]:
    block = reader.opaque16("extension block")
    inner = Reader(block)
    extensions = []
    while not inner.done():
        ext_type = inner.u16("extension type")
        data = inner.opaque16("extension data")
        extensions.append(Extension(ext_type, data))
    return extensions


def decode_extension(data: bytes) -> Extension:
    reader = Reader(data)
    ext_type = reader.u16("extension type")
    body = reader.opaque16("extension data")
    reader.expect_end("extension")
    return Extension(ext_type, body)


@dataclass(frozen=True)
class IbeIdentityAuth:
    """Typed view of ibe_identity_auth: scheme id + encapsulated ciphertext."""

    ibe_scheme_id: int
    encapsulated_identity: bytes

    def to_extension(self) -> Extension:
        if not self.encapsulated_identity:
            raise ValueError("encapsulated_identity must be non-empty")
        return Extension(
            EXT_IBE_IDENTITY_AUTH,
            u16(self.ibe_scheme_id) + opaque16(self.encapsulated_identity),
        )

    @classmethod
    def from_extension(cls, ext: Extension) -> "IbeIdentityAuth":
        if ext.extension_type != EXT_IBE_IDENTITY_AUTH:
            raise DecodeError("not an ibe_identity_auth extension")
        reader = Reader(ext.extension_data)
        scheme_id = reader.u16("ibe_scheme_id")
        body = reader.opaque16("encapsulated_identity")
        reader.expect_end("ibe_identity_auth")
        if not body:
            raise DecodeError("empty encapsulated_identity")
        if scheme_id not in EXTENSION_SCHEME_IDS:
            raise DecodeError(f"unknown ibe scheme id 0x{scheme_id:04x}")
        return cls(scheme_id, body)


@dataclass(frozen=True)
class IbeIdentity:
    """Typed view of ibe_identity: the sender's own identity in clear form.

    Carried as opaque UTF-8; profile-level parsing happens where the identity
    is used, since legacy identity forms (e.g. bare email addresses) have no
    epoch segment.
    """

    identity: str

    @classmethod
    def of(cls, identity: IdentityString) -> "IbeIdentity":
        return cls(identity.canonical)

    def parse(self) -> IdentityString:
        return IdentityString.parse(self.identity)

    def to_extension(self) -> Extension:
        if not self.identity:
            raise ValueError("identity must be non-empty")
        return Extension(EXT_IBE_IDENTITY, opaque16(self.identity.encode("utf-8")))

    @classmethod
    def from_extension(cls, ext: Extension) -> "IbeIdentity":
        if ext.extension_type != EXT_IBE_IDENTITY:
            raise DecodeError("not an ibe_identity extension")
        reader = Reader(ext.extension_data)
        raw = reader.opaque16("identity")
        reader.expect_end("ibe_identity")
        if not raw:
            raise DecodeError("zero-length identity")
        try:
            return cls(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DecodeError(f"identity is not valid UTF-8: {exc}") from exc


def find_extension(extensions: list[Extension], ext_type: int) -> Extension | None:
    for ext in extensions:
        if ext.extension_type == ext_type:
            return ext
    return None


# ---------------------------------------------------------------------------
# handshake messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientHello:
    random: bytes
    eph_share: bytes  # serialized ephemeral public key
    extensions: list[Extension] = field(default_factory=list)


@dataclass(frozen=True)
class ServerHello:
    random: bytes
    eph_ciphertext: bytes  # serialized ephemeral KEM ciphertext
    extensions: list[Extension] = field(default_factory=list)


@dataclass(frozen=True)
class HelloRetryRequest:
    random: bytes
    extensions: list[Extension] = field(default_factory=list)


@dataclass(frozen=True)
class EncryptedExtensions:
    extensions: list[Extension] = field(default_factory=list)


@dataclass(frozen=True)
class Finished:
    verify_data: bytes


def frame(msg_type: int, body: bytes) -> bytes:
    return bytes([msg_type]) + u24(len(body)) + body


def unframe(data: bytes) -> tuple[int, bytes]:
    reader = Reader(data)
    msg_type = reader.u8("message type")
    body = reader.opaque24("message body")
    reader.expect_end("handshake message")
    return msg_type, body


def encode_client_hello(msg: ClientHello) -> bytes:
    if len(msg.random) != 32:
        raise ValueError("random must be 32 bytes")
    return frame(
        HandshakeType.CLIENT_HELLO,
        msg.random + opaque24(msg.eph_share) + encode_extensions(msg.extensions),
    )


def decode_client_hello(body: bytes) -> ClientHello:
    reader = Reader(body)
    random = reader.take(32, "random")
    share = reader.opaque24("ephemeral share")
    exts = decode_extensions(reader)
    reader.expect_end("ClientHello")
    return ClientHello(random=random, eph_share=share, extensions=exts)


def encode_server_hello(msg: ServerHello) -> bytes:
    if len(msg.random) != 32:
        raise ValueError("random must be 32 bytes")
    return frame(
        HandshakeType.SERVER_HELLO,
        msg.random + opaque24(msg.eph_ciphertext) + encode_extensions(msg.extensions),
    )


def decode_server_hello(body: bytes) -> ServerHello:
    reader = Reader(body)
    random = reader.take(32, "random")
    ct = reader.opaque24("ephemeral ciphertext")
    exts = decode_extensions(reader)
    reader.expect_end("ServerHello")
    return ServerHello(random=random, eph_ciphertext=ct, extensions=exts)


def encode_hello_retry_request(msg: HelloRetryRequest) -> bytes:
    return frame(HandshakeType.HELLO_RETRY_REQUEST, msg.random + encode_extensions(msg.extensions))


def decode_hello_retry_request(body: bytes) -> HelloRetryRequest:
    reader = Reader(body)
    random = reader.take(32, "random")
    exts = decode_extensions(reader)
    reader.expect_end("HelloRetryRequest")
    return HelloRetryRequest(random=random, extensions=exts)


def encode_encrypted_extensions(msg: EncryptedExtensions) -> bytes:
    return frame(HandshakeType.ENCRYPTED_EXTENSIONS, encode_extensions(msg.extensions))


def decode_encrypted_extensions(body: bytes) -> EncryptedExtensions:
    reader = Reader(body)
    exts = decode_extensions(reader)
    reader.expect_end("EncryptedExtensions")
    return EncryptedExtensions(extensions=exts)


def encode_finished(msg: Finished) -> bytes:
    if len(msg.verify_data) != 32:
        raise ValueError("verify_data must be 32 bytes")
    return frame(HandshakeType.FINISHED, msg.verify_data)


def decode_finished(body: bytes) -> Finished:
    if len(body) != 32:
        raise DecodeError("Finished body must be exactly 32 bytes")
    return Finished(verify_data=body)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def record(content_type: int, payload: bytes) -> bytes:
    if len(payload) > 0xFFFF:
        raise ValueError("record payload overflow")
    return bytes([content_type]) + u16(len(payload)) + payload


def split_record(data: bytes) -> tuple[int, bytes]:
    reader = Reader(data)
    content_type = reader.u8("record type")
    payload = reader.opaque16("record payload")
    reader.expect_end("record")
    return content_type, payload


def alert_record(code: int) -> bytes:
    return record(ContentType.ALERT, bytes([code]))
