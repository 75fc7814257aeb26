"""Fixed-width serialization for keys and ciphertexts.

Coefficients are packed little-endian, 4 bytes per Z_q element. Every blob is
prefixed with the 32-byte params_hash it is bound to and a 2-byte scheme id.
Scheme id 0x0001 is reserved for the standard-track construction and is
accepted by the codec but cannot be instantiated; the reference instantiation
registers in the experimental range as 0x7001.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .ephemeral import EphemeralPublicKey
from .errors import DecodeError, MalformedIdentity, UnsupportedScheme
from .identity import IdentityString
from .params import KemParams
from .scheme import (
    IdentityPrivateKey,
    IdKemCiphertext,
    MasterPublicKey,
    params_hash_of,
)

SCHEME_ID_ML_KEM = 0x0001      # reserved; not implemented here
SCHEME_REFERENCE = 0x7001      # gadget-trapdoor desk instantiation
SCHEME_EPHEMERAL = 0x7002      # unauthenticated dual-Regev share
KNOWN_SCHEME_IDS = frozenset({SCHEME_ID_ML_KEM, SCHEME_REFERENCE, SCHEME_EPHEMERAL})


def require_reference_scheme(scheme_id: int) -> None:
    if scheme_id == SCHEME_REFERENCE:
        return
    if scheme_id == SCHEME_ID_ML_KEM:
        raise UnsupportedScheme("scheme 0x0001 is reserved and not implemented")
    raise UnsupportedScheme(f"unknown scheme id 0x{scheme_id:04x}")


def pack_vec(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<u4").tobytes()


def unpack_vec(data: bytes, count: int, q: int, what: str) -> np.ndarray:
    if len(data) != 4 * count:
        raise DecodeError(f"{what}: expected {4 * count} bytes, got {len(data)}")
    values = np.frombuffer(data, dtype="<u4").astype(np.int64)
    if values.size and int(values.max()) >= q:
        raise DecodeError(f"{what}: coefficient out of range")
    return values


def _prefix(params_hash: bytes, scheme_id: int) -> bytes:
    return params_hash + struct.pack("!H", scheme_id)


def _split_prefix(data: bytes, what: str) -> tuple[bytes, int, bytes]:
    if len(data) < 34:
        raise DecodeError(f"{what}: truncated prefix")
    scheme_id = struct.unpack("!H", data[32:34])[0]
    if scheme_id not in KNOWN_SCHEME_IDS:
        raise DecodeError(f"{what}: unknown scheme id 0x{scheme_id:04x}")
    return data[:32], scheme_id, data[34:]


def ciphertext_size(params: KemParams) -> int:
    """Serialized length is a constant of the parameter set."""
    return 34 + 4 * (params.m + params.ell)


def encode_ciphertext(ct: IdKemCiphertext, params_hash: bytes,
                      scheme_id: int = SCHEME_REFERENCE) -> bytes:
    return _prefix(params_hash, scheme_id) + pack_vec(ct.c0) + pack_vec(ct.c1)


def decode_ciphertext(data: bytes, params: KemParams) -> tuple[bytes, int, IdKemCiphertext]:
    params_hash, scheme_id, body = _split_prefix(data, "ciphertext")
    if len(body) != 4 * (params.m + params.ell):
        raise DecodeError("ciphertext: wrong body length for parameters")
    c0 = unpack_vec(body[: 4 * params.m], params.m, params.q, "ciphertext c0")
    c1 = unpack_vec(body[4 * params.m:], params.ell, params.q, "ciphertext c1")
    return params_hash, scheme_id, IdKemCiphertext(c0=c0, c1=c1)


def encode_master_public(mpk: MasterPublicKey) -> bytes:
    return (
        _prefix(mpk.params_hash, SCHEME_REFERENCE)
        + mpk.params.header_bytes()
        + pack_vec(mpk.A.ravel())
    )


def decode_master_public(data: bytes) -> MasterPublicKey:
    params_hash, scheme_id, body = _split_prefix(data, "master public key")
    require_reference_scheme(scheme_id)
    params, consumed = KemParams.from_header(body)
    flat = unpack_vec(body[consumed:], params.n * params.m, params.q, "master matrix")
    A = flat.reshape(params.n, params.m)
    if params_hash_of(params, A) != params_hash:
        raise DecodeError("master public key: params_hash mismatch")
    return MasterPublicKey(params=params, A=A, params_hash=params_hash)


def encode_private_key(sk: IdentityPrivateKey) -> bytes:
    ident = sk.identity.canonical.encode("utf-8")
    # X entries are signed but tiny; store the mod-q representative.
    return (
        _prefix(sk.params_hash, SCHEME_REFERENCE)
        + sk.params.header_bytes()
        + struct.pack("!H", len(ident))
        + ident
        + pack_vec(sk.X % sk.params.q)
    )


def decode_private_key(data: bytes) -> IdentityPrivateKey:
    params_hash, scheme_id, body = _split_prefix(data, "identity private key")
    require_reference_scheme(scheme_id)
    params, consumed = KemParams.from_header(body)
    body = body[consumed:]
    if len(body) < 2:
        raise DecodeError("identity private key: truncated identity")
    (id_len,) = struct.unpack("!H", body[:2])
    if len(body) < 2 + id_len:
        raise DecodeError("identity private key: truncated identity")
    try:
        identity = IdentityString.parse(body[2 : 2 + id_len].decode("utf-8"))
    except (UnicodeDecodeError, MalformedIdentity) as exc:
        raise DecodeError(f"identity private key: bad identity: {exc}") from exc
    flat = unpack_vec(body[2 + id_len:], params.m * params.ell, params.q, "preimage matrix")
    X = flat.reshape(params.m, params.ell)
    X = np.where(X > params.q // 2, X - params.q, X)  # recover signed entries
    if int(np.abs(X).max(initial=0)) > params.beta:
        raise DecodeError("identity private key: preimage exceeds beta")
    return IdentityPrivateKey(identity=identity, X=X, params_hash=params_hash, params=params)


def eph_params_hash(params: KemParams) -> bytes:
    return hashlib.sha256(b"ibetls-eph" + params.header_bytes()).digest()


def encode_eph_public(pub: EphemeralPublicKey) -> bytes:
    params = pub.params
    return (
        _prefix(eph_params_hash(params), SCHEME_EPHEMERAL)
        + params.header_bytes()
        + pub.seed_a
        + pack_vec(pub.U.ravel())
    )


def decode_eph_public(data: bytes) -> EphemeralPublicKey:
    params_hash, scheme_id, body = _split_prefix(data, "ephemeral public key")
    if scheme_id != SCHEME_EPHEMERAL:
        raise DecodeError("ephemeral public key: wrong scheme id")
    params, consumed = KemParams.from_header(body)
    if params_hash != eph_params_hash(params):
        raise DecodeError("ephemeral public key: params_hash mismatch")
    body = body[consumed:]
    if len(body) < 32:
        raise DecodeError("ephemeral public key: truncated matrix seed")
    seed_a = body[:32]
    flat = unpack_vec(body[32:], params.n * params.ell, params.q, "ephemeral syndromes")
    return EphemeralPublicKey(params=params, seed_a=seed_a, U=flat.reshape(params.n, params.ell))
