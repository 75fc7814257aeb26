"""Fixed-width serialization for keys and ciphertexts.

The two blobs that cross the handshake pack their coefficients in one
little-endian bit stream, padded with zero bits to the next byte (the shape
of FIPS 203's ByteEncode_d). A ciphertext carries c0 at d_u bits and c1 at
d_v bits per coefficient, params.ciphertext_bits: the grid indices of
Compress_d, which _encrypt_bits already rounded every ciphertext onto, so
the encoding is exact. An ephemeral public share keeps its Z_q coefficients
at params.k bits each, lossless. Master public keys and identity private
keys keep 4 little-endian bytes per Z_q element. Every blob is prefixed with
the 32-byte params_hash it is bound to and a 2-byte scheme id. Each decoder
refuses any id but the one it expects, and the handshake decoders any hash
or parameters but the receiver's own, so no peer byte is parsed as
parameters. Scheme id 0x0001 is reserved for the standard-track
construction and cannot be instantiated; the reference instantiation
registers in the experimental range as 0x7001.
"""

from __future__ import annotations

import functools
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
    compress,
    decompress,
    params_hash_of,
    preimage_dtype,
)

SCHEME_ID_ML_KEM = 0x0001      # reserved; not implemented here
SCHEME_REFERENCE = 0x7001      # gadget-trapdoor desk instantiation
SCHEME_EPHEMERAL = 0x7002      # unauthenticated dual-Regev share


def require_negotiable_scheme(scheme_id: int) -> None:
    """Refuse an identity-KEM scheme a peer offers unless it is the one run
    here: the reserved standard-track id is unsupported, any other malformed."""
    if scheme_id == SCHEME_ID_ML_KEM:
        raise UnsupportedScheme("scheme 0x0001 is reserved and not implemented here")
    if scheme_id != SCHEME_REFERENCE:
        raise DecodeError(f"unknown ibe scheme id 0x{scheme_id:04x}")


def pack_vec(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<u4").tobytes()


def _words(data: bytes, count: int, q: int, what: str) -> np.ndarray:
    """A read-only <u4 view of count coefficients, each checked to be < q."""
    if len(data) != 4 * count:
        raise DecodeError(f"{what}: expected {4 * count} bytes, got {len(data)}")
    values = np.frombuffer(data, dtype="<u4")
    if values.size and int(values.max()) >= q:
        raise DecodeError(f"{what}: coefficient out of range")
    return values


def unpack_vec(data: bytes, count: int, q: int, what: str) -> np.ndarray:
    return _words(data, count, q, what).astype(np.int64)


def packed_size(count: int, q: int) -> int:
    """Bytes that pack_coeffs takes for count coefficients of Z_q."""
    return (count * (q - 1).bit_length() + 7) // 8


@functools.lru_cache(maxsize=8)
def _bit_layout(count: int, k: int) -> tuple[np.ndarray, ...]:
    """Where each of count k-bit coefficients sits in a stream of u64 words.

    Coefficient i starts at bit i*k: in word[i], at bit shift[i]. starts and
    last index the first and the last coefficient that starts in each word
    (KemParams keeps q < 2^32, so k <= 32 and every word but the stream's
    last has one). Only a last one can run past its word's top, and its
    value >> back[w] is the part that lands in the next word (0 when nothing
    does). Sizes come from the receiver's parameters, so the cache is small.
    """
    pos = np.arange(count, dtype=np.uint64) * np.uint64(k)
    word = (pos >> np.uint64(6)).astype(np.intp)
    shift = pos & np.uint64(63)
    starts = np.flatnonzero(np.diff(word, prepend=-1))
    last = np.append(starts[1:], count) - 1
    # A shift by 64 is undefined; a coefficient at bit 0 has no high part.
    back = np.where(shift[last] == 0, np.uint64(63), np.uint64(64) - shift[last])
    layout = (word, shift, starts, last, back)
    for array in layout:
        array.setflags(write=False)
    return layout


def pack_coeffs(values: np.ndarray, q: int) -> bytes:
    """values (each in [0, q)) at (q-1).bit_length() bits each, little-endian."""
    values = np.asarray(values).astype(np.uint64, copy=False).ravel()
    size = packed_size(values.size, q)
    if not values.size:
        return b""
    word, shift, starts, last, back = _bit_layout(values.size, (q - 1).bit_length())
    # One more word than coefficients start in, for the last one's high part.
    words = np.zeros(starts.size + 1, dtype="<u8")
    # Coefficients in one word occupy disjoint bits, so their sum is their OR.
    words[:-1] = np.add.reduceat(values << shift, starts)
    words[1:] |= values[last] >> back
    return words.tobytes()[:size]


def unpack_coeffs(data: bytes, count: int, q: int, what: str) -> np.ndarray:
    """The count coefficients pack_coeffs wrote into data, as int64.

    data must have exactly packed_size(count, q) bytes, zero pad bits and
    every coefficient below q, so each vector has one encoding.
    """
    k = (q - 1).bit_length()
    size = packed_size(count, q)
    if len(data) != size:
        raise DecodeError(f"{what}: expected {size} bytes, got {len(data)}")
    if not count:
        return np.zeros(0, dtype=np.int64)
    used = count * k % 8
    if used and data[-1] >> used:
        raise DecodeError(f"{what}: nonzero pad bits")
    word, shift, starts, last, back = _bit_layout(count, k)
    words = np.zeros(starts.size + 1, dtype="<u8")
    words.view(np.uint8)[:size] = np.frombuffer(data, dtype=np.uint8)
    values = words[word] >> shift
    # Bits the shift moves past k are masked off, so no-spill entries add nothing.
    values[last] |= words[1:] << back
    values &= np.uint64((1 << k) - 1)
    if int(values.max()) >= q:
        raise DecodeError(f"{what}: coefficient out of range")
    return values.view(np.int64)


def _prefix(params_hash: bytes, scheme_id: int) -> bytes:
    return params_hash + struct.pack("!H", scheme_id)


def _split_prefix(data: bytes, what: str, scheme_id: int) -> tuple[bytes, bytes]:
    """(params_hash, body) of a blob that must carry scheme_id."""
    if len(data) < 34:
        raise DecodeError(f"{what}: truncated prefix")
    (found,) = struct.unpack("!H", data[32:34])
    if found != scheme_id:
        raise DecodeError(f"{what}: scheme id 0x{found:04x}, expected 0x{scheme_id:04x}")
    return data[:32], data[34:]


def ciphertext_size(params: KemParams) -> int:
    """Serialized length is a constant of the parameter set."""
    d_u, d_v = params.ciphertext_bits
    return 34 + packed_size(params.m, 1 << d_u) + packed_size(params.ell, 1 << d_v)


def eph_public_size(params: KemParams) -> int:
    """Serialized length of an ephemeral public share at params."""
    return 34 + len(params.header_bytes()) + 32 + packed_size(params.n * params.ell, params.q)


def encode_ciphertext(ct: IdKemCiphertext, params_hash: bytes,
                      scheme_id: int = SCHEME_REFERENCE) -> bytes:
    """c0 and c1 as their Compress_d grid indices, c0 then c1, each padded to
    a byte; a coefficient off the grid is rounded onto it."""
    q = ct.params.q
    d_u, d_v = ct.params.ciphertext_bits
    return (_prefix(params_hash, scheme_id) + pack_coeffs(compress(ct.c0, d_u, q), 1 << d_u)
            + pack_coeffs(compress(ct.c1, d_v, q), 1 << d_v))


def _unpack_grid(data: bytes, count: int, d: int, q: int, what: str) -> np.ndarray:
    """The count coefficients of Z_q whose d-bit grid indices data packs.

    Below 2^d = q every index is the compression of its own decompression.
    Above it (d = k) some are not, and those are refused, so each vector
    has one encoding."""
    indices = unpack_coeffs(data, count, 1 << d, what)
    values = decompress(indices, d, q)
    if (1 << d) > q and not np.array_equal(compress(values, d, q), indices):
        raise DecodeError(f"{what}: grid index with another encoding")
    return values


def decode_ciphertext(data: bytes, params: KemParams, params_hash: bytes,
                      scheme_id: int) -> IdKemCiphertext:
    """The ciphertext in data, which must be bound to params_hash under scheme_id."""
    bound, body = _split_prefix(data, "ciphertext", scheme_id)
    if bound != params_hash:
        raise DecodeError("ciphertext: bound to another params_hash")
    d_u, d_v = params.ciphertext_bits
    split = packed_size(params.m, 1 << d_u)
    return IdKemCiphertext(
        params=params,
        c0=_unpack_grid(body[:split], params.m, d_u, params.q, "ciphertext c0"),
        c1=_unpack_grid(body[split:], params.ell, d_v, params.q, "ciphertext c1"))


def encode_master_public(mpk: MasterPublicKey) -> bytes:
    return (
        _prefix(mpk.params_hash, SCHEME_REFERENCE)
        + mpk.params.header_bytes()
        + pack_vec(mpk.A.ravel())
    )


def decode_master_public(data: bytes) -> MasterPublicKey:
    params_hash, body = _split_prefix(data, "master public key", SCHEME_REFERENCE)
    params, consumed = KemParams.from_header(body)
    flat = unpack_vec(body[consumed:], params.n * params.m, params.q, "master matrix")
    A = flat.reshape(params.n, params.m)
    if params_hash_of(params, A) != params_hash:
        raise DecodeError("master public key: params_hash mismatch")
    return MasterPublicKey(params=params, A=A, params_hash=params_hash)


def encode_private_key(sk: IdentityPrivateKey) -> bytes:
    ident = sk.identity.canonical.encode("utf-8")
    # X entries are signed but tiny; store the mod-q representative. X is
    # narrow (int8 at desk parameters), so widen it before adding q to the
    # negative entries; |X| <= beta < q/4 and q < 2^26 keep this in int32.
    X = sk.X.astype(np.int32)
    return (
        _prefix(sk.params_hash, SCHEME_REFERENCE)
        + sk.params.header_bytes()
        + struct.pack("!H", len(ident))
        + ident
        + pack_vec(X + np.int32(sk.params.q) * (X < 0))
    )


def decode_private_key(data: bytes) -> IdentityPrivateKey:
    params_hash, body = _split_prefix(data, "identity private key", SCHEME_REFERENCE)
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
    words = _words(body[2 + id_len:], params.m * params.ell, params.q, "preimage matrix")
    # Recover the signed entries in int32: KemParams' m*q*q < 2^53 keeps q
    # below 2^26, so every checked word is a non-negative int32.
    X = words.view("<i4") - np.int32(params.q) * (words > params.q // 2)
    if int(np.abs(X).max(initial=0)) > params.beta:
        raise DecodeError("identity private key: preimage exceeds beta")
    X = X.astype(preimage_dtype(params)).reshape(params.m, params.ell)
    return IdentityPrivateKey(identity=identity, X=X, params_hash=params_hash, params=params)


def eph_params_hash(params: KemParams) -> bytes:
    return hashlib.sha256(b"ibetls-eph" + params.header_bytes()).digest()


def encode_eph_public(pub: EphemeralPublicKey) -> bytes:
    params = pub.params
    return (
        _prefix(eph_params_hash(params), SCHEME_EPHEMERAL)
        + params.header_bytes()
        + pub.seed_a
        + pack_coeffs(pub.U, params.q)
    )


def decode_eph_public(data: bytes, params: KemParams) -> EphemeralPublicKey:
    """The share in data, which must name exactly params: a receiver never
    sizes a matrix from a header the peer wrote."""
    bound, body = _split_prefix(data, "ephemeral public key", SCHEME_EPHEMERAL)
    header = params.header_bytes()
    if bound != eph_params_hash(params) or body[: len(header)] != header:
        raise DecodeError("ephemeral public key: parameters other than the receiver's")
    body = body[len(header):]
    if len(body) < 32:
        raise DecodeError("ephemeral public key: truncated matrix seed")
    seed_a = body[:32]
    flat = unpack_coeffs(body[32:], params.n * params.ell, params.q, "ephemeral syndromes")
    return EphemeralPublicKey(params=params, seed_a=seed_a, U=flat.reshape(params.n, params.ell))
