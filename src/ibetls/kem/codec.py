"""Fixed-width serialization for keys and ciphertexts.

The two blobs that cross the handshake pack their coefficients in one
little-endian bit stream, padded with zero bits to the next byte (the shape
of FIPS 203's ByteEncode_d). A ciphertext is three such segments: c0's
trapdoor half (its first m_bar coefficients) at d_r bits, its gadget half
at d_z bits and c1 at d_v bits per coefficient, params.ciphertext_bits.
An ephemeral public share is one segment: its n*ell syndromes at
params.share_bits (7 at desk). Both hold the grid indices of Compress_d,
which _encrypt_bits and eph_generate already rounded every ciphertext and
share onto, so the encoding is exact, and both decode through _decode_grid.
A share carries no parameter header: its params_hash already hashes the
header. Master public keys and identity private keys keep 4 little-endian
bytes per Z_q element. Every blob is prefixed with the 32-byte params_hash
it is bound to and a 2-byte scheme id. Each decoder refuses any id but the
one it expects, and the handshake decoders any hash but the one of the
receiver's own parameters, so no peer byte is parsed as parameters. Scheme
id 0x0001 is reserved for the standard-track construction and cannot be
instantiated; the reference instantiation registers in the experimental
range as 0x7001.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
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
    ciphertext_widths,
    compress,
    decompress,
    params_hash_of,
    preimage_dtype,
    trapdoor_shaped,
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


@functools.lru_cache(maxsize=8)
def _bit_layout(segments: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, ...]:
    """Where each coefficient of segments sits in a stream of u64 words.

    segments holds (count, k) pairs: count k-bit coefficients, the first one
    on a byte boundary. Coefficient i starts in word[i], at bit shift[i], and
    mask[i] keeps its k bits. starts and last index the first and the last
    coefficient that starts in each word (KemParams keeps q < 2^32, so
    k <= 32, and a segment's pad is under 8 bits, so every word but the
    stream's last has one). Only a last one can run past its word's top, and
    its value >> back[w] is the part that lands in the next word (0 when
    nothing does). Sizes come from the receiver's parameters, so the cache is
    small.
    """
    pos, width, offset = [], [], 0
    for count, k in segments:
        pos.append(np.uint64(offset) + np.arange(count, dtype=np.uint64) * np.uint64(k))
        width.append(np.full(count, k, dtype=np.uint64))
        offset += (count * k + 7) // 8 * 8
    pos = np.concatenate(pos)
    word = (pos >> np.uint64(6)).astype(np.intp)
    shift = pos & np.uint64(63)
    starts = np.flatnonzero(np.diff(word, prepend=-1))
    last = np.append(starts[1:], pos.size) - 1
    # A shift by 64 is undefined; a coefficient at bit 0 has no high part.
    back = np.where(shift[last] == 0, np.uint64(63), np.uint64(64) - shift[last])
    mask = (np.uint64(1) << np.concatenate(width)) - np.uint64(1)
    layout = (word, shift, starts, last, back, mask)
    for array in layout:
        array.setflags(write=False)
    return layout


def _segment_ends(segments: tuple[tuple[int, int], ...]) -> list[int]:
    """The byte at which each of segments ends in the packed stream."""
    return list(itertools.accumulate((count * k + 7) // 8 for count, k in segments))


def _pack(values: np.ndarray, segments: tuple[tuple[int, int], ...]) -> bytes:
    """values, the coefficients of segments in order, as one little-endian
    bit stream, each segment padded with zero bits to a byte."""
    values = np.asarray(values).astype(np.uint64, copy=False).ravel()
    if not values.size:
        return b""
    word, shift, starts, last, back, _ = _bit_layout(segments)
    # One more word than coefficients start in, for the last one's high part.
    words = np.zeros(starts.size + 1, dtype="<u8")
    # Coefficients in one word occupy disjoint bits, so their sum is their OR.
    words[:-1] = np.add.reduceat(values << shift, starts)
    words[1:] |= values[last] >> back
    return words.tobytes()[: _segment_ends(segments)[-1]]


def _unpack(data: bytes, segments: tuple[tuple[int, int], ...], what: str) -> np.ndarray:
    """The coefficients _pack wrote into data, as uint64. data must have
    exactly the packed length and zero pad bits, so each vector has one
    encoding."""
    ends = _segment_ends(segments)
    if len(data) != ends[-1]:
        raise DecodeError(f"{what}: expected {ends[-1]} bytes, got {len(data)}")
    for (count, k), end in zip(segments, ends):
        used = count * k % 8
        if used and data[end - 1] >> used:
            raise DecodeError(f"{what}: nonzero pad bits")
    if not data:
        return np.zeros(0, dtype=np.uint64)
    word, shift, starts, last, back, mask = _bit_layout(segments)
    words = np.zeros(starts.size + 1, dtype="<u8")
    words.view(np.uint8)[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    values = words[word] >> shift
    # Bits the shift moves past k are masked off, so no-spill entries add nothing.
    values[last] |= words[1:] << back
    values &= mask
    return values


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


def _ciphertext_segments(params: KemParams) -> tuple[tuple[int, int], ...]:
    """(coefficients, bits per coefficient) of c0's trapdoor half, its gadget
    half and c1, in wire order."""
    d_r, d_z, d_v = params.ciphertext_bits
    return (params.m_bar, d_r), (params.m_bar, d_z), (params.ell, d_v)


def _share_segments(params: KemParams) -> tuple[tuple[int, int], ...]:
    """The one segment of an ephemeral share: its n*ell syndromes at share_bits."""
    return ((params.n * params.ell, params.share_bits),)


def _decode_grid(data: bytes, segments: tuple[tuple[int, int], ...],
                 widths: int | np.ndarray, q: int, what: str) -> np.ndarray:
    """The Z_q values whose Compress_d grid indices _pack wrote into data as
    segments, widths[i] bits for value i; data must have exactly the packed
    length and zero pad bits. Below 2^d = q every d-bit index is the
    compression of its own decompression. Above it (d = k) some are not,
    and those are refused, so each vector has one encoding."""
    indices = _unpack(data, segments, what).view(np.int64)
    values = decompress(indices, widths, q)
    if (1 << max(d for _, d in segments)) > q \
            and not np.array_equal(compress(values, widths, q), indices):
        raise DecodeError(f"{what}: grid index with another encoding")
    return values


def ciphertext_size(params: KemParams) -> int:
    """Serialized length is a constant of the parameter set."""
    return 34 + _segment_ends(_ciphertext_segments(params))[-1]


def eph_public_size(params: KemParams) -> int:
    """Serialized length of an ephemeral public share at params."""
    return 34 + 32 + _segment_ends(_share_segments(params))[-1]


def encode_ciphertext(ct: IdKemCiphertext, params_hash: bytes,
                      scheme_id: int = SCHEME_REFERENCE) -> bytes:
    """c0's trapdoor half, its gadget half and c1 as their Compress_d grid
    indices, each padded to a byte; a coefficient off the grid is rounded
    onto it."""
    widths = ciphertext_widths(ct.params)
    indices = compress(np.concatenate([ct.c0, ct.c1]), widths, ct.params.q)
    return _prefix(params_hash, scheme_id) + _pack(indices, _ciphertext_segments(ct.params))


def decode_ciphertext(data: bytes, params: KemParams, params_hash: bytes,
                      scheme_id: int) -> IdKemCiphertext:
    """The ciphertext in data, which must be bound to params_hash under scheme_id."""
    bound, body = _split_prefix(data, "ciphertext", scheme_id)
    if bound != params_hash:
        raise DecodeError("ciphertext: bound to another params_hash")
    values = _decode_grid(body, _ciphertext_segments(params), ciphertext_widths(params),
                          params.q, "ciphertext")
    return IdKemCiphertext(params=params, c0=values[: params.m], c1=values[params.m :])


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
    X = (words.view("<i4") - np.int32(params.q) * (words > params.q // 2)).reshape(
        params.m, params.ell)
    if not trapdoor_shaped(params, X):
        raise DecodeError("identity private key: preimage is not trapdoor-shaped")
    X = X.astype(preimage_dtype(params))
    return IdentityPrivateKey(identity=identity, X=X, params_hash=params_hash, params=params)


def eph_params_hash(params: KemParams) -> bytes:
    return hashlib.sha256(b"ibetls-eph" + params.header_bytes()).digest()


def encode_eph_public(pub: EphemeralPublicKey) -> bytes:
    """The share's syndromes as their grid indices at share_bits; a syndrome
    off the grid is rounded onto it."""
    params = pub.params
    return (
        _prefix(eph_params_hash(params), SCHEME_EPHEMERAL)
        + pub.seed_a
        + _pack(compress(pub.U, params.share_bits, params.q), _share_segments(params))
    )


def decode_eph_public(data: bytes, params: KemParams) -> EphemeralPublicKey:
    """The share in data, which must be bound to exactly params: a receiver
    never sizes a matrix from a header the peer wrote."""
    bound, body = _split_prefix(data, "ephemeral public key", SCHEME_EPHEMERAL)
    if bound != eph_params_hash(params):
        raise DecodeError("ephemeral public key: parameters other than the receiver's")
    if len(body) < 32:
        raise DecodeError("ephemeral public key: truncated matrix seed")
    seed_a = body[:32]
    flat = _decode_grid(body[32:], _share_segments(params), params.share_bits, params.q,
                        "ephemeral syndromes")
    return EphemeralPublicKey(params=params, seed_a=seed_a, U=flat.reshape(params.n, params.ell))
