"""Properties of the kem/codec.py decoders: every blob round-trips, and a
truncated, extended or bit-flipped blob raises only the KemError family. The
segmented bit packing equals a plain-integer reference and has one
encoding per vector. Ciphertexts and ephemeral shares travel as grid
indices, so one off the grid encodes as its rounding. Private keys decode
only in the shape extract issues them."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibetls.kem import (
    DecodeError,
    IdentityString,
    KemError,
    KemParams,
    decode_ciphertext,
    decode_eph_public,
    decode_master_public,
    decode_private_key,
    encode_ciphertext,
    encode_eph_public,
    encode_master_public,
    encode_private_key,
)
from ibetls.kem.codec import _pack, _segment_ends, _unpack, pack_vec
from ibetls.kem.ephemeral import EphemeralPublicKey
from ibetls.kem.scheme import (
    IdentityPrivateKey,
    IdKemCiphertext,
    MasterPublicKey,
    compress,
    decompress,
    params_hash_of,
    preimage_dtype,
)

KINDS = ("ciphertext", "master_public", "private_key", "eph_public")
CT_PARAMS_HASH = bytes(range(32))
FILLS = ("random", "max", "min", "zero")

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@pytest.fixture(scope="module")
def param_sets(desk):
    # A small set keeps most examples cheap; desk is the one in use.
    small = KemParams(n=2, q=12289, ell=16, beta=20, eta=1, domain_sep=b"codec")
    return {"small": small, "desk": desk}


def _coefficients(params: KemParams, count: int, fill: str, rng) -> np.ndarray:
    if fill == "random":
        return rng.integers(0, params.q, size=count)
    return np.full(count, {"max": params.q - 1, "min": 0, "zero": 0}[fill], dtype=np.int64)


def _preimage(params: KemParams, fill: str, rng) -> np.ndarray:
    """X in the shape extract issues: its trapdoor half (the first m_bar rows)
    in [-(beta-1), beta-1], its gadget half binary."""
    top = params.beta - 1
    shape = (params.m_bar, params.ell)
    if fill == "random":
        halves = rng.integers(-top, top + 1, size=shape), rng.integers(0, 2, size=shape)
    else:
        halves = (np.full(shape, {"max": top, "min": -top, "zero": 0}[fill]),
                  np.full(shape, {"max": 1, "min": 0, "zero": 0}[fill]))
    return np.concatenate(halves).astype(preimage_dtype(params))


def on_grid(params: KemParams, values: np.ndarray, d: int) -> np.ndarray:
    """values rounded onto the d-bit grid, as encaps leaves every ciphertext."""
    return decompress(compress(values, d, params.q), d, params.q)


def segments(params: KemParams, ct: IdKemCiphertext) -> tuple[np.ndarray, ...]:
    """c0's trapdoor half, its gadget half and c1: the parts with their own width."""
    return ct.c0[: params.m_bar], ct.c0[params.m_bar :], ct.c1


def build(kind: str, params: KemParams, fill: str, seed: int, identity: IdentityString,
          grid: bool = True):
    """One object of kind at params; a ciphertext or a share on its grid, as
    encaps and eph_generate leave them, unless grid is False."""
    rng = np.random.default_rng(seed)
    if kind == "ciphertext":
        c0 = _coefficients(params, params.m, fill, rng)
        c1 = _coefficients(params, params.ell, fill, rng)
        ct = IdKemCiphertext(params=params, c0=c0, c1=c1)
        if not grid:
            return ct
        top, gadget, c1 = (on_grid(params, part, d) for part, d
                           in zip(segments(params, ct), params.ciphertext_bits))
        return IdKemCiphertext(params=params, c0=np.concatenate([top, gadget]), c1=c1)
    if kind == "master_public":
        A = _coefficients(params, params.n * params.m, fill, rng).reshape(params.n, params.m)
        return MasterPublicKey(params=params, A=A, params_hash=params_hash_of(params, A))
    if kind == "private_key":
        return IdentityPrivateKey(identity=identity, X=_preimage(params, fill, rng),
                                  params_hash=rng.bytes(32), params=params)
    U = _coefficients(params, params.n * params.ell, fill, rng).reshape(params.n, params.ell)
    if grid:
        U = on_grid(params, U, params.share_bits)
    return EphemeralPublicKey(params=params, seed_a=rng.bytes(32), U=U)


def encode(kind: str, obj) -> bytes:
    if kind == "ciphertext":
        return encode_ciphertext(obj, CT_PARAMS_HASH)
    return {"master_public": encode_master_public, "private_key": encode_private_key,
            "eph_public": encode_eph_public}[kind](obj)


def decode(kind: str, blob: bytes, params: KemParams):
    if kind == "ciphertext":
        return decode_ciphertext(blob, params, CT_PARAMS_HASH, 0x7001)
    if kind == "eph_public":
        return decode_eph_public(blob, params)
    return {"master_public": decode_master_public, "private_key": decode_private_key}[kind](blob)


identities = st.builds(
    lambda name, epoch: IdentityString.parse(f"{name}.{epoch}"),
    st.from_regex(r"[a-z][a-z0-9:-]{0,15}(\.[a-z0-9-]{1,8}){0,2}", fullmatch=True),
    st.integers(0, 10**8),
)


@PROPERTY
@given(kind=st.sampled_from(KINDS), which=st.sampled_from(["small", "desk"]),
       fill=st.sampled_from(FILLS), seed=st.integers(0, 2**32), identity=identities)
@example(kind="private_key", which="desk", fill="max", seed=0,
         identity=IdentityString.parse("kube-apiserver.20250101"))
@example(kind="private_key", which="desk", fill="min", seed=0,
         identity=IdentityString.parse("kube-apiserver.20250101"))
def test_every_blob_round_trips(param_sets, kind, which, fill, seed, identity):
    params = param_sets[which]
    obj = build(kind, params, fill, seed, identity)
    blob = encode(kind, obj)
    back = decode(kind, blob, params)
    if kind == "ciphertext":
        assert back.c0.tolist() == obj.c0.tolist() and back.c1.tolist() == obj.c1.tolist()
    elif kind == "master_public":
        assert back.params_hash == obj.params_hash and back.params == params
        assert np.array_equal(back.A, obj.A)
    elif kind == "private_key":
        assert (back.identity, back.params_hash, back.params) == \
            (obj.identity, obj.params_hash, params)
        assert back.X.dtype == preimage_dtype(params) == np.int8
        assert np.array_equal(back.X, obj.X)
    else:
        assert (back.params, back.seed_a) == (params, obj.seed_a)
        assert np.array_equal(back.U, obj.U)
    assert encode(kind, back) == blob


@PROPERTY
@given(which=st.sampled_from(["small", "desk"]), fill=st.sampled_from(FILLS),
       seed=st.integers(0, 2**32))
def test_ciphertext_off_the_grid_encodes_as_its_rounding(param_sets, which, fill, seed):
    """Any c0, c1 in [0, q) encode; decoding gives back each coefficient within
    the rounding error of its width, and that decodes to the same bytes."""
    params = param_sets[which]
    ct = build("ciphertext", params, fill, seed, None, grid=False)
    blob = encode("ciphertext", ct)
    back = decode("ciphertext", blob, params)
    assert encode("ciphertext", back) == blob
    for before, after, d in zip(segments(params, ct), segments(params, back),
                                params.ciphertext_bits):
        distance = np.minimum((after - before) % params.q, (before - after) % params.q)
        assert int(distance.max()) <= params.rounding_error(d)


@PROPERTY
@given(which=st.sampled_from(["small", "desk"]), fill=st.sampled_from(FILLS),
       seed=st.integers(0, 2**32))
def test_share_off_the_grid_encodes_as_its_rounding(param_sets, which, fill, seed):
    """Any U in [0, q) encodes; decoding moves each syndrome by at most
    B(share_bits), and the decoded share encodes to the same bytes."""
    params = param_sets[which]
    share = build("eph_public", params, fill, seed, None, grid=False)
    blob = encode("eph_public", share)
    back = decode("eph_public", blob, params)
    assert encode("eph_public", back) == blob
    distance = np.minimum((back.U - share.U) % params.q, (share.U - back.U) % params.q)
    assert int(distance.max()) <= params.rounding_error(params.share_bits)


def test_grid_index_with_another_encoding_is_refused():
    """Where decryption needs c0's trapdoor half at d_r = k bits, the grid has
    2^k - q more indices than Z_q has values. Each of them decompresses to a
    value whose own index differs, so decoding refuses it and each
    ciphertext keeps one encoding."""
    tight = KemParams(n=2, q=12289, ell=16, beta=54, eta=1, domain_sep=b"tight")
    d_r, _, _ = tight.ciphertext_bits
    assert d_r == tight.k
    indices = np.arange(1 << d_r)
    others = indices[compress(decompress(indices, d_r, tight.q), d_r, tight.q) != indices]
    assert others.size == (1 << d_r) - tight.q
    zero = IdKemCiphertext(params=tight, c0=np.zeros(tight.m, dtype=np.int64),
                           c1=np.zeros(tight.ell, dtype=np.int64))
    blob = encode_ciphertext(zero, CT_PARAMS_HASH)
    trapdoor_half = ((tight.m_bar, d_r),)
    rest = blob[34 + _segment_ends(trapdoor_half)[-1]:]
    for index in others[:: others.size // 16]:
        top = np.zeros(tight.m_bar, dtype=np.int64)
        top[5] = index
        with pytest.raises(DecodeError):
            decode("ciphertext", blob[:34] + _pack(top, trapdoor_half) + rest, tight)


mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**31)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=8)),
    # Flips anywhere, and flips in the prefix and parameter header.
    st.tuples(st.just("flip"), st.integers(0, 2**31), st.integers(0, 7)),
    st.tuples(st.just("flip"), st.integers(0, 127), st.integers(0, 7)),
)


@PROPERTY
@given(kind=st.sampled_from(KINDS), which=st.sampled_from(["small", "desk"]),
       fill=st.sampled_from(FILLS), mutation=mutations)
@example(kind="private_key", which="small", fill="max", mutation=("flip", 34 + 5 + 24, 0))
@example(kind="private_key", which="desk", fill="min", mutation=("flip", 34 + 5 + 24, 7))
def test_mangled_blob_raises_only_kem_errors(param_sets, kind, which, fill, mutation):
    params = param_sets[which]
    blob = encode(kind, build(kind, params, fill, 7,
                              IdentityString.parse("kube-apiserver.20250101")))
    if mutation[0] == "truncate":
        with pytest.raises(KemError):
            decode(kind, blob[: mutation[1] % len(blob)], params)
    elif mutation[0] == "extend":
        with pytest.raises(DecodeError):
            decode(kind, blob + mutation[1], params)
    else:
        mangled = bytearray(blob)
        mangled[mutation[1] % len(blob)] ^= 1 << mutation[2]
        try:
            decode(kind, bytes(mangled), params)
        except KemError:
            pass


# -- _pack / _unpack: segments of k-bit coefficients, each its own
# little-endian bit stream padded to a byte


def reference_pack(values: list[int], k: int) -> bytes:
    """The bit stream from a plain Python int: value i at bits [i*k, (i+1)*k)."""
    return sum(c << (i * k) for i, c in enumerate(values)).to_bytes(
        (len(values) * k + 7) // 8, "little")


@pytest.mark.parametrize("k", range(1, 33))
def test_every_width_packs_the_extreme_vectors(k):
    rng = np.random.default_rng(k)
    for count in (1, 7, 8, 33):
        segments = ((count, k),)
        for values in ([0] * count, [2 ** k - 1] * count,
                       rng.integers(0, 2 ** k, count).tolist()):
            blob = _pack(np.array(values, dtype=np.uint64), segments)
            assert blob == reference_pack(values, k), count
            assert _unpack(blob, segments, "vector").tolist() == values


@st.composite
def segmented_vectors(draw):
    """((count, k), ...) for one to four segments of widths 1..32, and the
    values of each segment."""
    segments, values = [], []
    for _ in range(draw(st.integers(1, 4))):
        count, k = draw(st.integers(1, 40)), draw(st.integers(1, 32))
        segments.append((count, k))
        values.append(draw(st.lists(st.integers(0, 2 ** k - 1), min_size=count,
                                    max_size=count)))
    return tuple(segments), values


@PROPERTY
@given(vector=segmented_vectors(), where=st.integers(0, 2**31))
@example(vector=(((3, 5), (2, 3), (1, 32)), [[31, 0, 17], [7, 1], [2 ** 32 - 1]]), where=0)
@example(vector=(((3, 2),), [[2, 1, 0]]), where=0)
@example(vector=(((5, 26),), [[2 ** 26 - 1] * 5]), where=0)
def test_segments_pack_as_byte_padded_bit_streams(vector, where):
    """Each segment is its own bit stream padded to a byte, as the parts of a
    ciphertext are, and a set pad bit in any segment is refused."""
    segments, values = vector
    flat = [value for segment in values for value in segment]
    blob = _pack(np.array(flat, dtype=np.uint64), segments)
    assert blob == b"".join(reference_pack(v, k) for v, (_, k) in zip(values, segments))
    ends = list(itertools.accumulate((count * k + 7) // 8 for count, k in segments))
    assert len(blob) == _segment_ends(segments)[-1] == ends[-1]
    back = _unpack(blob, segments, "vector")
    assert back.dtype == np.uint64 and back.tolist() == flat
    padded = [(end, count * k % 8) for (count, k), end in zip(segments, ends) if count * k % 8]
    if padded:
        end, used = padded[where % len(padded)]
        mangled = bytearray(blob)
        mangled[end - 1] |= 1 << (used + where % (8 - used))
        with pytest.raises(DecodeError):
            _unpack(bytes(mangled), segments, "vector")


@PROPERTY
@given(vector=segmented_vectors(), bit=st.integers(0, 7))
def test_noncanonical_packing_raises_decode_error(vector, bit):
    """A stream a byte short or a byte long is refused, whatever that byte holds."""
    segments, values = vector
    blob = b"".join(reference_pack(v, k) for v, (_, k) in zip(values, segments))
    for wrong in (blob[:-1], blob + b"\x00", blob + bytes([1 << bit])):
        with pytest.raises(DecodeError):
            _unpack(wrong, segments, "vector")


@PROPERTY
@given(kind=st.sampled_from(["ciphertext", "eph_public"]),
       which=st.sampled_from(["small", "desk"]), fill=st.sampled_from(FILLS),
       seed=st.integers(0, 2**32))
def test_v1_layout_blob_raises_decode_error(param_sets, kind, which, fill, seed):
    """4 bytes per coefficient, as the first codec wrote these blobs: never misread."""
    params = param_sets[which]
    obj = build(kind, params, fill, seed, IdentityString.parse("kube-apiserver.20250101"))
    packed = encode(kind, obj)
    if kind == "ciphertext":
        v1 = packed[:34] + pack_vec(obj.c0) + pack_vec(obj.c1)
    else:
        v1 = packed[:34 + 32] + pack_vec(obj.U.ravel())
    assert len(v1) > len(packed)
    with pytest.raises(DecodeError):
        decode(kind, v1, params)
