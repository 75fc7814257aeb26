"""Properties of the kem/codec.py decoders: every blob round-trips, and a
truncated, extended or bit-flipped blob raises only the KemError family. The
k-bit coefficient packing equals a plain-integer reference and has one
encoding per vector. Ciphertexts travel as grid indices, so one off the
grid encodes as its rounding."""

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
from ibetls.kem.codec import pack_coeffs, pack_vec, packed_size, unpack_coeffs
from ibetls.kem.ephemeral import EphemeralPublicKey
from ibetls.kem.params import is_prime
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
    """X with entries in [-(beta-1), beta-1], the range extract produces."""
    top = params.beta - 1
    shape = (params.m, params.ell)
    if fill == "random":
        X = rng.integers(-top, top + 1, size=shape)
    else:
        X = np.full(shape, {"max": top, "min": -top, "zero": 0}[fill])
    return X.astype(preimage_dtype(params))


def on_grid(params: KemParams, values: np.ndarray, d: int) -> np.ndarray:
    """values rounded onto the d-bit grid, as encaps leaves every ciphertext."""
    return decompress(compress(values, d, params.q), d, params.q)


def build(kind: str, params: KemParams, fill: str, seed: int, identity: IdentityString,
          grid: bool = True):
    """One object of kind at params; a ciphertext on its grid unless grid is False."""
    rng = np.random.default_rng(seed)
    if kind == "ciphertext":
        c0 = _coefficients(params, params.m, fill, rng)
        c1 = _coefficients(params, params.ell, fill, rng)
        if grid:
            d_u, d_v = params.ciphertext_bits
            c0, c1 = on_grid(params, c0, d_u), on_grid(params, c1, d_v)
        return IdKemCiphertext(params=params, c0=c0, c1=c1)
    if kind == "master_public":
        A = _coefficients(params, params.n * params.m, fill, rng).reshape(params.n, params.m)
        return MasterPublicKey(params=params, A=A, params_hash=params_hash_of(params, A))
    if kind == "private_key":
        return IdentityPrivateKey(identity=identity, X=_preimage(params, fill, rng),
                                  params_hash=rng.bytes(32), params=params)
    U = _coefficients(params, params.n * params.ell, fill, rng).reshape(params.n, params.ell)
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
    for before, after, d in zip((ct.c0, ct.c1), (back.c0, back.c1), params.ciphertext_bits):
        distance = np.minimum((after - before) % params.q, (before - after) % params.q)
        assert int(distance.max()) <= params.rounding_error(d)


def test_grid_index_with_another_encoding_is_refused():
    """Where decryption needs c0 at d_u = k bits, the grid has 2^k - q more
    indices than Z_q has values. Each of them decompresses to a value whose
    own index differs, so decoding refuses it and each ciphertext keeps one
    encoding."""
    tight = KemParams(n=2, q=12289, ell=16, beta=54, eta=1, domain_sep=b"tight")
    d_u, _ = tight.ciphertext_bits
    assert d_u == tight.k
    indices = np.arange(1 << d_u)
    others = indices[compress(decompress(indices, d_u, tight.q), d_u, tight.q) != indices]
    assert others.size == (1 << d_u) - tight.q
    zero = IdKemCiphertext(params=tight, c0=np.zeros(tight.m, dtype=np.int64),
                           c1=np.zeros(tight.ell, dtype=np.int64))
    blob = encode_ciphertext(zero, CT_PARAMS_HASH)
    c1_part = blob[34 + packed_size(tight.m, 1 << d_u):]
    for index in others[:: others.size // 16]:
        c0 = np.zeros(tight.m, dtype=np.int64)
        c0[5] = index
        with pytest.raises(DecodeError):
            decode("ciphertext", blob[:34] + pack_coeffs(c0, 1 << d_u) + c1_part, tight)


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


# -- pack_coeffs / unpack_coeffs: k-bit coefficients in one little-endian bit stream

def prime_of_width(k: int, start: int) -> int:
    """A prime q with (q-1).bit_length() == k: the first one at or after start
    in (2^(k-1), 2^k], else the last one before it."""
    low, high = 2 ** (k - 1) + 1, 2 ** k
    start = min(max(start, low), high)
    for q in itertools.chain(range(start, high + 1), range(start - 1, low - 1, -1)):
        if is_prime(q):
            return q
    raise AssertionError(f"no prime of width {k}")


def reference_pack(values: list[int], k: int) -> bytes:
    """The bit stream from a plain Python int: value i at bits [i*k, (i+1)*k)."""
    return sum(c << (i * k) for i, c in enumerate(values)).to_bytes(
        (len(values) * k + 7) // 8, "little")


@st.composite
def coefficient_vectors(draw):
    """(q, k, values) for a prime q of every width k in 2..26."""
    k = draw(st.integers(2, 26))
    q = prime_of_width(k, draw(st.integers(2 ** (k - 1), 2 ** k)))
    count = draw(st.integers(1, 70))
    fill = draw(st.sampled_from(["random", "zero", "max"]))
    if fill == "random":
        values = draw(st.lists(st.integers(0, q - 1), min_size=count, max_size=count))
    else:
        values = [0 if fill == "zero" else q - 1] * count
    return q, k, values


@PROPERTY
@given(vector=coefficient_vectors())
@example(vector=(3, 2, [2, 1, 0]))
@example(vector=(prime_of_width(26, 2 ** 26), 26, [prime_of_width(26, 2 ** 26) - 1] * 5))
def test_pack_coeffs_is_the_bit_stream_and_round_trips(vector):
    q, k, values = vector
    assert (q - 1).bit_length() == k
    blob = pack_coeffs(np.array(values, dtype=np.int64), q)
    assert blob == reference_pack(values, k)
    assert len(blob) == packed_size(len(values), q)
    back = unpack_coeffs(blob, len(values), q, "vector")
    assert back.dtype == np.int64 and back.tolist() == values


@pytest.mark.parametrize("k", range(2, 27))
def test_every_width_packs_the_extreme_vectors(k):
    rng = np.random.default_rng(k)
    for q in (prime_of_width(k, 0), prime_of_width(k, 2 ** k)):
        for count in (1, 7, 8, 33):
            for values in ([0] * count, [q - 1] * count, rng.integers(0, q, count).tolist()):
                blob = pack_coeffs(np.array(values), q)
                assert blob == reference_pack(values, k), (q, count)
                assert unpack_coeffs(blob, count, q, "vector").tolist() == values


@PROPERTY
@given(vector=coefficient_vectors(), where=st.integers(0, 2**31), bit=st.integers(0, 7))
def test_noncanonical_packing_raises_decode_error(vector, where, bit):
    q, k, values = vector
    count = len(values)
    blob = reference_pack(values, k)
    for wrong in (blob[:-1], blob + b"\x00", blob + bytes([1 << bit])):
        with pytest.raises(DecodeError):
            unpack_coeffs(wrong, count, q, "vector")
    used = count * k % 8
    if used:  # any nonzero pad bit
        pad_bit = used + bit % (8 - used)
        with pytest.raises(DecodeError):
            unpack_coeffs(blob[:-1] + bytes([blob[-1] | 1 << pad_bit]), count, q, "vector")
    # a coefficient in [q, 2^k), which fits the width but is not in Z_q
    big = list(values)
    big[where % count] = q + where % (2 ** k - q)
    with pytest.raises(DecodeError):
        unpack_coeffs(reference_pack(big, k), count, q, "vector")


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
        v1 = packed[:34 + len(params.header_bytes()) + 32] + pack_vec(obj.U.ravel())
    assert len(v1) > len(packed)
    with pytest.raises(DecodeError):
        decode(kind, v1, params)
