"""Properties of the kem/codec.py decoders: every blob round-trips, and a
truncated, extended or bit-flipped blob raises only the KemError family."""

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
from ibetls.kem.ephemeral import EphemeralPublicKey
from ibetls.kem.scheme import (
    IdentityPrivateKey,
    IdKemCiphertext,
    MasterPublicKey,
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
    small = KemParams.create(n=2, q=12289, ell=16, beta=20, eta=1, domain_sep=b"codec")
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


def build(kind: str, params: KemParams, fill: str, seed: int, identity: IdentityString):
    """One object of kind at params."""
    rng = np.random.default_rng(seed)
    if kind == "ciphertext":
        return IdKemCiphertext(c0=_coefficients(params, params.m, fill, rng),
                               c1=_coefficients(params, params.ell, fill, rng))
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
        return decode_ciphertext(blob, params)[2]
    return {"master_public": decode_master_public, "private_key": decode_private_key,
            "eph_public": decode_eph_public}[kind](blob)


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
        assert decode_ciphertext(blob, params)[:2] == (CT_PARAMS_HASH, 0x7001)
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
