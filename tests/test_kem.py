import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibetls.kem import (
    DecodeError,
    IdentityString,
    InvalidParams,
    KemParams,
    MasterKeyMismatch,
    ToyParametersWarning,
    UnsupportedScheme,
    decaps,
    decode_ciphertext,
    decode_master_public,
    decode_private_key,
    derive_public,
    encaps,
    encode_ciphertext,
    encode_master_public,
    encode_private_key,
    extract,
    gadget_matrix,
    require_reference_scheme,
    setup,
)
from ibetls.kem.sampling import HashStream, matmul_mod
from ibetls.kem.scheme import (
    IdentityPrivateKey,
    IdKemCiphertext,
    _syndrome_matrix,
    shared_secret_kdf,
)

from conftest import SETUP_SEED


def seed_of(i: int) -> bytes:
    return i.to_bytes(32, "big")


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_desk_params_shape(desk):
    assert desk.m_bar == desk.n * desk.k
    assert desk.m == desk.m_bar + desk.n * desk.k
    assert desk.q == 1048573 and desk.k == 20
    # deterministic-correctness margin
    assert desk.m * desk.beta * desk.eta + desk.eta < desk.q // 4


def test_composite_modulus_rejected():
    with pytest.raises(InvalidParams):
        KemParams.create(n=4, q=15, ell=16, beta=3, eta=1, domain_sep=b"x")


def test_degenerate_noise_rejected():
    with pytest.raises(InvalidParams):
        KemParams.create(n=4, q=12289, ell=16, beta=3, eta=0, domain_sep=b"x")
    with pytest.raises(InvalidParams):
        KemParams.create(n=4, q=12289, ell=16, beta=0, eta=1, domain_sep=b"x")


def test_margin_violation_rejected():
    # m*beta*eta + eta >= q/4 for these numbers
    with pytest.raises(InvalidParams):
        KemParams.create(n=32, q=1048573, ell=256, beta=5000, eta=1, domain_sep=b"x")


def test_float64_bound_rejected():
    # These pass the correctness margin; only m*q*q >= 2**53 rejects them.
    n, q, beta, eta = 32, 2**31 - 1, 65, 1
    m = 2 * n * (q - 1).bit_length()
    assert m * beta * eta + eta < q // 4 and m * q * q >= 2**53
    with pytest.raises(InvalidParams):
        KemParams.create(n=n, q=q, ell=256, beta=beta, eta=eta, domain_sep=b"x")
    # A peer's header naming these parameters fails the same way at decode.
    k = (q - 1).bit_length()
    header = b"IBEK1" + struct.pack("<8IH", n, k, n * k, m, q, 256, beta, eta, 1) + b"x"
    with pytest.raises(InvalidParams):
        KemParams.from_header(header)


def test_params_emit_non_security_banner():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        KemParams.desk()
    assert any(issubclass(w.category, ToyParametersWarning) for w in caught)


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------


def test_setup_reconstruction_identity(desk, mpk, msk):
    G = gadget_matrix(desk)
    right = (G - (msk.a_bar.astype(np.float64) @ msk.R.astype(np.float64)).astype(np.int64)) % desk.q
    expected = np.concatenate([msk.a_bar, right], axis=1)
    assert np.array_equal(expected, mpk.A)
    assert np.array_equal(msk.reconstruct_public(desk), mpk.A)


def test_setup_is_deterministic(desk):
    # Oracle: run setup twice, compare full serializations.
    mpk1, _ = setup(desk, seed_of(7))
    mpk2, _ = setup(desk, seed_of(7))
    assert encode_master_public(mpk1) == encode_master_public(mpk2)
    mpk3, _ = setup(desk, seed_of(8))
    assert encode_master_public(mpk1) != encode_master_public(mpk3)


def test_setup_rejects_short_seed(desk):
    with pytest.raises(ValueError):
        setup(desk, b"short")


def test_trapdoor_row_weight_fixed(desk, msk):
    weights = np.count_nonzero(msk.R, axis=1)
    assert set(weights.tolist()) == {desk.trapdoor_row_weight}
    assert set(np.unique(msk.R).tolist()) <= {-1, 0, 1}


def test_trapdoor_support_matches_full_sort_reference(desk, msk):
    # setup picks each row's support with argpartition; the columns of the
    # beta-1 smallest keys by a full argsort of the same keys must be the same.
    stream = HashStream(SETUP_SEED, b"setup")
    stream.uniform_mod(desk.n * desk.m_bar, desk.q)  # a_bar
    w = desk.n * desk.k
    keys = stream.u64(desk.m_bar * w).reshape(desk.m_bar, w)
    expected = np.zeros(msk.R.shape, dtype=bool)
    np.put_along_axis(expected, np.argsort(keys, axis=1)[:, :desk.beta - 1], True, axis=1)
    assert np.array_equal(msk.R != 0, expected)
    assert np.array_equal(np.abs(msk.R) == 1, expected)


# ---------------------------------------------------------------------------
# derive_public
# ---------------------------------------------------------------------------


def test_derive_public_stable(mpk):
    ident = IdentityString.parse("prod-us-west.payments.checkout-api.20250101")
    u1 = derive_public(mpk, ident).U
    u2 = derive_public(mpk, ident).U
    assert np.array_equal(u1, u2)
    assert u1.shape == (mpk.params.n, mpk.params.ell)


def test_syndrome_matrix_deterministic_and_in_range(desk):
    U = _syndrome_matrix(desk, "cluster.ns.svc.20250101")
    assert U.shape == (desk.n, desk.ell)
    assert int(U.min()) >= 0 and int(U.max()) < desk.q
    assert np.array_equal(U, _syndrome_matrix(desk, "cluster.ns.svc.20250101"))
    assert not np.array_equal(U, _syndrome_matrix(desk, "cluster.ns.svc.20250102"))
    other_domain = KemParams.desk(domain_sep=b"ibetls-desk-other")
    assert not np.array_equal(U, _syndrome_matrix(other_domain, "cluster.ns.svc.20250101"))


def test_derive_public_independent_of_master_matrix(desk, mpk):
    other_mpk, _ = setup(desk, seed_of(99))
    assert not np.array_equal(other_mpk.A, mpk.A)
    ident = IdentityString.parse("prod-us-west.payments.checkout-api.20250101")
    assert np.array_equal(derive_public(mpk, ident).U, derive_public(other_mpk, ident).U)


def test_adjacent_epochs_differ_in_every_column(mpk):
    # Oracle: column-wise collision check across all ell columns.
    u1 = derive_public(mpk, IdentityString.parse("00101.AMF.amf-001.20250101")).U
    u2 = derive_public(mpk, IdentityString.parse("00101.AMF.amf-001.20250102")).U
    same = [i for i in range(mpk.params.ell) if np.array_equal(u1[:, i], u2[:, i])]
    assert same == []


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


def test_extract_algebra_exact(desk, mpk, msk):
    for i in range(25):
        ident = IdentityString.parse(f"cluster.ns.svc-{i}.20250101")
        sk = extract(msk, mpk, ident)
        U = derive_public(mpk, ident).U
        prod = (mpk.A.astype(np.float64) @ sk.X.astype(np.float64)).astype(np.int64) % desk.q
        assert np.array_equal(prod, U)
        assert int(np.abs(sk.X).max()) <= desk.beta


def test_extract_requires_matching_master(desk, mpk):
    _, other_msk = setup(desk, seed_of(1234))
    with pytest.raises(MasterKeyMismatch):
        extract(other_msk, mpk, IdentityString.parse("a.b.1"))


def test_cross_domain_keys_not_interchangeable(desk, mpk, msk):
    # Same identity extracted under a different trust domain cannot recover
    # secrets encapsulated under this one.
    other_mpk, other_msk = setup(desk, seed_of(4321))
    ident = IdentityString.parse("etcd:node-1.20250101")
    sk_here = extract(msk, mpk, ident)
    sk_there = extract(other_msk, other_mpk, ident)
    ct, ss = encaps(mpk, ident, seed_of(5))
    assert decaps(sk_here, ct) == ss
    assert decaps(sk_there, ct) != ss


# ---------------------------------------------------------------------------
# encaps / decaps
# ---------------------------------------------------------------------------


def test_round_trip_sample(mpk, msk):
    for i in range(200):
        ident = IdentityString.parse(f"prod.team-{i % 8}.svc-{i % 5}.20250101")
        sk = extract(msk, mpk, ident)
        ct, ss = encaps(mpk, ident, seed_of(1000 + i))
        assert decaps(sk, ct) == ss
        assert len(ss) == 32


def test_distinct_seeds_give_distinct_results(mpk, server_identity):
    ct1, ss1 = encaps(mpk, server_identity, seed_of(1))
    ct2, ss2 = encaps(mpk, server_identity, seed_of(2))
    assert ss1 != ss2
    assert not np.array_equal(ct1.c0, ct2.c0)


def test_encaps_deterministic_given_seed(mpk, server_identity):
    ct1, ss1 = encaps(mpk, server_identity, seed_of(6))
    ct2, ss2 = encaps(mpk, server_identity, seed_of(6))
    assert ss1 == ss2
    assert np.array_equal(ct1.c0, ct2.c0) and np.array_equal(ct1.c1, ct2.c1)


def test_decaps_deterministic(mpk, server_key, server_identity):
    ct, _ = encaps(mpk, server_identity, seed_of(3))
    assert decaps(server_key, ct) == decaps(server_key, ct)


def test_wrong_identity_key_mismatches(mpk, msk, server_identity):
    # Implicit rejection: decaps never raises, the secret is simply wrong.
    sk_b = extract(msk, mpk, IdentityString.parse("scheduler.20250101"))
    hits = 0
    for i in range(1000):
        ct, ss = encaps(mpk, server_identity, seed_of(20_000 + i))
        if decaps(sk_b, ct) == ss:
            hits += 1
    assert hits == 0


def test_single_coefficient_tamper_flips_exactly_one_bit(desk, mpk, server_key, server_identity):
    ct, ss = encaps(mpk, server_identity, seed_of(77))
    q = desk.q

    def recovered_bits(c1):
        # Test-side oracle: redo the rounding arithmetic directly.
        mask = (c1 - server_key.X.T.astype(np.float64) @ ct.c0.astype(np.float64)).astype(np.int64) % q
        return ((2 * mask + q // 2) // q) % 2

    before = recovered_bits(ct.c1)
    for position in (0, 100, desk.ell - 1):
        c1 = ct.c1.copy()
        c1[position] = (c1[position] + q // 2) % q
        after = recovered_bits(c1)
        assert int(np.sum(before != after)) == 1 and before[position] != after[position]
        assert decaps(server_key, IdKemCiphertext(c0=ct.c0, c1=c1)) != ss


def test_decaps_rejects_out_of_range(desk, server_key, mpk, server_identity):
    ct, _ = encaps(mpk, server_identity, seed_of(9))
    bad = ct.c0.copy()
    bad[0] = desk.q  # structurally invalid, not an authentication failure
    with pytest.raises(DecodeError):
        decaps(server_key, IdKemCiphertext(c0=bad, c1=ct.c1))


def test_domain_separation_of_shared_secret(mpk):
    bits = np.ones(mpk.params.ell, dtype=np.int64)
    a = shared_secret_kdf(bits, IdentityString.parse("a.b.1"), mpk.params_hash)
    b = shared_secret_kdf(bits, IdentityString.parse("a.c.1"), mpk.params_hash)
    assert a != b
    c = shared_secret_kdf(bits, IdentityString.parse("a.b.1"), bytes(32))
    assert a != c


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


def test_ciphertext_codec_round_trip(desk, mpk, server_identity):
    ct, _ = encaps(mpk, server_identity, seed_of(11))
    blob = encode_ciphertext(ct, mpk.params_hash)
    ph, scheme, back = decode_ciphertext(blob, desk)
    assert ph == mpk.params_hash and scheme == 0x7001
    assert np.array_equal(back.c0, ct.c0) and np.array_equal(back.c1, ct.c1)
    with pytest.raises(DecodeError):
        decode_ciphertext(blob[:-4], desk)


def test_master_public_codec_round_trip(mpk):
    back = decode_master_public(encode_master_public(mpk))
    assert back.params_hash == mpk.params_hash
    assert np.array_equal(back.A, mpk.A)


def test_master_public_codec_detects_corruption(mpk):
    blob = bytearray(encode_master_public(mpk))
    blob[-1] ^= 0x01
    with pytest.raises(DecodeError):
        decode_master_public(bytes(blob))


def test_private_key_codec_round_trip(server_key):
    back = decode_private_key(encode_private_key(server_key))
    assert back.identity == server_key.identity
    assert back.params_hash == server_key.params_hash
    assert np.array_equal(back.X, server_key.X)


def test_private_key_decode_rejects_preimage_above_beta(desk, server_key):
    X = server_key.X.copy()
    X[3, 5] = -(desk.beta + 1)
    oversized = IdentityPrivateKey(identity=server_key.identity, X=X,
                                   params_hash=server_key.params_hash, params=desk)
    with pytest.raises(DecodeError):
        decode_private_key(encode_private_key(oversized))


@pytest.mark.parametrize("offset, byte", [(0, 0xFF), (-1, ord("x"))],
                         ids=["not_utf8", "malformed_epoch"])
def test_private_key_decode_rejects_bad_identity(server_key, offset, byte):
    blob = bytearray(encode_private_key(server_key))
    ident = server_key.identity.canonical.encode("utf-8")
    start = blob.index(struct.pack("!H", len(ident)) + ident) + 2
    blob[start + offset % len(ident)] = byte
    with pytest.raises(DecodeError):
        decode_private_key(bytes(blob))


def test_reserved_scheme_id_accepted_by_codec_not_instantiable(desk, mpk, server_identity):
    ct, _ = encaps(mpk, server_identity, seed_of(12))
    blob = encode_ciphertext(ct, mpk.params_hash, scheme_id=0x0001)
    _, scheme, _ = decode_ciphertext(blob, desk)
    assert scheme == 0x0001
    with pytest.raises(UnsupportedScheme):
        require_reference_scheme(scheme)
    with pytest.raises(UnsupportedScheme):
        require_reference_scheme(0xBEEF)


def test_fixtures_share_one_master(mpk):
    # conftest master is derived from the frozen seed; sanity anchor.
    mpk2, _ = setup(mpk.params, SETUP_SEED)
    assert encode_master_public(mpk2) == encode_master_public(mpk)


# ---------------------------------------------------------------------------
# exact modular products
# ---------------------------------------------------------------------------


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(rows=st.integers(1, 3), inner=st.integers(1, 1280), cols=st.integers(1, 3),
       fill=st.sampled_from(["random", "max", "min", "signs"]), seed=st.integers(0, 2**32))
@example(rows=1, inner=1280, cols=1, fill="max", seed=0)
@example(rows=2, inner=1280, cols=2, fill="min", seed=0)
def test_matmul_mod_matches_integer_reference(desk, rows, inner, cols, fill, seed):
    # Operands in (-q, q) with inner dimension up to m, as the KEM uses them;
    # the all-(q-1) product at inner = m is the largest sum KemParams admits.
    q = desk.q
    assert inner <= desk.m
    rng = np.random.default_rng(seed)

    def operand(shape):
        if fill == "random":
            return rng.integers(-(q - 1), q, size=shape)
        if fill == "signs":
            return rng.choice([-(q - 1), q - 1], size=shape)
        return np.full(shape, q - 1 if fill == "max" else -(q - 1), dtype=np.int64)

    a, b = operand((rows, inner)), operand((inner, cols))
    expected = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(inner)) % q
                 for j in range(cols)] for i in range(rows)]
    assert matmul_mod(a, b, q).tolist() == expected
