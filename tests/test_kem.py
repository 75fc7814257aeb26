import dataclasses
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    require_negotiable_scheme,
    setup,
)
from ibetls.kem.sampling import HashStream, limb_bits, matmul_mod
from ibetls.kem.scheme import (
    IdentityPrivateKey,
    IdKemCiphertext,
    MasterSecretKey,
    _shuffle_picks,
    _syndrome_matrix,
    _trapdoor_public,
    compress,
    decompress,
    gadget_decompose,
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
        KemParams(n=4, q=15, ell=16, beta=3, eta=1, domain_sep=b"x")


def test_degenerate_noise_rejected():
    with pytest.raises(InvalidParams):
        KemParams(n=4, q=12289, ell=16, beta=3, eta=0, domain_sep=b"x")
    with pytest.raises(InvalidParams):
        KemParams(n=4, q=12289, ell=16, beta=0, eta=1, domain_sep=b"x")


def test_margin_violation_rejected():
    # m*beta*eta + eta >= q/4 for these numbers
    with pytest.raises(InvalidParams):
        KemParams(n=32, q=1048573, ell=256, beta=5000, eta=1, domain_sep=b"x")


def test_float64_bound_rejected():
    # These pass the correctness margin; only m*q*q >= 2**53 rejects them.
    n, q, beta, eta = 32, 2**31 - 1, 65, 1
    m = 2 * n * (q - 1).bit_length()
    assert m * beta * eta + eta < q // 4 and m * q * q >= 2**53
    with pytest.raises(InvalidParams):
        KemParams(n=n, q=q, ell=256, beta=beta, eta=eta, domain_sep=b"x")
    # A peer's header naming these parameters fails the same way at decode.
    k = (q - 1).bit_length()
    header = b"IBEK1" + struct.pack("<8IH", n, k, n * k, m, q, 256, beta, eta, 1) + b"x"
    with pytest.raises(InvalidParams):
        KemParams.from_header(header)


def test_bad_header_still_refused_after_a_good_one_is_cached(desk):
    good = desk.header_bytes()
    assert KemParams.from_header(good + b"tail") == (desk, len(good))
    # the same header with a composite q, with a k and with an m that do not
    # follow from n and q, then with a broken magic
    def with_word(index, value):
        fields = list(struct.unpack("<8I", good[5:37]))
        fields[index] = value
        return good[:5] + struct.pack("<8I", *fields) + good[37:]

    composite = with_word(4, desk.q + 1)
    wrong_k = with_word(1, desk.k + 1)
    wrong_m = with_word(3, desk.m - 1)
    for bad in (composite, wrong_k, wrong_m, b"IBEK0" + good[5:], good[:-1]):
        for _ in range(2):
            with pytest.raises(InvalidParams):
                KemParams.from_header(bad)


def test_params_emit_non_security_banner():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        KemParams.desk()
    assert any(issubclass(w.category, ToyParametersWarning) for w in caught)


# ---------------------------------------------------------------------------
# ciphertext compression: the grid and the margin it must stay inside
# ---------------------------------------------------------------------------

SMALL = dict(n=2, q=12289, ell=16, beta=20, eta=1, domain_sep=b"codec")


def grid_error(values: np.ndarray, rounded: np.ndarray, q: int) -> int:
    """Largest distance in Z_q between values and rounded."""
    return int(np.minimum((rounded - values) % q, (values - rounded) % q).max())


@pytest.mark.parametrize("which", ["small", "desk"])
def test_grid_rounding_error_is_b_of_d_over_all_of_z_q(desk, which):
    """Decompress_d(Compress_d(x)) moves x by at most round(q / 2^(d+1)), that
    bound is reached, and d = k is lossless. Checked for every x in Z_q."""
    p = desk if which == "desk" else KemParams(**SMALL)
    values = np.arange(p.q, dtype=np.int64)
    for d in range(1, p.k + 1):
        indices = compress(values, d, p.q)
        assert 0 <= int(indices.min()) and int(indices.max()) < 2 ** d
        rounded = decompress(indices, d, p.q)
        assert 0 <= int(rounded.min()) and int(rounded.max()) < p.q
        assert grid_error(values, rounded, p.q) == p.rounding_error(d) \
            == round(p.q / 2 ** (d + 1)), d
    assert p.rounding_error(p.k) == 0 and np.array_equal(rounded, values)


@pytest.mark.parametrize("which, widths", [("small", (13, 3)), ("desk", (18, 6))])
def test_ciphertext_widths_are_the_fewest_bits_that_decrypt_exactly(desk, which, widths):
    """The worst case m*beta*eta + eta + m*beta*B(d_u) + B(d_v) < q/4 holds at
    the derived widths, and no pair in [1, k]^2 that keeps it has fewer bits
    per ciphertext."""
    p = desk if which == "desk" else KemParams(**SMALL)
    B = p.rounding_error

    def decrypts(d_u, d_v):
        return p.m * p.beta * p.eta + p.eta + p.m * p.beta * B(d_u) + B(d_v) < p.q // 4

    assert p.ciphertext_bits == widths and decrypts(*widths)
    bits = {(d_u, d_v): p.m * d_u + p.ell * d_v
            for d_u in range(1, p.k + 1) for d_v in range(1, p.k + 1) if decrypts(d_u, d_v)}
    assert (p.k, p.k) in bits
    assert bits[widths] == min(bits.values()) < bits[(p.k, p.k)]


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------


def test_setup_reconstruction_identity(desk, mpk, msk):
    G = gadget_matrix(desk)
    right = (G - (msk.a_bar.astype(np.float64) @ msk.R.astype(np.float64)).astype(np.int64)) % desk.q
    expected = np.concatenate([msk.a_bar, right], axis=1)
    assert np.array_equal(expected, mpk.A)
    assert np.array_equal(_trapdoor_public(desk, msk.a_bar, msk.R), mpk.A)


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


# A desk seed whose shuffle draws hold a rejected word among the words kept
# (window 57, word 213), so that setup replays its windows through uniform_mod.
REJECTING_SEED = (171).to_bytes(32, "big")


def test_trapdoor_matches_fisher_yates_replay(desk, monkeypatch):
    # setup shuffles every row at once; replay the same stream one row at a
    # time with a plain-Python partial Fisher-Yates shuffle. REJECTING_SEED
    # takes setup's replay through uniform_mod, SETUP_SEED its common case.
    for seed, replayed in [(SETUP_SEED, False), (REJECTING_SEED, True)]:
        with monkeypatch.context() as patch:
            _check_trapdoor_against_replay(desk, patch, seed, replayed)


def _check_trapdoor_against_replay(desk, monkeypatch, seed, replayed):
    stream = HashStream(seed, b"setup.v3")
    stream.uniform_mod(desk.n * desk.m_bar, desk.q)  # a_bar
    w, weight = desk.n * desk.k, desk.trapdoor_row_weight
    picks = [stream.uniform_mod(desk.m_bar, w - j).tolist() for j in range(weight)]
    signs = stream.signs(desk.m_bar * weight).tolist()
    expected = []
    for row in range(desk.m_bar):
        columns = list(range(w))
        for j in range(weight):
            k = j + picks[j][row]
            columns[j], columns[k] = columns[k], columns[j]
        entries = [0] * w
        for j in range(weight):
            entries[columns[j]] = signs[row * weight + j]
        expected.append(entries)
    draws = record_uniform_mod(monkeypatch)
    _, msk = setup(desk, seed)
    assert msk.R.dtype == np.int8
    assert msk.R.tolist() == expected
    # a_bar is one draw; a replay adds one per shuffle step
    assert len(draws) == 1 + weight * replayed


def record_uniform_mod(monkeypatch) -> list[int]:
    """The modulus of every HashStream.uniform_mod call from now on."""
    calls = []
    uniform_mod = HashStream.uniform_mod

    def recording(self, count, modulus):
        calls.append(modulus)
        return uniform_mod(self, count, modulus)

    monkeypatch.setattr(HashStream, "uniform_mod", recording)
    return calls


class CraftedStream(HashStream):
    """Serves the given 32-bit words in order, then zero words."""

    def __init__(self, words: np.ndarray) -> None:
        self.data = np.asarray(words, dtype="<u4").tobytes()
        self.position = 0

    def read(self, n: int) -> bytes:
        chunk = self.data[self.position : self.position + n].ljust(n, b"\0")
        self.position += n
        return chunk


@pytest.mark.parametrize("rejected, replayed", [
    ([], False),
    ([3 * 648], True),             # first word of window 3
    ([3 * 648 + 639], True),       # last word window 3 keeps
    ([5 * 648 + 647], False),      # last word of window 5, read but never kept
    ([2 * 648 + i for i in range(9)], True),  # 9 in window 2: an extra draw
], ids=["none", "window-start", "last-kept", "window-end", "nine-in-one-window"])
def test_shuffle_picks_read_what_sequential_draws_read(desk, monkeypatch, rejected, replayed):
    # Windows are rows + 8 = 648 words at desk size; 0xFFFFFFFF is above the
    # rejection limit of every modulus the shuffle draws under.
    rows, w, steps = desk.m_bar, desk.n * desk.k, desk.trapdoor_row_weight
    words = HashStream(SETUP_SEED, b"crafted").u32(steps * (rows + 8) + 64) >> 1
    words[rejected] = 0xFFFFFFFF
    reference = CraftedStream(words)
    expected = [reference.uniform_mod(rows, w - j) for j in range(steps)]

    calls = record_uniform_mod(monkeypatch)
    stream = CraftedStream(words)
    picks = _shuffle_picks(stream, rows, w, steps)
    assert picks.dtype == np.int32
    assert picks.tolist() == [draw.tolist() for draw in expected]
    assert stream.position == reference.position
    assert bool(calls) == replayed


DESK = KemParams.desk()
COEFFICIENTS = st.integers(0, DESK.q - 1) | st.just(DESK.q - 1)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(values=st.sampled_from([(DESK.n, DESK.ell), (DESK.n, 1)]).flatmap(
    lambda shape: arrays(np.int64, shape, elements=COEFFICIENTS, fill=COEFFICIENTS)))
@example(values=np.full((DESK.n, DESK.ell), DESK.q - 1, dtype=np.int64))
@example(values=np.arange(DESK.q - DESK.n, DESK.q, dtype=np.int64).reshape(DESK.n, 1))
def test_gadget_decompose_matches_shift_formula(desk, values):
    cols = values.shape[1]
    z = gadget_decompose(desk, values)
    shifts = np.arange(desk.k)[None, :, None]
    expected = ((values[:, None, :] >> shifts) & 1).reshape(desk.n * desk.k, cols)
    assert z.dtype == np.uint8
    assert np.array_equal(z, expected)
    assert np.array_equal((gadget_matrix(desk) @ z) % desk.q, values)


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
    other_domain = dataclasses.replace(desk, domain_sep=b"ibetls-desk-other")
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


def test_three_issued_keys_recover_the_trapdoor(desk, mpk, msk):
    # A key X = [R Z ; Z] shows R Z over the integers. ceil(n*k/ell) keys
    # stack into a full-rank Z, and R = rint(RZ pinv(Z)) exactly, at any
    # parameter size, because extraction is linear in R. Their holders can
    # then extract a key for any identity (README, "Escrow").
    keys = [extract(msk, mpk, IdentityString.parse(f"svc-{i}.20250101")) for i in range(3)]
    assert len(keys) == -(-desk.n * desk.k // desk.ell)
    Z = np.hstack([key.X[desk.m_bar:] for key in keys]).astype(np.float64)
    RZ = np.hstack([key.X[: desk.m_bar] for key in keys]).astype(np.float64)
    assert Z.shape == (640, 768) and np.linalg.matrix_rank(Z) == 640
    R = np.rint(RZ @ np.linalg.pinv(Z)).astype(np.int8)
    assert np.array_equal(R, msk.R)

    forged_msk = MasterSecretKey(R=R, a_bar=mpk.A[:, : desk.m_bar],
                                 params_hash=mpk.params_hash)
    never_issued = IdentityString.parse("kube-apiserver.20991231")
    forged = extract(forged_msk, mpk, never_issued)
    ct, ss = encaps(mpk, never_issued, seed_of(6))
    assert decaps(forged, ct) == ss


def test_decaps_outputs_reveal_the_secret_half_of_a_key(desk, mpk, client_key):
    # decaps is CPA-only dual-Regev decryption, so its output is an oracle
    # (README, "Decapsulation oracle"). With c0 = e_j, c1 zero but for
    # c1_i = q//4 + t, the mask is c1 - X[j] and only bit i can be set: it is
    # exactly when X[j, i] < t. Anyone who can compute both candidate secrets
    # from public values reads X[j, i] by a binary search over t.
    identity, X = client_key.identity, client_key.X
    no_bit = shared_secret_kdf(np.zeros(desk.ell, dtype=np.int64), identity, mpk.params_hash)
    rows, cols = np.random.default_rng(1601).integers(0, [[desk.m_bar], [desk.ell]], (2, 16))
    recovered = []
    for j, i in zip(rows, cols):
        c0 = np.zeros(desk.m, dtype=np.int64)
        c0[j] = 1
        bit_i = np.zeros(desk.ell, dtype=np.int64)
        bit_i[i] = 1
        one_hot = shared_secret_kdf(bit_i, identity, mpk.params_hash)
        low, high, probes = -desk.beta, desk.beta, 0  # X[j, i] in [low, high]
        while low < high:
            t = (low + high + 1) // 2
            c1 = np.zeros(desk.ell, dtype=np.int64)
            c1[i] = desk.q // 4 + t
            probes += 1
            secret = decaps(client_key, IdKemCiphertext(params=desk, c0=c0, c1=c1))
            assert secret in (one_hot, no_bit)
            if secret == one_hot:
                high = t - 1  # X[j, i] < t
            else:
                low = t
        assert probes <= 8
        recovered.append(low)
    assert recovered == X[rows, cols].tolist() and len(set(recovered)) > 1


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
        assert decaps(server_key, IdKemCiphertext(params=desk, c0=ct.c0, c1=c1)) != ss


def test_decaps_rejects_out_of_range(desk, server_key, mpk, server_identity):
    ct, _ = encaps(mpk, server_identity, seed_of(9))
    bad = ct.c0.copy()
    bad[0] = desk.q  # structurally invalid, not an authentication failure
    with pytest.raises(DecodeError):
        decaps(server_key, IdKemCiphertext(params=desk, c0=bad, c1=ct.c1))


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
    back = decode_ciphertext(blob, desk, mpk.params_hash, 0x7001)
    assert np.array_equal(back.c0, ct.c0) and np.array_equal(back.c1, ct.c1)
    with pytest.raises(DecodeError):
        decode_ciphertext(blob[:-4], desk, mpk.params_hash, 0x7001)
    # a prefix other than the expected (params_hash, scheme id)
    for params_hash, scheme_id in ((bytes(32), 0x7001), (mpk.params_hash, 0x7002)):
        with pytest.raises(DecodeError):
            decode_ciphertext(blob, desk, params_hash, scheme_id)


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


def test_decaps_refuses_hand_built_preimage_above_beta(desk, mpk, server_key):
    ct, _ = encaps(mpk, server_key.identity, seed_of(13))
    X = server_key.X.copy()
    X[7, 2] = desk.beta + 1
    oversized = IdentityPrivateKey(identity=server_key.identity, X=X,
                                   params_hash=server_key.params_hash, params=desk)
    with pytest.raises(ValueError):
        decaps(oversized, ct)


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
    decode_ciphertext(blob, desk, mpk.params_hash, 0x0001)
    with pytest.raises(UnsupportedScheme):
        require_negotiable_scheme(0x0001)
    require_negotiable_scheme(0x7001)
    for scheme_id in (0x7002, 0xBEEF):
        with pytest.raises(DecodeError):
            require_negotiable_scheme(scheme_id)


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


def test_limb_widths_at_desk_parameters(desk):
    # X (bound beta) gets three 7-bit limbs, the ternary x two 13-bit limbs.
    assert limb_bits(desk.m, desk.beta) == 7
    assert limb_bits(desk.m, 1) == 13
    assert -(-desk.k // limb_bits(desk.m, 1000)) >= 4
    with pytest.raises(ValueError):
        limb_bits(2**12, 2**12)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(rows=st.integers(1, 3), inner=st.integers(1, 1280), cols=st.integers(1, 3),
       bound=st.sampled_from(["1", "eta", "beta", "1000"]),
       wide=st.sampled_from(["random", "zero", "max"]),
       short=st.sampled_from(["random", "max", "min"]), seed=st.integers(0, 2**32))
@example(rows=2, inner=1280, cols=2, bound="beta", wide="max", short="min", seed=0)
@example(rows=1, inner=1280, cols=3, bound="1000", wide="max", short="max", seed=0)
# The 2^24 edge: 241 * 17 * (2^12 - 1) == 2^24 - 1, so every limb of 4095 is
# all ones and each limb's sum is the largest the kernel admits.
@example(rows=2, inner=241, cols=2, bound="17", wide="limb", short="max", seed=0)
def test_bounded_matmul_mod_matches_integer_reference(desk, rows, inner, cols, bound, wide,
                                                      short, seed):
    q = desk.q
    bound = {"eta": desk.eta, "beta": desk.beta}.get(bound) or int(bound)
    assert inner <= desk.m
    if wide == "limb":
        assert limb_bits(inner, bound) == 12 and inner * bound * 4095 == 2**24 - 1
    rng = np.random.default_rng(seed)
    a = {"random": lambda: rng.integers(0, q, size=(rows, inner)),
         "zero": lambda: np.zeros((rows, inner), dtype=np.int64),
         "max": lambda: np.full((rows, inner), q - 1, dtype=np.int64),
         "limb": lambda: np.full((rows, inner), 4095, dtype=np.int64)}[wide]()
    dtype = np.min_scalar_type(-bound)
    b = {"random": lambda: rng.integers(-bound, bound + 1, size=(inner, cols)),
         "max": lambda: np.full((inner, cols), bound),
         "min": lambda: np.full((inner, cols), -bound)}[short]().astype(dtype)
    expected = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(inner)) % q
                 for j in range(cols)] for i in range(rows)]
    assert matmul_mod(a, b, q, bound=bound).tolist() == expected
    # one entry past the bound, on either side, is refused
    over = b.astype(np.int64)
    over[rng.integers(inner), rng.integers(cols)] = rng.choice([-1, 1]) * (bound + 1)
    with pytest.raises(ValueError):
        matmul_mod(a, over, q, bound=bound)


def test_bounded_matmul_mod_refuses_int8_minimum(desk):
    # abs(int8(-128)) wraps to -128, so the bound check must not rely on abs.
    a = np.ones((1, 4), dtype=np.int64)
    with pytest.raises(ValueError):
        matmul_mod(a, np.full((4, 1), -128, dtype=np.int8), desk.q, bound=127)
