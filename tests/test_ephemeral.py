import numpy as np
import pytest

from ibetls.kem import (
    DecodeError,
    EphemeralKeyReuse,
    IdKemCiphertext,
    decode_eph_public,
    encode_eph_public,
    eph_decaps,
    eph_encaps,
    eph_generate,
)


def seed_of(i: int) -> bytes:
    return i.to_bytes(32, "big")


def test_round_trip_many(desk):
    keypair = eph_generate(desk, seed_of(1))
    for i in range(1000):
        ct, ss = eph_encaps(keypair.public, seed_of(100 + i))
        assert eph_decaps(keypair, ct) == ss
        assert len(ss) == 32


def test_fresh_keypairs_differ(desk):
    a = eph_generate(desk, seed_of(2))
    b = eph_generate(desk, seed_of(3))
    assert a.public.seed_a != b.public.seed_a
    assert not np.array_equal(a.public.U, b.public.U)


def test_consume_is_one_shot(desk):
    keypair = eph_generate(desk, seed_of(4))
    keypair.consume()
    with pytest.raises(EphemeralKeyReuse):
        keypair.consume()


def test_erase_clears_secret(desk):
    keypair = eph_generate(desk, seed_of(5))
    keypair.erase()
    assert not keypair._x.any()


def test_public_share_has_fixed_length(desk):
    sizes = {len(encode_eph_public(eph_generate(desk, seed_of(10 + i)).public)) for i in range(3)}
    assert len(sizes) == 1


def test_public_share_codec_round_trip(desk):
    keypair = eph_generate(desk, seed_of(6))
    back = decode_eph_public(encode_eph_public(keypair.public))
    assert back.seed_a == keypair.public.seed_a
    assert np.array_equal(back.U, keypair.public.U)
    assert back.binding_hash() == keypair.public.binding_hash()


def test_wrong_keypair_mismatches(desk):
    a = eph_generate(desk, seed_of(7))
    b = eph_generate(desk, seed_of(8))
    ct, ss = eph_encaps(a.public, seed_of(9))
    assert eph_decaps(b, ct) != ss


def test_eph_decaps_rejects_out_of_range(desk):
    keypair = eph_generate(desk, seed_of(11))
    ct, _ = eph_encaps(keypair.public, seed_of(12))
    bad = ct.c1.copy()
    bad[0] = desk.q
    with pytest.raises(DecodeError):
        eph_decaps(keypair, IdKemCiphertext(c0=ct.c0, c1=bad))


def test_public_matrix_expanded_lazily_once_per_key(desk):
    keypair = eph_generate(desk, seed_of(13))
    public = decode_eph_public(encode_eph_public(keypair.public))
    # Decoding a peer's share must not expand the matrix it names.
    assert "A" not in vars(public)
    eph_encaps(public, seed_of(14))
    matrix = vars(public)["A"]
    eph_encaps(public, seed_of(15))
    assert public.A is matrix
    assert np.array_equal((matrix @ keypair._x) % desk.q, public.U)
