import itertools
from dataclasses import replace

import pytest

from ibetls.tpkg import PRIME, ShareMismatch, ThresholdNotMet, reconstruct, shamir, split


def test_default_prime_covers_all_32_byte_secrets():
    assert PRIME > 2**256 - 1


def test_split_and_reconstruct_any_quorum():
    secret = bytes(range(32))
    share_set = split(secret, n_nodes=3, threshold=2, domain="cp", rng_seed=b"\x01" * 32)
    assert len(share_set.shares) == 3
    a, b, c = share_set.shares
    assert reconstruct([a, b]) == secret
    assert reconstruct([b, c]) == secret
    assert reconstruct([a, c]) == secret
    assert reconstruct([c, a, b]) == secret


def test_threshold_above_nodes_rejected():
    with pytest.raises(ValueError):
        split(bytes(32), n_nodes=3, threshold=4, domain="cp", rng_seed=b"\x02" * 32)


def test_below_threshold_rejected():
    share_set = split(bytes(32), n_nodes=3, threshold=2, domain="cp", rng_seed=b"\x03" * 32)
    with pytest.raises(ThresholdNotMet):
        reconstruct([share_set.shares[0]])
    with pytest.raises(ThresholdNotMet):
        reconstruct([])


def test_exhaustive_subsets_n4_t3():
    secret = b"\xAB" * 32
    share_set = split(secret, n_nodes=4, threshold=3, domain="cp", rng_seed=b"\x04" * 32)
    for size in range(5):
        for subset in itertools.combinations(share_set.shares, size):
            if size >= 3:
                assert reconstruct(list(subset)) == secret
            else:
                with pytest.raises(ThresholdNotMet):
                    reconstruct(list(subset))


def test_mixed_domains_rejected():
    set_a = split(bytes(32), n_nodes=3, threshold=2, domain="cp", rng_seed=b"\x05" * 32)
    set_b = split(bytes(32), n_nodes=3, threshold=2, domain="etcd", rng_seed=b"\x06" * 32)
    with pytest.raises(ShareMismatch):
        reconstruct([set_a.shares[0], set_b.shares[1]])


def test_duplicate_indices_rejected():
    share_set = split(bytes(32), n_nodes=3, threshold=2, domain="cp", rng_seed=b"\x07" * 32)
    with pytest.raises(ShareMismatch):
        reconstruct([share_set.shares[0], share_set.shares[0]])


def test_shares_that_interpolate_past_32_bytes_rejected():
    # Values no split writes: at x = 0 the line through (1, 0) and
    # (2, PRIME - 2**256) is 2**256, one past the largest 32-byte secret.
    share_set = split(bytes(32), n_nodes=3, threshold=2, domain="cp", rng_seed=b"\x0a" * 32)
    first, second, _ = share_set.shares
    edited = [replace(first, value=0), replace(second, value=PRIME - 2**256)]
    with pytest.raises(ShareMismatch):
        reconstruct(edited)


def test_single_share_reveals_nothing_over_toy_field(monkeypatch):
    # Brute force over a small prime field: enumerate every (secret, slope)
    # polynomial. One observed share is consistent with every candidate
    # secret; two shares pin the secret uniquely.
    prime = 101
    monkeypatch.setattr(shamir, "PRIME", prime)
    secret_int = 57
    share_set = split(secret_int.to_bytes(2, "big"), n_nodes=3, threshold=2,
                      domain="toy", rng_seed=b"\x08" * 32)
    first, second = share_set.shares[0], share_set.shares[1]

    def consistent(candidates_shares):
        survivors = []
        for secret in range(prime):
            for slope in range(prime):
                if all((secret + slope * s.index) % prime == s.value
                       for s in candidates_shares):
                    survivors.append(secret)
                    break
        return survivors

    assert consistent([first]) == list(range(prime))   # all secrets equally possible
    assert consistent([first, second]) == [secret_int]  # quorum determines it
    assert first.value != secret_int                    # the share is not the secret


def test_share_serialization_round_trip():
    from ibetls.tpkg import Share

    share_set = split(bytes(32), n_nodes=3, threshold=2, domain="cp", rng_seed=b"\x09" * 32)
    for share in share_set.shares:
        assert Share.from_dict(share.to_dict()) == share

