import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibetls.kem.sampling import HashStream

SEED = bytes(32)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(sizes=st.lists(st.integers(min_value=0, max_value=300), max_size=8))
def test_reads_are_contiguous_for_any_split(sizes):
    split = HashStream(SEED, b"split")
    whole = HashStream(SEED, b"split")
    assert b"".join(split.read(n) for n in sizes) == whole.read(sum(sizes))


def test_known_answer():
    # ChaCha20 (RFC 8439) block 0, zero nonce, under
    # key = SHA-256(b"ibetls.stream.v2\x00" || len(seed) as u32be || seed || label).
    # A change here changes every key, ciphertext and demo output for a seed.
    assert HashStream(SEED, b"kat").read(64).hex() == (
        "caf8b5c53b0e0b88679152a23bf911aa13a1a64ac6dfdacf00f84e99b31c15bc"
        "231395e232545a2b87e480d00a9be876bffdceae8535906b17ebcd2d7e5be30f"
    )


def test_streams_are_separated_by_label_and_seed():
    first = HashStream(SEED, b"setup").read(64)
    assert HashStream(SEED, b"setup").read(64) == first
    assert HashStream(SEED, b"syndrome").read(64) != first
    assert HashStream(bytes(31) + b"\x01", b"setup").read(64) != first
    # The seed length is hashed in, so moving bytes between seed and label
    # gives another stream.
    assert HashStream(b"ab", b"c").read(64) != HashStream(b"a", b"bc").read(64)


@pytest.mark.parametrize("draw", [
    lambda s: s.u32(5),
    lambda s: s.u64(5),
    lambda s: s.bits(13),
    lambda s: s.uniform_mod(5, 1048573),
    lambda s: s.signed_uniform(5, 1),
    lambda s: s.signed_uniform(5, 100),
    lambda s: s.signs(5),
])
def test_every_draw_goes_through_read(monkeypatch, draw):
    # Per-layer tracing counts sampler bytes by wrapping HashStream.read.
    read = HashStream.read
    calls = []

    def counting_read(self, n):
        calls.append(n)
        return read(self, n)

    monkeypatch.setattr(HashStream, "read", counting_read)
    draw(HashStream(SEED, b"draw"))
    assert calls

