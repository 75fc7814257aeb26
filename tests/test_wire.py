import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibetls.kem import DecodeError
from ibetls.kem.codec import SCHEME_REFERENCE
from ibetls.handshake import (
    ClientHello,
    EncryptedExtensions,
    Extension,
    Finished,
    HelloRetryRequest,
    IbeIdentity,
    IbeIdentityAuth,
    ServerHello,
    decode_extension,
)
from ibetls.handshake.wire import (
    EXT_IBE_IDENTITY,
    EXT_IBE_IDENTITY_AUTH,
    decode_client_hello,
    decode_encrypted_extensions,
    decode_finished,
    decode_hello_retry_request,
    decode_server_hello,
    encode_client_hello,
    encode_encrypted_extensions,
    encode_finished,
    encode_hello_retry_request,
    encode_server_hello,
    record,
    split_record,
    unframe,
)


def test_extension_round_trip():
    ext = Extension(51, b"\x01\x02\x03")
    encoded = ext.encode()
    assert encoded == b"\x00\x33\x00\x03\x01\x02\x03"
    assert decode_extension(encoded) == ext


def test_unknown_extension_preserved_opaquely():
    ext = Extension(0xABCD, b"whatever bytes")
    assert decode_extension(ext.encode()) == ext


def test_identity_auth_exact_bytes():
    # scheme 0x7001 with a 2-byte ciphertext must encode as 70 01 00 02 AA BB
    auth = IbeIdentityAuth(0x7001, b"\xAA\xBB")
    ext = auth.to_extension()
    assert ext.extension_data == bytes.fromhex("70010002aabb")
    assert IbeIdentityAuth.from_extension(ext) == auth


def test_identity_auth_rejects_empty_body():
    # the scheme id is judged by the session; see test_handshake's alert matrix
    with pytest.raises(ValueError):
        IbeIdentityAuth(0x7001, b"").to_extension()
    with pytest.raises(DecodeError):
        IbeIdentityAuth.from_extension(Extension(65280, bytes.fromhex("70010000")))


def test_identity_extension_round_trips_email_form():
    ident = IbeIdentity("client@example.com")
    assert IbeIdentity.from_extension(ident.to_extension()) == ident


def test_identity_extension_rejects_empty():
    ext = Extension(65281, b"\x00\x00")
    with pytest.raises(DecodeError):
        IbeIdentity.from_extension(ext)


def test_truncated_buffer_rejected():
    with pytest.raises(DecodeError):
        decode_extension(b"\x00\x33\x00")
    with pytest.raises(DecodeError):
        unframe(b"\x01\x00")


def test_client_hello_round_trip():
    hello = ClientHello(
        random=bytes(range(32)),
        eph_share=b"\x05" * 100,
        extensions=[Extension(65280, b"pq"), Extension(7, b"")],
    )
    framed = encode_client_hello(hello)
    msg_type, body = unframe(framed)
    assert msg_type == 1
    assert decode_client_hello(body) == hello


def test_server_hello_round_trip():
    hello = ServerHello(random=b"\xEE" * 32, eph_ciphertext=b"ct" * 50,
                        extensions=[Extension(65280, b"x")])
    _, body = unframe(encode_server_hello(hello))
    assert decode_server_hello(body) == hello


def test_hrr_and_ee_and_finished_round_trip():
    hrr = HelloRetryRequest(random=b"\x11" * 32)
    _, body = unframe(encode_hello_retry_request(hrr))
    assert decode_hello_retry_request(body) == hrr

    ee = EncryptedExtensions(extensions=[Extension(9, b"abc")])
    _, body = unframe(encode_encrypted_extensions(ee))
    assert decode_encrypted_extensions(body) == ee

    fin = Finished(verify_data=b"\x22" * 32)
    _, body = unframe(encode_finished(fin))
    assert decode_finished(body) == fin
    with pytest.raises(DecodeError):
        decode_finished(b"\x22" * 31)


def test_record_framing():
    rec = record(22, b"payload")
    assert rec == b"\x16\x00\x07payload"
    assert split_record(rec) == (22, b"payload")
    with pytest.raises(DecodeError):
        split_record(rec + b"junk")


def test_trailing_garbage_rejected():
    hello = ClientHello(random=bytes(32), eph_share=b"s", extensions=[])
    framed = encode_client_hello(hello)
    _, body = unframe(framed)
    with pytest.raises(DecodeError):
        decode_client_hello(body + b"\x00")


# Every standalone decoder, each fed the bytes it would take off the wire.
DECODERS = {
    "record": split_record,
    "handshake message": unframe,
    "extension": decode_extension,
    "ClientHello": decode_client_hello,
    "ServerHello": decode_server_hello,
    "HelloRetryRequest": decode_hello_retry_request,
    "EncryptedExtensions": decode_encrypted_extensions,
    "Finished": decode_finished,
    "ibe_identity_auth": lambda data: IbeIdentityAuth.from_extension(
        Extension(EXT_IBE_IDENTITY_AUTH, data)),
    "ibe_identity": lambda data: IbeIdentity.from_extension(Extension(EXT_IBE_IDENTITY, data)),
}

# Valid encodings to mangle, so that inputs get past the first length field.
_EXTENSIONS = [IbeIdentityAuth(SCHEME_REFERENCE, b"\xAA" * 6).to_extension(),
               IbeIdentity("kubelet:node-01.20250101").to_extension(), Extension(7, b"")]
SAMPLES = [
    record(22, b"payload"),
    encode_finished(Finished(verify_data=b"\x22" * 32)),
    _EXTENSIONS[0].encode(),
    _EXTENSIONS[0].extension_data,
    _EXTENSIONS[1].extension_data,
    unframe(encode_client_hello(ClientHello(random=bytes(32), eph_share=b"\x05" * 40,
                                            extensions=_EXTENSIONS)))[1],
    unframe(encode_server_hello(ServerHello(random=bytes(32), eph_ciphertext=b"ct" * 20,
                                            extensions=_EXTENSIONS[:1])))[1],
    unframe(encode_hello_retry_request(HelloRetryRequest(random=bytes(32))))[1],
    unframe(encode_encrypted_extensions(EncryptedExtensions(extensions=_EXTENSIONS)))[1],
]


def _flip(sample: bytes, position: int, bit: int) -> bytes:
    data = bytearray(sample)
    data[position % len(data)] ^= 1 << bit
    return bytes(data)


wire_inputs = st.one_of(
    st.binary(max_size=160),
    st.builds(_flip, st.sampled_from(SAMPLES), st.integers(0, 2**16), st.integers(0, 7)),
    st.builds(lambda sample, cut: sample[:cut % len(sample)],
              st.sampled_from(SAMPLES), st.integers(0, 2**16)),
    st.builds(lambda sample, tail: sample + tail, st.sampled_from(SAMPLES),
              st.binary(min_size=1, max_size=8)),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(decoder=st.sampled_from(sorted(DECODERS)), data=wire_inputs)
def test_decoders_raise_only_decode_error(decoder, data):
    try:
        DECODERS[decoder](data)
    except DecodeError:
        pass
