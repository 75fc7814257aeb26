import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hkdf_oracle as oracle
from ibetls.handshake import (
    AlertCode,
    ClientSession,
    ContentType,
    DirectionKeys,
    EncryptedExtensions,
    Finished,
    InvalidState,
    RecordAuthError,
    ServerSession,
    State,
    alert_record,
    record,
    split_record,
)
from ibetls.handshake.wire import (
    EXT_IBE_IDENTITY,
    Extension,
    decode_client_hello,
    encode_client_hello,
    encode_encrypted_extensions,
    encode_finished,
    unframe,
)
from ibetls.kem import (
    IdentityString,
    KemParams,
    ciphertext_size,
    encode_eph_public,
    eph_generate,
    extract,
    setup,
)
from ibetls.simnet.transport import establish


def seed_of(i: int) -> bytes:
    return i.to_bytes(32, "big")


def make_pair(mpk, server_identity, server_key, client_identity=None, client_key=None,
              mutual=False, seed=100, **client_kwargs):
    client = ClientSession(
        mpk, server_identity, seed_of(seed),
        own_identity=client_identity, own_key=client_key, mutual=mutual, **client_kwargs,
    )
    server = ServerSession(mpk, server_identity, server_key, seed_of(seed + 1), mutual=mutual)
    return client, server


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_mutual_handshake_completes_with_equal_secrets(
    mpk, server_identity, server_key, client_identity, client_key
):
    client, server = make_pair(mpk, server_identity, server_key,
                               client_identity, client_key, mutual=True)
    conn = establish(client, server)
    assert conn.ok
    assert client.application_traffic_secrets == server.application_traffic_secrets
    assert client.transcript_hash() == server.transcript_hash()
    assert client.schedule.th1 != client.schedule.th2
    assert client.secrets["ss_c"] is not None


def test_unilateral_handshake(mpk, server_identity, server_key):
    client, server = make_pair(mpk, server_identity, server_key, seed=200)
    conn = establish(client, server)
    assert conn.ok
    assert client.application_traffic_secrets == server.application_traffic_secrets
    assert client.secrets["ss_c"] is None and server.secrets["ss_c"] is None


def test_client_hello_extensions_by_mode(mpk, server_identity, server_key,
                                          client_identity, client_key):
    from ibetls.handshake.wire import EXT_IBE_IDENTITY, EXT_IBE_IDENTITY_AUTH

    mutual_client, _ = make_pair(mpk, server_identity, server_key,
                                 client_identity, client_key, mutual=True, seed=300)
    mutual_client.client_start()
    types = [e.extension_type for e in mutual_client._client_hello.extensions]
    assert EXT_IBE_IDENTITY_AUTH in types and EXT_IBE_IDENTITY in types

    plain_client, _ = make_pair(mpk, server_identity, server_key, seed=302)
    plain_client.client_start()
    types = [e.extension_type for e in plain_client._client_hello.extensions]
    assert EXT_IBE_IDENTITY_AUTH in types and EXT_IBE_IDENTITY not in types


def test_client_start_twice_rejected(mpk, server_identity, server_key):
    client, _ = make_pair(mpk, server_identity, server_key, seed=310)
    client.client_start()
    with pytest.raises(InvalidState):
        client.client_start()


def test_hello_retry_request_path(mpk, server_identity, server_key,
                                  client_identity, client_key):
    client, server = make_pair(mpk, server_identity, server_key,
                               client_identity, client_key, mutual=True,
                               seed=320, offer_identity=False)
    conn = establish(client, server)
    assert conn.ok
    names = {name for _, name, _ in client.message_log}
    assert "HelloRetryRequest" in names
    assert client.transcript_hash() == server.transcript_hash()
    assert client.application_traffic_secrets == server.application_traffic_secrets
    # both ClientHello flights are in the transcript on both sides; the retry
    # carries the random, an empty share and the identity extension only
    retry = 4 + 32 + 3 + 2 + 4 + 2 + len(client_identity.canonical.encode())
    for side in (client, server):
        hellos = [length for _, name, length in side.message_log if name == "ClientHello"]
        assert len(hellos) == 2 and hellos[1] == retry
    assert client.auth_bytes == server.auth_bytes == 8 + ciphertext_size(mpk.params)


def test_message_set_is_certificate_free(mpk, server_identity, server_key,
                                         client_identity, client_key):
    client, server = make_pair(mpk, server_identity, server_key,
                               client_identity, client_key, mutual=True, seed=330)
    conn = establish(client, server)
    names = {name for _, name, _ in client.message_log} | {
        name for _, name, _ in server.message_log
    }
    assert names == {"ClientHello", "ServerHello", "EncryptedExtensions",
                     "Finished (Server)", "Finished (Client)"}
    plaintext_types = conn.capture.plaintext_message_types()
    assert set(plaintext_types) <= {1, 2, 6}  # hellos and HRR only, never 11/13/15


def test_op_counts(mpk, server_identity, server_key, client_identity, client_key):
    client, server = make_pair(mpk, server_identity, server_key,
                               client_identity, client_key, mutual=True, seed=340)
    establish(client, server)
    total = {k: client.ops[k] + server.ops[k] for k in client.ops}
    assert total["encaps"] == 3 and total["decaps"] == 3
    assert total["sign"] == 0 and total["verify"] == 0
    assert total["pubkey_derive"] == 2

    client, server = make_pair(mpk, server_identity, server_key, seed=342)
    establish(client, server)
    total = {k: client.ops[k] + server.ops[k] for k in client.ops}
    assert total["encaps"] == 2 and total["decaps"] == 2


def test_session_randoms_differ_across_sessions(mpk, server_identity, server_key):
    hellos = []
    for seed in (350, 352):
        client, _ = make_pair(mpk, server_identity, server_key, seed=seed)
        client.client_start()
        hellos.append(client._client_hello.random)
    assert hellos[0] != hellos[1]


# ---------------------------------------------------------------------------
# authentication failures
# ---------------------------------------------------------------------------


def test_wrong_server_key_aborts_before_application_data(
    mpk, msk, server_identity, client_identity, client_key
):
    wrong_key = extract(msk, mpk, IdentityString.parse("front-proxy.20250101"))
    client, server = make_pair(mpk, server_identity, wrong_key,
                               client_identity, client_key, mutual=True, seed=400)
    conn = establish(client, server)
    assert client.state is State.ABORTED and server.state is State.ABORTED
    assert client.alert_sent == AlertCode.IBE_AUTH_FAILURE
    with pytest.raises(InvalidState):
        client.seal_app(b"data")


def test_wrong_client_key_aborts(mpk, msk, server_identity, server_key, client_identity):
    wrong_key = extract(msk, mpk, IdentityString.parse("scheduler.20250101"))
    client, server = make_pair(mpk, server_identity, server_key,
                               client_identity, wrong_key, mutual=True, seed=410)
    conn = establish(client, server)
    assert not conn.ok
    assert client.state is State.ABORTED
    assert client.alert_sent in (AlertCode.IBE_AUTH_FAILURE, AlertCode.DECODE_ERROR)


def test_mismatched_master_public_key_aborts(desk, mpk, server_identity, server_key):
    other_mpk, _ = setup(desk, seed_of(42424242))
    client = ClientSession(other_mpk, server_identity, seed_of(420))
    server = ServerSession(mpk, server_identity, server_key, seed_of(421))
    conn = establish(client, server)
    assert not conn.ok
    assert server.alert_sent == AlertCode.DECODE_ERROR


def test_session_refuses_a_key_from_another_parameter_set(mpk, server_identity, server_key,
                                                         client_identity, client_key):
    from ibetls.kem import decode_private_key, encode_private_key

    def beta_flipped(key):
        # beta is the seventh u32 of the parameter header, after the 34-byte
        # prefix and the 5-byte magic; bit 7 turns 65 into 193, which still
        # decodes, into a key whose params differ from the mpk's
        blob = bytearray(encode_private_key(key))
        blob[34 + 5 + 24] ^= 0x80
        return decode_private_key(bytes(blob))

    bad_server_key = beta_flipped(server_key)
    assert bad_server_key.params != mpk.params
    assert bad_server_key.params_hash == mpk.params_hash
    with pytest.raises(ValueError):
        ServerSession(mpk, server_identity, bad_server_key, seed_of(432))
    with pytest.raises(ValueError):
        ClientSession(mpk, server_identity, seed_of(433), own_identity=client_identity,
                      own_key=beta_flipped(client_key), mutual=True)


def test_abort_keeps_its_reason(mpk, msk, server_identity, server_key,
                                client_identity, client_key):
    # decode_error: a ClientHello cut short inside a well-formed record
    client, server = make_pair(mpk, server_identity, server_key, seed=440)
    _, payload = split_record(client.client_start()[0])
    assert server.receive_record(record(ContentType.HANDSHAKE, payload[:60])) \
        == [alert_record(AlertCode.DECODE_ERROR)]
    assert server.abort_reason.startswith("DecodeError: truncated")

    # ibe_auth_failure: an impostor server holds another identity's key, so
    # the client cannot open its encrypted flight
    impostor_key = extract(msk, mpk, IdentityString.parse("front-proxy.20250101"))
    client, server = make_pair(mpk, server_identity, impostor_key,
                               client_identity, client_key, mutual=True, seed=442)
    establish(client, server)
    assert client.alert_sent == AlertCode.IBE_AUTH_FAILURE
    assert client.abort_reason == "RecordAuthError: record authentication failed"
    assert server.alert_received == AlertCode.IBE_AUTH_FAILURE
    assert server.abort_reason is None
    held = [s for side in (client, server) for s in side.secrets.values() if s is not None]
    assert held and not any(s.hex() in client.abort_reason or repr(s) in client.abort_reason
                            for s in held)


def test_tamper_fuzz_sample(mpk, server_identity, server_key, client_identity, client_key):
    rng = random.Random(1234)
    for trial in range(40):
        client, server = make_pair(mpk, server_identity, server_key,
                                   client_identity, client_key, mutual=True,
                                   seed=5000 + 2 * trial)
        first_flight = client.client_start()[0]
        data = bytearray(first_flight)
        data[rng.randrange(len(data))] ^= 1 + rng.randrange(255)
        to_client = server.receive_record(bytes(data))
        while to_client:
            next_out = []
            for rec in to_client:
                if client.state in (State.COMPLETE, State.ABORTED):
                    break
                next_out.extend(client.receive_record(rec))
            to_client = []
            for rec in next_out:
                if server.state in (State.COMPLETE, State.ABORTED):
                    break
                to_client.extend(server.receive_record(rec))
        assert client.state is not State.COMPLETE or server.state is not State.COMPLETE
        aborted = [s for s in (client, server) if s.state is State.ABORTED]
        assert aborted and all(
            s.alert_sent in (AlertCode.DECODE_ERROR, AlertCode.IBE_AUTH_FAILURE,
                             AlertCode.UNSUPPORTED_SCHEME, None)
            for s in aborted
        )


def _offer_scheme(client, extension_id: int, prefix_id: int) -> bytes:
    """client's first record with its ibe_identity_auth extension's scheme id
    set to extension_id and its ciphertext prefix's scheme id to prefix_id."""
    from ibetls.handshake.wire import (
        Extension,
        decode_client_hello,
        encode_client_hello,
        unframe,
    )

    _, payload = split_record(client.client_start()[0])
    _, body = unframe(payload)
    hello = decode_client_hello(body)
    auth = hello.extensions[0]
    data = bytearray(auth.extension_data)
    data[0:2] = extension_id.to_bytes(2, "big")
    data[36:38] = prefix_id.to_bytes(2, "big")  # after u16 length + 32-byte hash
    doctored = type(hello)(
        random=hello.random, eph_share=hello.eph_share,
        extensions=[Extension(auth.extension_type, bytes(data))] + hello.extensions[1:],
    )
    return record(ContentType.HANDSHAKE, encode_client_hello(doctored))


def test_reserved_scheme_offer_gets_unsupported_scheme_alert(mpk, server_identity,
                                                             server_key):
    # A coherent 0x0001 offer (extension and ciphertext prefix agree) is the
    # one case answered with unsupported_scheme rather than decode_error.
    client, server = make_pair(mpk, server_identity, server_key, seed=436)
    out = server.receive_record(_offer_scheme(client, 0x0001, 0x0001))
    assert server.state is State.ABORTED
    assert server.alert_sent == AlertCode.UNSUPPORTED_SCHEME
    assert out and out[0][0] == ContentType.ALERT


SCHEME_IDS = (0x7001, 0x0001, 0x7002, 0xBEEF)


@pytest.mark.parametrize("extension_id", SCHEME_IDS, ids=lambda i: f"ext{i:04x}")
@pytest.mark.parametrize("prefix_id", SCHEME_IDS, ids=lambda i: f"ct{i:04x}")
def test_scheme_id_alert_matrix(mpk, server_identity, server_key, extension_id, prefix_id):
    # Only the reference scheme is served; a coherent 0x0001 offer is
    # unsupported, and any other id or disagreement is malformed.
    client, server = make_pair(mpk, server_identity, server_key, seed=437)
    server.receive_record(_offer_scheme(client, extension_id, prefix_id))
    if extension_id == prefix_id == 0x7001:
        expected = None
    elif extension_id == prefix_id == 0x0001:
        expected = AlertCode.UNSUPPORTED_SCHEME
    else:
        expected = AlertCode.DECODE_ERROR
    assert server.alert_sent == expected
    assert (server.state is State.ABORTED) == (expected is not None)


def test_server_hello_share_bound_to_another_hash_gets_decode_error(mpk, server_identity,
                                                                    server_key):
    from ibetls.handshake.wire import decode_server_hello, encode_server_hello, unframe

    client, server = make_pair(mpk, server_identity, server_key, seed=438)
    server_hello, *rest = server.receive_record(client.client_start()[0])
    _, payload = split_record(server_hello)
    hello = decode_server_hello(unframe(payload)[1])
    foreign = bytes([hello.eph_ciphertext[0] ^ 1]) + hello.eph_ciphertext[1:]
    doctored = type(hello)(random=hello.random, eph_ciphertext=foreign,
                           extensions=hello.extensions)
    for rec in [record(ContentType.HANDSHAKE, encode_server_hello(doctored)), *rest]:
        if client.state is State.ABORTED:
            break
        client.receive_record(rec)
    assert client.alert_sent == AlertCode.DECODE_ERROR


def test_server_hello_ciphertext_in_the_k_bit_layout_gets_decode_error(mpk, server_identity,
                                                                       server_key):
    """A ciphertext as an earlier codec wrote it is refused by its length:
    every coefficient at k bits, or all of c0 at d_u = 18 and c1 at d_v = 6
    bits."""
    from ibetls.handshake.wire import decode_server_hello, encode_server_hello, unframe
    from ibetls.kem.codec import _segment_ends

    p = mpk.params
    layouts = {3874: _segment_ends(((p.m + p.ell, p.k),))[-1],
               3106: _segment_ends(((p.m, 18), (p.ell, 6)))[-1]}
    for size, body in layouts.items():
        client, server = make_pair(mpk, server_identity, server_key, seed=436)
        server_hello, *rest = server.receive_record(client.client_start()[0])
        _, payload = split_record(server_hello)
        hello = decode_server_hello(unframe(payload)[1])
        old = hello.eph_ciphertext[:34] + bytes(body)
        assert len(old) == size != len(hello.eph_ciphertext) == ciphertext_size(p)
        doctored = type(hello)(random=hello.random, eph_ciphertext=old,
                               extensions=hello.extensions)
        client.receive_record(record(ContentType.HANDSHAKE, encode_server_hello(doctored)))
        assert client.alert_sent == AlertCode.DECODE_ERROR
        assert client.abort_reason.startswith("DecodeError: ciphertext"), size


def test_handshake_parses_no_parameter_header(monkeypatch, mpk, server_identity, server_key,
                                              client_identity, client_key):
    # Both sides hold their parameters already; no peer byte is parsed as them.
    def refuse(cls, data):
        raise AssertionError("a parameter header was parsed during the handshake")

    monkeypatch.setattr(KemParams, "from_header", classmethod(refuse))
    client, server = make_pair(mpk, server_identity, server_key,
                               client_identity, client_key, mutual=True, seed=439)
    assert establish(client, server).ok


def test_replayed_client_hello_cannot_finish(mpk, server_identity, server_key,
                                             client_identity, client_key):
    client, server = make_pair(mpk, server_identity, server_key,
                               client_identity, client_key, mutual=True, seed=440)
    conn = establish(client, server)
    assert conn.ok
    captured_ch = conn.capture.records[0].data
    captured_cf = [rec.data for rec in conn.capture.records
                   if rec.sender == "client" and rec.content_type == ContentType.APPLICATION_DATA]

    replay_server = ServerSession(mpk, server_identity, server_key, seed_of(442), mutual=True)
    replies = replay_server.receive_record(captured_ch)
    assert replies  # server answers, but the replayer holds no secrets
    final = replay_server.receive_record(captured_cf[-1])
    assert replay_server.state is State.ABORTED
    assert final and final[0][0] == ContentType.ALERT


# ---------------------------------------------------------------------------
# ephemeral handling and forward secrecy
# ---------------------------------------------------------------------------


def test_foreign_ephemeral_parameters_rejected(desk, mpk, server_identity, server_key):
    # The share's header names its own dimensions; a server that honoured them
    # would expand a matrix of the peer's choosing.
    foreign = KemParams(n=8, q=desk.q, ell=desk.ell, beta=desk.beta, eta=desk.eta,
                        domain_sep=desk.domain_sep)
    client = ClientSession(mpk, server_identity, seed_of(455))
    server = ServerSession(mpk, server_identity, server_key, seed_of(457))
    _, payload = split_record(client.client_start()[0])
    hello = decode_client_hello(unframe(payload)[1])
    foreign_share = encode_eph_public(eph_generate(foreign, seed_of(456)).public)
    spliced = replace(hello, eph_share=foreign_share)
    out = server.receive_record(record(ContentType.HANDSHAKE, encode_client_hello(spliced)))
    assert server.state is State.ABORTED
    assert server.alert_sent == AlertCode.DECODE_ERROR
    assert out == [alert_record(AlertCode.DECODE_ERROR)]


def test_client_hello_share_in_the_k_bit_layout_gets_decode_error(mpk, server_identity,
                                                                   server_key):
    """A share as the previous codec wrote it, every syndrome at k = 20 bits
    (20,546 B), is refused by its length before the server encapsulates."""
    client, server = make_pair(mpk, server_identity, server_key, seed=458)
    _, payload = split_record(client.client_start()[0])
    hello = decode_client_hello(unframe(payload)[1])
    p = mpk.params
    old = hello.eph_share[:34 + 32] + bytes((p.n * p.ell * p.k + 7) // 8)
    assert len(old) == 20546 and len(hello.eph_share) == 7234
    out = server.receive_record(record(ContentType.HANDSHAKE,
                                       encode_client_hello(replace(hello, eph_share=old))))
    assert out == [alert_record(AlertCode.DECODE_ERROR)]
    assert server.abort_reason.startswith("DecodeError: ephemeral syndromes")
    assert (server.ops["decaps"], server.ops["encaps"]) == (0, 0)


def test_eph_secret_erased_after_completion(mpk, server_identity, server_key):
    client, server = make_pair(mpk, server_identity, server_key, seed=460)
    conn = establish(client, server)
    assert conn.ok
    assert not client._eph._x.any()


def test_forward_secrecy_requires_eph(mpk, server_identity, server_key,
                                      client_identity, client_key):
    # Structural check: the transcript plus both identity-derived secrets do
    # not reproduce handshake_secret unless the ephemeral secret is supplied.
    client, server = make_pair(mpk, server_identity, server_key,
                               client_identity, client_key, mutual=True, seed=470)
    conn = establish(client, server)
    assert conn.ok
    th1 = client.schedule.th1
    ss_s, ss_c = client.secrets["ss_s"], client.secrets["ss_c"]
    eph = client.secrets["eph"]

    # negative control: with the true eph the oracle reproduces the secret
    assert oracle.ladder(eph, ss_s, ss_c, th1, client.schedule.th2)["handshake_secret"] \
        == client.schedule.handshake_secret
    # without eph (or with any guessed value) it does not
    for guess in (b"", bytes(32), b"\xFF" * 32):
        wrong = oracle.ladder(guess, ss_s, ss_c, th1, client.schedule.th2)["handshake_secret"] \
            if guess else oracle.extract(
                oracle.expand_label(oracle.extract(bytes(32), bytes(32)), b"derived", b""),
                ss_s + ss_c)
        assert wrong != client.schedule.handshake_secret


# ---------------------------------------------------------------------------
# record layer
# ---------------------------------------------------------------------------


def test_app_record_round_trip_both_directions(mpk, server_identity, server_key,
                                               client_identity, client_key):
    client, server = make_pair(mpk, server_identity, server_key,
                               client_identity, client_key, mutual=True, seed=480)
    conn = establish(client, server)
    assert server.open_app(client.seal_app(b"hello")) == b"hello"
    assert client.open_app(server.seal_app(b"hello back")) == b"hello back"


def test_replayed_record_fails(mpk, server_identity, server_key):
    client, server = make_pair(mpk, server_identity, server_key, seed=490)
    establish(client, server)
    rec = client.seal_app(b"once")
    assert server.open_app(rec) == b"once"
    with pytest.raises(RecordAuthError):
        server.open_app(rec)  # sequence number advanced; nonce mismatch


def test_cross_direction_key_misuse_fails(mpk, server_identity, server_key):
    client, server = make_pair(mpk, server_identity, server_key, seed=500)
    establish(client, server)
    rec = client.seal_app(b"direction")
    with pytest.raises(RecordAuthError):
        client.open_app(rec)  # client's receive keys are the server's send keys


# ---------------------------------------------------------------------------
# state machine edges
# ---------------------------------------------------------------------------


def test_second_hrr_aborts(mpk, server_identity, server_key, client_identity,
                           client_key):
    client = ClientSession(mpk, server_identity, seed_of(510),
                           own_identity=client_identity, own_key=client_key,
                           mutual=True, offer_identity=False)
    client.client_start()
    from ibetls.handshake.wire import (HelloRetryRequest,
                                       encode_hello_retry_request, record)

    hrr = record(22, encode_hello_retry_request(HelloRetryRequest(random=bytes(32))))
    replies = client.receive_record(hrr)
    assert replies and client.state is not State.ABORTED
    replies = client.receive_record(hrr)
    assert client.state is State.ABORTED
    assert client.alert_sent == AlertCode.DECODE_ERROR


def _retry_after_hrr(mpk, server_identity, server_key, client_identity, client_key, seed):
    """A server that has answered with HelloRetryRequest, the client's first
    ClientHello and its honest retry, both decoded."""
    client, server = make_pair(mpk, server_identity, server_key, client_identity, client_key,
                               mutual=True, seed=seed, offer_identity=False)
    (first,) = client.client_start()
    (hrr,) = server.receive_record(first)
    (retry,) = client.receive_record(hrr)
    hellos = [decode_client_hello(unframe(split_record(rec)[1])[1]) for rec in (first, retry)]
    return server, *hellos


# (first ClientHello, honest retry) -> a retry the server must refuse
RETRY_EDITS = {
    "full_copy": lambda first, retry: replace(first,  # the form retries took before
                                              extensions=first.extensions + retry.extensions),
    "with_share": lambda first, retry: replace(retry, eph_share=first.eph_share),
    "with_auth": lambda first, retry: replace(retry,
                                              extensions=first.extensions + retry.extensions),
    "other_random": lambda first, retry: replace(retry, random=bytes(32)),
    "no_identity": lambda first, retry: replace(retry, extensions=[]),
    "extra_extension": lambda first, retry: replace(
        retry, extensions=retry.extensions + [Extension(EXT_IBE_IDENTITY + 1, b"")]),
    "twice_the_identity": lambda first, retry: replace(retry, extensions=retry.extensions * 2),
}


@pytest.mark.parametrize("case", RETRY_EDITS)
def test_retry_other_than_the_short_form_gets_decode_error(case, mpk, server_identity,
                                                          server_key, client_identity,
                                                          client_key):
    server, first, retry = _retry_after_hrr(mpk, server_identity, server_key,
                                            client_identity, client_key, seed=535)
    doctored = encode_client_hello(RETRY_EDITS[case](first, retry))
    out = server.receive_record(record(ContentType.HANDSHAKE, doctored))
    assert out == [alert_record(AlertCode.DECODE_ERROR)]
    assert server.state is State.ABORTED and server.client_identity is None


def test_short_retry_as_a_first_client_hello_gets_decode_error(
        mpk, server_identity, server_key, client_identity, client_key):
    _, _, retry = _retry_after_hrr(mpk, server_identity, server_key,
                                   client_identity, client_key, seed=537)
    for mutual in (False, True):
        fresh = ServerSession(mpk, server_identity, server_key, seed_of(539), mutual=mutual)
        out = fresh.receive_record(record(ContentType.HANDSHAKE, encode_client_hello(retry)))
        assert out == [alert_record(AlertCode.DECODE_ERROR)]
        assert fresh.abort_reason == "DecodeError: missing ibe_identity_auth extension"


def test_receive_after_completion_rejected(mpk, server_identity, server_key):
    client, server = make_pair(mpk, server_identity, server_key, seed=520)
    conn = establish(client, server)
    assert conn.ok
    with pytest.raises(InvalidState):
        client.receive_record(b"\x16\x00\x01\x00")
    with pytest.raises(InvalidState):
        server.receive_record(b"\x16\x00\x01\x00")


def test_hrr_without_client_credential_aborts(mpk, server_identity, server_key):
    # server demands an identity the client cannot provide
    client = ClientSession(mpk, server_identity, seed_of(530))
    server = ServerSession(mpk, server_identity, server_key, seed_of(531), mutual=True)
    conn = establish(client, server)
    assert not conn.ok
    assert client.state is State.ABORTED
    assert client.alert_sent == AlertCode.IBE_AUTH_FAILURE


# Every state in which a session waits for the peer, with the protection its
# record must carry there.
WAITING_STATES = [
    ("client", State.WAIT_SERVER_HELLO, False),
    ("client", State.WAIT_EE, True),
    ("client", State.WAIT_SERVER_FINISHED, True),
    ("server", State.WAIT_CLIENT_HELLO, False),
    ("server", State.WAIT_CLIENT_FINISHED, True),
]
# A message of a type the waiting state does not accept.
WRONG_MESSAGE = {
    State.WAIT_SERVER_HELLO: encode_finished(Finished(bytes(32))),
    State.WAIT_EE: encode_finished(Finished(bytes(32))),
    State.WAIT_SERVER_FINISHED: encode_encrypted_extensions(EncryptedExtensions()),
    State.WAIT_CLIENT_HELLO: encode_finished(Finished(bytes(32))),
    State.WAIT_CLIENT_FINISHED: encode_encrypted_extensions(EncryptedExtensions()),
}


def session_waiting_in(role, state, mpk, server_identity, server_key):
    """Drive an honest handshake until the `role` side waits in `state`.

    Returns that side and a framed message of a type it accepts there.
    """
    client, server = make_pair(mpk, server_identity, server_key, seed=600)
    (client_hello,) = client.client_start()
    if state is State.WAIT_CLIENT_HELLO:
        return server, split_record(client_hello)[1]
    flight = server.receive_record(client_hello)
    if state is State.WAIT_SERVER_HELLO:
        return client, split_record(flight[0])[1]
    if role == "server":
        return server, encode_finished(Finished(bytes(32)))
    client.receive_record(flight[0])
    if state is State.WAIT_EE:
        return client, encode_encrypted_extensions(EncryptedExtensions())
    client.receive_record(flight[1])
    return client, encode_finished(Finished(bytes(32)))


def peer_sealed(session, framed):
    """`framed` sealed as the peer's next handshake record to `session`."""
    schedule = session.schedule
    secret = (schedule.server_hs_traffic_secret if session.role == "client"
              else schedule.client_hs_traffic_secret)
    keys = DirectionKeys(secret)
    keys._seq = session._recv._seq
    return keys.seal(framed, ContentType.HANDSHAKE)


@pytest.mark.parametrize("case", ["wrong_protection", "wrong_type", "alert", "malformed_alert"])
@pytest.mark.parametrize("role,state,encrypted", WAITING_STATES,
                         ids=[f"{role}-{state.name}" for role, state, _ in WAITING_STATES])
def test_dispatch_per_waiting_state(case, role, state, encrypted,
                                    mpk, server_identity, server_key):
    session, accepted = session_waiting_in(role, state, mpk, server_identity, server_key)
    assert session.state is state
    if case == "wrong_protection":
        rec = (record(ContentType.HANDSHAKE, accepted) if encrypted
               else record(ContentType.APPLICATION_DATA, accepted))
    elif case == "wrong_type":
        wrong = WRONG_MESSAGE[state]
        rec = peer_sealed(session, wrong) if encrypted else record(ContentType.HANDSHAKE, wrong)
    elif case == "alert":
        rec = alert_record(AlertCode.IBE_AUTH_FAILURE)
    else:
        rec = record(ContentType.ALERT, b"")  # 15 00 00: an alert must carry one byte
    out = session.receive_record(rec)
    assert session.state is State.ABORTED
    if case == "alert":
        assert out == []
        assert session.alert_received == AlertCode.IBE_AUTH_FAILURE
        assert session.alert_sent is None
    else:
        assert out == [alert_record(AlertCode.DECODE_ERROR)]
        assert session.alert_sent == AlertCode.DECODE_ERROR


# Where a waiting state may go on one record, besides ABORTED: a hello state
# stays put after a HelloRetryRequest.
NEXT_STATES = {
    State.WAIT_SERVER_HELLO: {State.WAIT_SERVER_HELLO, State.WAIT_EE},
    State.WAIT_EE: {State.WAIT_SERVER_FINISHED},
    State.WAIT_SERVER_FINISHED: {State.COMPLETE},
    State.WAIT_CLIENT_HELLO: {State.WAIT_CLIENT_HELLO, State.WAIT_CLIENT_FINISHED},
    State.WAIT_CLIENT_FINISHED: {State.COMPLETE},
}

RECORD_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("random"), st.binary(max_size=80)),
    st.tuples(st.just("framed"), st.sampled_from(list(ContentType)) | st.integers(0, 255),
              st.binary(max_size=80)),
    st.tuples(st.just("message"), st.binary(max_size=80)),
)


def edited_record(session, accepted, encrypted, edit):
    """Apply `edit` to the record carrying `accepted`, as the peer would send it."""
    def as_peer(framed):
        return peer_sealed(session, framed) if encrypted else record(ContentType.HANDSHAKE, framed)

    honest = as_peer(accepted)
    kind, *args = edit
    if kind == "truncate":
        return honest[: args[0] % len(honest)]
    if kind == "flip":
        i = args[0] % len(honest)
        return honest[:i] + bytes([honest[i] ^ args[1]]) + honest[i + 1:]
    if kind == "random":
        return args[0]
    if kind == "framed":
        return record(args[0], args[1])
    return as_peer(args[0])  # random bytes as the handshake message itself


@pytest.mark.parametrize("role,state,encrypted", WAITING_STATES,
                         ids=[f"{role}-{state.name}" for role, state, _ in WAITING_STATES])
@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(edit=RECORD_EDITS)
def test_mangled_record_never_escapes(role, state, encrypted, edit,
                                      mpk, server_identity, server_key):
    session, accepted = session_waiting_in(role, state, mpk, server_identity, server_key)
    session.receive_record(edited_record(session, accepted, encrypted, edit))
    assert session.state in NEXT_STATES[state] | {State.ABORTED}
    if session.state is State.ABORTED:
        assert session.alert_sent is not None or session.alert_received is not None
