"""Client and server IBE-TLS handshake state machines.

Authentication is implicit: each side proves key possession by deriving the
same three shared secrets {eph, ss_s, ss_c}, and the Finished MACs confirm
that both peers saw the same transcript and derived the same keys. A failure
never surfaces at decapsulation (implicit rejection); it surfaces as a
Finished mismatch and an ibe_auth_failure alert.
"""

from __future__ import annotations

import hashlib
from enum import Enum, auto

from ..kem import (
    EphemeralKeyPair,
    EphemeralPublicKey,
    IdentityPrivateKey,
    IdentityString,
    IdKemCiphertext,
    MasterPublicKey,
    decaps,
    encaps,
    eph_decaps,
    eph_encaps,
    eph_generate,
)
from ..kem.codec import (
    SCHEME_EPHEMERAL,
    SCHEME_REFERENCE,
    decode_ciphertext,
    decode_eph_public,
    encode_ciphertext,
    encode_eph_public,
    require_negotiable_scheme,
)
from ..kem.errors import DecodeError, MalformedIdentity, UnsupportedScheme
from ..kem.sampling import HashStream
from .record import DirectionKeys, RecordAuthError
from .schedule import KeySchedule, compute_finished, verify_finished
from .wire import (
    EXT_IBE_IDENTITY,
    EXT_IBE_IDENTITY_AUTH,
    AlertCode,
    ClientHello,
    ContentType,
    EncryptedExtensions,
    Finished,
    HandshakeType,
    HelloRetryRequest,
    IbeIdentity,
    IbeIdentityAuth,
    ServerHello,
    alert_record,
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
    find_extension,
    record,
    split_record,
    unframe,
)


class State(Enum):
    START = auto()
    WAIT_SERVER_HELLO = auto()
    WAIT_EE = auto()
    WAIT_SERVER_FINISHED = auto()
    WAIT_CLIENT_HELLO = auto()
    WAIT_CLIENT_FINISHED = auto()
    COMPLETE = auto()
    ABORTED = auto()


class InvalidState(Exception):
    """Operation not legal in the session's current state."""


_MSG_NAMES = {
    HandshakeType.CLIENT_HELLO: "ClientHello",
    HandshakeType.SERVER_HELLO: "ServerHello",
    HandshakeType.HELLO_RETRY_REQUEST: "HelloRetryRequest",
    HandshakeType.ENCRYPTED_EXTENSIONS: "EncryptedExtensions",
}


def message_name(msg_type: int, sender_role: str) -> str:
    """The name of a message a session accepted or built."""
    if msg_type == HandshakeType.FINISHED:
        return f"Finished ({sender_role.capitalize()})"
    return _MSG_NAMES[msg_type]


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class _SessionBase:
    role = "base"
    # Waiting state -> (content type the record must carry, handshake type ->
    # handler). A state with no entry accepts no record.
    _EXPECTED: dict[State, tuple[ContentType, dict[HandshakeType, str]]] = {}

    def __init__(self, mpk: MasterPublicKey, rng_seed: bytes,
                 own_key: IdentityPrivateKey | None) -> None:
        if own_key is not None and (own_key.params != mpk.params
                                    or own_key.params_hash != mpk.params_hash):
            raise ValueError("own_key was not issued under this master public key")
        self.mpk = mpk
        self.own_key = own_key
        self.params = mpk.params
        self._rng = HashStream(rng_seed, f"{self.role}-session".encode())
        self.transcript = hashlib.sha256()
        self.schedule = KeySchedule()
        self.state = State.START
        self.secrets: dict[str, bytes | None] = {"eph": None, "ss_s": None, "ss_c": None}
        self.alert_sent: int | None = None
        self.alert_received: int | None = None
        self.abort_reason: str | None = None  # why this side sent alert_sent
        self.ops = {"encaps": 0, "decaps": 0, "sign": 0, "verify": 0, "pubkey_derive": 0}
        self.message_log: list[tuple[str, str, int]] = []  # (direction, name, wire length)
        self.auth_bytes = 0
        self._hs_send: DirectionKeys | None = None
        self._hs_recv: DirectionKeys | None = None
        self._app_send: DirectionKeys | None = None
        self._app_recv: DirectionKeys | None = None

    # -- bookkeeping --------------------------------------------------------

    def _absorb(self, framed: bytes, direction: str) -> None:
        msg_type = framed[0]
        sender = self.role if direction == "send" else ("server" if self.role == "client" else "client")
        self.transcript.update(framed)
        self.message_log.append((direction, message_name(msg_type, sender), len(framed)))

    def _count_auth_extension(self, ext_data_len: int) -> None:
        self.auth_bytes += 4 + ext_data_len

    def transcript_hash(self) -> bytes:
        return self.transcript.copy().digest()

    def _abort(self, code: int, reason: str) -> list[bytes]:
        """Abort with alert code; reason names what failed, never a secret."""
        self.state = State.ABORTED
        self.alert_sent = int(code)
        self.abort_reason = reason
        return [alert_record(code)]

    def _directions(self, client_secret: bytes,
                    server_secret: bytes) -> tuple[DirectionKeys, DirectionKeys]:
        """This side's (send, receive) keys from a (client, server) secret pair."""
        client_keys, server_keys = DirectionKeys(client_secret), DirectionKeys(server_secret)
        if self.role == "client":
            return client_keys, server_keys
        return server_keys, client_keys

    def _install_handshake_keys(self) -> None:
        """Derive the handshake traffic keys over the transcript through ServerHello."""
        s = self.schedule
        s.derive_early()
        s.derive_handshake(self.secrets["eph"], self.secrets["ss_s"], self.secrets["ss_c"])
        s.derive_handshake_traffic(self.transcript_hash())
        self._hs_send, self._hs_recv = self._directions(s.client_hs_traffic_secret,
                                                        s.server_hs_traffic_secret)

    def _complete(self) -> None:
        self.state = State.COMPLETE
        self._app_send, self._app_recv = self._directions(
            self.schedule.client_app_traffic_secret_0, self.schedule.server_app_traffic_secret_0)

    @property
    def application_traffic_secrets(self) -> tuple[bytes, bytes]:
        """(client_app_traffic_secret_0, server_app_traffic_secret_0) at Complete."""
        if self.state is not State.COMPLETE:
            raise InvalidState("handshake not complete")
        return (self.schedule.client_app_traffic_secret_0,
                self.schedule.server_app_traffic_secret_0)

    # -- handshake records --------------------------------------------------

    def receive_record(self, rec: bytes) -> list[bytes]:
        if self.state in (State.COMPLETE, State.ABORTED):
            raise InvalidState("session is finished")
        try:
            return self._dispatch(rec)
        except RecordAuthError as exc:
            # Wrong traffic keys mean the peer derived different secrets: an
            # authentication failure, not a parsing problem.
            return self._abort(AlertCode.IBE_AUTH_FAILURE, _reason(exc))
        except (DecodeError, MalformedIdentity) as exc:
            return self._abort(AlertCode.DECODE_ERROR, _reason(exc))
        except UnsupportedScheme as exc:
            return self._abort(AlertCode.UNSUPPORTED_SCHEME, _reason(exc))

    def _dispatch(self, rec: bytes) -> list[bytes]:
        content_type, payload = split_record(rec)
        if content_type == ContentType.ALERT:
            if len(payload) != 1:
                raise DecodeError("alert record must carry exactly one byte")
            self.alert_received = payload[0]
            self.state = State.ABORTED
            return []
        if self.state not in self._EXPECTED:
            raise InvalidState(f"no record expected in state {self.state}")
        protection, handlers = self._EXPECTED[self.state]
        if content_type != protection:
            raise DecodeError(f"record content type {content_type} in state {self.state.name}")
        if content_type == ContentType.APPLICATION_DATA:
            payload, inner_type = self._hs_recv.open(rec)
            if inner_type != ContentType.HANDSHAKE:
                raise DecodeError("unexpected inner content type during handshake")
        msg_type, body = unframe(payload)
        if msg_type not in handlers:
            raise DecodeError(f"handshake type {msg_type} in state {self.state.name}")
        return getattr(self, handlers[msg_type])(payload, body)

    # -- application data ---------------------------------------------------

    def seal_app(self, plaintext: bytes) -> bytes:
        if self.state is not State.COMPLETE:
            raise InvalidState("cannot send application data before Complete")
        return self._app_send.seal(plaintext, ContentType.APPLICATION_DATA)

    def open_app(self, rec: bytes) -> bytes:
        if self.state is not State.COMPLETE:
            raise InvalidState("cannot receive application data before Complete")
        try:
            content, content_type = self._app_recv.open(rec)
        except RecordAuthError as exc:
            self._abort(AlertCode.IBE_AUTH_FAILURE, _reason(exc))
            raise
        if content_type != ContentType.APPLICATION_DATA:
            raise RecordAuthError("unexpected inner content type")
        return content

    # -- shared parsing helpers ---------------------------------------------

    def _parse_identity_auth(self, extensions, *, required: bool):
        ext = find_extension(extensions, EXT_IBE_IDENTITY_AUTH)
        if ext is None:
            if required:
                raise DecodeError("missing ibe_identity_auth extension")
            return None
        auth = IbeIdentityAuth.from_extension(ext)
        # Decoding under the extension's id first makes a disagreement between
        # the two ids a decode_error; only a coherent offer is judged.
        ct = decode_ciphertext(auth.encapsulated_identity, self.params, self.mpk.params_hash,
                               auth.ibe_scheme_id)
        require_negotiable_scheme(auth.ibe_scheme_id)
        return ct

    def _auth_extension_for(self, ct) -> bytes:
        blob = encode_ciphertext(ct, self.mpk.params_hash)
        ext = IbeIdentityAuth(SCHEME_REFERENCE, blob).to_extension()
        self._count_auth_extension(len(ext.extension_data))
        return ext


class ClientSession(_SessionBase):
    role = "client"
    _EXPECTED = {
        State.WAIT_SERVER_HELLO: (ContentType.HANDSHAKE, {
            HandshakeType.HELLO_RETRY_REQUEST: "_handle_hrr",
            HandshakeType.SERVER_HELLO: "_handle_server_hello",
        }),
        State.WAIT_EE: (ContentType.APPLICATION_DATA, {
            HandshakeType.ENCRYPTED_EXTENSIONS: "_handle_encrypted_extensions",
        }),
        State.WAIT_SERVER_FINISHED: (ContentType.APPLICATION_DATA, {
            HandshakeType.FINISHED: "_handle_server_finished",
        }),
    }

    def __init__(
        self,
        mpk: MasterPublicKey,
        server_identity: IdentityString,
        rng_seed: bytes,
        own_identity: IdentityString | None = None,
        own_key: IdentityPrivateKey | None = None,
        mutual: bool = False,
        offer_identity: bool = True,
    ) -> None:
        super().__init__(mpk, rng_seed, own_key)
        if mutual and (own_key is None or own_identity is None):
            raise ValueError("mutual authentication requires the client identity and key")
        self.expected_peer_identity = server_identity
        self.own_identity = own_identity
        self.mutual = mutual
        # Sending the identity in cleartext leaks it to observers; suppressing
        # it defers disclosure until the server asks via HelloRetryRequest.
        self.offer_identity = offer_identity
        self._eph: EphemeralKeyPair | None = None
        self._client_hello: ClientHello | None = None
        self._got_hrr = False

    def client_start(self) -> list[bytes]:
        if self.state is not State.START:
            raise InvalidState("client_start is only legal on a fresh session")
        self._eph = eph_generate(self.params, self._rng.read(32))

        ct_s, ss_s = encaps(self.mpk, self.expected_peer_identity, self._rng.read(32))
        self.ops["encaps"] += 1
        self.ops["pubkey_derive"] += 1
        self.secrets["ss_s"] = ss_s

        extensions = [self._auth_extension_for(ct_s)]
        if self.mutual and self.offer_identity:
            extensions.append(IbeIdentity.of(self.own_identity).to_extension())
        self._client_hello = ClientHello(
            random=self._rng.read(32),
            eph_share=encode_eph_public(self._eph.public),
            extensions=extensions,
        )
        framed = encode_client_hello(self._client_hello)
        self._absorb(framed, "send")
        self.state = State.WAIT_SERVER_HELLO
        return [record(ContentType.HANDSHAKE, framed)]

    def _handle_hrr(self, framed: bytes, body: bytes) -> list[bytes]:
        if self._got_hrr:
            raise DecodeError("second HelloRetryRequest")
        decode_hello_retry_request(body)
        self._got_hrr = True
        self._absorb(framed, "recv")
        if self.own_identity is None or self.own_key is None:
            return self._abort(AlertCode.IBE_AUTH_FAILURE,
                               "HelloRetryRequest asks for a client key this client lacks")
        # The server holds the share and ciphertext of the first ClientHello
        # for this session, so the retry carries only what it asked for: the
        # same random, an empty share and the identity (unlike RFC 8446
        # §4.1.2, whose stateless server needs a full copy).
        self.mutual = True
        retry = ClientHello(
            random=self._client_hello.random,
            eph_share=b"",
            extensions=[IbeIdentity.of(self.own_identity).to_extension()],
        )
        framed2 = encode_client_hello(retry)
        self._absorb(framed2, "send")
        return [record(ContentType.HANDSHAKE, framed2)]

    def _handle_server_hello(self, framed: bytes, body: bytes) -> list[bytes]:
        hello = decode_server_hello(body)
        ct_c = self._parse_identity_auth(hello.extensions, required=self.mutual)

        eph_ct = decode_ciphertext(hello.eph_ciphertext, self.params, self.mpk.params_hash,
                                   SCHEME_EPHEMERAL)
        eph = eph_decaps(self._eph, eph_ct)
        self.ops["decaps"] += 1
        self._eph.erase()  # forward secrecy: drop the ephemeral secret now
        self.secrets["eph"] = eph

        if self.mutual:
            self.secrets["ss_c"] = decaps(self.own_key, ct_c)
            self.ops["decaps"] += 1

        self._absorb(framed, "recv")
        self._install_handshake_keys()
        self.state = State.WAIT_EE
        return []

    def _handle_encrypted_extensions(self, framed: bytes, body: bytes) -> list[bytes]:
        decode_encrypted_extensions(body)
        self._absorb(framed, "recv")
        self.state = State.WAIT_SERVER_FINISHED
        return []

    def _handle_server_finished(self, framed: bytes, body: bytes) -> list[bytes]:
        finished = decode_finished(body)
        # MAC covers the transcript through EncryptedExtensions.
        if not verify_finished(self.schedule.server_finished_key, self.transcript_hash(),
                               finished.verify_data):
            return self._abort(AlertCode.IBE_AUTH_FAILURE, "server Finished does not verify")
        self._absorb(framed, "recv")
        th2 = self.transcript_hash()
        self.schedule.derive_application(th2)

        client_finished = Finished(compute_finished(self.schedule.client_finished_key, th2))
        framed_cf = encode_finished(client_finished)
        self._absorb(framed_cf, "send")
        out = self._hs_send.seal(framed_cf, ContentType.HANDSHAKE)
        self._complete()
        return [out]


class ServerSession(_SessionBase):
    role = "server"
    _EXPECTED = {
        State.WAIT_CLIENT_HELLO: (ContentType.HANDSHAKE, {
            HandshakeType.CLIENT_HELLO: "_handle_client_hello",
        }),
        State.WAIT_CLIENT_FINISHED: (ContentType.APPLICATION_DATA, {
            HandshakeType.FINISHED: "_handle_client_finished",
        }),
    }

    def __init__(
        self,
        mpk: MasterPublicKey,
        own_identity: IdentityString,
        own_key: IdentityPrivateKey,
        rng_seed: bytes,
        mutual: bool = False,
    ) -> None:
        super().__init__(mpk, rng_seed, own_key)
        # The identity the server claims. Nothing checks it against
        # own_key.identity: the handshake proves only what own_key decapsulates,
        # and a claimed identity with another identity's key is how the tests
        # build an impostor server, which the client must refuse.
        self.own_identity = own_identity
        self.mutual = mutual  # require and verify a client identity
        self.client_identity: IdentityString | None = None
        # (random, ct_s, eph_public) of a ClientHello answered with
        # HelloRetryRequest; the retry is checked against it and reuses it.
        self._first_hello: tuple[bytes, IdKemCiphertext, EphemeralPublicKey] | None = None
        self.state = State.WAIT_CLIENT_HELLO

    def _handle_client_hello(self, framed: bytes, body: bytes) -> list[bytes]:
        hello = decode_client_hello(body)
        if self._first_hello is not None:
            random, ct_s, eph_public = self._first_hello
            if (hello.random != random or hello.eph_share
                    or [ext.extension_type for ext in hello.extensions] != [EXT_IBE_IDENTITY]):
                raise DecodeError("a retried ClientHello carries its first random, "
                                  "no share and only ibe_identity")
            identity_ext = hello.extensions[0]
        else:
            ct_s = self._parse_identity_auth(hello.extensions, required=True)
            eph_public = decode_eph_public(hello.eph_share, self.params)
            identity_ext = find_extension(hello.extensions, EXT_IBE_IDENTITY)
        if self.mutual and identity_ext is None:
            self._first_hello = (hello.random, ct_s, eph_public)
            self._absorb(framed, "recv")
            hrr = HelloRetryRequest(random=self._rng.read(32))
            framed_hrr = encode_hello_retry_request(hrr)
            self._absorb(framed_hrr, "send")
            return [record(ContentType.HANDSHAKE, framed_hrr)]

        self._absorb(framed, "recv")
        if identity_ext is not None:
            self.client_identity = IbeIdentity.from_extension(identity_ext).parse()

        ss_s = decaps(self.own_key, ct_s)
        self.ops["decaps"] += 1
        self.secrets["ss_s"] = ss_s

        eph_ct, eph = eph_encaps(eph_public, self._rng.read(32))
        self.ops["encaps"] += 1
        self.secrets["eph"] = eph

        extensions = []
        if self.mutual:
            ct_c, ss_c = encaps(self.mpk, self.client_identity, self._rng.read(32))
            self.ops["encaps"] += 1
            self.ops["pubkey_derive"] += 1
            self.secrets["ss_c"] = ss_c
            extensions.append(self._auth_extension_for(ct_c))

        server_hello = ServerHello(
            random=self._rng.read(32),
            eph_ciphertext=encode_ciphertext(eph_ct, self.mpk.params_hash,
                                             scheme_id=SCHEME_EPHEMERAL),
            extensions=extensions,
        )
        framed_sh = encode_server_hello(server_hello)
        self._absorb(framed_sh, "send")
        self._install_handshake_keys()

        framed_ee = encode_encrypted_extensions(EncryptedExtensions())
        self._absorb(framed_ee, "send")
        sealed_ee = self._hs_send.seal(framed_ee, ContentType.HANDSHAKE)

        server_finished = Finished(
            compute_finished(self.schedule.server_finished_key, self.transcript_hash())
        )
        framed_sf = encode_finished(server_finished)
        self._absorb(framed_sf, "send")
        sealed_sf = self._hs_send.seal(framed_sf, ContentType.HANDSHAKE)

        self.schedule.derive_application(self.transcript_hash())
        self.state = State.WAIT_CLIENT_FINISHED
        return [record(ContentType.HANDSHAKE, framed_sh), sealed_ee, sealed_sf]

    def _handle_client_finished(self, framed: bytes, body: bytes) -> list[bytes]:
        finished = decode_finished(body)
        if not verify_finished(self.schedule.client_finished_key, self.schedule.th2,
                               finished.verify_data):
            return self._abort(AlertCode.IBE_AUTH_FAILURE, "client Finished does not verify")
        self._absorb(framed, "recv")
        self._complete()
        return []
