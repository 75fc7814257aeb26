"""Record transport: in-process synchronous pipes with full wire capture,
plus a thin TCP framing layer for the service endpoints.

TLS assumes a reliable stream, so there is no loss or reordering model; the
in-process pump delivers records in order and stops delivering to a session
once it has completed or aborted.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from dataclasses import dataclass, field

from ..handshake.session import ClientSession, ServerSession, State
from ..handshake.wire import ContentType, split_record

MAX_APP_CHUNK = 60_000  # keep sealed records under the 16-bit record length
# The longest application message a receiver buffers. The longest the program
# sends is a key-delivery response of about 1.74 MB; app_data echoes up to
# 1 MiB. A longer declared length is refused before any of its body is read.
MAX_APP_MESSAGE = 4 << 20


class MessageTooLarge(Exception):
    """The peer declared an application message longer than MAX_APP_MESSAGE."""


@dataclass(frozen=True)
class CapturedRecord:
    sender: str  # "client" or "server"
    data: bytes

    @property
    def content_type(self) -> int:
        return self.data[0]


@dataclass
class WireCapture:
    records: list[CapturedRecord] = field(default_factory=list)

    def add(self, sender: str, data: bytes) -> None:
        self.records.append(CapturedRecord(sender, data))

    def handshake_records(self) -> list[CapturedRecord]:
        return [rec for rec in self.records if rec.content_type == ContentType.HANDSHAKE]

    def plaintext_message_types(self) -> list[int]:
        """Handshake message type codes visible in unencrypted records."""
        types = []
        for rec in self.handshake_records():
            _, payload = split_record(rec.data)
            types.append(payload[0])
        return types

    def total_bytes(self) -> int:
        return sum(len(rec.data) for rec in self.records)


def _finished(session) -> bool:
    return session.state in (State.COMPLETE, State.ABORTED)


@dataclass
class Connection:
    """A driven client/server session pair sharing one wire capture."""

    client: ClientSession
    server: ServerSession
    capture: WireCapture

    @property
    def ok(self) -> bool:
        return self.client.state is State.COMPLETE and self.server.state is State.COMPLETE

    def call(self, doc: dict, handler) -> dict:
        """One JSON request and its JSON response over application records.

        handler runs on the server side: it takes the request dict and
        returns the response dict.
        """
        request = self._carry("client", self.client, self.server, json.dumps(doc).encode())
        reply = handler(json.loads(request.decode()))
        response = self._carry("server", self.server, self.client,
                               json.dumps(reply, sort_keys=True).encode())
        return json.loads(response.decode())

    def _carry(self, sender: str, source, sink, payload: bytes) -> bytes:
        """Deliver every record of payload to sink; returns sink's next message."""
        reassembler = _reassembler(sink)
        for rec in app_send(source, payload):
            self.capture.add(sender, rec)
            reassembler.buffer += sink.open_app(rec)
        message = reassembler.pop()
        if message is None:
            raise RuntimeError(f"{sender} message not assembled")
        return message


def establish(client: ClientSession, server: ServerSession,
              capture: WireCapture | None = None) -> Connection:
    """Drive both state machines to completion (or abort) over a lossless pipe.

    The exchange alternates: each flight is one side's whole answer to the
    other side's last flight. Every record is captured as it is delivered;
    a session that has finished drops what it is sent."""
    capture = capture if capture is not None else WireCapture()
    sender, receiver = client, server
    flight = client.client_start()
    while flight:
        replies: list[bytes] = []
        for rec in flight:
            capture.add(sender.role, rec)
            if not _finished(receiver):
                replies.extend(receiver.receive_record(rec))
        sender, receiver, flight = receiver, sender, replies
    return Connection(client=client, server=server, capture=capture)


# ---------------------------------------------------------------------------
# application messaging (length-prefixed, chunked into records)
# ---------------------------------------------------------------------------


def app_send(session, payload: bytes) -> list[bytes]:
    body = struct.pack("!I", len(payload)) + payload
    return [
        session.seal_app(body[i : i + MAX_APP_CHUNK])
        for i in range(0, len(body), MAX_APP_CHUNK)
    ]


class _Reassembler:
    """Length-prefixed messages from record payloads. One record can complete
    more than one message, so what push does not return waits for pop."""

    def __init__(self) -> None:
        self.buffer = bytearray()

    def push(self, chunk: bytes) -> bytes | None:
        self.buffer += chunk
        return self.pop()

    def pop(self) -> bytes | None:
        """The first complete message buffered, taken out; None if there is none."""
        if len(self.buffer) < 4:
            return None
        (length,) = struct.unpack_from("!I", self.buffer)
        if length > MAX_APP_MESSAGE:
            raise MessageTooLarge(f"peer declared a {length}-byte message; "
                                  f"at most {MAX_APP_MESSAGE} bytes are accepted")
        if len(self.buffer) < 4 + length:
            return None
        message = bytes(self.buffer[4 : 4 + length])
        del self.buffer[: 4 + length]
        return message


def _reassembler(session) -> _Reassembler:
    if not hasattr(session, "_reassembler"):
        session._reassembler = _Reassembler()
    return session._reassembler


def app_recv_chunk(session, rec: bytes) -> bytes | None:
    """Feed one application record; returns the first message it completes.
    Any later message it completes stays buffered for the next receive."""
    return _reassembler(session).push(session.open_app(rec))


# ---------------------------------------------------------------------------
# TCP: records over a stream socket
# ---------------------------------------------------------------------------


class RecordStream:
    """Reads and writes self-delimiting records on a socket.

    With a ``deadline`` (a ``time.monotonic()`` value) every socket call gets
    only the time that remains, so a peer that drips bytes cannot hold the
    stream past it. Without one, the socket's own timeout applies per call.
    """

    def __init__(self, sock: socket.socket, deadline: float | None = None) -> None:
        self.sock = sock
        self.deadline = deadline
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            # A flight goes out one record per send; Nagle's algorithm would
            # hold the second record until the peer's delayed ACK (~40 ms).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _arm(self) -> None:
        if self.deadline is not None:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("record stream deadline passed")
            self.sock.settimeout(remaining)

    def send(self, rec: bytes) -> None:
        self._arm()
        self.sock.sendall(rec)

    def recv(self) -> bytes | None:
        header = self._read_exact(3)
        if header is None:
            return None
        (length,) = struct.unpack("!H", header[1:3])
        body = self._read_exact(length)
        if body is None:
            return None
        return header + body

    def _read_exact(self, n: int) -> bytes | None:
        buf = b""
        while len(buf) < n:
            self._arm()
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                return None
            buf += chunk
        return buf

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def client_handshake_over_stream(session: ClientSession, stream: RecordStream) -> bool:
    for rec in session.client_start():
        stream.send(rec)
    return server_handshake_over_stream(session, stream)


def server_handshake_over_stream(session: ServerSession | ClientSession,
                                 stream: RecordStream) -> bool:
    """Answer the peer's records until the session completes or aborts.

    The client side runs this same loop once its first flight is sent.
    """
    while not _finished(session):
        rec = stream.recv()
        if rec is None:
            return False
        for out in session.receive_record(rec):
            stream.send(out)
    return session.state is State.COMPLETE


def stream_send_message(session, stream: RecordStream, payload: bytes) -> None:
    for rec in app_send(session, payload):
        stream.send(rec)


def stream_recv_message(session, stream: RecordStream) -> bytes | None:
    message = _reassembler(session).pop()  # completed by an earlier record
    while message is None:
        rec = stream.recv()
        if rec is None:
            return None
        message = app_recv_chunk(session, rec)
    return message
