"""Record transport: in-process synchronous pipes with full wire capture,
plus a thin TCP framing layer for the service endpoints.

TLS assumes a reliable stream, so there is no loss or reordering model; the
in-process pump delivers records in order and stops delivering to a session
once it has completed or aborted.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass, field

from ..handshake.session import ClientSession, ServerSession, State
from ..handshake.wire import ContentType, split_record

MAX_APP_CHUNK = 60_000  # keep sealed records under the 16-bit record length


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

    def request(self, payload: bytes, handler) -> bytes:
        """Synchronous request/response over application records."""
        request_body = None
        for rec in app_send(self.client, payload):
            self.capture.add("client", rec)
            got = app_recv_chunk(self.server, rec)
            if got is not None:
                request_body = got
        if request_body is None:
            raise RuntimeError("request message not assembled")
        reply = handler(request_body)
        response = None
        for rec in app_send(self.server, reply):
            self.capture.add("server", rec)
            got = app_recv_chunk(self.client, rec)
            if got is not None:
                response = got
        if response is None:
            raise RuntimeError("response message not assembled")
        return response


def establish(client: ClientSession, server: ServerSession,
              capture: WireCapture | None = None) -> Connection:
    """Drive both state machines to completion (or abort) over a lossless pipe."""
    capture = capture if capture is not None else WireCapture()
    to_server = list(client.client_start())
    for rec in to_server:
        capture.add("client", rec)
    to_client: list[bytes] = []
    while to_server or to_client:
        next_to_client: list[bytes] = []
        for rec in to_server:
            if _finished(server):
                continue  # dropped on the floor; already captured
            out = server.receive_record(rec)
            for item in out:
                capture.add("server", item)
            next_to_client.extend(out)
        to_server = []
        to_client.extend(next_to_client)

        next_to_server: list[bytes] = []
        for rec in to_client:
            if _finished(client):
                continue
            out = client.receive_record(rec)
            for item in out:
                capture.add("client", item)
            next_to_server.extend(out)
        to_client = []
        to_server.extend(next_to_server)
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
    def __init__(self) -> None:
        self.buffer = b""

    def push(self, chunk: bytes) -> bytes | None:
        self.buffer += chunk
        if len(self.buffer) < 4:
            return None
        (length,) = struct.unpack("!I", self.buffer[:4])
        if len(self.buffer) < 4 + length:
            return None
        message = self.buffer[4 : 4 + length]
        self.buffer = self.buffer[4 + length :]
        return message


def app_recv_chunk(session, rec: bytes) -> bytes | None:
    """Feed one application record; returns the full message once assembled."""
    if not hasattr(session, "_reassembler"):
        session._reassembler = _Reassembler()
    return session._reassembler.push(session.open_app(rec))


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
    while True:
        rec = stream.recv()
        if rec is None:
            return None
        message = app_recv_chunk(session, rec)
        if message is not None:
            return message
