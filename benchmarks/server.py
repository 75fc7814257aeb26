"""Server process for the TCP workloads (started by run.py, not by hand).

Protocol on stdin/stdout, one JSON document per line:
  stdin  <- {"mode": "handshake" | "echo", "mpk": b64, "key": b64,
             "seed": hex, "trace": bool, "trace_from": int}
  stdout -> {"port": int}                      once listening
  stdin  <- "stop" (or EOF)
  stdout -> {"connections": [...], "rpcs": [...], "max_rss_mb": float,
             "trace": span dump or null}

Connections are handled one at a time, as ``ibetls tpkg-serve`` does, on a
socket made by ``socket.create_server`` with no options set here.
"""

from __future__ import annotations

import base64
import json
import selectors
import socket
import sys

import common

common.bootstrap()

from ibetls.handshake import ServerSession  # noqa: E402
from ibetls.kem import IdentityString, decode_master_public, decode_private_key  # noqa: E402
from ibetls.kem.sampling import HashStream  # noqa: E402
from ibetls.simnet import (  # noqa: E402
    server_handshake_over_stream,
    stream_recv_message,
    stream_send_message,
)

import tracing  # noqa: E402

CountingStream = common.counting_stream_class()


class Server:
    def __init__(self, config: dict) -> None:
        self.trace = bool(config["trace"])
        self.trace_from = int(config["trace_from"])
        self.tracer = tracing.Tracer("server")
        if self.trace:
            tracing.install(self.tracer)
        self.mpk = decode_master_public(base64.b64decode(config["mpk"]))
        self.key = decode_private_key(base64.b64decode(config["key"]))
        self.identity: IdentityString = self.key.identity
        self.rng = HashStream(bytes.fromhex(config["seed"]), b"bench-server")
        self.mode = config["mode"]
        self.connections: list[dict] = []
        self.rpcs: list[int] = []  # bytes the server sent per echo RPC

    def _session(self) -> ServerSession:
        return ServerSession(self.mpk, self.identity, self.key, self.rng.read(32), mutual=True)

    def handle_connection(self, conn: socket.socket) -> None:
        """Handshake, one request, one reply, close."""
        op = len(self.connections)
        self.tracer.begin(op, common.is_traced(op, self.trace, self.trace_from))
        stream = CountingStream(conn)
        session = self._session()
        handshake_records = 0
        try:
            done = server_handshake_over_stream(session, stream)
            handshake_records = len(stream.records)
            if done:
                raw = stream_recv_message(session, stream)
                if raw is not None:
                    request = json.loads(raw.decode())
                    response = {"op": request["op"], "nonce": request["nonce"],
                                "peer": session.client_identity.canonical}
                    stream_send_message(session, stream,
                                        json.dumps(response, sort_keys=True).encode())
        finally:
            stream.close()
            self.tracer.end()
        with self.tracer.paused():
            entry = common.session_summary(session, stream.records[:handshake_records])
        entry["peer"] = session.client_identity.canonical if session.client_identity else None
        entry["wire_bytes"] = stream.sent_bytes()
        self.connections.append(entry)

    def handle_echo(self, conn: socket.socket) -> None:
        """One long-lived session: echo every message until the client closes."""
        stream = CountingStream(conn)
        session = self._session()
        try:
            ok = server_handshake_over_stream(session, stream)
            entry = common.session_summary(session, stream.records)
            entry["peer"] = session.client_identity.canonical if ok else None
            entry["wire_bytes"] = stream.sent_bytes()
            self.connections.append(entry)
            while ok:
                rpc = len(self.rpcs)
                self.tracer.begin(rpc, common.is_traced(rpc, self.trace, self.trace_from))
                mark = len(stream.records)
                message = stream_recv_message(session, stream)
                if message is None:
                    break
                stream_send_message(session, stream, message)
                self.tracer.end()
                self.rpcs.append(stream.sent_bytes(mark))
        finally:
            self.tracer.end()
            stream.close()

    def serve(self) -> None:
        listener = socket.create_server(("127.0.0.1", 0))
        print(json.dumps({"port": listener.getsockname()[1]}), flush=True)
        selector = selectors.DefaultSelector()
        selector.register(listener, selectors.EVENT_READ, "accept")
        selector.register(sys.stdin, selectors.EVENT_READ, "control")
        handle = self.handle_connection if self.mode == "handshake" else self.handle_echo
        try:
            while True:
                events = selector.select()
                if any(key.data == "control" for key, _ in events):
                    break  # "stop" or EOF: the client is done
                conn, _ = listener.accept()
                handle(conn)
        finally:
            selector.close()
            listener.close()

    def result(self) -> dict:
        return {
            "connections": self.connections,
            "rpcs": self.rpcs,
            "max_rss_mb": common.max_rss_mb(),
            "trace": self.tracer.dump() if self.trace else None,
        }


def main() -> int:
    server = Server(json.loads(sys.stdin.readline()))
    server.serve()
    sys.stdout.write(json.dumps(server.result()) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
