"""Pieces shared by the benchmark's client (run.py) and server (server.py)."""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Every run issues keys from this epoch; identities are "<name>.<EPOCH>".
EPOCH = "20250101"
SERVER_NAME = "kube-apiserver"


def bootstrap() -> None:
    """Import ibetls from the checkout's own source tree, or exit non-zero."""
    if not (SRC / "ibetls" / "__init__.py").is_file():
        print(f"benchmark: no ibetls sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from ibetls.kem.params import ToyParametersWarning

    warnings.simplefilter("ignore", ToyParametersWarning)


def is_traced(op: int, trace: bool, trace_from: int) -> bool:
    """Traced runs trace every other measured op; the rest give the
    untraced baseline that the tracing overhead is measured against."""
    return trace and op >= trace_from and op % 2 == 0


def counting_stream_class():
    from ibetls.simnet import RecordStream

    class CountingStream(RecordStream):
        """RecordStream that remembers (content type, length) of each record sent."""

        def __init__(self, sock) -> None:
            super().__init__(sock)
            self.records: list[tuple[int, int]] = []

        def send(self, rec: bytes) -> None:
            self.records.append((rec[0], len(rec)))
            super().send(rec)

        def sent_bytes(self, start: int = 0) -> int:
            return sum(length for _, length in self.records[start:])

    return CountingStream


def handshake_bytes_ok(session, records: list[tuple[int, int]]) -> bool:
    """The session's own per-message byte log must explain every handshake
    byte it put on the wire: message bytes plus record framing (3 B header,
    plus inner type and AEAD tag on encrypted records)."""
    from ibetls.handshake import ContentType
    from ibetls.handshake.record import TAG_LEN

    overhead = {ContentType.HANDSHAKE: 3, ContentType.APPLICATION_DATA: 3 + 1 + TAG_LEN}
    logged = sum(length for direction, _, length in session.message_log if direction == "send")
    framed = sum(length - overhead[ctype] for ctype, length in records
                 if ctype != ContentType.ALERT)
    return logged == framed


def sent_messages(session) -> dict[str, int]:
    out: dict[str, int] = {}
    for direction, name, length in session.message_log:
        if direction == "send":
            out[name] = out.get(name, 0) + length
    return out


def session_summary(session, records: list[tuple[int, int]]) -> dict:
    """What one side knows about its handshake, for the output checks."""
    return {
        "state": session.state.name,
        "alert_sent": session.alert_sent,
        "alert_received": session.alert_received,
        "encaps": session.ops["encaps"],
        "decaps": session.ops["decaps"],
        "auth_bytes": session.auth_bytes,
        "messages": sent_messages(session),
        "received": [name for direction, name, _ in session.message_log if direction == "recv"],
        "bytes_ok": handshake_bytes_ok(session, records),
    }


def max_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
