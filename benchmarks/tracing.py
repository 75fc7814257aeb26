"""Span tracing installed from outside the program.

``install`` replaces public ibetls functions and methods with wrappers that
record a span (name, start, end, parent span, op id) while the tracer is
active. Spans stay in memory; the run writes them out when it ends. An
untraced run never calls ``install``, so its end-to-end numbers carry no
wrapper cost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, owner, attribute). The owner is a module path or "module:Class";
# module-level functions are also rebound in every ibetls module that
# imported them by name, because callers look them up there.
FUNCTION_SPANS = [
    ("kem.matmul_mod", "ibetls.kem.sampling", "matmul_mod"),
    ("kem.setup", "ibetls.kem.scheme", "setup"),
    ("kem.extract", "ibetls.kem.scheme", "extract"),
    ("kem.encaps", "ibetls.kem.scheme", "encaps"),
    ("kem.decaps", "ibetls.kem.scheme", "decaps"),
    ("kem.eph_generate", "ibetls.kem.ephemeral", "eph_generate"),
    ("kem.eph_encaps", "ibetls.kem.ephemeral", "eph_encaps"),
    ("kem.eph_decaps", "ibetls.kem.ephemeral", "eph_decaps"),
    ("kem.codec.encode", "ibetls.kem.codec", "encode_ciphertext"),
    ("kem.codec.encode", "ibetls.kem.codec", "encode_eph_public"),
    ("kem.codec.encode", "ibetls.kem.codec", "encode_master_public"),
    ("kem.codec.encode", "ibetls.kem.codec", "encode_private_key"),
    ("kem.codec.decode", "ibetls.kem.codec", "decode_ciphertext"),
    ("kem.codec.decode", "ibetls.kem.codec", "decode_eph_public"),
    ("kem.codec.decode", "ibetls.kem.codec", "decode_master_public"),
    ("kem.codec.decode", "ibetls.kem.codec", "decode_private_key"),
    ("handshake.client_start", "ibetls.handshake.session:ClientSession", "client_start"),
    ("handshake.schedule", "ibetls.handshake.schedule:KeySchedule", "derive_early"),
    ("handshake.schedule", "ibetls.handshake.schedule:KeySchedule", "derive_handshake"),
    ("handshake.schedule", "ibetls.handshake.schedule:KeySchedule", "derive_handshake_traffic"),
    ("handshake.schedule", "ibetls.handshake.schedule:KeySchedule", "derive_application"),
    ("handshake.record.seal", "ibetls.handshake.record:DirectionKeys", "seal"),
    ("handshake.record.open", "ibetls.handshake.record:DirectionKeys", "open"),
    ("simnet.transport.send", "ibetls.simnet.transport:RecordStream", "send"),
    ("simnet.transport.recv_wait", "ibetls.simnet.transport:RecordStream", "recv"),
    ("simnet.app_send", "ibetls.simnet.transport", "app_send"),
    ("simnet.app_recv", "ibetls.simnet.transport", "app_recv_chunk"),
    ("tpkg.shamir.reconstruct", "ibetls.tpkg.shamir", "reconstruct"),
    ("tpkg.submit", "ibetls.tpkg.service:TpkgService", "submit_request"),
    ("tpkg.approve", "ibetls.tpkg.service:TpkgService", "approve_request"),
    ("tpkg.extract_and_deliver", "ibetls.tpkg.service:TpkgService", "extract_and_deliver"),
    ("tpkg.registry.append", "ibetls.tpkg.registry:Registry", "append"),
    ("tpkg.storage.save", "ibetls.tpkg.storage", "save_state"),
]

# receive_record is charged to the handler for the state the session is in.
# The client's EncryptedExtensions record is charged to server_finished,
# since EncryptedExtensions and Finished arrive as one server flight.
HANDLER_SPANS = {
    ("client", "WAIT_SERVER_HELLO"): "handshake.client.server_hello",
    ("client", "WAIT_EE"): "handshake.client.server_finished",
    ("client", "WAIT_SERVER_FINISHED"): "handshake.client.server_finished",
    ("server", "WAIT_CLIENT_HELLO"): "handshake.server.client_hello",
    ("server", "WAIT_CLIENT_FINISHED"): "handshake.server.client_finished",
}

SPAN_NAMES = sorted({name for name, _, _ in FUNCTION_SPANS}
                    | set(HANDLER_SPANS.values())
                    | {"kem.sampling.read", "tpkg.rebuild"})

# Waiting on the peer: never counted as a side's busy time.
WAIT_SPANS = frozenset({"simnet.transport.recv_wait"})


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self, side: str) -> None:
        self.side = side
        self.active = False
        self.op: int | None = None
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, op: int, traced: bool) -> None:
        self.op = op
        self.active = traced

    def end(self) -> None:
        self.active = False

    @contextlib.contextmanager
    def paused(self):
        """Keep output checks, which call the same functions, out of the trace."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, name: str, value: float) -> None:
        if self.active:
            self.counters[(self.op, name)] += value

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return traced

    def dump(self) -> dict:
        return {
            "side": self.side,
            "spans": self.spans,
            "counters": [[op, name, value] for (op, name), value in self.counters.items()],
        }


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _rebind_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("ibetls") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced ibetls call, in place, for the rest of the process."""
    import ibetls.handshake.session as session_mod
    import ibetls.kem.sampling as sampling_mod
    import ibetls.tpkg.service as service_mod

    for name, owner, attr in FUNCTION_SPANS:
        target = _resolve(owner)
        original = getattr(target, attr)
        wrapped = tracer.wrap(name, original)
        if isinstance(target, type):
            setattr(target, attr, wrapped)
        else:
            _rebind_everywhere(original, wrapped)

    stream_read = sampling_mod.HashStream.read
    traced_read = tracer.wrap("kem.sampling.read", stream_read)

    def read(self, n):
        tracer.count("kem.sampling.read.bytes", n)
        return traced_read(self, n)

    sampling_mod.HashStream.read = read

    for cls in (session_mod.ClientSession, session_mod.ServerSession):
        _wrap_receive_record(tracer, cls)

    rebuild = service_mod.TpkgService.reconstructed_master

    @contextlib.contextmanager
    def reconstructed_master(self, shares):
        rec = tracer._open("tpkg.rebuild") if tracer.active else None
        try:
            with rebuild(self, shares) as msk:
                yield msk
        finally:
            if rec is not None:
                tracer._close(rec)

    service_mod.TpkgService.reconstructed_master = reconstructed_master


def _wrap_receive_record(tracer: Tracer, cls) -> None:
    original = cls.receive_record
    wrapped = {name: tracer.wrap(name, original) for name in set(HANDLER_SPANS.values())}

    def receive_record(self, rec):
        name = HANDLER_SPANS.get((self.role, self.state.name))
        if name is None:
            return original(self, rec)
        return wrapped[name](self, rec)

    cls.receive_record = receive_record


def per_op(dumps: list[dict]) -> dict[int, dict]:
    """Fold span dumps from every process into per-op totals.

    Returns {op: {"spans": {name: [calls, inclusive s, self s]},
    "busy": {side: s}, "counters": {name: value}}}. Self time is a span's
    duration minus the time its child spans cover; a side's busy time is the
    summed duration of its top-level spans, except waits on the peer.
    """
    ops: dict[int, dict] = defaultdict(
        lambda: {"spans": defaultdict(lambda: [0, 0.0, 0.0]),
                 "busy": defaultdict(float), "counters": defaultdict(float)})
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, op) in enumerate(spans):
            duration = end - start
            entry = ops[op]["spans"][name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_time[i]
            if parent < 0 and name not in WAIT_SPANS:
                ops[op]["busy"][dump["side"]] += duration
        for op, name, value in dump["counters"]:
            ops[op]["counters"][name] += value
    return ops
