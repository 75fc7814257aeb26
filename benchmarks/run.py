"""ibetls benchmark: one closed-loop client, end-to-end or traced.

    python3 benchmarks/run.py --workload handshake_tcp --seed 1 --seconds 50 --trace 0

Workloads (see README.md for why each exists):
  handshake_tcp  mutual handshakes against a server process over loopback TCP
  issuance       T-PKG key issuance through ApiServer.handle, state on disk
  app_data       echo RPCs on one long-lived mutual session over loopback TCP
                 (runs here, but BENCHMARK.json does not list it; see README.md)

Inputs come only from --seed. Set-up (imports, domain, fleet keys, server
start, warm-up ops) is timed apart from the measured ops and repeated
SETUP_REPS times; setup_s is the import time plus the median repetition.
The last repetition's state is what the measured loop runs on. Every op's
output is checked after its timer stops. --trace 1 wraps the public ibetls
calls in both processes, traces every other measured op and reports
per-layer numbers; its end-to-end numbers are not reported.

The last stdout line is one JSON object: correct, attempted, failed,
metrics ({name: {"value", "unit"}}). Earlier lines are for people.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import base64  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402

common.bootstrap()

import numpy as np  # noqa: E402

import ibetls.kem as kem  # noqa: E402
import ibetls.tpkg.storage as tpkg_storage  # noqa: E402
from ibetls.handshake import AlertCode, ClientSession, State  # noqa: E402
from ibetls.kem import KemParams, ciphertext_size  # noqa: E402
from ibetls.simnet import (  # noqa: E402
    TokenAuthority,
    client_handshake_over_stream,
    component_identity,
    stream_recv_message,
    stream_send_message,
)
from ibetls.simnet.principals import PrincipalKind  # noqa: E402
from ibetls.simnet.transport import MAX_APP_CHUNK  # noqa: E402
from ibetls.tpkg import (  # noqa: E402
    IDENTITYREQUESTS_PATH,
    ApiServer,
    IssuerPolicy,
    TpkgService,
    load_readable_shares,
)

import tracing  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
HERE = Path(__file__).resolve().parent
CountingStream = common.counting_stream_class()
SETUP_REPS = 5
SERVER_TIMEOUT_S = 60


def seed_bytes(seed: int, *labels) -> bytes:
    text = ":".join(str(x) for x in (seed,) + labels)
    return kem.HashStream(text.encode(), b"bench-seed").read(32)


def shuffled_block(rng: np.random.Generator, counts: dict[str, int]) -> list[str]:
    """Exact op shares per block, in seeded order, so every run sees the same mix."""
    block = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(block)
    return block


def make_domain(seed: int, rep: int, policy_kwargs: dict, authenticator=None):
    domain = f"bench-{rep}.cluster.local"
    policy = IssuerPolicy(trust_domain=domain, current_epoch=common.EPOCH, **policy_kwargs)
    return TpkgService.setup_domain(
        domain=domain, params=KemParams.desk(), n_nodes=3, threshold=2,
        seed=seed_bytes(seed, rep, "domain"), policy=policy, authenticator=authenticator,
    )


OPEN_POLICY = {"identity_patterns": ("*",), "permitted_usages": frozenset({"client", "server"}),
               "max_expiration_seconds": 30 * 86400}


def issue_keys(service, shares, names: list[str]):
    with service.reconstructed_master(shares.shares[:shares.shares[0].threshold]) as msk:
        return [kem.extract(msk, service.mpk, component_identity(name, common.EPOCH))
                for name in names]


class ServerProcess:
    """The workload's server, in its own interpreter (see server.py)."""

    def __init__(self, mode: str, mpk, key, seed: bytes, trace: bool, trace_from: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")], cwd=str(common.ROOT),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        config = {"mode": mode, "trace": trace, "trace_from": trace_from, "seed": seed.hex(),
                  "mpk": base64.b64encode(kem.encode_master_public(mpk)).decode(),
                  "key": base64.b64encode(kem.encode_private_key(key)).decode()}
        self.proc.stdin.write(json.dumps(config) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError("server process exited before listening")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        out, _ = self.proc.communicate("stop\n", timeout=SERVER_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server process exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Op:
    __slots__ = ("index", "kind", "wall", "wire", "payload", "ok", "traced", "detail")

    def __init__(self, index: int, kind: str, traced: bool) -> None:
        self.index, self.kind, self.traced = index, kind, traced
        self.wall = 0.0
        self.wire = 0
        self.payload = 0
        self.ok = False
        self.detail: dict = {}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class HandshakeTcp:
    """connect -> mutual handshake -> one small request -> reply -> close."""

    name = "handshake_tcp"
    warmup_kinds = ["normal", "hrr", "impostor", "normal"]
    warmup = len(warmup_kinds)
    fleet = 32
    mix = {"normal": 13, "hrr": 2, "impostor": 1}  # per 16 connections

    def __init__(self, seed: int, rep: int, tracer, trace: bool) -> None:
        self.seed, self.rep, self.tracer, self.trace = seed, rep, tracer, trace
        self.rng = np.random.default_rng([seed, rep, 1])
        self.kinds = self.warmup_kinds[::-1]
        self.server: ServerProcess | None = None
        self.server_log: dict = {}

    def setup(self) -> None:
        service, shares = make_domain(self.seed, self.rep, OPEN_POLICY)
        self.mpk = service.mpk
        names = [f"kubelet:node-{self.rep}{i:03d}" for i in range(self.fleet)]
        *self.keys, server_key = issue_keys(service, shares, names + [common.SERVER_NAME])
        self.server_identity = server_key.identity
        self.server = ServerProcess("handshake", self.mpk, server_key,
                                    seed_bytes(self.seed, self.rep, "server"),
                                    self.trace, self.warmup)

    def op(self, index: int) -> Op:
        if not self.kinds:
            self.kinds = shuffled_block(self.rng, self.mix)
        kind = self.kinds.pop()
        member = int(self.rng.integers(self.fleet))
        claimed = self.keys[member].identity
        key = self.keys[(member + 1) % self.fleet] if kind == "impostor" else self.keys[member]
        request = json.dumps({"op": index, "nonce": self.rng.bytes(8).hex()}).encode()
        rng_seed = self.rng.bytes(32)
        op = Op(index, kind, common.is_traced(index, self.trace, self.warmup))

        self.tracer.begin(index, op.traced)
        t0 = time.perf_counter()
        session = ClientSession(self.mpk, self.server_identity, rng_seed, own_identity=claimed,
                                own_key=key, mutual=True, offer_identity=kind != "hrr")
        stream = CountingStream(socket.create_connection(("127.0.0.1", self.server.port),
                                                         timeout=10))
        reply = None
        try:
            done = client_handshake_over_stream(session, stream)
            handshake_records = len(stream.records)
            if done:
                stream_send_message(session, stream, request)
                reply = stream_recv_message(session, stream)
        finally:
            stream.close()
            op.wall = time.perf_counter() - t0
            self.tracer.end()

        with self.tracer.paused():
            client = common.session_summary(session, stream.records[:handshake_records])
        client["hrr"] = "HelloRetryRequest" in client["received"]
        if kind == "impostor":
            ok = (session.state is State.ABORTED and reply is None
                  and session.alert_sent == AlertCode.IBE_AUTH_FAILURE)
        else:
            expected = {**json.loads(request), "peer": claimed.canonical}
            ok = (session.state is State.COMPLETE and reply is not None
                  and json.loads(reply) == expected and client["hrr"] == (kind == "hrr"))
            op.payload = len(request) + len(reply or b"")
        op.ok = ok and client["bytes_ok"]
        op.wire = stream.sent_bytes()
        op.detail = {"client": client, "claimed": claimed.canonical}
        return op

    def close(self) -> None:
        if self.server is not None:
            self.server_log = self.server.stop()
            self.server = None

    def kill(self) -> None:
        if self.server is not None:
            self.server.kill()

    def reconcile(self, ops: list[Op]) -> None:
        """Fold the server's view of each connection into the op checks."""
        entries = self.server_log["connections"]
        ct_size = ciphertext_size(self.mpk.params)
        for op in ops:
            if op.index >= len(entries):
                op.ok = False
                continue
            server = entries[op.index]
            client = op.detail["client"]
            op.detail["server"] = server
            op.wire += server["wire_bytes"]
            op.ok &= server["bytes_ok"] and server["peer"] == op.detail["claimed"]
            if op.kind == "impostor":
                op.ok &= (server["state"] == "ABORTED"
                          and server["alert_received"] == AlertCode.IBE_AUTH_FAILURE)
                continue
            # 3 encapsulations and 3 decapsulations, and 3 x |ct| of
            # authentication data: each identity-auth extension carries one
            # ciphertext (after its 4 B header, 2 B scheme id and 2 B
            # length), and the ephemeral key share the third
            encaps = client["encaps"] + server["encaps"]
            decaps = client["decaps"] + server["decaps"]
            op.ok &= (server["state"] == "COMPLETE" and encaps == 3 and decaps == 3
                      and client["auth_bytes"] == server["auth_bytes"] == 8 + ct_size)


class AppData:
    """Echo RPCs of seeded sizes on one long-lived mutual session."""

    name = "app_data"
    # (class, smallest, largest payload, ops per block of 20). Ordered by
    # latency, p50 falls inside the large class and p90 inside the
    # two-record class (see README.md).
    classes = [
        ("small", 64, 1024, 3),
        ("medium", 1025, 16384, 4),
        ("large", 786_432, 1_048_576, 8),
        ("two_records", MAX_APP_CHUNK + 1, 65_536, 5),
    ]
    warmup = len(classes)

    def __init__(self, seed: int, rep: int, tracer, trace: bool) -> None:
        self.seed, self.rep, self.tracer, self.trace = seed, rep, tracer, trace
        self.rng = np.random.default_rng([seed, rep, 2])
        self.queue: list[tuple[str, int]] = []
        self.server: ServerProcess | None = None
        self.stream = None
        self.server_log: dict = {}

    def _refill(self) -> None:
        block = []
        for kind, low, high, count in self.classes:
            # one size per equal slice of the class range keeps each
            # block's byte total close to the class mean
            edges = np.linspace(low, high, count + 1)
            sizes = edges[:-1] + self.rng.random(count) * np.diff(edges)
            block += [(kind, int(size)) for size in sizes]
        order = self.rng.permutation(len(block))
        self.queue = [block[i] for i in order]

    def setup(self) -> None:
        service, shares = make_domain(self.seed, self.rep, OPEN_POLICY)
        client_key, server_key = issue_keys(service, shares,
                                            [f"app-client-{self.rep}", common.SERVER_NAME])
        self.server = ServerProcess("echo", service.mpk, server_key,
                                    seed_bytes(self.seed, self.rep, "server"),
                                    self.trace, self.warmup)
        self.pool = self.rng.bytes(2 * 1_048_576)
        self.stream = CountingStream(socket.create_connection(("127.0.0.1", self.server.port),
                                                              timeout=10))
        self.session = ClientSession(service.mpk, server_key.identity, self.rng.bytes(32),
                                     own_identity=client_key.identity, own_key=client_key,
                                     mutual=True)
        if not client_handshake_over_stream(self.session, self.stream):
            raise RuntimeError("app_data session handshake failed")
        self.handshake = common.session_summary(self.session, self.stream.records)
        # warm-up: one RPC of each size class, in class order
        self.queue = [(kind, low) for kind, low, _, _ in self.classes]

    def op(self, index: int) -> Op:
        if not self.queue:
            self._refill()
        kind, size = self.queue.pop(0)
        offset = int(self.rng.integers(len(self.pool) - size + 1))
        payload = self.pool[offset:offset + size]
        op = Op(index, kind, common.is_traced(index, self.trace, self.warmup))
        mark = len(self.stream.records)

        self.tracer.begin(index, op.traced)
        t0 = time.perf_counter()
        stream_send_message(self.session, self.stream, payload)
        reply = stream_recv_message(self.session, self.stream)
        op.wall = time.perf_counter() - t0
        self.tracer.end()

        op.ok = reply == payload
        op.payload = size
        op.wire = self.stream.sent_bytes(mark)
        return op

    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()
            self.stream = None
        if self.server is not None:
            self.server_log = self.server.stop()
            self.server = None

    def kill(self) -> None:
        if self.stream is not None:
            self.stream.close()
        if self.server is not None:
            self.server.kill()

    def reconcile(self, ops: list[Op]) -> None:
        rpcs = self.server_log["rpcs"]
        server = self.server_log["connections"][0]
        session_ok = (self.handshake["state"] == "COMPLETE" and server["state"] == "COMPLETE"
                      and self.handshake["bytes_ok"] and server["bytes_ok"])
        for op in ops:
            if op.index >= len(rpcs) or not session_ok:
                op.ok = False
                continue
            op.wire += rpcs[op.index]


class Issuance:
    """T-PKG requests through ApiServer.handle, persisted like tpkg-serve."""

    name = "issuance"
    server_log: dict = {}  # no server process
    warmup_kinds = ["auto", "manual", "deny"]
    warmup = len(warmup_kinds)
    mix = {"auto": 5, "manual": 2, "deny": 1}  # per 8 submissions
    deny_reasons = ("pattern", "usage", "expiration", "epoch")

    def __init__(self, seed: int, rep: int, tracer, trace: bool) -> None:
        self.seed, self.rep, self.tracer, self.trace = seed, rep, tracer, trace
        self.rng = np.random.default_rng([seed, rep, 3])
        self.kinds = self.warmup_kinds[::-1]
        self.home: Path | None = None

    def setup(self) -> None:
        common.OUT.mkdir(exist_ok=True)
        self.home = Path(tempfile.mkdtemp(prefix="issuance-", dir=common.OUT))
        self.directory = self.home / "domains" / "bench"
        authority = TokenAuthority(self.rng.bytes(32))
        policy = {"identity_patterns": ("kubelet:*", "svc-*"),
                  "permitted_usages": frozenset({"client", "server"}),
                  "max_expiration_seconds": 30 * 86400, "auto_approve": True,
                  "principal_template": "kubelet:{subject}",
                  "approvers": frozenset({"admin"})}
        self.service, shares = make_domain(self.seed, self.rep, policy, authority.validate)
        tpkg_storage.save_domain(self.directory, self.service, shares)
        tpkg_storage.save_state(self.directory, self.service)
        threshold = shares.shares[0].threshold
        self.api = ApiServer(self.service, shares_provider=lambda: load_readable_shares(
            self.directory)[:threshold])
        self.authority = authority
        self.operator = authority.mint("ci-bot", {"system:serviceaccounts"})
        self.bearer_operator = "Bearer " + base64.b64encode(self.operator.token).decode()

    def _call(self, op: Op, request: dict) -> tuple[dict, int]:
        """One request as tpkg-serve sees it: JSON in, handle, JSON out,
        persist. Returns the decoded response and its size in bytes."""
        raw = json.dumps(request).encode()
        out = json.dumps(self.api.handle(json.loads(raw.decode())), sort_keys=True).encode()
        op.wire += len(raw) + len(out)
        response = json.loads(out.decode())
        if response["status"] < 400:
            tpkg_storage.save_state(self.directory, self.service)
        return response, len(out)

    def _plan(self, index: int, kind: str) -> tuple[str, dict]:
        tag = f"{self.rep}{index:05d}{self.rng.integers(1 << 16):04x}"
        spec = {"issuer": self.service.policy.trust_domain, "usage": ["client", "server"],
                "expirationSeconds": 86400}
        if kind == "auto":
            principal = self.authority.mint(f"node-{tag}", {"system:bootstrappers"},
                                            PrincipalKind.BOOTSTRAP_TOKEN)
            spec["identity"] = f"kubelet:node-{tag}.{common.EPOCH}"
            bearer = "Bearer " + base64.b64encode(principal.token).decode()
        else:
            spec["identity"] = f"svc-{tag}.{common.EPOCH}"
            bearer = self.bearer_operator
        if kind == "deny":
            reason = self.deny_reasons[int(self.rng.integers(len(self.deny_reasons)))]
            if reason == "pattern":
                spec["identity"] = f"rogue-{tag}.{common.EPOCH}"
            elif reason == "usage":
                spec["usage"] = ["peer"]
            elif reason == "expiration":
                spec["expirationSeconds"] = 90 * 86400
            else:
                spec["identity"] = f"svc-{tag}.20240101"
        return spec["identity"], {"method": "POST", "path": IDENTITYREQUESTS_PATH,
                                  "authorization": bearer, "body": {"spec": spec}}

    def op(self, index: int) -> Op:
        if not self.kinds:
            self.kinds = shuffled_block(self.rng, self.mix)
        kind = self.kinds.pop()
        identity, submit = self._plan(index, kind)
        op = Op(index, kind, common.is_traced(index, self.trace, self.warmup))
        responses = []

        self.tracer.begin(index, op.traced)
        t0 = time.perf_counter()
        response, _ = self._call(op, submit)
        responses.append(response)
        name = response.get("body", {}).get("name")
        if kind == "manual" and name:
            response, _ = self._call(op, {
                "method": "POST", "path": f"/identityrequests/{name}/approve",
                "body": {"approver": "admin"}})
            responses.append(response)
        if kind != "deny" and name:
            response, op.payload = self._call(op, {
                "method": "POST", "path": f"/identityrequests/{name}/key"})
            responses.append(response)
            self.tracer.count("tpkg.delivery.bytes", op.payload)
        op.wall = time.perf_counter() - t0
        self.tracer.end()

        with self.tracer.paused():
            op.ok = self._check(kind, identity, responses)
        return op

    def _check(self, kind: str, identity: str, responses: list[dict]) -> bool:
        statuses = [r["status"] for r in responses]
        if kind == "deny":
            return statuses == [403]
        expected = [201, 200, 200] if kind == "manual" else [201, 200]
        if statuses != expected:
            return False
        first_status = responses[0]["body"]["status"]
        if first_status != ("Pending" if kind == "manual" else "Approved"):
            return False
        body = responses[-1]["body"]
        sk = kem.decode_private_key(base64.b64decode(body["privateKey"]))
        mpk = kem.decode_master_public(base64.b64decode(body["mpk"]))
        if (body["identity"] != identity or sk.identity.canonical != identity
                or mpk.params_hash != self.service.mpk.params_hash):
            return False
        ct, secret = kem.encaps(mpk, sk.identity, self.rng.bytes(32))
        return kem.decaps(sk, ct) == secret

    def close(self) -> None:
        if self.home is not None:
            shutil.rmtree(self.home, ignore_errors=True)
            self.home = None

    kill = close

    def reconcile(self, ops: list[Op]) -> None:
        """Every issuance check runs in op(); there is no server log."""


WORKLOADS = {cls.name: cls for cls in (HandshakeTcp, Issuance, AppData)}


# ---------------------------------------------------------------------------
# statistics and reporting
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_info(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import cryptography

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cryptography": cryptography.__version__,
        "blas": _blas_info(),
        "commit": _git_commit(),
        "seed": seed,
        "network": "host loopback TCP (127.0.0.1), not a real link",
        "threading": "program defaults (BLAS threads not pinned)",
    }


def _blas_info() -> dict:
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads():
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                   and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = common.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = common.ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (common.ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(ops: list[Op], setup_s: float, rss_mb: float) -> dict:
    walls = [op.wall for op in ops]
    timed = sum(walls)
    return {
        "op_ms_p50": (1e3 * statistics.median(walls), "ms"),
        "op_ms_p90": (1e3 * percentile(walls, 0.9), "ms"),
        "ops_per_s": (len(ops) / timed, "1/s"),
        "wire_bytes_per_op": (sum(op.wire for op in ops) / len(ops), "B"),
        "goodput_mb_per_s": (sum(op.payload for op in ops) / timed / 1e6, "MB/s"),
        "setup_s": (setup_s, "s"),
        "rss_peak_mb": (rss_mb, "MB"),
    }


HANDSHAKE_MESSAGES = {
    "ClientHello": "client_hello", "HelloRetryRequest": "hello_retry_request",
    "ServerHello": "server_hello", "EncryptedExtensions": "encrypted_extensions",
    "Finished (Server)": "finished_server", "Finished (Client)": "finished_client",
}


def per_layer(ops: list[Op], dumps: list[dict], first_op_s: float) -> dict:
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    folded = tracing.per_op(dumps)
    n = len(traced)
    out: dict[str, tuple[float, str]] = {}
    for name in tracing.SPAN_NAMES:
        entries = [folded[op.index]["spans"].get(name, (0, 0.0, 0.0)) for op in traced]
        out[f"{name}.calls"] = (sum(e[0] for e in entries) / n, "count/op")
        out[f"{name}.ms"] = (1e3 * sum(e[1] for e in entries) / n, "ms/op")
        out[f"{name}.self_ms"] = (1e3 * sum(e[2] for e in entries) / n, "ms/op")

    def counter(name: str) -> float:
        return sum(folded[op.index]["counters"].get(name, 0.0) for op in traced) / n

    out["kem.sampling.read.bytes"] = (counter("kem.sampling.read.bytes"), "B/op")
    out["tpkg.delivery.bytes"] = (counter("tpkg.delivery.bytes"), "B/op")

    # handshake message bytes and outcomes, from both sides' session logs
    sides = [(op.detail.get("client"), op.detail.get("server")) for op in ops]
    handshakes = [s for s in sides if s[0] is not None]
    for message, key in HANDSHAKE_MESSAGES.items():
        total = sum(side["messages"].get(message, 0) for pair in handshakes for side in pair)
        out[f"handshake.bytes.{key}"] = (total / len(ops), "B/op")
    out["handshake.hrr_ratio"] = (
        sum(client["hrr"] for client, _ in handshakes) / len(handshakes) if handshakes else 0.0,
        "ratio")
    alerts = [side["alert_sent"] for pair in handshakes for side in pair
              if side["alert_sent"] is not None]
    out["handshake.alerts.ibe_auth_failure"] = (
        sum(a == AlertCode.IBE_AUTH_FAILURE for a in alerts) / len(ops), "count/op")
    out["handshake.alerts.other"] = (
        sum(a != AlertCode.IBE_AUTH_FAILURE for a in alerts) / len(ops), "count/op")

    # where an op's wall time went: client work, server work, and the rest
    client_busy = [folded[op.index]["busy"].get("client", 0.0) for op in traced]
    server_busy = [folded[op.index]["busy"].get("server", 0.0) for op in traced]
    stall = [op.wall - c - s for op, c, s in zip(traced, client_busy, server_busy)]
    out["simnet.client_busy_ms"] = (1e3 * statistics.median(client_busy), "ms")
    out["simnet.server_busy_ms"] = (1e3 * statistics.median(server_busy), "ms")
    out["simnet.stall"] = (1e3 * statistics.median(stall), "ms")

    traced_p50 = statistics.median(op.wall for op in traced)
    out["trace.op_ms_p50"] = (1e3 * traced_p50, "ms")
    out["trace.overhead_ms"] = (
        1e3 * (traced_p50 - statistics.median(op.wall for op in untraced)), "ms")
    out["setup.first_op_ms"] = (1e3 * first_op_s, "ms")
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    cls = WORKLOADS[workload_name]
    tracer = tracing.Tracer("client")
    if trace:
        tracing.install(tracer)

    setup_times, first_op_times, earlier_warm_ops = [], [], []
    workload = None
    try:
        for rep in range(SETUP_REPS):
            workload = cls(seed, rep, tracer, trace)
            t0 = time.perf_counter()
            workload.setup()
            warm_ops = [workload.op(i) for i in range(cls.warmup)]
            setup_times.append(time.perf_counter() - t0)
            first_op_times.append(warm_ops[0].wall)
            if rep < SETUP_REPS - 1:
                workload.close()
                workload.reconcile(warm_ops)
                earlier_warm_ops += warm_ops

        ops: list[Op] = []
        index = cls.warmup
        start = time.perf_counter()
        # at least one traced and one untraced op, however short the run
        while time.perf_counter() - start < seconds or len(ops) < 2:
            ops.append(workload.op(index))
            index += 1
        workload.close()
    except BaseException:
        if workload is not None:
            workload.kill()
        raise

    workload.reconcile(warm_ops + ops)
    rss_mb = max(common.max_rss_mb(), workload.server_log.get("max_rss_mb", 0.0))
    setup_s = IMPORT_S + statistics.median(setup_times)
    first_op_s = statistics.median(first_op_times)
    dumps = [tracer.dump()]
    if workload.server_log.get("trace"):
        dumps.append(workload.server_log["trace"])

    all_ops = earlier_warm_ops + warm_ops + ops
    failed = sum(not op.ok for op in all_ops)
    if trace:
        metrics = per_layer(ops, dumps, first_op_s)
    else:
        metrics = end_to_end(ops, setup_s, rss_mb)
    walls = sorted(op.wall for op in ops)
    p90 = percentile(walls, 0.9)
    return {
        "workload": workload_name,
        "trace": trace,
        "machine": machine_info(seed),
        "samples": len(ops),
        "beyond_p90": sum(w > p90 for w in walls),
        "setup_reps_s": setup_times,
        "import_s": IMPORT_S,
        "first_op_ms": 1e3 * first_op_s,
        "first_op_reps_ms": [1e3 * t for t in first_op_times],
        "kinds": {kind: {"n": len(walls_of), "p50_ms": 1e3 * statistics.median(walls_of)}
                  for kind in sorted({o.kind for o in ops})
                  for walls_of in [[op.wall for op in ops if op.kind == kind]]},
        "ops": [[op.index, op.kind, 1e3 * op.wall, op.payload, op.wire, op.ok] for op in all_ops],
        "attempted": len(all_ops),
        "failed": failed,
        "fail_ratio": failed / len(all_ops),
        "metrics": metrics,
        "dumps": dumps if trace else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))

    common.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    dumps = result.pop("dumps")
    if dumps is not None:
        (common.OUT / f"spans-{stem}.json").write_text(json.dumps(dumps))
    (common.OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"# machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(f"# {args.workload}: {result['samples']} measured ops "
          f"({result['beyond_p90']} beyond p90), mix {result['kinds']}")
    print(f"# fail_ratio = {result['fail_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} ops, warm-up included)")
    print(f"# setup repetitions (s): {', '.join(f'{s:.3f}' for s in result['setup_reps_s'])}; "
          f"imports {result['import_s']:.3f} s; "
          f"first op after start {result['first_op_ms']:.2f} ms (median of repetitions)")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit} (n={result['samples']})")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
