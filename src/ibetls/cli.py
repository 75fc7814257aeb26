"""Operator command surface.

Exit codes: 0 success, 2 usage/config error, 3 policy denial,
4 handshake or scenario failure, or a --remote endpoint that is unreachable,
sends a message longer than the transport accepts or replies with something
other than a JSON object, 5 corrupt state on disk (a journal, mpk.bin,
policy.json, a share set), or a journal that another writer
changed since this command read it (nothing was written; retry). A command
that fails says why in one stderr line; FAILURES maps each exception to its
code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import socket
import sys
import tempfile
import time
import warnings
from pathlib import Path

from .handshake import ClientSession, ServerSession
from .kem import (
    NOT_SECURE_BANNER,
    IdentityString,
    KemParams,
    MalformedIdentity,
    ToyParametersWarning,
)
from .metrics import compare_report, instrument, render_table
from .simnet import (
    DEMO_5G_SCRIPT,
    DEMO_K8S_SCRIPT,
    KubernetesSim,
    MessageTooLarge,
    RecordStream,
    TokenAuthority,
    client_handshake_over_stream,
    component_identity,
    run_scenario,
    seed_bytes,
    server_handshake_over_stream,
    stream_recv_message,
    stream_send_message,
)
from .tpkg import (
    ApiServer,
    IssuerPolicy,
    JournalConflict,
    LegacyLayout,
    RegistryCorrupt,
    ShareMismatch,
    ThresholdNotMet,
    TpkgError,
    TpkgService,
    identity_request,
    load_chain,
    load_domain,
    load_readable_shares,
    save_domain,
    save_state,
    verify_chain,
)
from .tpkg.registry import json_field

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_POLICY = 3
EXIT_HANDSHAKE = 4
EXIT_REGISTRY = 5


class RemoteUnreachable(Exception):
    """The --remote endpoint refused the connection or stopped answering."""


# How a command that raises ends: the first row whose exception types match
# gives the exit code and the one line written to stderr. ValueError and
# OSError cover input the command cannot use: bad option values, a config
# file that is missing or not JSON, a --file that cannot be read.
FAILURES = (
    (JournalConflict, EXIT_REGISTRY, "CONFLICT: {}; nothing was written, retry"),
    (RegistryCorrupt, EXIT_REGISTRY, "CORRUPT: {}"),
    (ShareMismatch, EXIT_REGISTRY, "CORRUPT: {}"),
    (ThresholdNotMet, EXIT_USAGE, "refusing to serve: {}"),
    (TpkgError, EXIT_POLICY, "denied: {}"),
    (RemoteUnreachable, EXIT_HANDSHAKE, "unreachable: {}"),
    (MessageTooLarge, EXIT_HANDSHAKE, "refused: {}"),
    (LegacyLayout, EXIT_USAGE, "{}"),
    ((MalformedIdentity, ValueError, OSError), EXIT_USAGE, "error: {}"),
)

DEFAULT_HOME = Path("ibetls-home")
# Seconds one connection may take in all, so a silent or dripping client cannot
# stall tpkg-serve's serial loop.
SERVE_CONNECTION_TIMEOUT = 10.0


class CliConfig:
    def __init__(self, args) -> None:
        doc = {}
        if getattr(args, "config", None):
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        # Read every field, so an option that overrides one cannot hide a bad file.
        home, listen = json_field(doc, "home", str, ""), json_field(doc, "listen", str, "")
        self.home = Path(getattr(args, "home", None) or home or DEFAULT_HOME)
        self.listen = getattr(args, "listen", None) or listen or "127.0.0.1:9443"
        self.profile = json_field(doc, "profile", str, "desk")

    def domain_dir(self, name: str) -> Path:
        return self.home / "domains" / name

    def token_secret(self) -> bytes:
        """The home's token key. Commands that start together agree on it: the
        file appears whole, by a hard link that fails if another won the race."""
        path = self.home / "token.secret"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".token.secret.")
            try:
                with os.fdopen(fd, "wb") as out:
                    out.write(os.urandom(32).hex().encode())
                    out.flush()
                    os.fsync(out.fileno())
                os.link(tmp, path)
            except FileExistsError:
                pass  # another command created it first; its secret stands
            finally:
                os.unlink(tmp)
        return bytes.fromhex(path.read_text())

    def params(self) -> KemParams:
        if self.profile != "desk":
            raise ValueError(f"config profile {self.profile!r} is unknown; only 'desk' exists")
        return KemParams.desk()


def _json_doc(raw: bytes):
    """The JSON document in raw; None when raw is not UTF-8 JSON."""
    try:
        return json.loads(raw.decode())
    except ValueError:  # also UnicodeDecodeError
        return None


def _print(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if isinstance(payload, str):
            print(payload)
        else:
            print(json.dumps(payload, sort_keys=True))


def cmd_tpkg_setup(args, config: CliConfig) -> int:
    directory = config.domain_dir(args.domain)
    if (directory / "mpk.bin").exists():
        print(f"domain {args.domain} already exists at {directory}", file=sys.stderr)
        return EXIT_USAGE
    policy = IssuerPolicy(
        trust_domain=args.trust_domain or f"ibe.local/{args.domain}",
        identity_patterns=tuple(args.patterns.split(",")),
        permitted_usages=frozenset(args.usages.split(",")),
        max_expiration_seconds=args.max_expiration,
        current_epoch=args.epoch,
        rotation_window=args.rotation_window,
        auto_approve=bool(args.auto_approve_template),
        principal_template=args.auto_approve_template,
        approvers=frozenset(args.approvers.split(",")),
    )
    service, shares = TpkgService.setup_domain(
        domain=policy.trust_domain,
        params=config.params(),
        n_nodes=args.nodes,
        threshold=args.threshold,
        seed=os.urandom(32) if args.seed is None else seed_bytes(args.seed),
        policy=policy,
    )
    save_domain(directory, service, shares)
    print(f"domain {args.domain}: {args.nodes} nodes, threshold {args.threshold}, "
          f"epoch {policy.current_epoch}")
    print(f"state written to {directory}")
    return EXIT_OK


def _open_domain(args, config: CliConfig):
    directory = config.domain_dir(args.domain)
    if not (directory / "mpk.bin").exists():
        print(f"no such domain: {args.domain} (run tpkg-setup first)", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    authority = TokenAuthority(config.token_secret())
    return directory, load_domain(directory, authenticator=authority.validate), authority


def cmd_id_request(args, config: CliConfig) -> int:
    _, service, authority = _open_domain(args, config)
    principal = authority.mint(args.subject, set(args.groups.split(",")) if args.groups else set())
    if args.remote:
        return _id_request_remote(args, service, principal)
    request = service.submit_request(
        identity=args.identity,
        usage=tuple(args.usage.split(",")),
        expiration_seconds=args.expiration,
        principal_token=principal.token,
    )
    _print(request.to_dict(), args.format)
    return EXIT_OK


def _id_request_remote(args, service, principal) -> int:
    host, _, port = args.remote.rpartition(":")
    address = (host or "127.0.0.1", int(port))
    endpoint_identity = component_identity(args.endpoint_identity,
                                           service.policy.current_epoch)
    request = identity_request(service.policy.trust_domain, args.identity,
                               args.usage.split(","), args.expiration, principal.token)
    try:
        sock = socket.create_connection(address, timeout=10)
        with contextlib.closing(RecordStream(sock)) as stream:
            session = ClientSession(service.mpk, endpoint_identity, os.urandom(32))
            if not client_handshake_over_stream(session, stream):
                print("handshake with remote endpoint failed", file=sys.stderr)
                return EXIT_HANDSHAKE
            stream_send_message(session, stream, json.dumps(request).encode())
            raw = stream_recv_message(session, stream)
    except OSError as exc:
        raise RemoteUnreachable(f"{args.remote}: {exc}") from None
    if raw is None:
        print("no response from endpoint", file=sys.stderr)
        return EXIT_HANDSHAKE
    response = _json_doc(raw)
    if not isinstance(response, dict):
        print("endpoint reply is not a JSON object", file=sys.stderr)
        return EXIT_HANDSHAKE
    _print(response, args.format)
    return EXIT_OK if response.get("status") in (200, 201) else EXIT_POLICY


def cmd_id_approve(args, config: CliConfig) -> int:
    _, service, _ = _open_domain(args, config)
    request = service.approve_request(args.request, args.approver)
    print(f"{request.name} {request.status.value}")
    return EXIT_OK


def cmd_id_list(args, config: CliConfig) -> int:
    _, service, _ = _open_domain(args, config)
    items = [r.to_dict() for r in service.list_requests()]
    if args.format == "json":
        _print({"items": items}, "json")
    else:
        for item in items:
            print(f"{item['name']}\t{item['spec']['identity']}\t{item['status']}")
    return EXIT_OK


def cmd_id_revoke(args, config: CliConfig) -> int:
    _, service, _ = _open_domain(args, config)
    service.revoke_identity(args.identity)
    print(f"revoked {IdentityString.parse(args.identity).base} (all epochs)")
    return EXIT_OK


def cmd_epoch_bump(args, config: CliConfig) -> int:
    directory, service, _ = _open_domain(args, config)
    new_epoch = service.epoch_increment(args.epoch)
    save_state(directory, service)
    print(f"epoch now {new_epoch} "
          f"(window keeps {service.policy.rotation_window} prior)")
    return EXIT_OK


def cmd_registry_verify(args, config: CliConfig) -> int:
    if args.file:
        records = load_chain(Path(args.file))
    else:
        directory = config.domain_dir(args.domain)
        records = load_chain(directory / "registry.jsonl")
    broken = verify_chain(records)
    if broken is None:
        print(f"ok: {len(records)} records, chain intact")
        return EXIT_OK
    print(f"CORRUPT: chain breaks at record {broken}", file=sys.stderr)
    return EXIT_REGISTRY


def cmd_tpkg_serve(args, config: CliConfig) -> int:
    directory, service, authority = _open_domain(args, config)
    endpoint_identity = component_identity(args.endpoint_identity,
                                           service.policy.current_epoch)
    # Every readable share goes to reconstruct, which applies the threshold.
    endpoint_key = service.issue_direct(endpoint_identity, load_readable_shares(directory),
                                        "operator")
    api = ApiServer(service, shares_provider=lambda: load_readable_shares(directory))

    host, _, port = (args.listen or config.listen).rpartition(":")
    listener = socket.create_server((host or "127.0.0.1", int(port)))
    actual = listener.getsockname()
    print(f"serving {service.policy.trust_domain} on {actual[0]}:{actual[1]} "
          f"as {endpoint_identity.canonical}", file=sys.stderr, flush=True)

    served = 0

    def handle(stream: RecordStream) -> None:
        session = ServerSession(service.mpk, endpoint_identity, endpoint_key, os.urandom(32))
        if not server_handshake_over_stream(session, stream):
            return
        raw = stream_recv_message(session, stream)
        if raw is None:
            return
        # None, or any document that is not an object, is answered as a BadRequest
        response = api.handle(_json_doc(raw))  # state changes are on disk before this returns
        stream_send_message(session, stream, json.dumps(response, sort_keys=True).encode())
        if response.get("error", {}).get("reason") == "Conflict":
            # Another writer appended to this home; serve from its state now,
            # so the next write is checked against the journals as they are.
            api.service = load_domain(directory, authenticator=authority.validate)

    try:
        while True:
            conn, peer = listener.accept()
            # One connection at a time keeps state writes ordered, so each
            # connection gets one deadline for all of its reads and writes.
            stream = RecordStream(conn, deadline=time.monotonic() + SERVE_CONNECTION_TIMEOUT)
            try:
                handle(stream)
            except Exception as exc:  # noqa: BLE001 - one bad connection must not stop serving
                print(f"connection from {peer[0]}:{peer[1]} failed: {exc!r}", file=sys.stderr)
            finally:
                stream.close()
            served += 1
            if args.max_requests and served >= args.max_requests:
                break
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
    return EXIT_OK


def cmd_demo(script: dict, args, config: CliConfig) -> int:
    log = run_scenario(script, seed=args.seed)
    output = log.to_jsonl()
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(output)
    else:
        for entry in log.entries:
            marker = "PASS" if entry["pass"] else "FAIL"
            print(f"[{entry['step']:02d}] {marker} {entry['op']:16s} "
                  f"outcome={entry['outcome']} expect={entry['expect']}")
    if not log.all_ok:
        print("scenario assertions failed", file=sys.stderr)
        return EXIT_HANDSHAKE
    return EXIT_OK


def cmd_bench_report(args, config: CliConfig) -> int:
    sim = KubernetesSim(seed=seed_bytes(args.seed))
    report_conn = sim.connect("kube-scheduler", "kube-apiserver")
    if not report_conn.ok:
        print("benchmark handshake failed", file=sys.stderr)
        return EXIT_HANDSHAKE
    metrics = instrument(report_conn.connection)
    report = compare_report(metrics)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    if args.format == "json":
        _print(report, "json")
    else:
        print(render_table(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibetls",
        description="Certificate-free identity-based TLS toolkit (desk-scale, not secure)",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--home", help="state directory (default ./ibetls-home)")
    sub = parser.add_subparsers(dest="command", required=True)

    setup_p = sub.add_parser("tpkg-setup", help="establish a trust domain")
    setup_p.set_defaults(run=cmd_tpkg_setup)
    setup_p.add_argument("--domain", required=True)
    setup_p.add_argument("--trust-domain", default=None)
    setup_p.add_argument("--nodes", type=int, default=3)
    setup_p.add_argument("--threshold", type=int, default=2)
    setup_p.add_argument("--seed", type=int, default=None)  # None: OS randomness
    setup_p.add_argument("--epoch", default="20250101")
    setup_p.add_argument("--rotation-window", type=int, default=1)
    setup_p.add_argument("--patterns", default="*")
    setup_p.add_argument("--usages", default="client,server")
    setup_p.add_argument("--max-expiration", type=int, default=30 * 86400)
    setup_p.add_argument("--auto-approve-template", default=None)
    setup_p.add_argument("--approvers", default="admin")

    serve_p = sub.add_parser("tpkg-serve", help="serve the issuance API over IBE-TLS/TCP")
    serve_p.set_defaults(run=cmd_tpkg_serve)
    serve_p.add_argument("--domain", required=True)
    serve_p.add_argument("--listen", default=None)
    serve_p.add_argument("--endpoint-identity", default="tpkg-register")
    serve_p.add_argument("--max-requests", type=int, default=0,
                         help="exit after N requests (0 = run forever)")

    request_p = sub.add_parser("id-request", help="submit an IdentityRequest")
    request_p.set_defaults(run=cmd_id_request)
    request_p.add_argument("--domain", required=True)
    request_p.add_argument("--identity", required=True)
    request_p.add_argument("--usage", default="client,server")
    request_p.add_argument("--expiration", type=int, default=86400)
    request_p.add_argument("--subject", default="operator")
    request_p.add_argument("--groups", default="")
    request_p.add_argument("--remote", default=None, help="host:port of tpkg-serve")
    request_p.add_argument("--endpoint-identity", default="tpkg-register")
    request_p.add_argument("--format", choices=["json", "table"], default="table")

    approve_p = sub.add_parser("id-approve", help="approve a pending request")
    approve_p.set_defaults(run=cmd_id_approve)
    approve_p.add_argument("request")
    approve_p.add_argument("--domain", required=True)
    approve_p.add_argument("--approver", default="admin")

    list_p = sub.add_parser("id-list", help="list identity requests")
    list_p.set_defaults(run=cmd_id_list)
    list_p.add_argument("--domain", required=True)
    list_p.add_argument("--format", choices=["json", "table"], default="table")

    revoke_p = sub.add_parser("id-revoke", help="revoke an identity in every epoch")
    revoke_p.set_defaults(run=cmd_id_revoke)
    revoke_p.add_argument("--domain", required=True)
    revoke_p.add_argument("--identity", required=True)

    bump_p = sub.add_parser("epoch-bump", help="increment the issuer epoch")
    bump_p.set_defaults(run=cmd_epoch_bump)
    bump_p.add_argument("--domain", required=True)
    bump_p.add_argument("--epoch", default=None)

    verify_p = sub.add_parser("registry-verify", help="verify a registry hash chain")
    verify_p.set_defaults(run=cmd_registry_verify)
    verify_p.add_argument("--domain", default=None)
    verify_p.add_argument("--file", default=None)

    for name, script in (("demo-k8s", DEMO_K8S_SCRIPT), ("demo-5g", DEMO_5G_SCRIPT)):
        demo_p = sub.add_parser(name, help=f"run the {name[5:]} scenario")
        demo_p.set_defaults(run=functools.partial(cmd_demo, script))
        demo_p.add_argument("--seed", type=int, default=0)
        demo_p.add_argument("--out", default=None)
        demo_p.add_argument("--format", choices=["json", "table"], default="table")

    bench_p = sub.add_parser("bench-report", help="comparison against the cert-based model")
    bench_p.set_defaults(run=cmd_bench_report)
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--out", default=None)
    bench_p.add_argument("--format", choices=["json", "table"], default="table")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "registry-verify" and not args.domain and not args.file:
        parser.error("registry-verify needs --domain or --file")
    # The banner stands for the warning every parameter set raises.
    print(f"! {NOT_SECURE_BANNER}", file=sys.stderr)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ToyParametersWarning)
            return args.run(args, CliConfig(args))
    except Exception as exc:
        for kinds, code, line in FAILURES:
            if isinstance(exc, kinds):
                print(line.format(exc), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
