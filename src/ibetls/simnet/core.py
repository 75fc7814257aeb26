"""Shared simulation plumbing: clock, nodes, trust domains, connections."""

from __future__ import annotations

import base64
import datetime
from dataclasses import dataclass, field
from pathlib import Path

from ..handshake import ClientSession, ServerSession
from ..kem import (
    IdentityPrivateKey,
    IdentityString,
    MasterPublicKey,
    encode_master_public,
    encode_private_key,
)
from ..tpkg import ApiServer, IssuerPolicy, ShareSet, TpkgService
from .transport import Connection, WireCapture, establish


class SimClock:
    """Logical clock: advances only when the scenario runner says so."""

    def __init__(self, start: datetime.datetime | None = None) -> None:
        self.current = start or datetime.datetime(2025, 1, 2, tzinfo=datetime.timezone.utc)

    def now(self) -> datetime.datetime:
        return self.current

    def advance(self, seconds: int = 1) -> None:
        self.current += datetime.timedelta(seconds=seconds)


@dataclass
class SimNode:
    name: str
    role: str
    trust: dict[str, MasterPublicKey] = field(default_factory=dict)
    keys: dict[tuple[str, str], IdentityPrivateKey] = field(default_factory=dict)
    secret_store: dict[str, dict] = field(default_factory=dict)
    secret_dir: Path | None = None

    def hold_key(self, domain: str, key: IdentityPrivateKey, mpk: MasterPublicKey) -> None:
        self.keys[(domain, key.identity.base)] = key
        self.trust.setdefault(domain, mpk)
        manifest = {
            "id": base64.b64encode(key.identity.canonical.encode()).decode(),
            "secret-key": base64.b64encode(encode_private_key(key)).decode(),
            "master-public-key": base64.b64encode(encode_master_public(mpk)).decode(),
        }
        name = f"identity-key-{key.identity.base.replace(':', '-').replace('.', '-')}"
        self.secret_store[name] = manifest
        if self.secret_dir is not None:
            import json

            self.secret_dir.mkdir(parents=True, exist_ok=True)
            (self.secret_dir / f"{name}.json").write_text(
                json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
            )

    def key_in(self, domain: str, base: str) -> IdentityPrivateKey | None:
        return self.keys.get((domain, base))

    def serving_key(self, domain: str) -> IdentityPrivateKey | None:
        for (d, _), key in self.keys.items():
            if d == domain:
                return key
        return None


@dataclass
class TrustDomainSim:
    """One issuer: service, shares held by its nodes, and the JSON API."""

    name: str
    service: TpkgService
    shares: ShareSet
    api: ApiServer

    @classmethod
    def create(cls, name: str, params, policy: IssuerPolicy, seed: bytes,
               n_nodes: int = 3, threshold: int = 2, authenticator=None,
               clock=None) -> "TrustDomainSim":
        service, shares = TpkgService.setup_domain(
            domain=policy.trust_domain, params=params, n_nodes=n_nodes,
            threshold=threshold, seed=seed, policy=policy,
            authenticator=authenticator, clock=clock,
        )
        domain = cls(name=name, service=service, shares=shares, api=None)
        domain.api = ApiServer(service, shares_provider=domain.quorum)
        return domain

    def quorum(self):
        return list(self.shares.shares[: self.shares.threshold])

    @property
    def mpk(self) -> MasterPublicKey:
        return self.service.mpk

    @property
    def current_epoch(self) -> str:
        return self.service.policy.current_epoch


@dataclass
class ConnectReport:
    initiator: str
    responder: str
    domain: str
    outcome: str                      # "complete" | "aborted" | "refused:<why>"
    client_alert: int | None = None
    server_alert: int | None = None
    records: int = 0
    auth_bytes: int = 0
    connection: Connection | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == "complete"

    def log_fields(self) -> dict:
        fields = {
            "initiator": self.initiator,
            "responder": self.responder,
            "domain": self.domain,
            "outcome": self.outcome,
            "records": self.records,
            "authBytes": self.auth_bytes,
        }
        if self.connection is not None and self.connection.ok:
            # seed-dependent fingerprint: proves log determinism is not vacuous
            fields["transcript"] = self.connection.client.transcript_hash().hex()[:16]
        return fields


def run_mutual_handshake(
    mpk: MasterPublicKey,
    server_identity: IdentityString,
    server_key: IdentityPrivateKey,
    client_identity: IdentityString,
    client_key: IdentityPrivateKey,
    client_seed: bytes,
    server_seed: bytes,
) -> Connection:
    client = ClientSession(mpk, server_identity, client_seed,
                           own_identity=client_identity, own_key=client_key, mutual=True)
    server = ServerSession(mpk, server_identity, server_key, server_seed, mutual=True)
    return establish(client, server, WireCapture())


def connection_report(conn: Connection, initiator: str, responder: str,
                      domain: str) -> ConnectReport:
    if conn.ok:
        outcome = "complete"
    else:
        outcome = "aborted"
    return ConnectReport(
        initiator=initiator,
        responder=responder,
        domain=domain,
        outcome=outcome,
        client_alert=conn.client.alert_sent or conn.client.alert_received,
        server_alert=conn.server.alert_sent or conn.server.alert_received,
        records=len(conn.capture.records),
        auth_bytes=conn.client.auth_bytes + conn.server.auth_bytes,
        connection=conn,
    )


def first_client_app_record_index(capture: WireCapture) -> int | None:
    """Index of the first client-sent protected record (Finished or app data)."""
    for i, rec in enumerate(capture.records):
        if rec.sender == "client" and rec.content_type == 23:
            return i
    return None
