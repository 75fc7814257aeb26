"""Shared simulation plumbing: clock, nodes, trust domains, and the one
lifecycle both deployments run.

A node enrolls over a server-authenticated IBE-TLS channel (``run_handshake``
without a client key, then ``Connection.call`` with an IdentityRequest and
``request_key``), connects to peers over mutual IBE-TLS (``run_handshake``
with one), and is provisioned, rotated and revoked through its
``TrustDomainSim``. Kubernetes and 5G differ only in policy and wiring.
"""

from __future__ import annotations

import base64
import datetime
from dataclasses import dataclass, field

from ..handshake import ClientSession, ServerSession
from ..kem import (
    IdentityPrivateKey,
    IdentityString,
    MasterPublicKey,
    decode_private_key,
)
from ..tpkg import ApiServer, IssuerPolicy, ShareSet, TpkgService
from .transport import Connection, WireCapture, establish


# The epoch every simulated trust domain starts in.
GENESIS_EPOCH = "20250101"


class SimClock:
    """Logical clock that starts on 2025-01-02 UTC and advances one second
    each time the scenario runner says so."""

    def __init__(self) -> None:
        self.current = datetime.datetime(2025, 1, 2, tzinfo=datetime.timezone.utc)

    def now(self) -> datetime.datetime:
        return self.current

    def advance(self) -> None:
        self.current += datetime.timedelta(seconds=1)


@dataclass
class SimNode:
    name: str
    role: str
    keys: dict[tuple[str, str], IdentityPrivateKey] = field(default_factory=dict)

    def hold_key(self, domain: str, key: IdentityPrivateKey) -> None:
        self.keys[(domain, key.identity.base)] = key

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
               authenticator=None, clock=None) -> "TrustDomainSim":
        """Three share-holding nodes, any two of which can rebuild the master."""
        service, shares = TpkgService.setup_domain(
            domain=policy.trust_domain, params=params, n_nodes=3, threshold=2,
            seed=seed, policy=policy, authenticator=authenticator, clock=clock,
        )
        domain = cls(name=name, service=service, shares=shares, api=None)
        domain.api = ApiServer(service, shares_provider=domain.quorum)
        return domain

    def quorum(self):
        return list(self.shares.shares)

    @property
    def mpk(self) -> MasterPublicKey:
        return self.service.mpk

    @property
    def current_epoch(self) -> str:
        return self.service.policy.current_epoch

    def provision(self, node: SimNode, identity: IdentityString,
                  principal: str) -> IdentityPrivateKey:
        """Issue identity's key out of band under a quorum; node holds it."""
        key = self.service.issue_direct(identity, self.quorum(), principal)
        node.hold_key(self.name, key)
        return key

    def install(self, node: SimNode, delivery: dict) -> IdentityPrivateKey:
        """node holds the key that a key-delivery document carries."""
        key = decode_private_key(base64.b64decode(delivery["privateKey"]))
        node.hold_key(self.name, key)
        return key

    def revoke(self, base: str) -> None:
        """Revoke base in every epoch; recorded at the current one."""
        self.service.revoke_identity(f"{base}.{self.current_epoch}")


def request_key(send, submit: dict) -> tuple[dict, dict | None]:
    """Submit an IdentityRequest through send and, once it is approved, fetch
    its key under the same bearer: (submit response, key response or None)."""
    submitted = send(submit)
    if submitted["status"] != 201 or submitted["body"]["status"] != "Approved":
        return submitted, None
    return submitted, send({"method": "POST",
                            "path": f"/identityrequests/{submitted['body']['name']}/key",
                            "authorization": submit["authorization"]})


def run_handshake(mpk: MasterPublicKey, server_key: IdentityPrivateKey,
                  client_seed: bytes, server_seed: bytes,
                  client_key: IdentityPrivateKey | None = None,
                  expect: IdentityString | None = None) -> Connection:
    """Drive one in-process IBE-TLS handshake to completion or abort.

    The client expects the server to be ``expect``, by default the identity
    of server_key. With client_key both sides authenticate; without one,
    only the server does.
    """
    mutual = client_key is not None
    client = ClientSession(mpk, expect or server_key.identity, client_seed,
                           own_identity=client_key.identity if mutual else None,
                           own_key=client_key, mutual=mutual)
    server = ServerSession(mpk, server_key.identity, server_key, server_seed, mutual=mutual)
    return establish(client, server, WireCapture())


@dataclass
class ConnectReport:
    """One connect attempt: refused before any handshake, or the connection
    its handshake produced."""

    initiator: str
    responder: str
    domain: str
    connection: Connection | None = None
    refused: str = ""  # why no handshake was attempted

    @property
    def outcome(self) -> str:
        """"complete", "aborted" or "refused:<why>"."""
        if self.connection is None:
            return f"refused:{self.refused}"
        return "complete" if self.connection.ok else "aborted"

    @property
    def ok(self) -> bool:
        return self.outcome == "complete"

    def log_fields(self) -> dict:
        conn = self.connection
        fields = {
            "initiator": self.initiator,
            "responder": self.responder,
            "domain": self.domain,
            "outcome": self.outcome,
            "records": len(conn.capture.records) if conn else 0,
            "authBytes": conn.client.auth_bytes + conn.server.auth_bytes if conn else 0,
        }
        if conn is not None and conn.ok:
            # seed-dependent fingerprint: proves log determinism is not vacuous
            fields["transcript"] = conn.client.transcript_hash().hex()[:16]
        return fields


def first_client_app_record_index(capture: WireCapture) -> int | None:
    """Index of the first client-sent protected record (Finished or app data)."""
    for i, rec in enumerate(capture.records):
        if rec.sender == "client" and rec.content_type == 23:
            return i
    return None
