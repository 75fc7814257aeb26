"""5G Service-Based Architecture simulation: NRF-mediated registration,
service discovery, and mutually authenticated NF-to-NF sessions.

The NRF is the only identity provisioned before any bootstrap; every other
NF is provisioned with the master public key and the NRF identity, registers
over a server-authenticated IBE-TLS channel, and receives its own identity
key through that channel (the NRF forwards the identity to the issuer).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

from ..handshake import ClientSession, ServerSession
from ..kem import IdentityPrivateKey, IdentityString, KemParams, decode_private_key
from ..kem.sampling import HashStream
from ..tpkg import IssuerPolicy
from .core import (
    ConnectReport,
    SimClock,
    SimNode,
    TrustDomainSim,
    connection_report,
    run_mutual_handshake,
)
from .principals import PrincipalKind, TokenAuthority
from .profiles import nf_identity
from .transport import WireCapture, establish

NF_TYPES = ("AMF", "SMF", "UPF", "NRF", "UDM", "AUSF", "PCF", "NSSF")

DEFAULT_SERVICES = {
    "AMF": ("namf-comm",),
    "SMF": ("nsmf-pdusession",),
    "UPF": ("nupf-packet",),
    "UDM": ("nudm-sdm",),
    "AUSF": ("nausf-auth",),
    "PCF": ("npcf-smpolicycontrol",),
    "NSSF": ("nnssf-nsselection",),
    "NRF": ("nnrf-nfm", "nnrf-disc"),
}


class UnknownService(Exception):
    pass


@dataclass
class NfProfile:
    nf_type: str
    instance: str
    endpoint: str
    capabilities: tuple[str, ...]
    identity_base: str

    def discovery_view(self, epoch: str) -> dict:
        # Returned identity strings always carry the current epoch.
        return {
            "endpoint": self.endpoint,
            "capabilities": list(self.capabilities),
            "identity": f"{self.identity_base}.{epoch}",
        }


class ServiceRegistry:
    """NRF-side profile store keyed by exposed service name."""

    def __init__(self) -> None:
        self.profiles: dict[tuple[str, str], NfProfile] = {}

    def register(self, profile: NfProfile) -> None:
        for service in profile.capabilities:
            self.profiles[(service, profile.instance)] = profile

    def lookup(self, service: str, instance: str | None = None) -> NfProfile:
        matches = [p for (svc, inst), p in sorted(self.profiles.items())
                   if svc == service and (instance is None or inst == instance)]
        if not matches:
            raise UnknownService(service)
        return matches[0]


class FiveGSim:
    def __init__(self, params: KemParams | None = None, seed: bytes = b"\x00" * 32,
                 plmn: str = "00101", epoch: str = "20250101") -> None:
        self.params = params or KemParams.desk()
        self.plmn = plmn
        self.clock = SimClock()
        self._rng = HashStream(seed, b"5g-sim")
        self.tokens = TokenAuthority(self._rng.read(32))
        policy = IssuerPolicy(
            trust_domain=f"ibe.5gc.{plmn}",
            identity_patterns=(f"{plmn}.*",),
            permitted_usages=frozenset({"client", "server", "peer"}),
            max_expiration_seconds=30 * 86400,
            current_epoch=epoch,
            rotation_window=1,
            auto_approve=True,
            principal_template="{subject}",
            approvers=frozenset({"operator"}),
        )
        self.domain = TrustDomainSim.create(
            "5gc", self.params, policy, self._rng.read(32),
            authenticator=self.tokens.validate, clock=self.clock.now,
        )
        self.registry = ServiceRegistry()
        self.nodes: dict[str, SimNode] = {}
        # The NRF is pre-provisioned: the one identity that exists up front.
        self.nrf = self._provision_nrf()

    def _seed(self) -> bytes:
        return self._rng.read(32)

    def _provision_nrf(self) -> SimNode:
        identity = nf_identity(self.plmn, "NRF", "nrf-001", self.domain.current_epoch)
        key = self.domain.direct_issue(identity, principal="operator")
        node = SimNode(name="nrf-001", role="NRF")
        node.hold_key("5gc", key, self.domain.mpk)
        self.nodes["nrf-001"] = node
        profile = NfProfile(nf_type="NRF", instance="nrf-001",
                            endpoint="nrf-001.5gc.local:8443",
                            capabilities=DEFAULT_SERVICES["NRF"],
                            identity_base=identity.base)
        self.registry.register(profile)
        return node

    def _nrf_key(self):
        return self.nodes["nrf-001"].serving_key("5gc")

    # -- registration (NRF-mediated issuance) -----------------------------------

    def _nrf_handler(self):
        def handle(raw: bytes) -> bytes:
            request = json.loads(raw.decode())
            token = base64.b64decode(request.get("authorization", "Bearer ")[len("Bearer "):] or b"")
            principal = self.tokens.validate(token)
            if principal is None:
                return json.dumps({"status": 401, "error": {"reason": "Unauthenticated"}}).encode()

            if request.get("path", "").startswith("/nnrf-nfm/v1/nf-instances/"):
                profile_doc = request.get("body", {})
                identity = f"{profile_doc['identityBase']}.{self.domain.current_epoch}"
                # forward the NF identity string to the issuer
                submit = self.domain.api.handle({
                    "method": "POST", "path": "/identityrequests",
                    "authorization": request["authorization"],
                    "body": {"spec": {"issuer": self.domain.service.policy.trust_domain,
                                      "identity": identity,
                                      "usage": ["client", "server"],
                                      "expirationSeconds": 86400}},
                })
                if submit["status"] != 201 or submit["body"]["status"] != "Approved":
                    return json.dumps(submit, sort_keys=True).encode()
                delivery = self.domain.api.handle({
                    "method": "POST",
                    "path": f"/identityrequests/{submit['body']['name']}/key",
                })
                if delivery["status"] != 200:
                    return json.dumps(delivery, sort_keys=True).encode()
                profile = NfProfile(
                    nf_type=profile_doc["nfType"],
                    instance=profile_doc["instance"],
                    endpoint=profile_doc["endpoint"],
                    capabilities=tuple(profile_doc["capabilities"]),
                    identity_base=profile_doc["identityBase"],
                )
                self.registry.register(profile)
                return json.dumps({"status": 201, "body": {"ack": True,
                                                           "keyDelivery": delivery["body"]}},
                                  sort_keys=True).encode()

            if request.get("path", "").startswith("/nnrf-disc/v1/nf-instances"):
                service = request.get("query", {}).get("service")
                instance = request.get("query", {}).get("instance")
                try:
                    profile = self.registry.lookup(service, instance)
                except UnknownService:
                    return json.dumps({"status": 404, "error": {"reason": "UnknownService",
                                                                "message": service}}).encode()
                return json.dumps(
                    {"status": 200, "body": profile.discovery_view(self.domain.current_epoch)},
                    sort_keys=True).encode()

            return json.dumps({"status": 404, "error": {"reason": "NoRoute"}}).encode()

        return handle

    def register_nf(self, nf_type: str, instance: str,
                    services: tuple[str, ...] | None = None) -> dict:
        """NFRegister over IBE-TLS to the NRF; no certificate attached.

        The response carries the registration ack and the identity key
        delivery, both over the same authenticated channel.
        """
        if nf_type not in NF_TYPES:
            raise ValueError(f"unknown NF type {nf_type}")
        services = services if services is not None else DEFAULT_SERVICES[nf_type]
        base = f"{self.plmn}.{nf_type}.{instance}"
        node = self.nodes.get(instance) or SimNode(name=instance, role=nf_type)
        self.nodes[instance] = node
        node.trust["5gc"] = self.domain.mpk

        principal = self.tokens.mint(base, {"5gc:network-functions"},
                                     PrincipalKind.OPERATOR_NF)
        nrf_key = self._nrf_key()
        client = ClientSession(self.domain.mpk, nrf_key.identity, self._seed())
        server = ServerSession(self.domain.mpk, nrf_key.identity, nrf_key, self._seed())
        conn = establish(client, server, WireCapture())
        report = {"instance": instance, "nfType": nf_type,
                  "handshake": "complete" if conn.ok else "aborted",
                  "registered": False, "capture": conn.capture}
        if not conn.ok:
            return report

        request = {
            "method": "POST",
            "path": f"/nnrf-nfm/v1/nf-instances/{instance}",
            "authorization": "Bearer " + base64.b64encode(principal.token).decode(),
            "body": {"nfType": nf_type, "instance": instance,
                     "endpoint": f"{instance}.5gc.local:7777",
                     "capabilities": list(services), "identityBase": base},
        }
        response = json.loads(conn.request(json.dumps(request).encode(),
                                           self._nrf_handler()).decode())
        report["status"] = response["status"]
        if response["status"] != 201:
            report["reason"] = response.get("error", {}).get("reason")
            return report
        key = decode_private_key(
            base64.b64decode(response["body"]["keyDelivery"]["privateKey"]))
        node.hold_key("5gc", key, self.domain.mpk)
        report["registered"] = True
        report["identity"] = key.identity.canonical
        return report

    # -- discovery and sessions ---------------------------------------------------

    def discover(self, requester: str, service: str, instance: str | None = None) -> dict:
        """Mutually authenticated discovery query against the NRF."""
        own_key = self.nodes[requester].serving_key("5gc")
        if own_key is None:
            return {"status": 403, "error": {"reason": "NoCredential"}}
        return self._discover(own_key, service, instance, self._seed(), self._seed())

    def _discover(self, own_key: IdentityPrivateKey, service: str, instance: str | None,
                  client_seed: bytes, nrf_seed: bytes) -> dict:
        nrf_key = self._nrf_key()
        conn = run_mutual_handshake(self.domain.mpk, nrf_key.identity, nrf_key,
                                    own_key.identity, own_key, client_seed, nrf_seed)
        if not conn.ok:
            return {"status": 495, "error": {"reason": "HandshakeAborted"}}
        query = {
            "method": "GET", "path": "/nnrf-disc/v1/nf-instances",
            "authorization": "Bearer " + base64.b64encode(
                self.tokens.mint(own_key.identity.base, set(),
                                 PrincipalKind.OPERATOR_NF).token).decode(),
            "query": {"service": service, **({"instance": instance} if instance else {})},
        }
        return json.loads(conn.request(json.dumps(query).encode(),
                                       self._nrf_handler()).decode())

    def connect(self, initiator: str, service: str, instance: str | None = None
                ) -> ConnectReport:
        """Discover a producer and open a mutual IBE-TLS session to it.

        The expected peer identity is rebuilt at the issuer's current epoch
        from the discovered profile, so a peer that failed rotation (for
        example after revocation) cannot complete the handshake.
        """
        seeds = [self._seed() for _ in range(4)]  # drawn up front, whatever discovery finds
        client_key = self.nodes[initiator].serving_key("5gc")
        if client_key is None:
            return ConnectReport(initiator, service, "5gc", outcome="refused:NoCredential")
        discovery = self._discover(client_key, service, instance, seeds[0], seeds[1])
        if discovery["status"] != 200:
            return ConnectReport(initiator, service, "5gc",
                                 outcome=f"refused:{discovery['error']['reason']}")
        advertised = discovery["body"]["identity"]
        expected = IdentityString.parse(advertised)
        if expected.epoch not in self.domain.service.policy.valid_epochs():
            return ConnectReport(initiator, service, "5gc", outcome="refused:stale-epoch")

        responder_instance = expected.segments[2]
        responder = self.nodes.get(responder_instance)
        server_key = responder.serving_key("5gc") if responder else None
        if server_key is None:
            return ConnectReport(initiator, responder_instance, "5gc",
                                 outcome="refused:missing-credential")

        client = ClientSession(self.domain.mpk, expected, seeds[2],
                               own_identity=client_key.identity, own_key=client_key,
                               mutual=True)
        server = ServerSession(self.domain.mpk, server_key.identity, server_key,
                               seeds[3], mutual=True)
        conn = establish(client, server, WireCapture())
        return connection_report(conn, initiator, responder_instance, "5gc")

    # -- lifecycle -------------------------------------------------------------------

    def rotate(self, reregister: tuple[str, ...] = ()) -> str:
        """Bump the epoch; honest NFs re-register for fresh-epoch keys."""
        new_epoch = self.domain.service.epoch_increment()
        nrf_identity = nf_identity(self.plmn, "NRF", "nrf-001", new_epoch)
        self.nodes["nrf-001"].hold_key(
            "5gc", self.domain.direct_issue(nrf_identity, principal="operator"),
            self.domain.mpk)
        for instance in reregister:
            node = self.nodes[instance]
            self.register_nf(node.role, instance)
        return new_epoch

    def revoke(self, nf_type: str, instance: str) -> None:
        base = f"{self.plmn}.{nf_type}.{instance}"
        self.domain.service.revoke_identity(
            IdentityString.parse(f"{base}.{self.domain.current_epoch}"))


def compliance_checklist(sim: FiveGSim) -> list[dict]:
    """3GPP TS 33.501 security-requirement checklist, evaluated live.

    Each row names the requirement, the clause it answers to, the mechanism,
    and whether the mechanism held when exercised against this simulation.
    """
    from ..handshake import RecordAuthError

    sim.register_nf("AMF", "chk-amf")
    sim.register_nf("UDM", "chk-udm")

    report = sim.connect("chk-amf", "nudm-sdm", instance="chk-udm")
    conn = report.connection
    mutual_ok = report.ok and (conn.client.ops["encaps"] + conn.server.ops["encaps"]) == 3

    confidentiality_ok = False
    integrity_ok = False
    if report.ok:
        sealed = conn.client.seal_app(b"nudm-sdm request")
        confidentiality_ok = sealed[0] == 23 and b"nudm-sdm request" not in sealed
        tampered = bytearray(sealed)
        tampered[-1] ^= 0x01
        try:
            conn.server.open_app(bytes(tampered))
        except RecordAuthError:
            integrity_ok = True

    # replay protection: session nonces are fresh, and a captured ClientHello
    # cannot be completed by a replayer who lacks the session secrets
    second = sim.connect("chk-amf", "nudm-sdm", instance="chk-udm")
    nonce_a = report.connection.capture.records[0].data
    nonce_b = second.connection.capture.records[0].data
    replay_ok = second.ok and nonce_a != nonce_b

    # identity verification: an impostor without the producer's key aborts
    fake = sim.nodes["chk-amf"].serving_key("5gc")
    udm_identity = sim.nodes["chk-udm"].serving_key("5gc").identity
    from .core import run_mutual_handshake

    impostor = run_mutual_handshake(sim.domain.mpk, udm_identity, fake,
                                    fake.identity, fake, sim._seed(), sim._seed())
    identity_ok = not impostor.ok

    authz_identity = sim.nodes["chk-udm"].serving_key("5gc").identity
    authorization_ok = authz_identity.segments[1] == "UDM" and len(authz_identity.segments) == 4

    return [
        {"requirement": "NF mutual authentication", "clause": "13.1",
         "mechanism": "Bidirectional IBE encapsulation", "satisfied": mutual_ok},
        {"requirement": "Confidentiality protection", "clause": "13.2.1",
         "mechanism": "TLS record layer unchanged", "satisfied": confidentiality_ok},
        {"requirement": "Integrity protection", "clause": "13.2.2",
         "mechanism": "TLS record layer unchanged", "satisfied": integrity_ok},
        {"requirement": "Replay protection", "clause": "13.2.3",
         "mechanism": "TLS handshake nonces", "satisfied": replay_ok},
        {"requirement": "Authorization", "clause": "13.3",
         "mechanism": "Identity string carries scope", "satisfied": authorization_ok},
        {"requirement": "NF identity verification", "clause": "5.9.2",
         "mechanism": "Implicit via key possession", "satisfied": identity_ok},
    ]
