"""5G Service-Based Architecture simulation: NRF-mediated registration,
service discovery, and mutually authenticated NF-to-NF sessions.

The NRF is the only identity provisioned before any bootstrap; every other
NF knows only the master public key (the handshake takes it from the domain)
and the NRF identity, registers over a server-authenticated IBE-TLS channel,
and receives its own identity key through that channel (the NRF forwards the
identity to the issuer).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..handshake import RecordAuthError
from ..kem import IdentityPrivateKey, IdentityString, KemParams
from ..kem.sampling import HashStream
from ..tpkg import IssuerPolicy, bearer_header, bearer_token, error_response, identity_request
from .core import (GENESIS_EPOCH, ConnectReport, SimClock, SimNode, TrustDomainSim, request_key,
                   run_handshake)
from .principals import PrincipalKind, TokenAuthority
from .profiles import nf_identity

# The simulated network's PLMN id (MCC 001, MNC 01: the test network).
PLMN = "00101"

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
    def __init__(self, seed: bytes = b"\x00" * 32) -> None:
        self.clock = SimClock()
        self._rng = HashStream(seed, b"5g-sim")
        self.tokens = TokenAuthority(self._rng.read(32))
        policy = IssuerPolicy(
            trust_domain=f"ibe.5gc.{PLMN}",
            identity_patterns=(f"{PLMN}.*",),
            permitted_usages=frozenset({"client", "server", "peer"}),
            max_expiration_seconds=30 * 86400,
            current_epoch=GENESIS_EPOCH,
            rotation_window=1,
            auto_approve=True,
            principal_template="{subject}",
            approvers=frozenset({"operator"}),
        )
        self.domain = TrustDomainSim.create(
            "5gc", KemParams.desk(), policy, self._rng.read(32),
            authenticator=self.tokens.validate, clock=self.clock.now,
        )
        self.registry = ServiceRegistry()
        # The NRF is pre-provisioned: the one identity that exists up front.
        self.nrf = SimNode(name="nrf-001", role="NRF")
        self.nodes: dict[str, SimNode] = {"nrf-001": self.nrf}
        identity = self.domain.provision(
            self.nrf, nf_identity(PLMN, "NRF", "nrf-001", GENESIS_EPOCH), "operator").identity
        self.registry.register(NfProfile(nf_type="NRF", instance="nrf-001",
                                         endpoint="nrf-001.5gc.local:8443",
                                         capabilities=DEFAULT_SERVICES["NRF"],
                                         identity_base=identity.base))

    def _seed(self) -> bytes:
        return self._rng.read(32)

    def _nrf_key(self):
        return self.nrf.serving_key("5gc")

    # -- registration (NRF-mediated issuance) -----------------------------------

    def _nrf_handler(self, request: dict) -> dict:
        token = bearer_token(request)
        if self.tokens.validate(token) is None:
            return error_response(401, "Unauthenticated")
        path = request.get("path", "")

        if path.startswith("/nnrf-nfm/v1/nf-instances/"):
            profile = request.get("body", {})
            # forward the NF identity string to the issuer
            submit = identity_request(
                self.domain.service.policy.trust_domain,
                f"{profile['identityBase']}.{self.domain.current_epoch}",
                ["client", "server"], 86400, token)
            submitted, delivered = request_key(self.domain.api.handle, submit)
            if delivered is None or delivered["status"] != 200:
                return delivered or submitted
            self.registry.register(NfProfile(
                nf_type=profile["nfType"],
                instance=profile["instance"],
                endpoint=profile["endpoint"],
                capabilities=tuple(profile["capabilities"]),
                identity_base=profile["identityBase"],
            ))
            return {"status": 201, "body": {"ack": True, "keyDelivery": delivered["body"]}}

        if path.startswith("/nnrf-disc/v1/nf-instances"):
            query = request.get("query", {})
            try:
                found = self.registry.lookup(query.get("service"), query.get("instance"))
            except UnknownService:
                return error_response(404, "UnknownService", query.get("service"))
            return {"status": 200, "body": found.discovery_view(self.domain.current_epoch)}

        return error_response(404, "NoRoute")

    def register_nf(self, nf_type: str, instance: str) -> dict:
        """NFRegister over IBE-TLS to the NRF; no certificate attached.

        The response carries the registration ack and the identity key
        delivery, both over the same authenticated channel.
        """
        if nf_type not in NF_TYPES:
            raise ValueError(f"unknown NF type {nf_type}")
        base = f"{PLMN}.{nf_type}.{instance}"
        node = self.nodes.get(instance) or SimNode(name=instance, role=nf_type)
        self.nodes[instance] = node

        principal = self.tokens.mint(base, {"5gc:network-functions"},
                                     PrincipalKind.OPERATOR_NF)
        conn = run_handshake(self.domain.mpk, self._nrf_key(), self._seed(), self._seed())
        report = {"instance": instance, "nfType": nf_type,
                  "handshake": "complete" if conn.ok else "aborted",
                  "registered": False, "capture": conn.capture}
        if not conn.ok:
            return report

        response = conn.call({
            "method": "POST",
            "path": f"/nnrf-nfm/v1/nf-instances/{instance}",
            "authorization": bearer_header(principal.token),
            "body": {"nfType": nf_type, "instance": instance,
                     "endpoint": f"{instance}.5gc.local:7777",
                     "capabilities": list(DEFAULT_SERVICES[nf_type]), "identityBase": base},
        }, self._nrf_handler)
        report["status"] = response["status"]
        if response["status"] != 201:
            report["reason"] = response.get("error", {}).get("reason")
            return report
        key = self.domain.install(node, response["body"]["keyDelivery"])
        report["registered"] = True
        report["identity"] = key.identity.canonical
        return report

    # -- discovery and sessions ---------------------------------------------------

    def discover(self, requester: str, service: str, instance: str | None = None) -> dict:
        """Mutually authenticated discovery query against the NRF."""
        own_key = self.nodes[requester].serving_key("5gc")
        if own_key is None:
            return error_response(403, "NoCredential")
        return self._discover(own_key, service, instance, self._seed(), self._seed())

    def _discover(self, own_key: IdentityPrivateKey, service: str, instance: str | None,
                  client_seed: bytes, nrf_seed: bytes) -> dict:
        conn = run_handshake(self.domain.mpk, self._nrf_key(), client_seed, nrf_seed,
                             client_key=own_key)
        if not conn.ok:
            return error_response(495, "HandshakeAborted")
        token = self.tokens.mint(own_key.identity.base, set(), PrincipalKind.OPERATOR_NF).token
        return conn.call({
            "method": "GET", "path": "/nnrf-disc/v1/nf-instances",
            "authorization": bearer_header(token),
            "query": {"service": service, **({"instance": instance} if instance else {})},
        }, self._nrf_handler)

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
            return ConnectReport(initiator, service, "5gc", refused="NoCredential")
        discovery = self._discover(client_key, service, instance, seeds[0], seeds[1])
        if discovery["status"] != 200:
            return ConnectReport(initiator, service, "5gc",
                                 refused=discovery["error"]["reason"])
        advertised = discovery["body"]["identity"]
        expected = IdentityString.parse(advertised)
        if expected.epoch not in self.domain.service.policy.valid_epochs():
            return ConnectReport(initiator, service, "5gc", refused="stale-epoch")

        responder_instance = expected.segments[2]
        responder = self.nodes.get(responder_instance)
        server_key = responder.serving_key("5gc") if responder else None
        if server_key is None:
            return ConnectReport(initiator, responder_instance, "5gc",
                                 refused="missing-credential")
        conn = run_handshake(self.domain.mpk, server_key, seeds[2], seeds[3],
                             client_key=client_key, expect=expected)
        return ConnectReport(initiator, responder_instance, "5gc", conn)

    # -- lifecycle -------------------------------------------------------------------

    def rotate(self, reregister: tuple[str, ...] = ()) -> str:
        """Bump the epoch; honest NFs re-register for fresh-epoch keys."""
        new_epoch = self.domain.service.epoch_increment()
        self.domain.provision(self.nrf, nf_identity(PLMN, "NRF", "nrf-001", new_epoch),
                              "operator")
        for instance in reregister:
            node = self.nodes[instance]
            self.register_nf(node.role, instance)
        return new_epoch

    def revoke(self, nf_type: str, instance: str) -> None:
        self.domain.revoke(f"{PLMN}.{nf_type}.{instance}")


def compliance_checklist(sim: FiveGSim) -> list[dict]:
    """3GPP TS 33.501 security-requirement checklist, evaluated live.

    Each row names the requirement, the clause it answers to, the mechanism,
    and whether the mechanism held when exercised against this simulation.
    """
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
    impostor = run_handshake(sim.domain.mpk, fake, sim._seed(), sim._seed(),
                             client_key=fake, expect=udm_identity)
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
