"""Kubernetes control-plane simulation: three trust domains, component
identities, the kubelet bootstrap flow, rotation and revocation.

Trust domains mirror the cluster PKI split: a control-plane issuer, an etcd
issuer, and a front-proxy issuer, with no shared seeds. A component may hold
one key per (domain, role) pair; the API server, for instance, serves as
kube-apiserver in the control-plane domain and authenticates as
kube-apiserver-client toward etcd, the kubelet, and the front-proxy.
"""

from __future__ import annotations

import base64
import json

from ..handshake import ClientSession, ServerSession
from ..kem import KemParams
from ..kem.sampling import HashStream
from ..tpkg import IDENTITYREQUESTS_PATH, IssuerPolicy
from .core import (
    ConnectReport,
    SimClock,
    SimNode,
    TrustDomainSim,
    connection_report,
    run_mutual_handshake,
)
from .principals import PrincipalKind, TokenAuthority
from .profiles import component_identity
from .transport import WireCapture, establish

CONTROL_PLANE = "control-plane"
ETCD = "etcd"
FRONT_PROXY = "front-proxy"

# initiator/responder wiring for every control-plane interaction row
COMPONENT_LINKS: dict[tuple[str, str], tuple[str, str, str]] = {
    # (initiator node, responder node) -> (client base, server base, domain)
    ("kubectl", "kube-apiserver"): ("kubectl:admin", "kube-apiserver", CONTROL_PLANE),
    ("kube-scheduler", "kube-apiserver"): ("kube-scheduler", "kube-apiserver", CONTROL_PLANE),
    ("kube-controller-manager", "kube-apiserver"): (
        "kube-controller-manager", "kube-apiserver", CONTROL_PLANE),
    ("kubelet-node-01", "kube-apiserver"): ("kubelet:node-01", "kube-apiserver", CONTROL_PLANE),
    ("kube-apiserver", "kubelet-node-01"): (
        "kube-apiserver-client", "kubelet:node-01", CONTROL_PLANE),
    ("kube-apiserver", "etcd-server"): ("kube-apiserver-client", "etcd-server", ETCD),
    ("etcd-peer-1", "etcd-peer-2"): ("etcd-peer-1", "etcd-peer-2", ETCD),
    ("kube-apiserver", "front-proxy"): ("kube-apiserver-client", "front-proxy", FRONT_PROXY),
}


def _policies(epoch: str) -> dict[str, IssuerPolicy]:
    return {
        CONTROL_PLANE: IssuerPolicy(
            trust_domain="ibe.kubernetes.io/apiserver",
            identity_patterns=("kube-apiserver", "kube-apiserver-client", "kubelet:*",
                               "kube-scheduler", "kube-controller-manager", "kubectl:*"),
            permitted_usages=frozenset({"client", "server"}),
            max_expiration_seconds=30 * 86400,
            current_epoch=epoch,
            rotation_window=1,
            auto_approve=True,
            principal_template="kubelet:{subject}",
            approvers=frozenset({"admin"}),
        ),
        ETCD: IssuerPolicy(
            trust_domain="ibe.kubernetes.io/etcd",
            identity_patterns=("etcd-server", "etcd-peer-*", "kube-apiserver-client"),
            permitted_usages=frozenset({"client", "server", "peer"}),
            max_expiration_seconds=30 * 86400,
            current_epoch=epoch,
            rotation_window=1,
            approvers=frozenset({"admin"}),
        ),
        FRONT_PROXY: IssuerPolicy(
            trust_domain="ibe.kubernetes.io/front-proxy",
            identity_patterns=("front-proxy", "kube-apiserver-client"),
            permitted_usages=frozenset({"client", "server"}),
            max_expiration_seconds=30 * 86400,
            current_epoch=epoch,
            rotation_window=1,
            approvers=frozenset({"admin"}),
        ),
    }


class KubernetesSim:
    def __init__(self, params: KemParams | None = None, seed: bytes = b"\x00" * 32,
                 cluster: str = "prod-us-west", epoch: str = "20250101") -> None:
        self.params = params or KemParams.desk()
        self.cluster = cluster
        self.clock = SimClock()
        self._rng = HashStream(seed, b"k8s-sim")
        self.tokens = TokenAuthority(self._rng.read(32))
        self.domains: dict[str, TrustDomainSim] = {}
        for name, policy in _policies(epoch).items():
            self.domains[name] = TrustDomainSim.create(
                name, self.params, policy, self._rng.read(32),
                authenticator=self.tokens.validate, clock=self.clock.now,
            )
        self.nodes: dict[str, SimNode] = {}
        self._provision_core_components()

    # -- setup ----------------------------------------------------------------

    def _seed(self) -> bytes:
        return self._rng.read(32)

    def node(self, name: str, role: str | None = None) -> SimNode:
        if name not in self.nodes:
            self.nodes[name] = SimNode(name=name, role=role or name)
        return self.nodes[name]

    def _issue_to(self, node_name: str, domain: str, base: str, role: str | None = None) -> None:
        domain_sim = self.domains[domain]
        identity = component_identity(base, domain_sim.current_epoch)
        key = domain_sim.service.issue_direct(identity, domain_sim.quorum(),
                                              "cluster-bootstrap")
        self.node(node_name, role).hold_key(domain, key, domain_sim.mpk)

    def _provision_core_components(self) -> None:
        # control-plane server and the API server's client roles in every domain
        self._issue_to("kube-apiserver", CONTROL_PLANE, "kube-apiserver", role="kube-apiserver")
        self._issue_to("kube-apiserver", CONTROL_PLANE, "kube-apiserver-client")
        self._issue_to("kube-apiserver", ETCD, "kube-apiserver-client")
        self._issue_to("kube-apiserver", FRONT_PROXY, "kube-apiserver-client")
        # static control-plane clients
        self._issue_to("kubectl", CONTROL_PLANE, "kubectl:admin", role="kubectl")
        self._issue_to("kube-scheduler", CONTROL_PLANE, "kube-scheduler", role="scheduler")
        self._issue_to("kube-controller-manager", CONTROL_PLANE, "kube-controller-manager",
                       role="controller-manager")
        # etcd members and the aggregation layer
        self._issue_to("etcd-server", ETCD, "etcd-server", role="etcd")
        self._issue_to("etcd-peer-1", ETCD, "etcd-peer-1", role="etcd")
        self._issue_to("etcd-peer-2", ETCD, "etcd-peer-2", role="etcd")
        self._issue_to("front-proxy", FRONT_PROXY, "front-proxy", role="front-proxy")
        # every node trusts the domains it talks to
        for node in self.nodes.values():
            for domain_name, domain in self.domains.items():
                node.trust.setdefault(domain_name, domain.mpk)

    # -- bootstrap flow ---------------------------------------------------------

    def _apiserver_handler(self, domain: TrustDomainSim):
        def handle(raw: bytes) -> bytes:
            request = json.loads(raw.decode())
            token = base64.b64decode(request.get("authorization", "Bearer ")[len("Bearer "):] or b"")
            principal = self.tokens.validate(token)
            path = request.get("path", "")
            is_bootstrap = principal is not None and \
                principal.kind == PrincipalKind.BOOTSTRAP_TOKEN.value
            requested = request.get("body", {}).get("spec", {}).get("identity", "")
            requested_base = requested.rsplit(".", 1)[0] if "." in requested else requested
            if principal is None:
                response = {"status": 401, "error": {"reason": "Unauthenticated",
                                                     "message": "invalid bearer token"}}
            elif is_bootstrap and "identityrequests" not in path:
                # system:bootstrappers may only create IdentityRequests
                response = {"status": 403, "error": {"reason": "Forbidden",
                                                     "message": "bootstrappers may only manage identity requests"}}
            elif is_bootstrap and request.get("method") == "POST" and \
                    path.endswith("identityrequests") and \
                    requested_base != f"kubelet:{principal.subject}":
                # a bootstrap token is pinned to its own node's kubelet identity
                response = {"status": 403, "error": {"reason": "Forbidden",
                                                     "message": "bootstrap token may only request its own kubelet identity"}}
            else:
                response = domain.api.handle(request)
            return json.dumps(response, sort_keys=True).encode()

        return handle

    def bootstrap_kubelet(self, node_name: str, fake_apiserver: bool = False) -> dict:
        """Pod/node identity key bootstrap against the API server endpoint.

        The joining node is provisioned out-of-band with the control-plane
        mpk and the API server identity, opens a server-authenticated IBE-TLS
        channel, and only then presents its bootstrap token.
        """
        domain = self.domains[CONTROL_PLANE]
        base = f"kubelet:{node_name}"
        node = self.node(f"kubelet-{node_name}", role="kubelet")
        node.trust[CONTROL_PLANE] = domain.mpk

        apiserver = self.nodes["kube-apiserver"]
        server_key = apiserver.key_in(CONTROL_PLANE, "kube-apiserver")
        if fake_apiserver:
            # an impostor without sk_{kube-apiserver}; any other key will do
            server_key = self.nodes["kube-scheduler"].key_in(CONTROL_PLANE, "kube-scheduler")
        server_identity = server_key.identity if not fake_apiserver else \
            component_identity("kube-apiserver", domain.current_epoch)

        principal = self.tokens.mint(node_name, {"system:bootstrappers"},
                                     PrincipalKind.BOOTSTRAP_TOKEN)

        client = ClientSession(domain.mpk, server_identity, self._seed())
        server = ServerSession(domain.mpk, server_identity, server_key, self._seed())
        conn = establish(client, server, WireCapture())

        report = {
            "node": node.name,
            "identity": f"{base}.{domain.current_epoch}",
            "handshake": "complete" if conn.ok else "aborted",
            "token_sent": False,
            "issued": False,
            "capture": conn.capture,
        }
        if not conn.ok:
            return report

        handler = self._apiserver_handler(domain)
        submit = {
            "method": "POST",
            "path": IDENTITYREQUESTS_PATH,
            "authorization": "Bearer " + base64.b64encode(principal.token).decode(),
            "body": {"spec": {
                "issuer": domain.service.policy.trust_domain,
                "identity": f"{base}.{domain.current_epoch}",
                "usage": ["client", "server"],
                "expirationSeconds": 86400,
            }},
        }
        response = json.loads(conn.request(json.dumps(submit).encode(), handler).decode())
        report["token_sent"] = True
        report["request_status"] = response.get("body", {}).get("status") or response.get("error", {}).get("reason")
        if response["status"] != 201 or response["body"]["status"] != "Approved":
            return report

        fetch = {
            "method": "POST",
            "path": f"/identityrequests/{response['body']['name']}/key",
            "authorization": "Bearer " + base64.b64encode(principal.token).decode(),
        }
        key_response = json.loads(conn.request(json.dumps(fetch).encode(), handler).decode())
        if key_response["status"] != 200:
            report["request_status"] = key_response.get("error", {}).get("reason")
            return report

        from ..kem import decode_private_key

        key = decode_private_key(base64.b64decode(key_response["body"]["privateKey"]))
        node.hold_key(CONTROL_PLANE, key, domain.mpk)
        report["issued"] = True
        report["expiration"] = key_response["body"]["expiration"]
        return report

    # -- connections ---------------------------------------------------------------

    def _resolve_link(self, initiator: str, responder: str) -> tuple[str, str, str]:
        if (initiator, responder) in COMPONENT_LINKS:
            return COMPONENT_LINKS[(initiator, responder)]
        if initiator.startswith("kubelet-") and responder == "kube-apiserver":
            return (f"kubelet:{initiator[len('kubelet-'):]}", "kube-apiserver", CONTROL_PLANE)
        if initiator == "kube-apiserver" and responder.startswith("kubelet-"):
            return ("kube-apiserver-client",
                    f"kubelet:{responder[len('kubelet-'):]}", CONTROL_PLANE)
        raise KeyError(f"no link defined between {initiator} and {responder}")

    def connect(self, initiator: str, responder: str) -> ConnectReport:
        """Mutually authenticated IBE-TLS between two named components."""
        client_base, server_base, domain_name = self._resolve_link(initiator, responder)
        client_seed, server_seed = self._seed(), self._seed()
        domain = self.domains[domain_name]
        client_node = self.nodes[initiator]
        server_node = self.nodes[responder]

        server_key = server_node.key_in(domain_name, server_base)
        client_key = client_node.key_in(domain_name, client_base)
        if server_key is None or client_key is None:
            return ConnectReport(initiator, responder, domain_name,
                                 outcome="refused:missing-credential")

        policy = domain.service.policy
        for identity in (server_key.identity, client_key.identity):
            if identity.base in policy.blocklist:
                return ConnectReport(initiator, responder, domain_name,
                                     outcome="refused:revoked")
            if identity.epoch not in policy.valid_epochs():
                return ConnectReport(initiator, responder, domain_name,
                                     outcome="refused:stale-epoch")

        conn = run_mutual_handshake(
            domain.mpk, server_key.identity, server_key,
            client_key.identity, client_key, client_seed, server_seed,
        )
        return connection_report(conn, initiator, responder, domain_name)

    # -- lifecycle ---------------------------------------------------------------

    def rotate(self, domain_name: str, reissue: tuple[tuple[str, str], ...] = ()) -> str:
        """Bump the domain epoch; optionally re-issue (node, base) pairs at it."""
        domain = self.domains[domain_name]
        new_epoch = domain.service.epoch_increment()
        for node_name, base in reissue:
            self._issue_to(node_name, domain_name, base)
        return new_epoch

    def revoke(self, domain_name: str, base: str) -> None:
        domain = self.domains[domain_name]
        domain.service.revoke_identity(component_identity(base, domain.current_epoch))

    def verify_registries(self) -> dict[str, bool]:
        return {name: domain.service.registry.verify() is None
                for name, domain in self.domains.items()}

    def rotate_epoch_scenario(self, node_name: str = "node-02") -> dict:
        """Window accept/reject plus emergency revocation, as one report."""
        report: dict[str, bool | str] = {}
        boot = self.bootstrap_kubelet(node_name)
        kubelet = f"kubelet-{node_name}"
        report["bootstrap"] = boot["issued"]
        report["connect_same_epoch"] = self.connect(kubelet, "kube-apiserver").ok

        self.rotate(CONTROL_PLANE, reissue=(("kube-apiserver", "kube-apiserver"),))
        report["connect_in_window"] = self.connect(kubelet, "kube-apiserver").ok

        boot_new = self.bootstrap_kubelet("node-03")
        report["new_epoch_bootstrap"] = boot_new["issued"]
        report["new_epoch_connect"] = self.connect("kubelet-node-03", "kube-apiserver").ok

        # emergency revocation mid-window fails immediately
        self.revoke(CONTROL_PLANE, "kubelet:node-03")
        revoked = self.connect("kubelet-node-03", "kube-apiserver")
        report["revoked_in_window"] = revoked.outcome

        self.rotate(CONTROL_PLANE, reissue=(("kube-apiserver", "kube-apiserver"),))
        stale = self.connect(kubelet, "kube-apiserver")
        report["connect_after_window"] = stale.outcome
        return report
