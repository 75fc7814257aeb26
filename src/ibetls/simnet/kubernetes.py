"""Kubernetes control-plane simulation: three trust domains, component
identities, the kubelet bootstrap flow, rotation and revocation.

Trust domains mirror the cluster PKI split: a control-plane issuer, an etcd
issuer, and a front-proxy issuer, with no shared seeds. A component may hold
one key per (domain, role) pair; the API server, for instance, serves as
kube-apiserver in the control-plane domain and authenticates as
kube-apiserver-client toward etcd, the kubelet, and the front-proxy.
"""

from __future__ import annotations

from ..kem import KemParams
from ..kem.sampling import HashStream
from ..tpkg import (STATUS_EXPIRED, STATUS_REVOKED, IssuerPolicy, bearer_token, error_response,
                    identity_request)
from .core import (GENESIS_EPOCH, ConnectReport, SimClock, SimNode, TrustDomainSim, request_key,
                   run_handshake)
from .principals import PrincipalKind, TokenAuthority
from .profiles import component_identity

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


# (node, its role, domain, key base) for every key issued out of band when the
# cluster is created: the API server's server key and its client key in every
# domain, the static control-plane clients, etcd and the aggregation layer
CORE_KEYS: tuple[tuple[str, str, str, str], ...] = (
    ("kube-apiserver", "kube-apiserver", CONTROL_PLANE, "kube-apiserver"),
    ("kube-apiserver", "kube-apiserver", CONTROL_PLANE, "kube-apiserver-client"),
    ("kube-apiserver", "kube-apiserver", ETCD, "kube-apiserver-client"),
    ("kube-apiserver", "kube-apiserver", FRONT_PROXY, "kube-apiserver-client"),
    ("kubectl", "kubectl", CONTROL_PLANE, "kubectl:admin"),
    ("kube-scheduler", "scheduler", CONTROL_PLANE, "kube-scheduler"),
    ("kube-controller-manager", "controller-manager", CONTROL_PLANE, "kube-controller-manager"),
    ("etcd-server", "etcd", ETCD, "etcd-server"),
    ("etcd-peer-1", "etcd", ETCD, "etcd-peer-1"),
    ("etcd-peer-2", "etcd", ETCD, "etcd-peer-2"),
    ("front-proxy", "front-proxy", FRONT_PROXY, "front-proxy"),
)


def _policies() -> dict[str, IssuerPolicy]:
    return {
        CONTROL_PLANE: IssuerPolicy(
            trust_domain="ibe.kubernetes.io/apiserver",
            identity_patterns=("kube-apiserver", "kube-apiserver-client", "kubelet:*",
                               "kube-scheduler", "kube-controller-manager", "kubectl:*"),
            permitted_usages=frozenset({"client", "server"}),
            max_expiration_seconds=30 * 86400,
            current_epoch=GENESIS_EPOCH,
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
            current_epoch=GENESIS_EPOCH,
            rotation_window=1,
            approvers=frozenset({"admin"}),
        ),
        FRONT_PROXY: IssuerPolicy(
            trust_domain="ibe.kubernetes.io/front-proxy",
            identity_patterns=("front-proxy", "kube-apiserver-client"),
            permitted_usages=frozenset({"client", "server"}),
            max_expiration_seconds=30 * 86400,
            current_epoch=GENESIS_EPOCH,
            rotation_window=1,
            approvers=frozenset({"admin"}),
        ),
    }


class KubernetesSim:
    def __init__(self, seed: bytes = b"\x00" * 32) -> None:
        params = KemParams.desk()
        self.clock = SimClock()
        self._rng = HashStream(seed, b"k8s-sim")
        self.tokens = TokenAuthority(self._rng.read(32))
        self.domains: dict[str, TrustDomainSim] = {}
        for name, policy in _policies().items():
            self.domains[name] = TrustDomainSim.create(
                name, params, policy, self._rng.read(32),
                authenticator=self.tokens.validate, clock=self.clock.now,
            )
        self.nodes: dict[str, SimNode] = {}
        for node_name, role, domain_name, base in CORE_KEYS:
            domain = self.domains[domain_name]
            domain.provision(self.node(node_name, role),
                             component_identity(base, domain.current_epoch), "cluster-bootstrap")

    def _seed(self) -> bytes:
        return self._rng.read(32)

    def node(self, name: str, role: str | None = None) -> SimNode:
        if name not in self.nodes:
            self.nodes[name] = SimNode(name=name, role=role or name)
        return self.nodes[name]

    # -- bootstrap flow ---------------------------------------------------------

    def _apiserver_handler(self, domain: TrustDomainSim):
        def handle(request: dict) -> dict:
            principal = self.tokens.validate(bearer_token(request))
            path = request.get("path", "")
            is_bootstrap = principal is not None and \
                principal.kind == PrincipalKind.BOOTSTRAP_TOKEN.value
            requested = request.get("body", {}).get("spec", {}).get("identity", "")
            if principal is None:
                return error_response(401, "Unauthenticated", "invalid bearer token")
            if is_bootstrap and "identityrequests" not in path:
                # system:bootstrappers may only create IdentityRequests
                return error_response(403, "Forbidden",
                                      "bootstrappers may only manage identity requests")
            if is_bootstrap and request.get("method") == "POST" and \
                    path.endswith("identityrequests") and \
                    requested.rsplit(".", 1)[0] != f"kubelet:{principal.subject}":
                # a bootstrap token is pinned to its own node's kubelet identity
                return error_response(403, "Forbidden",
                                      "bootstrap token may only request its own kubelet identity")
            return domain.api.handle(request)

        return handle

    def bootstrap_kubelet(self, node_name: str, fake_apiserver: bool = False) -> dict:
        """Pod/node identity key bootstrap against the API server endpoint.

        The joining node knows only the control-plane mpk and the API server
        identity (the handshake takes the mpk from the domain). It opens a
        server-authenticated IBE-TLS channel, and only then presents its
        bootstrap token.
        """
        domain = self.domains[CONTROL_PLANE]
        identity = f"kubelet:{node_name}.{domain.current_epoch}"
        node = self.node(f"kubelet-{node_name}", role="kubelet")

        apiserver_key = self.nodes["kube-apiserver"].key_in(CONTROL_PLANE, "kube-apiserver")
        server_key = apiserver_key
        if fake_apiserver:
            # an impostor without sk_{kube-apiserver}; any other key will do
            server_key = self.nodes["kube-scheduler"].key_in(CONTROL_PLANE, "kube-scheduler")
        principal = self.tokens.mint(node_name, {"system:bootstrappers"},
                                     PrincipalKind.BOOTSTRAP_TOKEN)
        conn = run_handshake(domain.mpk, server_key, self._seed(), self._seed(),
                             expect=apiserver_key.identity)

        report = {
            "node": node.name,
            "identity": identity,
            "handshake": "complete" if conn.ok else "aborted",
            "token_sent": False,
            "issued": False,
            "capture": conn.capture,
        }
        if not conn.ok:
            return report

        handler = self._apiserver_handler(domain)
        submit = identity_request(domain.service.policy.trust_domain, identity,
                                  ["client", "server"], 86400, principal.token)
        submitted, delivered = request_key(lambda doc: conn.call(doc, handler), submit)
        report["token_sent"] = True
        report["request_status"] = (submitted.get("body", {}).get("status")
                                    or submitted.get("error", {}).get("reason"))
        if delivered is None:
            return report
        if delivered["status"] != 200:
            report["request_status"] = delivered.get("error", {}).get("reason")
            return report
        domain.install(node, delivered["body"])
        report["issued"] = True
        report["expiration"] = delivered["body"]["expiration"]
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
                                 refused="missing-credential")

        for identity in (server_key.identity, client_key.identity):
            status = domain.service.check_validity(identity)
            if status == STATUS_REVOKED:
                return ConnectReport(initiator, responder, domain_name, refused="revoked")
            if status == STATUS_EXPIRED:
                return ConnectReport(initiator, responder, domain_name,
                                     refused="stale-epoch")

        conn = run_handshake(domain.mpk, server_key, client_seed, server_seed,
                             client_key=client_key)
        return ConnectReport(initiator, responder, domain_name, conn)

    # -- lifecycle ---------------------------------------------------------------

    def rotate(self, domain_name: str, reissue: tuple[tuple[str, str], ...] = ()) -> str:
        """Bump the domain epoch; optionally re-issue (node, base) pairs at it."""
        domain = self.domains[domain_name]
        new_epoch = domain.service.epoch_increment()
        for node_name, base in reissue:
            domain.provision(self.node(node_name), component_identity(base, new_epoch),
                             "cluster-bootstrap")
        return new_epoch

    def revoke(self, domain_name: str, base: str) -> None:
        self.domains[domain_name].revoke(base)

    def verify_registries(self) -> dict[str, bool]:
        return {name: domain.service.registry.verify() is None
                for name, domain in self.domains.items()}

    def rotate_epoch_scenario(self) -> dict:
        """Window accept/reject plus emergency revocation, as one report."""
        report: dict[str, bool | str] = {}
        boot = self.bootstrap_kubelet("node-02")
        kubelet = "kubelet-node-02"
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
