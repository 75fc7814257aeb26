"""Scenario harness: 5G SBA and Kubernetes flows over an in-process network."""

from .core import (
    ConnectReport,
    SimClock,
    SimNode,
    TrustDomainSim,
    run_handshake,
)
from .fiveg import (
    DEFAULT_SERVICES,
    FiveGSim,
    NfProfile,
    ServiceRegistry,
    UnknownService,
    compliance_checklist,
)
from .kubernetes import COMPONENT_LINKS, KubernetesSim
from .principals import PrincipalKind, SimPrincipal, TokenAuthority
from .profiles import component_identity, k8s_identity, nf_identity
from .scenarios import DEMO_5G_SCRIPT, DEMO_K8S_SCRIPT, TranscriptLog, run_scenario, seed_bytes
from .transport import (
    Connection,
    MessageTooLarge,
    RecordStream,
    WireCapture,
    app_recv_chunk,
    app_send,
    client_handshake_over_stream,
    establish,
    server_handshake_over_stream,
    stream_recv_message,
    stream_send_message,
)

__all__ = [
    "k8s_identity",
    "nf_identity",
    "component_identity",
    "SimClock",
    "SimNode",
    "SimPrincipal",
    "PrincipalKind",
    "TokenAuthority",
    "TrustDomainSim",
    "ConnectReport",
    "KubernetesSim",
    "COMPONENT_LINKS",
    "FiveGSim",
    "ServiceRegistry",
    "NfProfile",
    "UnknownService",
    "compliance_checklist",
    "DEFAULT_SERVICES",
    "TranscriptLog",
    "run_scenario",
    "seed_bytes",
    "DEMO_K8S_SCRIPT",
    "DEMO_5G_SCRIPT",
    "Connection",
    "MessageTooLarge",
    "WireCapture",
    "RecordStream",
    "establish",
    "app_send",
    "app_recv_chunk",
    "run_handshake",
    "client_handshake_over_stream",
    "server_handshake_over_stream",
    "stream_send_message",
    "stream_recv_message",
]
