"""Deterministic scenario runner and the two built-in demo scripts.

A scenario is a JSON document: {"kind": "k8s" | "5g", "steps": [...]} where
each step names an operation, its arguments, and the expected outcome. Runs
are deterministic in the seed: logs serialize to byte-identical JSON lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .fiveg import FiveGSim
from .kubernetes import KubernetesSim


@dataclass
class TranscriptLog:
    entries: list[dict] = field(default_factory=list)

    def add(self, **fields) -> dict:
        entry = dict(fields)
        self.entries.append(entry)
        return entry

    @property
    def all_ok(self) -> bool:
        return all(entry.get("pass", False) for entry in self.entries)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in self.entries)

    def write(self, path: Path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")


def _seed_bytes(seed: int | bytes) -> bytes:
    if isinstance(seed, bytes):
        return seed.ljust(32, b"\x00")[:32]
    return int(seed).to_bytes(32, "big")


DEMO_K8S_SCRIPT = {
    "kind": "k8s",
    "steps": [
        {"op": "bootstrap", "node": "node-01", "expect": "ok"},
        {"op": "connect", "initiator": "kubectl", "responder": "kube-apiserver", "expect": "ok"},
        {"op": "connect", "initiator": "kube-scheduler", "responder": "kube-apiserver", "expect": "ok"},
        {"op": "connect", "initiator": "kube-controller-manager", "responder": "kube-apiserver", "expect": "ok"},
        {"op": "connect", "initiator": "kubelet-node-01", "responder": "kube-apiserver", "expect": "ok"},
        {"op": "connect", "initiator": "kube-apiserver", "responder": "kubelet-node-01", "expect": "ok"},
        {"op": "connect", "initiator": "kube-apiserver", "responder": "etcd-server", "expect": "ok"},
        {"op": "connect", "initiator": "etcd-peer-1", "responder": "etcd-peer-2", "expect": "ok"},
        {"op": "connect", "initiator": "kube-apiserver", "responder": "front-proxy", "expect": "ok"},
        {"op": "bootstrap", "node": "node-99", "fake_apiserver": True, "expect": "aborted"},
        {"op": "rotate", "domain": "control-plane",
         "reissue": [["kube-apiserver", "kube-apiserver"]], "expect": "ok"},
        {"op": "connect", "initiator": "kubelet-node-01", "responder": "kube-apiserver",
         "expect": "ok"},  # previous epoch still inside the rotation window
        {"op": "revoke", "domain": "control-plane", "base": "kubelet:node-01", "expect": "ok"},
        {"op": "connect", "initiator": "kubelet-node-01", "responder": "kube-apiserver",
         "expect": "refused"},
        {"op": "verify_registry", "expect": "ok"},
    ],
}

DEMO_5G_SCRIPT = {
    "kind": "5g",
    "steps": [
        {"op": "register", "nfType": "AMF", "instance": "amf-001", "expect": "ok"},
        {"op": "register", "nfType": "AMF", "instance": "amf-002", "expect": "ok"},
        {"op": "register", "nfType": "SMF", "instance": "smf-001", "expect": "ok"},
        {"op": "register", "nfType": "UDM", "instance": "udm-001", "expect": "ok"},
        {"op": "register", "nfType": "PCF", "instance": "pcf-001", "expect": "ok"},
        {"op": "register", "nfType": "AUSF", "instance": "ausf-001", "expect": "ok"},
        {"op": "register", "nfType": "NSSF", "instance": "nssf-001", "expect": "ok"},
        {"op": "discover", "requester": "smf-001", "service": "nudm-sdm", "expect": "ok"},
        {"op": "discover", "requester": "smf-001", "service": "nxxx-missing",
         "expect": "denied"},
        {"op": "connect", "initiator": "amf-001", "service": "nudm-sdm", "expect": "ok"},
        {"op": "connect", "initiator": "amf-001", "service": "nsmf-pdusession", "expect": "ok"},
        {"op": "connect", "initiator": "smf-001", "service": "npcf-smpolicycontrol",
         "expect": "ok"},
        {"op": "connect", "initiator": "amf-001", "service": "namf-comm",
         "instance": "amf-002", "expect": "ok"},
        {"op": "revoke", "nfType": "UDM", "instance": "udm-001", "expect": "ok"},
        {"op": "rotate", "reregister": ["amf-001", "amf-002", "smf-001", "pcf-001",
                                        "ausf-001", "nssf-001"], "expect": "ok"},
        {"op": "connect", "initiator": "amf-001", "service": "nudm-sdm",
         "expect": "aborted"},  # revoked producer cannot rotate; old key fails
        {"op": "connect", "initiator": "amf-001", "service": "nsmf-pdusession", "expect": "ok"},
        {"op": "verify_registry", "expect": "ok"},
    ],
}


def _k8s_step(sim: KubernetesSim, step: dict) -> tuple[str, dict]:
    op = step["op"]
    if op == "bootstrap":
        report = sim.bootstrap_kubelet(step["node"],
                                       fake_apiserver=step.get("fake_apiserver", False))
        outcome = "ok" if report["issued"] else (
            "aborted" if report["handshake"] == "aborted" else "denied")
        detail = {"identity": report["identity"], "tokenSent": report["token_sent"]}
        return outcome, detail
    if op == "connect":
        report = sim.connect(step["initiator"], step["responder"])
        outcome = ("ok" if report.ok
                   else "refused" if report.outcome.startswith("refused") else "aborted")
        return outcome, report.log_fields()
    if op == "rotate":
        epoch = sim.rotate(step["domain"],
                           reissue=tuple(tuple(p) for p in step.get("reissue", [])))
        return "ok", {"newEpoch": epoch}
    if op == "revoke":
        sim.revoke(step["domain"], step["base"])
        return "ok", {"base": step["base"]}
    if op == "verify_registry":
        results = sim.verify_registries()
        return ("ok" if all(results.values()) else "corrupt"), {"domains": results}
    raise ValueError(f"unknown k8s op {op!r}")


def _fiveg_step(sim: FiveGSim, step: dict) -> tuple[str, dict]:
    op = step["op"]
    if op == "register":
        report = sim.register_nf(step["nfType"], step["instance"])
        outcome = "ok" if report["registered"] else (
            "aborted" if report["handshake"] == "aborted" else "denied")
        detail = {"instance": step["instance"], "nfType": step["nfType"]}
        if report.get("identity"):
            detail["identity"] = report["identity"]
        return outcome, detail
    if op == "discover":
        response = sim.discover(step["requester"], step["service"], step.get("instance"))
        if response["status"] == 200:
            return "ok", {"profile": response["body"]}
        return "denied", {"reason": response["error"]["reason"]}
    if op == "connect":
        report = sim.connect(step["initiator"], step["service"], step.get("instance"))
        outcome = ("ok" if report.ok
                   else "refused" if report.outcome.startswith("refused") else "aborted")
        return outcome, report.log_fields()
    if op == "rotate":
        epoch = sim.rotate(reregister=tuple(step.get("reregister", [])))
        return "ok", {"newEpoch": epoch}
    if op == "revoke":
        sim.revoke(step["nfType"], step["instance"])
        return "ok", {"instance": step["instance"]}
    if op == "verify_registry":
        intact = sim.domain.service.registry.verify() is None
        return ("ok" if intact else "corrupt"), {}
    raise ValueError(f"unknown 5g op {op!r}")


def run_scenario(script: dict | str | Path, seed: int | bytes = 0) -> TranscriptLog:
    """Execute a scenario; deterministic in the seed."""
    if not isinstance(script, dict):
        script = json.loads(Path(script).read_text(encoding="utf-8"))
    kind = script.get("kind")
    seed_bytes = _seed_bytes(seed)
    if kind == "k8s":
        sim = KubernetesSim(seed=seed_bytes)
        runner = _k8s_step
    elif kind == "5g":
        sim = FiveGSim(seed=seed_bytes)
        runner = _fiveg_step
    else:
        raise ValueError(f"unknown scenario kind {kind!r}")

    log = TranscriptLog()
    for index, step in enumerate(script.get("steps", [])):
        sim.clock.advance()
        outcome, detail = runner(sim, step)
        expected = step.get("expect", "ok")
        log.add(step=index, op=step["op"], outcome=outcome, expect=expected,
                **{"pass": outcome == expected}, detail=detail)
    return log
