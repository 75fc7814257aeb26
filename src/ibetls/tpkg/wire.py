"""JSON API for the issuance workflow, mirrored after the Kubernetes-style
IdentityRequest resource. The same handler serves in-process calls and the
TCP endpoint; requests and responses are plain dicts ready for JSON.

POST /apis/security.k8s.io/v1alpha1/identityrequests
    {"spec": {"issuer": ..., "identity": ..., "usage": [...],
              "expirationSeconds": ...}}
GET  /identityrequests
POST /identityrequests/<name>/approve   {"approver": ...}
POST /identityrequests/<name>/deny      {"approver": ...}
POST /identityrequests/<name>/key       -> key delivery document
"""

from __future__ import annotations

import base64

from ..kem.errors import MalformedIdentity
from .service import (
    AlreadyIssued,
    ApprovalNotAuthorized,
    BlocklistedIdentity,
    EpochExpired,
    InvalidTransition,
    PolicyViolation,
    TpkgService,
    UnauthenticatedPrincipal,
    UnknownIdentity,
    UnknownRequest,
)
from .shamir import ShareMismatch, ThresholdNotMet

IDENTITYREQUESTS_PATH = "/apis/security.k8s.io/v1alpha1/identityrequests"

_ERROR_CODES = [
    (UnauthenticatedPrincipal, 401, "Unauthenticated"),
    (ApprovalNotAuthorized, 403, "Forbidden"),
    (BlocklistedIdentity, 403, "IdentityRevoked"),
    (PolicyViolation, 403, "PolicyViolation"),
    (EpochExpired, 403, "EpochExpired"),
    (UnknownRequest, 404, "NotFound"),
    (UnknownIdentity, 404, "UnknownIdentity"),
    (AlreadyIssued, 409, "AlreadyIssued"),
    (InvalidTransition, 409, "InvalidTransition"),
    (ThresholdNotMet, 503, "ThresholdNotMet"),
    (ShareMismatch, 503, "ShareMismatch"),
    (MalformedIdentity, 400, "MalformedIdentity"),
]


def _error_response(exc: Exception) -> dict:
    for exc_type, status, reason in _ERROR_CODES:
        if isinstance(exc, exc_type):
            return {"status": status, "error": {"reason": reason, "message": str(exc)}}
    return {"status": 500, "error": {"reason": "Internal", "message": str(exc)}}


def _bearer_token(request: dict) -> bytes:
    header = request.get("authorization", "")
    if not header.startswith("Bearer "):
        return b""
    return base64.b64decode(header[len("Bearer "):])


class ApiServer:
    """Routes decoded JSON requests to a TpkgService.

    shares_provider supplies the quorum shares for extraction, standing in
    for the internal node coordination behind the issuance endpoint.
    """

    def __init__(self, service: TpkgService, shares_provider=None) -> None:
        self.service = service
        self.shares_provider = shares_provider

    def handle(self, request: dict) -> dict:
        method = request.get("method", "GET").upper()
        path = request.get("path", "")
        try:
            return self._route(method, path, request)
        except Exception as exc:  # noqa: BLE001 - mapped to wire errors
            return _error_response(exc)

    def _route(self, method: str, path: str, request: dict) -> dict:
        parts = [p for p in path.split("/") if p]
        if method == "POST" and path in (IDENTITYREQUESTS_PATH, "/identityrequests"):
            spec = request.get("body", {}).get("spec", {})
            issuer = spec.get("issuer")
            if issuer and issuer != self.service.policy.trust_domain:
                raise PolicyViolation(f"unknown issuer {issuer!r}")
            submitted = self.service.submit_request(
                identity=spec["identity"],
                usage=tuple(spec.get("usage", [])),
                expiration_seconds=int(spec.get("expirationSeconds", 0)),
                principal_token=_bearer_token(request),
            )
            return {"status": 201, "body": submitted.to_dict()}

        if method == "GET" and parts[-1:] == ["identityrequests"]:
            return {
                "status": 200,
                "body": {"items": [r.to_dict() for r in self.service.list_requests()]},
            }

        if method == "POST" and len(parts) >= 3 and parts[-3] == "identityrequests":
            name, action = parts[-2], parts[-1]
            if action == "approve":
                approved = self.service.approve_request(
                    name, request.get("body", {}).get("approver", ""))
                return {"status": 200, "body": approved.to_dict()}
            if action == "deny":
                denied = self.service.deny_request(
                    name, request.get("body", {}).get("approver", ""))
                return {"status": 200, "body": denied.to_dict()}
            if action == "key":
                if self.shares_provider is None:
                    raise ThresholdNotMet("no share quorum available at this endpoint")
                delivery = self.service.extract_and_deliver(name, self.shares_provider())
                return {"status": 200, "body": delivery.to_json_dict()}

        if method == "GET" and len(parts) >= 2 and parts[-2] == "identityrequests":
            return {"status": 200, "body": self.service.get_request(parts[-1]).to_dict()}

        return {"status": 404, "error": {"reason": "NoRoute", "message": path}}
