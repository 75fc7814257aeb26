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

A request whose fields do not have these types is answered with 400.
"""

from __future__ import annotations

import base64
import binascii

from ..kem.errors import MalformedIdentity
from .registry import BadRequest, JournalConflict, json_field, json_strings
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
_BEARER = "Bearer "


_ERROR_CODES = [
    (BadRequest, 400, "BadRequest"),
    (UnauthenticatedPrincipal, 401, "Unauthenticated"),
    (ApprovalNotAuthorized, 403, "Forbidden"),
    (BlocklistedIdentity, 403, "IdentityRevoked"),
    (PolicyViolation, 403, "PolicyViolation"),
    (EpochExpired, 403, "EpochExpired"),
    (UnknownRequest, 404, "NotFound"),
    (UnknownIdentity, 404, "UnknownIdentity"),
    (AlreadyIssued, 409, "AlreadyIssued"),
    (InvalidTransition, 409, "InvalidTransition"),
    (JournalConflict, 409, "Conflict"),
    (ThresholdNotMet, 503, "ThresholdNotMet"),
    (ShareMismatch, 503, "ShareMismatch"),
    (MalformedIdentity, 400, "MalformedIdentity"),
]


def error_response(status: int, reason: str, message: str = "") -> dict:
    return {"status": status, "error": {"reason": reason, "message": message}}


def _error_response(exc: Exception) -> dict:
    for exc_type, status, reason in _ERROR_CODES:
        if isinstance(exc, exc_type):
            return error_response(status, reason, str(exc))
    return error_response(500, "Internal", str(exc))


def bearer_header(token: bytes) -> str:
    """The authorization header value that carries token."""
    return _BEARER + base64.b64encode(token).decode()


def bearer_token(request: dict) -> bytes:
    """The token in a request's bearer header; b"" when there is none."""
    header = request.get("authorization", "")
    if not isinstance(header, str) or not header.startswith(_BEARER):
        return b""
    try:
        return base64.b64decode(header[len(_BEARER):], validate=True)
    except binascii.Error:
        return b""


def identity_request(issuer: str, identity: str, usage, expiration_seconds: int,
                     token: bytes) -> dict:
    """The API request that submits an IdentityRequest under token."""
    return {
        "method": "POST",
        "path": IDENTITYREQUESTS_PATH,
        "authorization": bearer_header(token),
        "body": {"spec": {
            "issuer": issuer,
            "identity": identity,
            "usage": list(usage),
            "expirationSeconds": expiration_seconds,
        }},
    }


class ApiServer:
    """Routes decoded JSON requests to a TpkgService.

    shares_provider supplies the quorum shares for extraction, standing in
    for the internal node coordination behind the issuance endpoint.
    """

    def __init__(self, service: TpkgService, shares_provider) -> None:
        self.service = service
        self.shares_provider = shares_provider

    def handle(self, request) -> dict:
        try:
            method = json_field(request, "method", str, "GET").upper()
            path = json_field(request, "path", str, "")
            json_field(request, "authorization", str, "")
            body = json_field(request, "body", dict, {})
            return self._route(method, path, body, bearer_token(request))
        except Exception as exc:  # noqa: BLE001 - mapped to wire errors
            return _error_response(exc)

    def _route(self, method: str, path: str, body: dict, token: bytes) -> dict:
        parts = [p for p in path.split("/") if p]
        if method == "POST" and path in (IDENTITYREQUESTS_PATH, "/identityrequests"):
            spec = json_field(body, "spec", dict, {})
            issuer = json_field(spec, "issuer", str, "")
            if issuer and issuer != self.service.policy.trust_domain:
                raise PolicyViolation(f"unknown issuer {issuer!r}")
            usage = json_strings(spec, "usage", [])
            submitted = self.service.submit_request(
                identity=json_field(spec, "identity", str),
                usage=tuple(usage),
                expiration_seconds=json_field(spec, "expirationSeconds", int, 0),
                principal_token=token,
            )
            return {"status": 201, "body": submitted.to_dict()}

        if method == "GET" and parts[-1:] == ["identityrequests"]:
            return {
                "status": 200,
                "body": {"items": [r.to_dict() for r in self.service.list_requests()]},
            }

        if method == "POST" and len(parts) >= 3 and parts[-3] == "identityrequests":
            name, action = parts[-2], parts[-1]
            if action in ("approve", "deny"):
                transition = (self.service.approve_request if action == "approve"
                              else self.service.deny_request)
                changed = transition(name, json_field(body, "approver", str, ""))
                return {"status": 200, "body": changed.to_dict()}
            if action == "key":
                delivery = self.service.extract_and_deliver(name, self.shares_provider())
                return {"status": 200, "body": delivery.to_json_dict()}

        if method == "GET" and len(parts) >= 2 and parts[-2] == "identityrequests":
            return {"status": 200, "body": self.service.get_request(parts[-1]).to_dict()}

        return error_response(404, "NoRoute", path)
