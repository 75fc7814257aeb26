"""Simulated principals and bearer tokens.

Tokens are HMAC tags under a per-cluster test secret, standing in for the
API server's signed service-account JWTs: the control plane can mint and
validate them, nobody else can forge them.
"""

from __future__ import annotations

import hmac
import json
from dataclasses import dataclass
from enum import Enum
from hashlib import sha256

from ..tpkg import Principal


class PrincipalKind(str, Enum):
    BOOTSTRAP_TOKEN = "BootstrapToken"
    SERVICE_ACCOUNT = "ServiceAccount"
    OPERATOR_NF = "OperatorNF"


@dataclass(frozen=True)
class SimPrincipal:
    kind: PrincipalKind
    subject: str
    groups: frozenset[str]
    token: bytes


class TokenAuthority:
    def __init__(self, secret: bytes) -> None:
        self._secret = secret

    def _tag(self, payload: bytes) -> bytes:
        return hmac.new(self._secret, payload, sha256).digest()

    def mint(self, subject: str, groups: frozenset[str] | set[str] = frozenset(),
             kind: PrincipalKind = PrincipalKind.SERVICE_ACCOUNT) -> SimPrincipal:
        payload = json.dumps(
            {"subject": subject, "groups": sorted(groups), "kind": kind.value},
            sort_keys=True,
        ).encode()
        token = payload + b"." + self._tag(payload).hex().encode()
        return SimPrincipal(kind=kind, subject=subject, groups=frozenset(groups), token=token)

    def validate(self, token: bytes) -> Principal | None:
        payload, _, tag = token.rpartition(b".")
        if not payload or not hmac.compare_digest(self._tag(payload).hex().encode(), tag):
            return None
        try:
            doc = json.loads(payload.decode())
            return Principal(subject=doc["subject"], groups=frozenset(doc["groups"]),
                             kind=doc["kind"])
        except (ValueError, KeyError):
            return None
