"""Threshold private key generator: issuance workflow and identity lifecycle.

The master secret never exists at rest: Shamir shares cover the 32-byte
master seed, and a qualified quorum re-derives the trapdoor inside a scoped
reconstruction that is zeroized on exit. Issued keys are returned to the
requester and never persisted server-side; the registry chain records only
lifecycle events.
"""

from __future__ import annotations

import base64
import datetime
import fnmatch
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from ..kem import (
    IdentityPrivateKey,
    IdentityString,
    KemParams,
    MasterPublicKey,
    encode_master_public,
    encode_private_key,
    extract,
    setup,
)
from ..kem.sampling import HashStream
from . import shamir
from .registry import (
    STATUS_ACTIVE,
    STATUS_EXPIRED,
    STATUS_REVOKED,
    Registry,
)
from .shamir import Share, ShareMismatch, ShareSet

USAGES = frozenset({"client", "server", "peer"})


class TpkgError(Exception):
    pass


class PolicyViolation(TpkgError):
    pass


class UnauthenticatedPrincipal(TpkgError):
    pass


class BlocklistedIdentity(PolicyViolation):
    pass


class EpochExpired(TpkgError):
    pass


class UnknownRequest(TpkgError):
    pass


class UnknownIdentity(TpkgError):
    pass


class InvalidTransition(TpkgError):
    pass


class AlreadyIssued(TpkgError):
    pass


class ApprovalNotAuthorized(TpkgError):
    pass


class RequestStatus(str, Enum):
    PENDING = "Pending"
    APPROVED = "Approved"
    DENIED = "Denied"
    ISSUED = "Issued"


@dataclass(frozen=True)
class Principal:
    """Authenticated requester, as reported by the token validator."""

    subject: str
    groups: frozenset[str] = frozenset()
    kind: str = "ServiceAccount"


@dataclass
class IdentityRequest:
    name: str
    issuer: str
    identity: IdentityString
    usage: tuple[str, ...]
    expiration_seconds: int
    principal: str
    status: RequestStatus = RequestStatus.PENDING

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "spec": {
                "issuer": self.issuer,
                "identity": self.identity.canonical,
                "usage": list(self.usage),
                "expirationSeconds": self.expiration_seconds,
            },
            "principal": self.principal,
            "status": self.status.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IdentityRequest":
        spec = data["spec"]
        return cls(
            name=data["name"],
            issuer=spec["issuer"],
            identity=IdentityString.parse(spec["identity"]),
            usage=tuple(spec["usage"]),
            expiration_seconds=int(spec["expirationSeconds"]),
            principal=data["principal"],
            status=RequestStatus(data["status"]),
        )


@dataclass
class IssuerPolicy:
    """Per-domain approval rules, mirroring certificate-signer semantics."""

    trust_domain: str
    identity_patterns: tuple[str, ...]          # fnmatch over the epoch-free base
    permitted_usages: frozenset[str]
    max_expiration_seconds: int
    current_epoch: str
    rotation_window: int = 1                    # prior epochs still valid
    auto_approve: bool = False
    principal_template: str | None = None       # e.g. "kubelet:{subject}"
    approvers: frozenset[str] = frozenset()
    epoch_history: list[str] = field(default_factory=list)
    blocklist: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.auto_approve and not self.principal_template:
            raise ValueError(
                "auto_approve requires a pinned principal-to-identity template"
            )
        if not self.permitted_usages <= USAGES:
            raise ValueError(f"usages must be a subset of {sorted(USAGES)}")

    def valid_epochs(self) -> list[str]:
        return [self.current_epoch] + self.epoch_history[: self.rotation_window]

    def matches_identity(self, identity: IdentityString) -> bool:
        return any(fnmatch.fnmatchcase(identity.base, pat) for pat in self.identity_patterns)

    def auto_approves(self, identity: IdentityString, principal: Principal) -> bool:
        if not self.auto_approve:
            return False
        expected = self.principal_template.format(subject=principal.subject)
        return identity.base == expected

    def to_dict(self) -> dict:
        return {
            "trustDomain": self.trust_domain,
            "identityPatterns": list(self.identity_patterns),
            "permittedUsages": sorted(self.permitted_usages),
            "maxExpirationSeconds": self.max_expiration_seconds,
            "currentEpoch": self.current_epoch,
            "rotationWindow": self.rotation_window,
            "autoApprove": self.auto_approve,
            "principalTemplate": self.principal_template,
            "approvers": sorted(self.approvers),
            "epochHistory": list(self.epoch_history),
            "blocklist": sorted(self.blocklist),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IssuerPolicy":
        return cls(
            trust_domain=data["trustDomain"],
            identity_patterns=tuple(data["identityPatterns"]),
            permitted_usages=frozenset(data["permittedUsages"]),
            max_expiration_seconds=int(data["maxExpirationSeconds"]),
            current_epoch=data["currentEpoch"],
            rotation_window=int(data["rotationWindow"]),
            auto_approve=bool(data["autoApprove"]),
            principal_template=data.get("principalTemplate"),
            approvers=frozenset(data.get("approvers", [])),
            epoch_history=list(data.get("epochHistory", [])),
            blocklist=set(data.get("blocklist", [])),
        )


@dataclass(frozen=True)
class KeyDelivery:
    identity: IdentityString
    private_key: IdentityPrivateKey
    mpk: MasterPublicKey
    expiration: datetime.datetime

    def to_json_dict(self) -> dict:
        # Field names match the issuance API response exactly.
        return {
            "identity": self.identity.canonical,
            "privateKey": base64.b64encode(encode_private_key(self.private_key)).decode(),
            "mpk": base64.b64encode(encode_master_public(self.mpk)).decode(),
            "expiration": self.expiration.strftime("%Y-%m-%dT%H:%M:%SZ"),
        }


def _utcnow() -> datetime.datetime:
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)


class TpkgService:
    """One issuer (trust domain): policy, registry chain, request workflow."""

    def __init__(
        self,
        params: KemParams,
        mpk: MasterPublicKey,
        policy: IssuerPolicy,
        registry: Registry,
        authenticator=None,
        clock=None,
    ) -> None:
        self.params = params
        self.mpk = mpk
        self.policy = policy
        self.registry = registry
        self.authenticator = authenticator  # token bytes -> Principal | None
        self.clock = clock or _utcnow
        self.requests: dict[str, IdentityRequest] = {}
        self._issued_expiry: dict[str, datetime.datetime] = {}
        self._request_counter = 0
        self._write_lock = threading.Lock()  # serializes appends and transitions

    # -- setup ---------------------------------------------------------------

    @classmethod
    def setup_domain(
        cls,
        domain: str,
        params: KemParams,
        n_nodes: int,
        threshold: int,
        seed: bytes,
        policy: IssuerPolicy,
        registry_path: Path | None = None,
        authenticator=None,
        clock=None,
    ) -> tuple["TpkgService", ShareSet]:
        """Establish a trust domain: publish mpk, share-split the master seed.

        The input seed is consumed here: the master seed derived from it is
        split into shares and the trapdoor it generates is discarded. Only a
        qualified quorum of shares can re-derive it.
        """
        if not 1 <= threshold <= n_nodes:
            raise ValueError("need 1 <= t <= n_nodes")
        stream = HashStream(seed, b"tpkg-domain")
        master_seed = stream.read(32)
        mpk, msk = setup(params, master_seed)
        msk.zeroize()
        share_set = shamir.split(master_seed, n_nodes, threshold, domain, stream.read(32))
        registry = Registry(domain, path=registry_path)
        service = cls(params=params, mpk=mpk, policy=policy, registry=registry,
                      authenticator=authenticator, clock=clock)
        service.registry.append(
            identity=f"{domain}/genesis",
            principal=domain,
            time_iso=service._now_iso(),
            epoch=policy.current_epoch,
            status=STATUS_ACTIVE,
        )
        return service, share_set

    def _now_iso(self) -> str:
        return self.clock().strftime("%Y-%m-%dT%H:%M:%SZ")

    # -- quorum reconstruction -------------------------------------------------

    @contextmanager
    def reconstructed_master(self, shares: list[Share]):
        """Ephemeral in-memory master secret; zeroized when the scope exits."""
        seed = shamir.reconstruct(shares)
        mpk, msk = setup(self.params, seed)
        try:
            if mpk.params_hash != self.mpk.params_hash:
                raise ShareMismatch("reconstructed master does not match this domain")
            yield msk
        finally:
            msk.zeroize()

    # -- request workflow -------------------------------------------------------

    def _authenticate(self, token: bytes) -> Principal:
        if self.authenticator is None:
            raise UnauthenticatedPrincipal("no token validator configured")
        principal = self.authenticator(token)
        if principal is None:
            raise UnauthenticatedPrincipal("token validation failed")
        return principal

    def _check_policy(self, identity: IdentityString, usage: tuple[str, ...],
                      expiration_seconds: int) -> None:
        if identity.base in self.policy.blocklist:
            raise BlocklistedIdentity(f"{identity.base} is revoked")
        if not self.policy.matches_identity(identity):
            raise PolicyViolation(
                f"identity {identity.canonical!r} does not match issuer patterns"
            )
        if not set(usage) <= self.policy.permitted_usages:
            raise PolicyViolation(f"usage {sorted(usage)} not permitted")
        if not usage:
            raise PolicyViolation("at least one usage is required")
        if expiration_seconds <= 0 or expiration_seconds > self.policy.max_expiration_seconds:
            raise PolicyViolation("expiration outside policy bounds")
        if identity.epoch not in self.policy.valid_epochs():
            raise EpochExpired(
                f"epoch {identity.epoch} not within the rotation window"
            )

    def submit_request(
        self,
        identity: IdentityString | str,
        usage: tuple[str, ...],
        expiration_seconds: int,
        principal_token: bytes,
    ) -> IdentityRequest:
        if isinstance(identity, str):
            identity = IdentityString.parse(identity)
        principal = self._authenticate(principal_token)
        self._check_policy(identity, tuple(usage), expiration_seconds)
        with self._write_lock:
            self._request_counter += 1
            request = IdentityRequest(
                name=f"req-{self._request_counter}",
                issuer=self.policy.trust_domain,
                identity=identity,
                usage=tuple(usage),
                expiration_seconds=expiration_seconds,
                principal=principal.subject,
            )
            if self.policy.auto_approves(identity, principal):
                request.status = RequestStatus.APPROVED
                self.registry.append(identity.canonical, principal.subject,
                                     self._now_iso(), identity.epoch, "Approved")
            self.requests[request.name] = request
        return request

    def get_request(self, name: str) -> IdentityRequest:
        try:
            return self.requests[name]
        except KeyError:
            raise UnknownRequest(name) from None

    def list_requests(self) -> list[IdentityRequest]:
        return list(self.requests.values())

    def _transition(self, name: str, approver: str, target: RequestStatus) -> IdentityRequest:
        if approver not in self.policy.approvers:
            raise ApprovalNotAuthorized(f"{approver} may not approve for this issuer")
        with self._write_lock:
            request = self.get_request(name)
            if request.status is not RequestStatus.PENDING:
                raise InvalidTransition(
                    f"{name} is {request.status.value}, not Pending"
                )
            request.status = target
            self.registry.append(request.identity.canonical, request.principal,
                                 self._now_iso(), request.identity.epoch, target.value)
        return request

    def approve_request(self, name: str, approver: str) -> IdentityRequest:
        return self._transition(name, approver, RequestStatus.APPROVED)

    def deny_request(self, name: str, approver: str) -> IdentityRequest:
        return self._transition(name, approver, RequestStatus.DENIED)

    def extract_and_deliver(self, name: str, shares: list[Share]) -> KeyDelivery:
        with self._write_lock:
            request = self.get_request(name)
            if request.status is RequestStatus.ISSUED:
                raise AlreadyIssued(name)
            if request.status is not RequestStatus.APPROVED:
                raise InvalidTransition(f"{name} is {request.status.value}, not Approved")
            identity = request.identity
            if identity.base in self.policy.blocklist:
                raise BlocklistedIdentity(f"{identity.base} is revoked")
            if identity.epoch not in self.policy.valid_epochs():
                raise EpochExpired(f"epoch {identity.epoch} is no longer valid")

            with self.reconstructed_master(shares) as msk:
                private_key = extract(msk, self.mpk, identity)

            expiration = self.clock() + datetime.timedelta(seconds=request.expiration_seconds)
            request.status = RequestStatus.ISSUED
            self.registry.append(identity.canonical, request.principal,
                                 self._now_iso(), identity.epoch, STATUS_ACTIVE)
            self._issued_expiry[identity.canonical] = expiration
        return KeyDelivery(identity=identity, private_key=private_key,
                           mpk=self.mpk, expiration=expiration)

    # -- lifecycle ---------------------------------------------------------------

    def revoke_identity(self, identity: IdentityString | str) -> None:
        if isinstance(identity, str):
            identity = IdentityString.parse(identity)
        with self._write_lock:
            self.policy.blocklist.add(identity.base)
            self.registry.append(identity.canonical, "operator", self._now_iso(),
                                 identity.epoch, STATUS_REVOKED)

    def epoch_increment(self, new_epoch: str | None = None) -> str:
        with self._write_lock:
            if new_epoch is None:
                if not self.policy.current_epoch.isdigit():
                    raise ValueError(
                        "current epoch is not an integer; supply the next epoch explicitly"
                    )
                new_epoch = str(int(self.policy.current_epoch) + 1)
            self.policy.epoch_history.insert(0, self.policy.current_epoch)
            self.policy.current_epoch = new_epoch
        return new_epoch

    def check_validity(self, identity: IdentityString | str, now=None) -> str:
        if isinstance(identity, str):
            identity = IdentityString.parse(identity)
        now = now or self.clock()
        if identity.base in self.policy.blocklist:
            return STATUS_REVOKED
        issued = [
            record for record in self.registry.records
            if record.identity == identity.canonical and record.status == STATUS_ACTIVE
        ]
        if not issued:
            raise UnknownIdentity(identity.canonical)
        if identity.epoch not in self.policy.valid_epochs():
            return STATUS_EXPIRED
        expiry = self._issued_expiry.get(identity.canonical)
        if expiry is not None and now > expiry:
            return STATUS_EXPIRED
        return STATUS_ACTIVE
