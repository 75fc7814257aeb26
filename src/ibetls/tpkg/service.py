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
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum

from ..kem import (
    IdentityPrivateKey,
    IdentityString,
    KemParams,
    MasterKeyMismatch,
    MasterPublicKey,
    encode_master_public,
    encode_private_key,
    extract,
    rebuild_master,
    setup,
)
from ..kem.identity import is_epoch, is_integer_epoch
from ..kem.sampling import HashStream
from . import shamir
from .registry import (
    STATUS_ACTIVE,
    STATUS_EXPIRED,
    STATUS_REVOKED,
    TIME_FORMAT,
    Journal,
    Registry,
    RegistryRecord,
    append_line,
    json_field,
    json_strings,
    parse_time,
)
from .shamir import Share, ShareMismatch, ShareSet

USAGES = frozenset({"client", "server", "peer"})


def _check_epoch(epoch: str) -> None:
    if not is_epoch(epoch):
        raise ValueError(f"epoch {epoch!r} is neither an unsigned integer nor an ISO date")


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
        """The request in data; a field not of the type to_dict writes raises BadRequest."""
        spec = json_field(data, "spec", dict)
        return cls(
            name=json_field(data, "name", str),
            issuer=json_field(spec, "issuer", str),
            identity=IdentityString.parse(json_field(spec, "identity", str)),
            usage=tuple(json_strings(spec, "usage")),
            expiration_seconds=json_field(spec, "expirationSeconds", int),
            principal=json_field(data, "principal", str),
            status=RequestStatus(json_field(data, "status", str)),
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

    def __post_init__(self) -> None:
        _check_epoch(self.current_epoch)
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
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IssuerPolicy":
        """The policy in data, each field of its documented JSON type; a value
        of any other type raises BadRequest, never a coerced policy."""
        return cls(
            trust_domain=json_field(data, "trustDomain", str),
            identity_patterns=tuple(json_strings(data, "identityPatterns")),
            permitted_usages=frozenset(json_strings(data, "permittedUsages")),
            max_expiration_seconds=json_field(data, "maxExpirationSeconds", int),
            current_epoch=json_field(data, "currentEpoch", str),
            rotation_window=json_field(data, "rotationWindow", int),
            auto_approve=json_field(data, "autoApprove", bool),
            principal_template=(None if data.get("principalTemplate") is None
                                else json_field(data, "principalTemplate", str)),
            approvers=frozenset(json_strings(data, "approvers", [])),
            epoch_history=json_strings(data, "epochHistory", []),
        )


@dataclass(frozen=True)
class KeyDelivery:
    identity: IdentityString
    private_key: IdentityPrivateKey
    mpk_b64: str  # the issuer's encoded master public key, in base64
    expiration: datetime.datetime

    def to_json_dict(self) -> dict:
        # Field names match the issuance API response exactly.
        return {
            "identity": self.identity.canonical,
            "privateKey": base64.b64encode(encode_private_key(self.private_key)).decode(),
            "mpk": self.mpk_b64,
            "expiration": self.expiration.strftime(TIME_FORMAT),
        }


def _utcnow() -> datetime.datetime:
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)


def _expiry(request: IdentityRequest, issued: RegistryRecord) -> datetime.datetime:
    """When the key issued for request, recorded Active as issued, expires."""
    return parse_time(issued.issuance_time) + datetime.timedelta(
        seconds=request.expiration_seconds)


class TpkgService:
    """One issuer (trust domain): policy, registry chain, request workflow."""

    def __init__(
        self,
        mpk: MasterPublicKey,
        policy: IssuerPolicy,
        registry: Registry,
        authenticator=None,
        clock=None,
    ) -> None:
        self.mpk = mpk
        self.policy = policy
        self.registry = registry
        # The registry is the record of revocation; this is its index by base.
        self.revoked = {IdentityString.parse(record.identity).base
                        for record in registry.records if record.status == STATUS_REVOKED}
        self.authenticator = authenticator  # token bytes -> Principal | None
        self.clock = clock or _utcnow
        self.requests: dict[str, IdentityRequest] = {}
        self.requests_journal: Journal | None = None  # see storage.py
        # Serializes appends and transitions; reentrant so that issuing a
        # request can go through issue_direct.
        self._write_lock = threading.RLock()

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
        authenticator=None,
        clock=None,
    ) -> tuple["TpkgService", ShareSet]:
        """Establish a trust domain: publish mpk, share-split the master seed.

        The input seed is consumed here: the master seed derived from it is
        split into shares and the trapdoor it generates is discarded. Only a
        qualified quorum of shares can re-derive it. The registry lives in
        memory until save_domain attaches it to a journal on disk.
        """
        if not 1 <= threshold <= n_nodes:
            raise ValueError("need 1 <= t <= n_nodes")
        stream = HashStream(seed, b"tpkg-domain")
        master_seed = stream.read(32)
        mpk, msk = setup(params, master_seed)
        msk.zeroize()
        share_set = shamir.split(master_seed, n_nodes, threshold, domain, stream.read(32))
        service = cls(mpk=mpk, policy=policy, registry=Registry(domain),
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
        return self.clock().strftime(TIME_FORMAT)

    @functools.cached_property
    def mpk_b64(self) -> str:
        """mpk as every key delivery carries it; encoded on the first delivery
        only, since mpk is set once, in __init__."""
        return base64.b64encode(encode_master_public(self.mpk)).decode()

    # -- quorum reconstruction -------------------------------------------------

    @contextmanager
    def reconstructed_master(self, shares: list[Share]):
        """Ephemeral in-memory master secret; zeroized when the scope exits.

        Only the secret half is derived from the reconstructed seed; it is
        checked against this domain's mpk, not used to recompute it.
        """
        seed = shamir.reconstruct(shares)
        try:
            msk = rebuild_master(self.mpk, seed)
        except MasterKeyMismatch:
            raise ShareMismatch("reconstructed master does not match this domain") from None
        try:
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

    def _check_extractable(self, identity: IdentityString) -> None:
        """Refuse a revoked base, or an epoch outside the rotation window."""
        if identity.base in self.revoked:
            raise BlocklistedIdentity(f"{identity.base} is revoked")
        if identity.epoch not in self.policy.valid_epochs():
            raise EpochExpired(f"epoch {identity.epoch} not within the rotation window")

    def _check_policy(self, identity: IdentityString, usage: tuple[str, ...],
                      expiration_seconds: int) -> None:
        self._check_extractable(identity)
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
            request = IdentityRequest(
                name=f"req-{len(self.requests) + 1}",
                issuer=self.policy.trust_domain,
                identity=identity,
                usage=tuple(usage),
                expiration_seconds=expiration_seconds,
                principal=principal.subject,
            )
            status = RequestStatus.PENDING
            if self.policy.auto_approves(identity, principal):
                status = RequestStatus.APPROVED
                self.registry.append(identity.canonical, principal.subject,
                                     self._now_iso(), identity.epoch, status.value)
            self._record(request, status)
        return request

    def _record(self, request: IdentityRequest, status: RequestStatus) -> None:
        """Journal request at status, then make that its state in memory."""
        if self.requests_journal is not None:
            append_line(self.requests_journal, replace(request, status=status).to_dict())
        request.status = status
        self.requests[request.name] = request

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
            self.registry.append(request.identity.canonical, request.principal,
                                 self._now_iso(), request.identity.epoch, target.value)
            self._record(request, target)
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
            private_key = self.issue_direct(request.identity, shares, request.principal)
            self._record(request, RequestStatus.ISSUED)
            expiration = _expiry(request, self.registry.records[-1])
        return KeyDelivery(identity=request.identity, private_key=private_key,
                           mpk_b64=self.mpk_b64, expiration=expiration)

    def issue_direct(self, identity: IdentityString, shares: list[Share],
                     principal: str) -> IdentityPrivateKey:
        """Extract the key for identity under a quorum and record it Active.

        Every issuance goes through here, so here a revoked base or an epoch
        outside the window is refused, before any quorum rebuild. Called
        alone, it models the out-of-band provisioning of the first keys.
        """
        with self._write_lock:
            self._check_extractable(identity)
            with self.reconstructed_master(shares) as msk:
                private_key = extract(msk, self.mpk, identity)
            self.registry.append(identity.canonical, principal, self._now_iso(),
                                 identity.epoch, STATUS_ACTIVE)
        return private_key

    # -- lifecycle ---------------------------------------------------------------

    def revoke_identity(self, identity: IdentityString | str) -> None:
        if isinstance(identity, str):
            identity = IdentityString.parse(identity)
        with self._write_lock:
            self.registry.append(identity.canonical, "operator", self._now_iso(),
                                 identity.epoch, STATUS_REVOKED)
            self.revoked.add(identity.base)

    def epoch_increment(self, new_epoch: str | None = None) -> str:
        """Move to new_epoch, or to the integer after the current one. A new
        epoch must be later than the current one and of its form, integers by
        value and dates by date (a YYYY-MM-DD date orders as its text does):
        going back would return expired epochs to the window."""
        with self._write_lock:
            current = self.policy.current_epoch
            integers = is_integer_epoch(current)
            if new_epoch is None:
                if not integers:
                    raise ValueError(
                        "current epoch is not an integer; supply the next epoch explicitly"
                    )
                new_epoch = str(int(current) + 1)
            _check_epoch(new_epoch)
            if is_integer_epoch(new_epoch) != integers or not (
                    int(new_epoch) > int(current) if integers else new_epoch > current):
                raise ValueError(f"epoch {new_epoch!r} is not later than the current "
                                 f"epoch {current!r} in the same form")
            self.policy.epoch_history.insert(0, current)
            self.policy.current_epoch = new_epoch
        return new_epoch

    def check_validity(self, identity: IdentityString | str) -> str:
        if isinstance(identity, str):
            identity = IdentityString.parse(identity)
        if identity.base in self.revoked:
            return STATUS_REVOKED
        issued = [
            record for record in self.registry.records
            if record.identity == identity.canonical and record.status == STATUS_ACTIVE
        ]
        if not issued:
            raise UnknownIdentity(identity.canonical)
        if identity.epoch not in self.policy.valid_epochs():
            return STATUS_EXPIRED
        # An identity issued without a request (issue_direct) has no expiry.
        request = next((r for r in reversed(self.requests.values())
                        if r.identity.canonical == identity.canonical
                        and r.status is RequestStatus.ISSUED), None)
        if request is not None and self.clock() > _expiry(request, issued[-1]):
            return STATUS_EXPIRED
        return STATUS_ACTIVE
