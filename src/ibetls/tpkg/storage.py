"""On-disk layout for a trust domain.

domain-dir/
    mpk.bin            master public key (the trust anchor)
    policy.json        issuer policy, replaced whole on change
    registry.jsonl     append-only hash chain
    requests.jsonl     append-only request journal: one IdentityRequest
                       document per transition, the last line per name wins
    shares/node-<i>.json   one Shamir share per T-PKG node

Identity private keys are never written here; delivery is wire-only.

Files that change are written in one of two ways. The two .jsonl files are
appended one line at a time, and each append is fsynced before the call that
made it returns. mpk.bin, policy.json and the shares are replaced whole: a
temp file in the same directory is written and fsynced, then renamed over the
old one, so a crash leaves the old file or the new one.

Write order. A request transition that has a registry record (auto-approval,
approve, deny, issue) appends that record first and the request line second.
A crash between the two leaves the request in its old state next to a record
of the new one, and retrying the call succeeds; the other order would leave an
Issued request with no Active record, and a retry would be refused as already
issued. A crash inside an append leaves a torn last line. In requests.jsonl,
load_domain truncates it, so the request keeps its old state. In
registry.jsonl it is corruption, as is any break in the chain: loading raises
RegistryCorrupt.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from ..kem import IdentityString, decode_master_public, encode_master_public
from ..kem.errors import MalformedIdentity
from .registry import STATUS_REVOKED, Registry, RegistryCorrupt, json_line, read_lines
from .service import IdentityRequest, IssuerPolicy, TpkgService
from .shamir import Share, ShareSet


class LegacyLayout(Exception):
    """The domain directory holds state in a layout this version does not read."""


def replace_file(path: Path, data: bytes) -> None:
    """Write path whole: a temp file in its directory, fsync, then os.replace."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_domain(directory: Path, service: TpkgService, share_set: ShareSet) -> None:
    """Write a new domain and attach its journals, so later changes append."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    replace_file(directory / "mpk.bin", encode_master_public(service.mpk))
    save_state(directory, service)
    shares_dir = directory / "shares"
    shares_dir.mkdir(exist_ok=True)
    for share in share_set.shares:
        replace_file(shares_dir / f"node-{share.index}.json",
                     (json.dumps(share.to_dict(), indent=2) + "\n").encode())
    if service.registry.path is None:
        path = directory / "registry.jsonl"
        replace_file(path, "".join(json_line(r.to_dict())
                                   for r in service.registry.records).encode())
        service.registry.path = path
    if service.requests_path is None:
        path = directory / "requests.jsonl"
        replace_file(path, "".join(json_line(r.to_dict())
                                   for r in service.list_requests()).encode())
        service.requests_path = path


def save_state(directory: Path, service: TpkgService) -> None:
    """Persist the policy; requests and registry records are appended as they happen."""
    replace_file(Path(directory) / "policy.json",
                 (json.dumps(service.policy.to_dict(), indent=2) + "\n").encode())


def load_domain(directory: Path, authenticator=None, clock=None) -> TpkgService:
    directory = Path(directory)
    if (directory / "requests.json").exists():
        raise LegacyLayout(f"{directory / 'requests.json'} is from an older layout "
                           "that this version does not read")
    mpk = decode_master_public((directory / "mpk.bin").read_bytes())
    policy = IssuerPolicy.from_dict(json.loads((directory / "policy.json").read_text()))
    registry = Registry.load(policy.trust_domain, directory / "registry.jsonl")
    # A revocation is durable once its registry record is: policy.json may
    # predate it if the process died before the next save_state.
    try:
        policy.blocklist.update(IdentityString.parse(record.identity).base
                                for record in registry.records
                                if record.status == STATUS_REVOKED)
    except (AttributeError, MalformedIdentity) as exc:
        raise RegistryCorrupt(f"{directory / 'registry.jsonl'}: bad revoked identity: "
                              f"{exc!r}") from None
    service = TpkgService(params=mpk.params, mpk=mpk, policy=policy, registry=registry,
                          authenticator=authenticator, clock=clock)
    path = directory / "requests.jsonl"
    docs, tail = read_lines(path)
    if tail:
        os.truncate(path, path.stat().st_size - len(tail))  # a torn last append
    try:
        for doc in docs:
            request = IdentityRequest.from_dict(doc)
            service.requests[request.name] = request
    except (AttributeError, KeyError, TypeError, ValueError, MalformedIdentity) as exc:
        raise RegistryCorrupt(f"{path}: bad request record: {exc!r}") from None
    # Names are derived from the count, so they must be exactly req-1..req-N.
    if set(service.requests) != {f"req-{i}" for i in range(1, len(service.requests) + 1)}:
        raise RegistryCorrupt(f"{path}: request names are not req-1..req-N")
    service.requests_path = path
    return service


def load_readable_shares(directory: Path) -> list[Share]:
    """The shares in directory, skipping unreadable or corrupt share files."""
    shares_dir = Path(directory) / "shares"
    if not shares_dir.is_dir():
        return []
    shares = []
    for path in sorted(shares_dir.glob("node-*.json")):
        try:
            shares.append(Share.from_dict(json.loads(path.read_text())))
        except (OSError, ValueError, KeyError):
            continue
    return shares
