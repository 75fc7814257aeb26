"""On-disk layout for a trust domain.

domain-dir/
    mpk.bin            master public key (the trust anchor)
    policy.json        issuer policy, replaced whole when it changes
    registry.jsonl     append-only hash chain
    requests.jsonl     append-only request journal: one IdentityRequest
                       document per transition, the last line per name wins
    shares/node-<i>.json   one Shamir share per T-PKG node

Identity private keys are never written here; delivery is wire-only.

A new domain is written whole into a temporary directory next to
domain-dir, which is renamed to domain-dir last: a crash during setup
leaves no domain, never part of one. The next setup removes the temporary
directory a crash left. A domain-dir without policy.json or either journal
is RegistryCorrupt.

Files that change afterwards are written in one of two ways. The two .jsonl
files are appended one line at a time by registry.append_line, and each
append is fsynced before the call that made it returns. An append holds an
exclusive flock on its file and is refused with JournalConflict unless the
file still has the length this service last read or wrote: two services on
one home, in one process or two, cannot both append from their own view and
fork the chain or reuse a request name. A crash inside an append leaves a
torn last line; reading skips it, so the domain loads as it was before that
append, and the next append cuts it under the lock. Nothing that only reads
writes a journal. mpk.bin, policy.json and the shares are replaced whole: a
temp file in the same directory is written and fsynced, then renamed over
the old one, so a crash leaves the old file or the new one.

Write order. A request transition that has a registry record (auto-approval,
approve, deny, issue) appends that record first and the request line second.
A crash between the two leaves the request in its old state next to a record
of the new one, and retrying the call succeeds; the other order would leave an
Issued request with no Active record, and a retry would be refused as already
issued.
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import tempfile
from pathlib import Path

from ..kem import decode_master_public, encode_master_public
from ..kem.errors import KemError, MalformedIdentity
from .registry import Journal, Registry, RegistryCorrupt, json_line
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
    """Write a new domain and attach its journals, so later changes append.

    Every file is written into a temp directory next to directory, which is
    renamed into place as the last step: a crash or a failed write leaves
    no domain at directory, never part of one, and setup can run again.
    directory must not exist yet, or be empty. The whole write holds an
    exclusive flock on the domains directory, so any temp directory of this
    domain found under it was left by a setup that died, with the shares of
    a master; it is removed first.
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    lock = os.open(directory.parent, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for stale in directory.parent.iterdir():
            if stale.name.startswith(f".{directory.name}.") and not stale.is_symlink() \
                    and stale.is_dir():
                shutil.rmtree(stale)
        staging = Path(tempfile.mkdtemp(dir=directory.parent, prefix=f".{directory.name}."))
        try:
            replace_file(staging / "mpk.bin", encode_master_public(service.mpk))
            save_state(staging, service)
            (staging / "shares").mkdir()
            for share in share_set.shares:
                replace_file(staging / "shares" / f"node-{share.index}.json",
                             (json.dumps(share.to_dict(), indent=2) + "\n").encode())
            journals = {}
            for name, items in (("registry.jsonl", service.registry.records),
                                ("requests.jsonl", service.list_requests())):
                data = "".join(json_line(item.to_dict()) for item in items).encode()
                replace_file(staging / name, data)
                journals[name] = Journal(directory / name, len(data))
            os.rename(staging, directory)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
    finally:
        os.close(lock)  # releases the flock
    service.registry.journal = journals["registry.jsonl"]
    service.requests_journal = journals["requests.jsonl"]


def save_state(directory: Path, service: TpkgService) -> None:
    """Persist the policy; requests and registry records are appended as they happen.

    policy.json is replaced only when its bytes change, and most requests
    leave the policy as it was.
    """
    path = Path(directory) / "policy.json"
    data = (json.dumps(service.policy.to_dict(), indent=2) + "\n").encode()
    try:
        if path.read_bytes() == data:
            return
    except OSError:
        pass
    replace_file(path, data)


def load_domain(directory: Path, authenticator=None, clock=None) -> TpkgService:
    directory = Path(directory)
    if (directory / "requests.json").exists():
        raise LegacyLayout(f"{directory / 'requests.json'} is from an older layout "
                           "that this version does not read")
    for name in ("policy.json", "registry.jsonl", "requests.jsonl"):
        if not (directory / name).is_file():
            raise RegistryCorrupt(f"{directory / name}: missing from the domain")
    try:
        mpk = decode_master_public((directory / "mpk.bin").read_bytes())
    except KemError as exc:
        raise RegistryCorrupt(f"{directory / 'mpk.bin'}: {exc}") from None
    policy_path = directory / "policy.json"
    try:
        policy = IssuerPolicy.from_dict(json.loads(policy_path.read_text()))
    except ValueError as exc:  # not JSON, a wrong type (BadRequest), a refused value
        raise RegistryCorrupt(f"{policy_path}: {exc}") from None
    registry = Registry.load(policy.trust_domain, directory / "registry.jsonl")
    try:
        service = TpkgService(mpk=mpk, policy=policy, registry=registry,
                              authenticator=authenticator, clock=clock)
    except MalformedIdentity as exc:
        raise RegistryCorrupt(f"{directory / 'registry.jsonl'}: bad revoked identity: "
                              f"{exc!r}") from None
    journal = Journal(directory / "requests.jsonl")
    try:
        for doc in journal.read():
            request = IdentityRequest.from_dict(doc)
            service.requests[request.name] = request
    except (ValueError, MalformedIdentity) as exc:  # a wrong type is a BadRequest
        raise RegistryCorrupt(f"{journal.path}: bad request record: {exc!r}") from None
    # Names are derived from the count, so they must be exactly req-1..req-N.
    if set(service.requests) != {f"req-{i}" for i in range(1, len(service.requests) + 1)}:
        raise RegistryCorrupt(f"{journal.path}: request names are not req-1..req-N")
    service.requests_journal = journal
    return service


def load_readable_shares(directory: Path) -> list[Share]:
    """The shares in directory, skipping share files that cannot be read or
    do not hold a share object with each field of its documented type."""
    shares_dir = Path(directory) / "shares"
    if not shares_dir.is_dir():
        return []
    shares = []
    for path in sorted(shares_dir.glob("node-*.json")):
        try:
            shares.append(Share.from_dict(json.loads(path.read_text())))
        except (OSError, ValueError):  # a wrong type is a BadRequest
            continue
    return shares
