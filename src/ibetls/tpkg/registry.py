"""Append-only, hash-chained issuance registry.

Records never mutate: a status change appends a superseding record. Each
record hashes all of its fields together with the previous record's hash, so
any single-bit mutation or reordering breaks the chain at that index. The
registry is for audit and policy, never for key discovery, and it contains
no key material.
"""

from __future__ import annotations

import datetime
import fcntl
import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

GENESIS_PREV = "00" * 32

STATUS_ACTIVE = "Active"
STATUS_EXPIRED = "Expired"
STATUS_REVOKED = "Revoked"

TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"  # issuanceTime, and a delivery's expiration


class RegistryCorrupt(Exception):
    """Issuer state on disk is torn, malformed, or breaks the hash chain."""


class JournalConflict(Exception):
    """An append-only file changed since this writer last read or wrote it.

    Another writer has appended to it, so an append from this writer's view
    would fork the chain or reuse a request name. Nothing was written; reload
    the domain and retry.
    """


@dataclass(frozen=True)
class RegistryRecord:
    identity: str
    issuer: str
    authorized_principal: str
    issuance_time: str      # ISO-8601
    validity_epoch: str
    status: str
    prev_hash: str          # hex, 32 bytes
    record_hash: str = ""   # hex, filled by seal()

    def core_fields(self) -> dict:
        return {
            "identity": self.identity,
            "issuer": self.issuer,
            "authorizedPrincipal": self.authorized_principal,
            "issuanceTime": self.issuance_time,
            "validityEpoch": self.validity_epoch,
            "status": self.status,
            "prevHash": self.prev_hash,
        }

    def computed_hash(self) -> str:
        canonical = json.dumps(self.core_fields(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def seal(self) -> "RegistryRecord":
        return replace(self, record_hash=self.computed_hash())

    def to_dict(self) -> dict:
        data = self.core_fields()
        data["recordHash"] = self.record_hash
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RegistryRecord":
        """The record in data; a field that is not a string, or an issuanceTime
        that parse_time refuses, raises BadRequest."""
        issuance_time = json_field(data, "issuanceTime", str)
        parse_time(issuance_time)
        return cls(
            identity=json_field(data, "identity", str),
            issuer=json_field(data, "issuer", str),
            authorized_principal=json_field(data, "authorizedPrincipal", str),
            issuance_time=issuance_time,
            validity_epoch=json_field(data, "validityEpoch", str),
            status=json_field(data, "status", str),
            prev_hash=json_field(data, "prevHash", str),
            record_hash=json_field(data, "recordHash", str),
        )


def verify_chain(records: list[RegistryRecord]) -> int | None:
    """None when the chain is intact, else the index of the first break."""
    prev = GENESIS_PREV
    for i, record in enumerate(records):
        if record.prev_hash != prev or record.record_hash != record.computed_hash():
            return i
        prev = record.record_hash
    return None


class Registry:
    """In-memory chain with an optional JSON-lines file sink (append-only)."""

    def __init__(self, issuer: str, path: Path | None = None) -> None:
        self.issuer = issuer
        self.journal = Journal(path) if path is not None else None
        self.records: list[RegistryRecord] = []

    def append(self, identity: str, principal: str, time_iso: str, epoch: str,
               status: str) -> RegistryRecord:
        prev = self.records[-1].record_hash if self.records else GENESIS_PREV
        record = RegistryRecord(
            identity=identity,
            issuer=self.issuer,
            authorized_principal=principal,
            issuance_time=time_iso,
            validity_epoch=epoch,
            status=status,
            prev_hash=prev,
        ).seal()
        if self.journal is not None:
            append_line(self.journal, record.to_dict())
        self.records.append(record)
        return record

    def verify(self) -> int | None:
        return verify_chain(self.records)

    @classmethod
    def load(cls, issuer: str, path: Path) -> "Registry":
        """The chain in path, which must verify: nothing is appended to a broken one."""
        registry = cls(issuer, path=path)
        registry.records = read_chain(registry.journal)
        broken = registry.verify()
        if broken is not None:
            raise RegistryCorrupt(f"{path}: chain breaks at record {broken}")
        return registry


class BadRequest(ValueError):
    """A JSON document (an API request, policy.json, a journal line, a share
    file, the CLI config) does not have the documented shape."""


def json_field(doc: dict, key: str, kind: type, default=None):
    """doc[key], checked to be a kind; a missing key gives default, or
    BadRequest when there is none. A doc that is not a JSON object is a
    BadRequest too."""
    if not isinstance(doc, dict):
        raise BadRequest(f"not a JSON object (reading {key!r})")
    if key not in doc and default is not None:
        return default
    value = doc.get(key)
    # bool is an int subclass, but true is not a number of seconds
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise BadRequest(f"{key!r} must be a JSON {kind.__name__}")
    return value


def parse_time(text: str) -> datetime.datetime:
    """text as a UTC datetime; BadRequest unless it is exactly what TIME_FORMAT
    writes for that time."""
    try:
        parsed = datetime.datetime.strptime(text, TIME_FORMAT)
    except ValueError:
        parsed = None
    if parsed is None or parsed.strftime(TIME_FORMAT) != text:
        raise BadRequest(f"{text!r} is not a time in {TIME_FORMAT}")
    return parsed.replace(tzinfo=datetime.timezone.utc)


def json_strings(doc: dict, key: str, default=None) -> list[str]:
    """doc[key], checked to be a list of strings, as json_field checks it."""
    value = json_field(doc, key, list, default)
    if not all(isinstance(item, str) for item in value):
        raise BadRequest(f"{key!r} must be a list of strings")
    return value


def json_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


class Journal:
    """An append-only JSON-lines file, and its length when this writer last
    read or wrote it."""

    def __init__(self, path: Path, size: int = 0) -> None:
        self.path = Path(path)
        self.size = size

    def read(self) -> tuple[list[dict], bytes]:
        """The documents on the complete lines of the file, and its torn tail.

        A line is complete once its newline is written; the bytes after the
        last newline are returned as they are. A complete line that is not one
        JSON object raises RegistryCorrupt.
        """
        data = self.path.read_bytes()
        self.size = len(data)
        body, _, tail = data.rpartition(b"\n")
        docs = []
        for number, line in enumerate(body.split(b"\n"), 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                doc = None
            if not isinstance(doc, dict):
                raise RegistryCorrupt(f"{self.path}: line {number} is not a JSON record")
            docs.append(doc)
        return docs, tail


def append_line(journal: Journal, doc: dict) -> None:
    """Append one JSON document as one line, durable once this returns.

    Under an exclusive lock on the file, the line is written only if the file
    still has the length this writer last read or wrote; otherwise another
    writer has appended since, and JournalConflict is raised.
    """
    line = json_line(doc).encode("utf-8")
    with open(journal.path, "ab") as sink:
        fcntl.flock(sink, fcntl.LOCK_EX)  # released when the file closes
        size = os.fstat(sink.fileno()).st_size
        if size != journal.size:
            raise JournalConflict(f"{journal.path} is {size} bytes, not the {journal.size} "
                                  "this writer last saw: another writer has changed it")
        sink.write(line)
        sink.flush()
        os.fsync(sink.fileno())
    journal.size = size + len(line)


def read_chain(journal: Journal) -> list[RegistryRecord]:
    docs, tail = journal.read()
    if tail.strip():
        raise RegistryCorrupt(f"{journal.path}: last record is torn (no newline)")
    try:
        return [RegistryRecord.from_dict(doc) for doc in docs]
    except BadRequest as exc:
        raise RegistryCorrupt(f"{journal.path}: bad record: {exc}") from None


def load_chain(path: Path) -> list[RegistryRecord]:
    return read_chain(Journal(path))
