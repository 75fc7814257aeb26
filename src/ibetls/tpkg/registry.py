"""Append-only, hash-chained issuance registry.

Records never mutate: a status change appends a superseding record. Each
record hashes all of its fields together with the previous record's hash, so
any single-bit mutation or reordering breaks the chain at that index. The
registry is for audit and policy, never for key discovery, and it contains
no key material.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

GENESIS_PREV = "00" * 32

STATUS_ACTIVE = "Active"
STATUS_EXPIRED = "Expired"
STATUS_REVOKED = "Revoked"


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
        return cls(
            identity=data["identity"],
            issuer=data["issuer"],
            authorized_principal=data["authorizedPrincipal"],
            issuance_time=data["issuanceTime"],
            validity_epoch=data["validityEpoch"],
            status=data["status"],
            prev_hash=data["prevHash"],
            record_hash=data["recordHash"],
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
        self.path = Path(path) if path is not None else None
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
        self.records.append(record)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as sink:
                sink.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return record

    def verify(self) -> int | None:
        return verify_chain(self.records)

    def latest_for(self, identity: str) -> RegistryRecord | None:
        for record in reversed(self.records):
            if record.identity == identity:
                return record
        return None

    @classmethod
    def load(cls, issuer: str, path: Path) -> "Registry":
        registry = cls(issuer, path=path)
        registry.records = load_chain(path)
        return registry


def load_chain(path: Path) -> list[RegistryRecord]:
    records = []
    with open(path, encoding="utf-8") as source:
        for line in source:
            line = line.strip()
            if line:
                records.append(RegistryRecord.from_dict(json.loads(line)))
    return records
