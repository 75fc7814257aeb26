"""Issuer state on disk: the request journal, atomic replaces and crash recovery."""

import datetime
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibetls.tpkg.service
import ibetls.tpkg.storage
from ibetls.kem import IdentityString
from ibetls.tpkg import (
    PRIME,
    ApiServer,
    BlocklistedIdentity,
    JournalConflict,
    RegistryCorrupt,
    RequestStatus,
    TpkgService,
    identity_request,
    load_domain,
    load_readable_shares,
    save_domain,
    save_state,
)
from ibetls.tpkg.registry import GENESIS_PREV, Journal, append_line

from test_tpkg import authenticator, fixed_clock, make_policy

NODE = "kubelet:node-01.20250101"


def new_domain(desk, directory: Path) -> tuple[TpkgService, list]:
    service, shares = TpkgService.setup_domain(
        domain="ibe.kubernetes.io/apiserver", params=desk, n_nodes=3, threshold=2,
        seed=b"\x10" * 32, policy=make_policy(), authenticator=authenticator,
        clock=fixed_clock,
    )
    save_domain(directory, service, shares)
    return service, list(shares.shares[:2])


def reload(directory: Path) -> TpkgService:
    return load_domain(directory, authenticator=authenticator, clock=fixed_clock)


def states(service: TpkgService) -> dict:
    return {name: r.to_dict() for name, r in service.requests.items()}


# ---------------------------------------------------------------------------
# state that lives only in the journal and the registry
# ---------------------------------------------------------------------------


def test_expiry_survives_reload(tmp_path, desk):
    service, quorum = new_domain(desk, tmp_path)
    request = service.submit_request(NODE, ("client",), 3600, b"bootstrap-node-01")
    service.extract_and_deliver(request.name, quorum)
    save_state(tmp_path, service)
    later = fixed_clock() + datetime.timedelta(hours=2)
    reloaded_later = load_domain(tmp_path, authenticator=authenticator, clock=lambda: later)
    assert reloaded_later.check_validity(NODE) == "Expired"
    assert reload(tmp_path).check_validity(NODE) == "Active"


def test_revocation_survives_reload_without_save_state(tmp_path, desk):
    # The registry record is the revocation; policy.json does not carry it.
    service, quorum = new_domain(desk, tmp_path)
    service.issue_direct(IdentityString.parse(NODE), quorum, "node-01")
    service.revoke_identity(NODE)
    reloaded = reload(tmp_path)
    assert reloaded.check_validity(NODE) == "Revoked"
    assert reloaded.check_validity("kubelet:node-01.20250102") == "Revoked"


def test_old_policy_with_a_blocklist_loads_and_the_registry_keeps_revocation(tmp_path, desk):
    # policy.json as earlier versions wrote it: its "blocklist" is ignored,
    # so a base stays revoked through its Revoked record and no other way.
    service, quorum = new_domain(desk, tmp_path)
    service.issue_direct(IdentityString.parse(NODE), quorum, "node-01")
    service.revoke_identity(NODE)
    path = tmp_path / "policy.json"
    policy = json.loads(path.read_text())
    policy["blocklist"] = ["kubelet:node-01", "scheduler"]
    path.write_text(json.dumps(policy, indent=2) + "\n")
    reloaded = reload(tmp_path)
    assert reloaded.revoked == {"kubelet:node-01"}
    assert reloaded.check_validity(NODE) == "Revoked"
    with pytest.raises(BlocklistedIdentity):
        reloaded.submit_request(NODE, ("client",), 3600, b"bootstrap-node-01")
    request = reloaded.submit_request("scheduler.20250101", ("client",), 3600, b"admin")
    assert request.status is RequestStatus.PENDING


@pytest.mark.parametrize("second", ["submit", "auto_approve", "revoke"])
def test_second_writer_on_one_home_is_refused(tmp_path, desk, second):
    # Two services opened on one home, as two processes would: the second
    # appends from a view the first has already changed.
    new_domain(desk, tmp_path)
    first, other = reload(tmp_path), reload(tmp_path)
    first.submit_request("scheduler.20250101", ("client",), 3600, b"admin")
    first.revoke_identity("controller-manager.20250101")
    on_disk = [(tmp_path / name).read_bytes() for name in ("registry.jsonl", "requests.jsonl")]
    records = list(other.registry.records)
    with pytest.raises(JournalConflict):
        if second == "submit":
            other.submit_request("controller-manager.20250101", ("client",), 3600, b"admin")
        elif second == "auto_approve":
            other.submit_request(NODE, ("client",), 3600, b"bootstrap-node-01")
        else:
            other.revoke_identity(NODE)
    assert [(tmp_path / name).read_bytes() for name in ("registry.jsonl", "requests.jsonl")] \
        == on_disk
    assert (other.requests, other.registry.records) == ({}, records)
    assert IdentityString.parse(NODE).base not in other.revoked
    response = ApiServer(other, shares_provider=lambda: []).handle(identity_request(
        other.policy.trust_domain, "scheduler.20250101", ["client"], 3600, b"admin"))
    assert (response["status"], response["error"]["reason"]) == (409, "Conflict")

    reloaded = reload(tmp_path)
    assert reloaded.registry.verify() is None
    assert states(reloaded) == states(first)
    retry = reloaded.submit_request(NODE, ("client",), 3600, b"bootstrap-node-01")
    assert (retry.name, retry.status) == ("req-2", RequestStatus.APPROVED)
    assert reload(tmp_path).registry.verify() is None


def test_request_names_continue_across_reloads(tmp_path, desk):
    service, _ = new_domain(desk, tmp_path)
    service.submit_request("scheduler.20250101", ("client",), 3600, b"admin")
    service.submit_request("controller-manager.20250101", ("client",), 3600, b"admin")
    reloaded = reload(tmp_path)
    third = reloaded.submit_request(NODE, ("client",), 3600, b"bootstrap-node-01")
    assert third.name == "req-3"
    assert sorted(reload(tmp_path).requests) == ["req-1", "req-2", "req-3"]


def test_save_state_writes_only_the_policy(tmp_path, desk):
    service, _ = new_domain(desk, tmp_path)
    service.submit_request("scheduler.20250101", ("client",), 3600, b"admin")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    service.policy.approvers = service.policy.approvers | {"auditor"}
    save_state(tmp_path, service)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert {name for name in before if before[name] != after[name]} == {"policy.json"}


def test_save_state_leaves_an_unchanged_policy_untouched(tmp_path, desk, monkeypatch):
    service, _ = new_domain(desk, tmp_path)
    service.submit_request(NODE, ("client",), 3600, b"bootstrap-node-01")
    policy = tmp_path / "policy.json"
    before = policy.stat()
    replaced = []
    monkeypatch.setattr(ibetls.tpkg.storage, "replace_file",
                        lambda path, data: replaced.append(path))
    save_state(tmp_path, service)
    after = policy.stat()
    assert replaced == []
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


@pytest.mark.parametrize("damage", ["garbled", "truncated", "missing"])
def test_save_state_replaces_a_damaged_policy(tmp_path, desk, damage):
    service, _ = new_domain(desk, tmp_path)
    policy = tmp_path / "policy.json"
    good = policy.read_bytes()
    if damage == "garbled":
        policy.write_bytes(good.replace(b"20250101", b"20250102"))
    elif damage == "truncated":
        policy.write_bytes(good[: len(good) // 2])
    else:
        policy.unlink()
    save_state(tmp_path, service)
    assert policy.read_bytes() == good
    assert reload(tmp_path).policy.to_dict() == service.policy.to_dict()


# Each op is (kind, request index); indexes past the end pick the last request.
OPS = st.lists(st.tuples(st.sampled_from(["auto", "manual", "approve", "deny", "issue"]),
                         st.integers(0, 7)), max_size=8)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(ops=OPS)
def test_replayed_journal_matches_memory(desk, ops):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        service, quorum = new_domain(desk, directory)
        for kind, index in ops:
            names = list(service.requests)
            name = names[min(index, len(names) - 1)] if names else "req-1"
            try:
                if kind == "auto":
                    service.submit_request(NODE, ("client",), 3600, b"bootstrap-node-01")
                elif kind == "manual":
                    service.submit_request("scheduler.20250101", ("client",), 3600, b"admin")
                elif kind == "approve":
                    service.approve_request(name, "admin")
                elif kind == "deny":
                    service.deny_request(name, "admin")
                else:
                    service.extract_and_deliver(name, quorum)
            except ibetls.tpkg.TpkgError:
                pass  # a refused transition must leave no trace either
        reloaded = reload(directory)
        assert states(reloaded) == states(service)
        assert reloaded.registry.records == service.registry.records
        later = fixed_clock() + datetime.timedelta(hours=2)
        for clock in (fixed_clock, lambda: later):
            reloaded.clock = service.clock = clock
            assert _validity(reloaded) == _validity(service)


def _validity(service: TpkgService):
    try:
        return service.check_validity(NODE)
    except ibetls.tpkg.UnknownIdentity:
        return None


# ---------------------------------------------------------------------------
# crash injection
# ---------------------------------------------------------------------------


def snapshot(service: TpkgService) -> tuple:
    return states(service), service.registry.records


# (torn journal, last call). A call appends its registry record before its
# request line, so a torn request line follows a complete record, and a torn
# record (registry-approve) comes before a request line never written.
@pytest.mark.parametrize("torn, last", [
    pytest.param("requests.jsonl", "submit", id="submit"),
    pytest.param("requests.jsonl", "approve", id="approve"),
    pytest.param("registry.jsonl", "approve", id="registry-approve"),
    pytest.param("registry.jsonl", "revoke", id="registry-revoke"),
])
def test_torn_journal_tail_loads_old_state_at_every_offset(tmp_path, desk, torn, last):
    """A crash inside an append leaves any prefix of its line. At every cut
    the domain loads as it was before that append, loading writes neither
    journal, and the next append cuts the torn line."""
    service, _ = new_domain(desk, tmp_path)
    pending = service.submit_request("scheduler.20250101", ("client",), 3600, b"admin")
    journal = tmp_path / torn
    other = tmp_path / ("registry.jsonl" if torn == "requests.jsonl" else "requests.jsonl")
    old_bytes, other_before = journal.read_bytes(), other.read_bytes()
    if last == "submit":
        service.submit_request(NODE, ("client",), 3600, b"bootstrap-node-01")
    elif last == "approve":
        service.approve_request(pending.name, "admin")
    else:
        service.revoke_identity(NODE)
    new_bytes = journal.read_bytes()
    other_bytes = other.read_bytes() if torn == "requests.jsonl" else other_before
    other.write_bytes(other_bytes)
    journal.write_bytes(old_bytes)
    old_state = snapshot(reload(tmp_path))
    journal.write_bytes(new_bytes)
    new_state = snapshot(reload(tmp_path))
    assert old_state != new_state

    for cut in range(len(old_bytes), len(new_bytes) + 1):
        journal.write_bytes(new_bytes[:cut])
        other.write_bytes(other_bytes)
        reloaded = reload(tmp_path)
        assert snapshot(reloaded) == (new_state if cut == len(new_bytes) else old_state), cut
        assert (journal.read_bytes(), other.read_bytes()) == (new_bytes[:cut], other_bytes)
        # The next append to each journal cuts a torn line before its own.
        reloaded.revoke_identity("controller-manager.20250101")
        extra = reloaded.submit_request("kube-apiserver.20250101", ("client",), 3600,
                                        b"admin")
        again = reload(tmp_path)
        assert again.registry.verify() is None, cut
        assert snapshot(again) == snapshot(reloaded), cut
        assert again.requests[extra.name].status is RequestStatus.PENDING


def test_append_cuts_only_a_torn_line(tmp_path):
    """Past the length this writer saw, bytes with no newline are an append
    whose writer died holding the lock, and are cut; a complete line or a
    shorter file is another writer's, and nothing is written."""
    path = tmp_path / "journal.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": 2')
    journal = Journal(path)
    assert journal.read() == [{"a": 1}] and journal.size == 9
    assert path.read_bytes() == b'{"a": 1}\n{"b": 2'
    append_line(journal, {"c": 3})
    assert path.read_bytes() == b'{"a": 1}\n{"c": 3}\n' and journal.size == 18
    for changed in (b'{"a": 1}\n{"c": 3}\n{"d": 4}\n{"e"', b'{"a": 1}\n{"c": 3}'):
        path.write_bytes(changed)
        with pytest.raises(JournalConflict):
            append_line(journal, {"f": 6})
        assert path.read_bytes() == changed and journal.size == 18


@pytest.mark.parametrize("call", ["approve", "issue"])
def test_crash_between_registry_record_and_request_line(tmp_path, desk, monkeypatch, call):
    service, quorum = new_domain(desk, tmp_path)
    request = service.submit_request("scheduler.20250101", ("client",), 3600, b"admin")
    if call == "issue":
        service.approve_request(request.name, "admin")
    records_before = len(service.registry.records)

    def crash(path, doc):
        raise OSError("process died after the registry record")

    def run(target):
        if call == "approve":
            target.approve_request(request.name, "admin")
        else:
            target.extract_and_deliver(request.name, quorum)

    with monkeypatch.context() as patch:
        patch.setattr(ibetls.tpkg.service, "append_line", crash)
        with pytest.raises(OSError):
            run(service)

    reloaded = reload(tmp_path)
    assert len(reloaded.registry.records) == records_before + 1
    assert reloaded.requests[request.name].status is service.requests[request.name].status
    run(reloaded)  # the retry succeeds
    final = reload(tmp_path)
    expected = RequestStatus.APPROVED if call == "approve" else RequestStatus.ISSUED
    assert final.requests[request.name].status is expected
    assert final.registry.verify() is None


def test_interrupted_replace_leaves_old_file_loadable(tmp_path, desk, monkeypatch):
    service, _ = new_domain(desk, tmp_path)
    old_policy = (tmp_path / "policy.json").read_bytes()
    service.epoch_increment()

    def interrupted(src, dst):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(ibetls.tpkg.storage.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_state(tmp_path, service)

    assert (tmp_path / "policy.json").read_bytes() == old_policy
    assert reload(tmp_path).policy.current_epoch == "20250101"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "mpk.bin", "policy.json", "registry.jsonl", "requests.jsonl", "shares"]


@pytest.mark.parametrize("damage", ["bad_middle_line", "missing_field", "name_gap",
                                    "usage_string", "float_expiration"])
def test_damaged_journal_is_registry_corruption(tmp_path, desk, damage):
    service, _ = new_domain(desk, tmp_path)
    for _ in range(3):
        service.submit_request("scheduler.20250101", ("client",), 3600, b"admin")
    journal = tmp_path / "requests.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    if damage == "bad_middle_line":
        lines[1] = lines[1][:20] + "\n"
    elif damage == "missing_field":
        doc = json.loads(lines[1])
        del doc["spec"]
        lines[1] = json.dumps(doc) + "\n"
    elif damage in ("usage_string", "float_expiration"):
        # once loaded as usages c,l,i,e,n,t and as 3600 seconds
        doc = json.loads(lines[1])
        if damage == "usage_string":
            doc["spec"]["usage"] = "client"
        else:
            doc["spec"]["expirationSeconds"] = 3600.9
        lines[1] = json.dumps(doc) + "\n"
    else:
        del lines[1]
    journal.write_text("".join(lines))
    with pytest.raises(RegistryCorrupt):
        reload(tmp_path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
# Each journaled field, at the place to_dict writes it.
REQUEST_FIELDS = [("name",), ("principal",), ("status",), ("spec", "issuer"),
                  ("spec", "identity"), ("spec", "usage"), ("spec", "expirationSeconds")]


def test_journal_field_of_any_json_value_loads_unchanged_or_is_corruption(desk):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        service, _ = new_domain(desk, directory)
        for _ in range(3):
            service.submit_request("scheduler.20250101", ("client",), 3600, b"admin")
        journal = directory / "requests.jsonl"
        lines = journal.read_text().splitlines(keepends=True)

        @settings(max_examples=100, derandomize=True, database=None, deadline=None)
        @given(path=st.sampled_from(REQUEST_FIELDS),
               value=JSON_VALUES | st.sampled_from(
                   ["req-2", "Approved", "scheduler.20250102", ["server", "peer"], 60]))
        def check(path, value):
            doc = json.loads(lines[1])
            *parents, key = path
            target = doc
            for parent in parents:
                target = target[parent]
            target[key] = value
            journal.write_text("".join([lines[0], json.dumps(doc) + "\n", *lines[2:]]))
            try:
                reloaded = reload(directory)
            except RegistryCorrupt:
                return
            loaded = reloaded.requests[doc["name"]].to_dict()
            for step in path:
                loaded = loaded[step]
            assert type(loaded) is type(value) and loaded == value

        check()


def sealed_registry(docs: list[dict]) -> str:
    """docs as registry.jsonl, each chained and hashed as Registry.append
    seals a record, whatever the types of their fields."""
    lines, prev = [], GENESIS_PREV
    for doc in docs:
        core = {**doc, "prevHash": prev}
        core.pop("recordHash", None)
        prev = hashlib.sha256(json.dumps(core, sort_keys=True, separators=(",", ":"))
                              .encode()).hexdigest()
        lines.append(json.dumps({**core, "recordHash": prev}, sort_keys=True) + "\n")
    return "".join(lines)


REGISTRY_FIELDS = ["identity", "issuer", "authorizedPrincipal", "issuanceTime",
                   "validityEpoch", "status", "prevHash", "recordHash"]


def test_registry_field_of_any_json_value_loads_unchanged_or_is_corruption(desk):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        service, quorum = new_domain(desk, directory)
        service.revoke_identity("kubelet:node-09.20250101")
        service.issue_direct(IdentityString.parse("scheduler.20250101"), quorum, "operator")
        path = directory / "registry.jsonl"
        docs = [json.loads(line) for line in path.read_text().splitlines()]

        @settings(max_examples=100, derandomize=True, database=None, deadline=None)
        @given(line=st.sampled_from(range(len(docs))), key=st.sampled_from(REGISTRY_FIELDS),
               value=JSON_VALUES | st.sampled_from(
                   ["Revoked", "kubelet:node-07.20250101", "2025-01-02T03:04:05Z"]))
        def check(line, key, value):
            edited = [{**doc, key: value} if i == line else doc for i, doc in enumerate(docs)]
            if key in ("prevHash", "recordHash"):
                # sealing again would overwrite the value under test
                path.write_text("".join(json.dumps(doc, sort_keys=True) + "\n"
                                        for doc in edited))
            else:
                path.write_text(sealed_registry(edited))
            try:
                reloaded = reload(directory)
            except RegistryCorrupt:
                return
            loaded = reloaded.registry.records[line].to_dict()
            assert all(isinstance(field, str) for field in loaded.values())
            assert loaded[key] == value

        check()


SHARE_FIELDS = ["domain", "setId", "index", "value", "threshold"]


def test_share_field_of_any_json_value_loads_unchanged_or_is_skipped(desk):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        new_domain(desk, directory)
        path = directory / "shares" / "node-1.json"
        share = json.loads(path.read_text())
        others = load_readable_shares(directory)[1:]

        @settings(max_examples=100, derandomize=True, database=None, deadline=None)
        @given(key=st.sampled_from(SHARE_FIELDS),
               value=JSON_VALUES | st.sampled_from(
                   ["0x1f", "1F", 7, 1.9, True, "2", "ibe.kubernetes.io/etcd"]))
        def check(key, value):
            path.write_text(json.dumps({**share, key: value}))
            shares = load_readable_shares(directory)
            if shares == others:  # skipped
                return
            loaded = shares[0]
            assert shares[1:] == others
            if key == "value":
                assert isinstance(value, str) and loaded.value == int(value, 16)
            else:
                field = loaded.to_dict()[key]
                assert type(field) is type(value) and field == value

        check()


def test_issue_direct_records_the_key_active(desk, tmp_path):
    service, quorum = new_domain(desk, tmp_path)
    identity = IdentityString.parse("kube-apiserver.20250101")
    key = service.issue_direct(identity, quorum, "operator")
    assert key.identity == identity
    reloaded = reload(tmp_path)
    record = reloaded.registry.records[-1]
    assert record.identity == identity.canonical
    assert (record.status, record.authorized_principal) == ("Active", "operator")
    assert reloaded.check_validity(identity) == "Active"



def test_share_files_from_before_the_fixed_prime_load_and_rebuild(tmp_path, desk):
    # Earlier versions also wrote "nodes" and "prime" into each share file;
    # loading ignores both, and new files no longer carry them.
    service, _ = new_domain(desk, tmp_path)
    for path in (tmp_path / "shares").glob("node-*.json"):
        share = json.loads(path.read_text())
        assert not {"nodes", "prime"} & share.keys()
        path.write_text(json.dumps({**share, "nodes": 3, "prime": hex(PRIME)}))
    shares = load_readable_shares(tmp_path)
    assert len(shares) == 3
    key = reload(tmp_path).issue_direct(IdentityString.parse(NODE), shares[1:], "operator")
    assert key.identity.canonical == NODE
