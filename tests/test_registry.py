import json

from ibetls.tpkg import Registry, RegistryRecord, load_chain, verify_chain


def build_chain(n: int) -> Registry:
    registry = Registry("control-plane")
    for i in range(n):
        registry.append(identity=f"svc-{i}.20250101", principal=f"sa-{i}",
                        time_iso="2025-01-01T00:00:00Z", epoch="20250101",
                        status="Active")
    return registry


def test_untampered_chain_verifies():
    registry = build_chain(100)
    assert registry.verify() is None
    assert verify_chain(registry.records) is None


def test_single_field_flip_detected_at_index():
    registry = build_chain(100)
    import dataclasses

    tampered = list(registry.records)
    tampered[42] = dataclasses.replace(tampered[42], identity="svc-42.20250102")
    assert verify_chain(tampered) == 42


def test_hash_byte_flip_detected():
    registry = build_chain(50)
    import dataclasses

    tampered = list(registry.records)
    bad_hash = ("0" if tampered[7].record_hash[0] != "0" else "1") + tampered[7].record_hash[1:]
    tampered[7] = dataclasses.replace(tampered[7], record_hash=bad_hash)
    assert verify_chain(tampered) == 7


def test_reordered_records_break_at_first_swap():
    registry = build_chain(20)
    reordered = list(registry.records)
    reordered[5], reordered[6] = reordered[6], reordered[5]
    assert verify_chain(reordered) == 5


def test_truncation_from_front_detected():
    registry = build_chain(10)
    assert verify_chain(registry.records[1:]) == 0


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "registry.jsonl"
    registry = Registry("etcd", path=path)
    for i in range(10):
        registry.append(f"etcd:node-{i}.1", "op", "2025-01-01T00:00:00Z", "1", "Active")
    loaded = load_chain(path)
    assert [r.record_hash for r in loaded] == [r.record_hash for r in registry.records]
    assert verify_chain(loaded) is None

    # single-bit mutation in the file is detected after reload
    lines = path.read_text().splitlines()
    doc = json.loads(lines[4])
    doc["identity"] = "etcd:node-4.2"
    lines[4] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    assert verify_chain(load_chain(path)) == 4


def test_records_append_only_by_superseding(tmp_path):
    registry = Registry("cp")
    registry.append("web.1", "sa", "2025-01-01T00:00:00Z", "1", "Active")
    registry.append("web.1", "operator", "2025-01-02T00:00:00Z", "1", "Revoked")
    assert registry.verify() is None
    assert registry.records[-1].status == "Revoked"
    assert len(registry.records) == 2  # the Active record is still there


def test_record_hash_covers_every_field():
    base = RegistryRecord(
        identity="a.1", issuer="cp", authorized_principal="sa",
        issuance_time="t", validity_epoch="1", status="Active",
        prev_hash="00" * 32,
    ).seal()
    import dataclasses

    for field_name, new_value in [
        ("identity", "b.1"), ("issuer", "etcd"), ("authorized_principal", "x"),
        ("issuance_time", "t2"), ("validity_epoch", "2"), ("status", "Revoked"),
        ("prev_hash", "11" * 32),
    ]:
        mutated = dataclasses.replace(base, **{field_name: new_value})
        assert mutated.computed_hash() != base.record_hash, field_name
