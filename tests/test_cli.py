import argparse
import contextlib
import itertools
import json
import os
import shlex
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import ibetls.cli
from ibetls.cli import CliConfig, main
from ibetls.kem import NOT_SECURE_BANNER
from ibetls.tpkg import PRIME

from test_storage import sealed_registry


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reasons(err: str) -> list[str]:
    """err's lines without the not-secure banner."""
    return [line for line in err.splitlines() if not line.startswith("! ")]


@pytest.fixture()
def home(tmp_path):
    return tmp_path / "home"


def setup_domain(home, capsys, domain="control-plane"):
    code, out, _ = run_cli([
        "--home", str(home), "tpkg-setup", "--domain", domain,
        "--patterns", "kubelet:*,scheduler,tpkg-register",
        "--auto-approve-template", "kubelet:{subject}",
    ], capsys)
    assert code == 0, out
    return home / "domains" / domain


def test_setup_creates_domain_layout(home, capsys):
    directory = setup_domain(home, capsys)
    assert (directory / "mpk.bin").exists()
    assert (directory / "policy.json").exists()
    assert (directory / "registry.jsonl").exists()
    assert len(list((directory / "shares").glob("node-*.json"))) == 3


def test_setup_without_a_seed_draws_a_fresh_master(tmp_path, capsys):
    # Without --seed, no one can recompute the master from the public code:
    # two default setups differ, from each other and from --seed 1.
    homes = {"first": [], "second": [], "seed-1": ["--seed", "1"]}
    mpks = set()
    for name, seed in homes.items():
        code, _, _ = run_cli(["--home", str(tmp_path / name), "tpkg-setup",
                              "--domain", "d", *seed], capsys)
        assert code == 0
        mpks.add((tmp_path / name / "domains" / "d" / "mpk.bin").read_bytes())
    assert len(mpks) == 3


def test_setup_with_a_seed_is_reproducible(tmp_path, capsys):
    written = []
    for name in ("first", "second"):
        code, _, _ = run_cli(["--home", str(tmp_path / name), "tpkg-setup",
                              "--domain", "d", "--seed", "3"], capsys)
        assert code == 0
        directory = tmp_path / name / "domains" / "d"
        written.append({str(path.relative_to(directory)): path.read_bytes()
                        for path in [directory / "mpk.bin", directory / "policy.json",
                                     *sorted((directory / "shares").iterdir())]})
    assert len(written[0]) == 5 and written[0] == written[1]


def test_setup_refuses_existing_domain(home, capsys):
    setup_domain(home, capsys)
    code, _, err = run_cli([
        "--home", str(home), "tpkg-setup", "--domain", "control-plane",
    ], capsys)
    assert code == 2


def test_setup_failing_at_any_write_leaves_no_domain(tmp_path, capsys, monkeypatch):
    """Fail the N-th file write of tpkg-setup, for every N: a read command then
    finds no domain, and a second setup succeeds."""
    import ibetls.tpkg.storage as storage

    replace_file = storage.replace_file
    written = []
    monkeypatch.setattr(storage, "replace_file",
                        lambda path, data: (written.append(path), replace_file(path, data)))
    setup_domain(tmp_path / "counted", capsys)
    assert len(written) == 7  # mpk.bin, policy.json, three shares, two journals
    for n in range(1, len(written) + 1):
        home, calls = tmp_path / f"home-{n}", []

        def failing(path, data):
            calls.append(path)
            if len(calls) == n:
                raise OSError(28, "No space left on device")
            replace_file(path, data)

        monkeypatch.setattr(storage, "replace_file", failing)
        code, _, err = run_cli(["--home", str(home), "tpkg-setup", "--domain", "control-plane"],
                               capsys)
        assert code == 2 and reasons(err) == ["error: [Errno 28] No space left on device"]
        assert list((home / "domains").iterdir()) == []
        monkeypatch.setattr(storage, "replace_file", replace_file)
        with pytest.raises(SystemExit) as exited:
            main(["--home", str(home), "id-list", "--domain", "control-plane"])
        err = capsys.readouterr().err
        assert exited.value.code == 2 and reasons(err)[0].startswith("no such domain"), n
        setup_domain(home, capsys)
        assert run_cli(["--home", str(home), "id-list", "--domain", "control-plane"],
                       capsys)[0] == 0


# Run the CLI on argv[3:], killed at its N-th file write (argv[2]): a
# replace_file ("replace"), or a journal append ("append") that writes half
# its line first, as a writer that dies inside the append leaves it.
KILLED_AT_WRITE = """
import os, sys
import ibetls.tpkg.registry as registry
import ibetls.tpkg.service as service
import ibetls.tpkg.storage as storage
from ibetls.cli import main

where, n, calls = sys.argv[1], int(sys.argv[2]), []
replace_file, append_line = storage.replace_file, registry.append_line

def killed_replace(path, data):
    calls.append(path)
    if len(calls) == n:
        os._exit(9)
    replace_file(path, data)

def killed_append(journal, doc):
    calls.append(journal.path)
    if len(calls) == n:
        line = registry.json_line(doc).encode()
        with open(journal.path, "ab") as sink:
            sink.write(line[: len(line) // 2])
        os._exit(9)
    append_line(journal, doc)

if where == "replace":
    storage.replace_file = killed_replace
else:
    registry.append_line = service.append_line = killed_append
sys.exit(main(sys.argv[3:]))
"""


def run_killed_at_write(where: str, n: int, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(ibetls.cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", KILLED_AT_WRITE, where, str(n), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_setup_killed_at_any_write_is_cleaned_up_by_the_next(tmp_path, capsys):
    """Kill a tpkg-setup process at its N-th file write, for each of the 7:
    the hidden staging directory it leaves holds the master's shares once
    past the third write. A second setup succeeds and removes it."""
    for n in range(1, 8):
        home = tmp_path / f"home-{n}"
        done = run_killed_at_write("replace", n, ["--home", str(home), "tpkg-setup",
                                                  "--domain", "control-plane"])
        assert done.returncode == 9, done.stderr
        domains = home / "domains"
        assert [path.name.startswith(".control-plane.") for path in domains.iterdir()] \
            == [True], n
        setup_domain(home, capsys)
        assert [path.name for path in domains.iterdir()] == ["control-plane"], n
        assert run_cli(["--home", str(home), "id-list", "--domain", "control-plane"],
                       capsys)[0] == 0


# Each command, and the journal appends it makes: a registry record first,
# then the request line.
KILLED_COMMANDS = {
    "auto-request": (["id-request", "--identity", "kubelet:node-01.20250101",
                      "--subject", "node-01", "--groups", "system:bootstrappers"], 2),
    "manual-request": (["id-request", "--identity", "scheduler.20250101"], 1),
    "approve": (["id-approve", "req-1"], 2),
    "revoke": (["id-revoke", "--identity", "kubelet:node-02.20250101"], 1),
}


@pytest.mark.parametrize("command", KILLED_COMMANDS)
def test_command_killed_inside_any_append_is_retried(tmp_path, capsys, command):
    """Kill the command at its N-th journal append, halfway through the line,
    for every N it reaches. Reading the domain then neither fails nor writes
    a journal, and running the command again succeeds and keeps the chain
    intact: the torn line was a change that never took effect."""
    args, appends = KILLED_COMMANDS[command]
    for n in itertools.count(1):
        home = tmp_path / f"home-{n}"
        directory = setup_domain(home, capsys)
        if command == "approve":
            assert run_cli(["--home", str(home), "id-request", "--domain", "control-plane",
                            "--identity", "scheduler.20250101"], capsys)[0] == 0
        argv = ["--home", str(home), *args, "--domain", "control-plane"]
        done = run_killed_at_write("append", n, argv)
        if done.returncode == 0:
            break
        assert done.returncode == 9, done.stderr
        journals = [(directory / name).read_bytes()
                    for name in ("registry.jsonl", "requests.jsonl")]
        assert not all(data.endswith(b"\n") for data in journals), n
        for reader in ("id-list", "registry-verify"):
            code, _, err = run_cli(["--home", str(home), reader, "--domain", "control-plane"],
                                   capsys)
            assert code == 0, (n, reader, err)
        assert [(directory / name).read_bytes()
                for name in ("registry.jsonl", "requests.jsonl")] == journals, n
        code, _, err = run_cli(argv, capsys)
        assert code == 0, (n, err)
        code, out, _ = run_cli(["--home", str(home), "registry-verify", "--domain",
                                "control-plane"], capsys)
        assert code == 0 and "intact" in out, n
    assert n - 1 == appends


def test_epoch_bump_killed_at_its_write_is_retried(tmp_path, capsys):
    """Kill epoch-bump at its one file write, policy.json's: the domain still
    reads at the old epoch, and running the command again bumps it once."""
    for n in itertools.count(1):
        home = tmp_path / f"home-{n}"
        policy = setup_domain(home, capsys) / "policy.json"
        before = policy.read_bytes()
        argv = ["--home", str(home), "epoch-bump", "--domain", "control-plane"]
        done = run_killed_at_write("replace", n, argv)
        if done.returncode == 0:
            break
        assert done.returncode == 9, done.stderr
        for reader in ("id-list", "registry-verify"):
            code, _, err = run_cli(["--home", str(home), reader, "--domain", "control-plane"],
                                   capsys)
            assert code == 0, (n, reader, err)
        assert policy.read_bytes() == before, n
        assert json.loads(before)["currentEpoch"] == "20250101"
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and out.startswith("epoch now 20250102 "), (n, err)
        assert json.loads(policy.read_text())["epochHistory"] == ["20250101"], n
    assert n - 1 == 1


def serve_killed_at_append(n: int, argv: list[str], result: dict) -> threading.Thread:
    """tpkg-serve on argv, killed inside its N-th journal append, in a thread
    whose CompletedProcess lands in result["done"]."""
    def serve():
        result["done"] = run_killed_at_write("append", n, argv)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


def test_serve_killed_inside_any_append_is_retried(tmp_path, capsys):
    """Kill tpkg-serve halfway through each journal append it makes: the one
    for its endpoint key at startup, and the two of an auto-approved request
    it serves. Reading the domain then neither fails nor writes a journal, a
    restarted tpkg-serve serves the retried request, and the chain holds."""
    for n in itertools.count(1):
        home = tmp_path / f"home-{n}"
        directory = setup_domain(home, capsys)
        port, result = free_port(), {}
        serve_argv = ["--home", str(home), "tpkg-serve", "--domain", "control-plane",
                      "--listen", f"127.0.0.1:{port}", "--max-requests", "1"]
        thread = serve_killed_at_append(n, serve_argv, result)
        if n > 1:  # the endpoint key's append comes before it listens
            deadline = time.time() + 30
            while True:
                code, _, err = run_cli([
                    "--home", str(home), "id-request", "--domain", "control-plane",
                    "--identity", "kubelet:node-05.20250101", "--subject", "node-05",
                    "--groups", "system:bootstrappers", "--remote", f"127.0.0.1:{port}",
                ], capsys)
                if "unreachable: " not in err:
                    break
                assert time.time() < deadline, err
                time.sleep(0.3)
        thread.join(timeout=150)
        done = result["done"]
        if done.returncode == 0:
            assert code == 0, err
            break
        assert done.returncode == 9, done.stderr
        if n > 1:
            assert code == 4 and reasons(err) == ["no response from endpoint"], err
        journals = [(directory / name).read_bytes()
                    for name in ("registry.jsonl", "requests.jsonl")]
        assert not all(data.endswith(b"\n") for data in journals), n
        for reader in ("id-list", "registry-verify"):
            code, _, err = run_cli(["--home", str(home), reader, "--domain", "control-plane"],
                                   capsys)
            assert code == 0, (n, reader, err)
        assert [(directory / name).read_bytes()
                for name in ("registry.jsonl", "requests.jsonl")] == journals, n
        port = free_port()
        thread, server_result = serve_in_thread(home, port, 1)
        assert remote_request(home, port, capsys) == 0, n
        assert json.loads(capsys.readouterr().out)["status"] == 201, n
        thread.join(timeout=30)
        assert not thread.is_alive() and server_result.get("code") == 0, n
        code, out, _ = run_cli(["--home", str(home), "registry-verify", "--domain",
                                "control-plane"], capsys)
        assert code == 0 and "intact" in out, n
    assert n - 1 == 3


@pytest.mark.parametrize("name", ["policy.json", "registry.jsonl", "requests.jsonl"])
def test_domain_missing_a_state_file_is_corrupt(home, capsys, name):
    directory = setup_domain(home, capsys)
    (directory / name).unlink()
    code, out, err = run_cli(["--home", str(home), "id-list", "--domain", "control-plane"],
                             capsys)
    assert code == 5 and out == ""
    assert reasons(err) == [f"CORRUPT: {directory / name}: missing from the domain"]


def test_request_approve_list_flow(home, capsys):
    setup_domain(home, capsys)
    code, out, _ = run_cli([
        "--home", str(home), "id-request", "--domain", "control-plane",
        "--identity", "scheduler.20250101", "--format", "json",
    ], capsys)
    assert code == 0
    name = json.loads(out)["name"]
    assert json.loads(out)["status"] == "Pending"

    code, out, _ = run_cli([
        "--home", str(home), "id-approve", name, "--domain", "control-plane",
    ], capsys)
    assert code == 0 and "Approved" in out

    code, out, _ = run_cli([
        "--home", str(home), "id-list", "--domain", "control-plane",
    ], capsys)
    assert code == 0 and name in out and "Approved" in out


def test_auto_approved_kubelet_request(home, capsys):
    setup_domain(home, capsys)
    code, out, _ = run_cli([
        "--home", str(home), "id-request", "--domain", "control-plane",
        "--identity", "kubelet:node-01.20250101", "--subject", "node-01",
        "--groups", "system:bootstrappers", "--format", "json",
    ], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "Approved"


def test_policy_denial_exit_code(home, capsys):
    setup_domain(home, capsys)
    code, _, err = run_cli([
        "--home", str(home), "id-request", "--domain", "control-plane",
        "--identity", "unlisted.20250101",
    ], capsys)
    assert code == 3 and "denied" in err


def test_epoch_bump_and_registry_verify(home, capsys):
    directory = setup_domain(home, capsys)
    code, out, _ = run_cli([
        "--home", str(home), "epoch-bump", "--domain", "control-plane",
    ], capsys)
    assert code == 0 and "20250102" in out

    code, out, _ = run_cli([
        "--home", str(home), "registry-verify", "--domain", "control-plane",
    ], capsys)
    assert code == 0 and "intact" in out

    # corrupt one byte of the chain on disk -> exit code 5
    path = directory / "registry.jsonl"
    lines = path.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["identity"] = doc["identity"] + "x"
    lines[0] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli([
        "--home", str(home), "registry-verify", "--domain", "control-plane",
    ], capsys)
    assert code == 5 and "CORRUPT" in err


def test_epoch_bump_never_moves_back(home, capsys):
    """An expired epoch cannot return to the window: a bump to an epoch that
    is not later than the current one exits 2 and leaves policy.json as it
    was."""
    code, _, _ = run_cli(["--home", str(home), "tpkg-setup", "--domain", "svc",
                          "--patterns", "svc", "--epoch", "1"], capsys)
    assert code == 0
    bump = ["--home", str(home), "epoch-bump", "--domain", "svc"]
    for _ in range(2):
        assert run_cli(bump, capsys)[0] == 0
    request = ["--home", str(home), "id-request", "--domain", "svc", "--identity", "svc.1"]
    code, _, err = run_cli(request, capsys)
    assert code == 3 and reasons(err) == ["denied: epoch 1 not within the rotation window"]
    policy = home / "domains" / "svc" / "policy.json"
    before = policy.read_bytes()
    for epoch in ("1", "3", "2025-01-01"):
        code, out, err = run_cli([*bump, "--epoch", epoch], capsys)
        assert code == 2 and out == "", epoch
        assert reasons(err) == [f"error: epoch '{epoch}' is not later than the current "
                                f"epoch '3' in the same form"]
        assert policy.read_bytes() == before, epoch
    code, _, err = run_cli(request, capsys)
    assert code == 3 and reasons(err) == ["denied: epoch 1 not within the rotation window"]


def test_concurrent_writer_exits_5_and_leaves_the_home_intact(home, capsys, monkeypatch):
    directory = setup_domain(home, capsys)
    load_domain = ibetls.cli.load_domain

    def load_then_race(*args, **kwargs):
        # another process revokes an identity after this command has loaded
        service = load_domain(*args, **kwargs)
        load_domain(*args, **kwargs).revoke_identity("scheduler.20250101")
        return service

    before = (directory / "requests.jsonl").read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(ibetls.cli, "load_domain", load_then_race)
        code, _, err = run_cli(["--home", str(home), "id-request", "--domain", "control-plane",
                                "--identity", "kubelet:node-01.20250101",
                                "--subject", "node-01", "--groups", "system:bootstrappers"],
                               capsys)
    assert code == 5 and reasons(err)[0].startswith("CONFLICT") and len(reasons(err)) == 1, err
    assert (directory / "requests.jsonl").read_bytes() == before
    code, out, _ = run_cli(["--home", str(home), "registry-verify", "--domain",
                            "control-plane"], capsys)
    assert code == 0 and "intact" in out


def test_torn_or_broken_registry_exits_5_everywhere(home, capsys):
    directory = setup_domain(home, capsys)
    path = directory / "registry.jsonl"
    intact = path.read_bytes()
    # an edit in the middle of an otherwise complete chain (a torn last line
    # is not corruption: test_storage's torn-tail test loads it)
    for node in ("node-08", "node-09"):
        run_cli(["--home", str(home), "id-revoke", "--domain", "control-plane",
                 "--identity", f"kubelet:{node}.20250101"], capsys)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 3
    lines[1] = lines[1].replace("node-08", "node-07")
    path.write_text("".join(lines))
    code, _, err = run_cli(["--home", str(home), "id-list", "--domain", "control-plane"],
                           capsys)
    assert code == 5 and "chain breaks at record 1" in err

    # a field of the wrong type, or a time in another format, in a chain
    # sealed again over it
    docs = [json.loads(line) for line in intact.decode().splitlines()]
    for bad in ({"identity": 5}, {"issuanceTime": "2025-01-02 03:04:05"}):
        path.write_text(sealed_registry([{**docs[0], **bad}, *docs[1:]]))
        for command in ("registry-verify", "id-list"):
            code, _, err = run_cli(["--home", str(home), command, "--domain",
                                    "control-plane"], capsys)
            assert code == 5 and len(reasons(err)) == 1 \
                and reasons(err)[0].startswith("CORRUPT") and "Traceback" not in err, \
                (bad, command)


def test_home_with_old_requests_file_refused(home, capsys):
    directory = setup_domain(home, capsys)
    (directory / "requests.json").write_text("[]\n")
    code, out, err = run_cli(["--home", str(home), "id-list", "--domain", "control-plane"],
                             capsys)
    assert code == 2 and out == ""
    assert "requests.json" in err and len(reasons(err)) == 1


# Every failure ends with its documented exit code and one stderr line (the
# not-secure banner aside), never with a traceback.
@pytest.mark.parametrize("argv, expected", [
    (["id-request", "--domain", "control-plane", "--identity", "no-epoch"], 2),
    (["id-revoke", "--domain", "control-plane", "--identity", "kubelet:node-01"], 2),
    (["tpkg-setup", "--domain", "other", "--usages", "foo"], 2),
    (["tpkg-setup", "--domain", "other", "--threshold", "5"], 2),
    (["tpkg-setup", "--domain", "other", "--epoch", "notanepoch"], 2),
    (["--config", "{tmp}/missing.json", "id-list", "--domain", "control-plane"], 2),
    (["--config", "{tmp}/not-json.json", "id-list", "--domain", "control-plane"], 2),
    (["--config", "{tmp}/profile.json", "tpkg-setup", "--domain", "other"], 2),
    (["--config", "{tmp}/list.json", "id-list", "--domain", "control-plane"], 2),
    (["--config", "{tmp}/home-number.json", "id-list", "--domain", "control-plane"], 2),
    (["registry-verify", "--file", "{tmp}/missing.jsonl"], 2),
    (["demo-k8s", "--seed", "-1"], 2),
    (["id-request", "--domain", "control-plane", "--identity", "kubelet:node-05.20250101",
      "--remote", "127.0.0.1:{closed_port}"], 4),
], ids=["malformed-request-identity", "malformed-revoke-identity", "unknown-usage",
        "threshold-above-nodes", "malformed-epoch", "missing-config", "config-not-json",
        "unknown-profile", "config-not-object", "config-home-not-string",
        "missing-registry-file", "negative-seed", "closed-remote"])
def test_bad_input_exits_with_its_code_and_one_line(home, tmp_path, capsys, argv, expected):
    setup_domain(home, capsys)
    (tmp_path / "not-json.json").write_text("{home:", encoding="utf-8")
    (tmp_path / "profile.json").write_text(json.dumps({"profile": "datacenter"}),
                                           encoding="utf-8")
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
    (tmp_path / "home-number.json").write_text(json.dumps({"home": 5}), encoding="utf-8")
    argv = [arg.format(tmp=tmp_path, closed_port=free_port()) for arg in argv]
    code, _, err = run_cli(["--home", str(home), *argv], capsys)
    assert code == expected and len(reasons(err)) == 1 and "Traceback" not in err, err
    assert not (home / "domains" / "other").exists()


@pytest.mark.parametrize("argv", [
    ["tpkg-setup", "--domain", "other", "--threshold", "5"],
    ["id-request", "--domain", "control-plane", "--identity", "no-epoch"],
    ["id-revoke", "--domain", "control-plane", "--identity", "kubelet:node-01"],
    ["epoch-bump", "--domain", "control-plane", "--epoch", "notanepoch"],
], ids=["threshold-above-nodes", "malformed-request-identity", "malformed-revoke-identity",
        "malformed-epoch"])
def test_failing_command_writes_the_banner_and_one_reason(home, capsys, argv):
    # A separate interpreter, so no test-run warning filter hides a stray line.
    setup_domain(home, capsys)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(ibetls.cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "ibetls.cli", "--home", str(home), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    lines = done.stderr.splitlines()
    assert done.returncode == 2 and len(lines) == 2, done.stderr
    assert lines[0] == f"! {NOT_SECURE_BANNER}" and not lines[1].startswith("! ")


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:40] + bytes([blob[40] ^ 1]) + blob[41:],       # parameter header
    lambda blob: blob[:5000] + bytes([blob[5000] ^ 1]) + blob[5001:],  # master matrix
    lambda blob: blob[:-7],
], ids=["flipped-header-byte", "flipped-matrix-byte", "truncated"])
def test_undecodable_master_public_key_exits_5(home, capsys, damage):
    path = setup_domain(home, capsys) / "mpk.bin"
    path.write_bytes(damage(path.read_bytes()))
    code, out, err = run_cli(["--home", str(home), "id-list", "--domain", "control-plane"],
                             capsys)
    assert code == 5 and out == "" and "Traceback" not in err
    assert len(reasons(err)) == 1 and reasons(err)[0].startswith("CORRUPT: "), err


def test_revoke_then_request_denied(home, capsys):
    setup_domain(home, capsys)
    code, _, _ = run_cli([
        "--home", str(home), "id-revoke", "--domain", "control-plane",
        "--identity", "kubelet:node-09.20250101",
    ], capsys)
    assert code == 0
    code, _, err = run_cli([
        "--home", str(home), "id-request", "--domain", "control-plane",
        "--identity", "kubelet:node-09.20250101", "--subject", "node-09",
        "--groups", "system:bootstrappers",
    ], capsys)
    assert code == 3


def test_revoke_writes_only_the_registry(home, capsys):
    directory = setup_domain(home, capsys)
    before = {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}
    code, _, _ = run_cli(["--home", str(home), "id-revoke", "--domain", "control-plane",
                          "--identity", "kubelet:node-09.20250101"], capsys)
    assert code == 0
    after = {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}
    assert {name for name in after if before.get(name) != after[name]} == {"registry.jsonl"}


def test_revoked_record_naming_a_malformed_identity_exits_5(home, capsys):
    from ibetls.tpkg import load_domain

    directory = setup_domain(home, capsys)
    load_domain(directory).registry.append("kubelet:node-01", "operator",
                                           "2025-01-02T03:04:05Z", "20250101", "Revoked")
    code, out, err = run_cli(["--home", str(home), "id-list", "--domain", "control-plane"],
                             capsys)
    assert code == 5 and out == "" and "Traceback" not in err
    assert len(reasons(err)) == 1 and reasons(err)[0].startswith("CORRUPT: "), err
    assert "bad revoked identity" in err


def test_demo_k8s_deterministic(home, capsys, tmp_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    code, _, _ = run_cli(["demo-k8s", "--seed", "7", "--out", str(out_a)], capsys)
    assert code == 0
    code, _, _ = run_cli(["demo-k8s", "--seed", "7", "--out", str(out_b)], capsys)
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_demo_5g_runs_green(capsys, tmp_path):
    out = tmp_path / "5g.jsonl"
    code, stdout, _ = run_cli(["demo-5g", "--seed", "3", "--out", str(out)], capsys)
    assert code == 0
    entries = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(entry["pass"] for entry in entries)


def test_bench_report_cert_totals_in_range(capsys, tmp_path):
    out = tmp_path / "bench.json"
    code, stdout, _ = run_cli(["bench-report", "--format", "json", "--out", str(out)],
                              capsys)
    assert code == 0
    report = json.loads(out.read_text())
    low, high = report["certBasedModel"]["totalAuthBytesRange"]
    assert (low, high) == (11264, 21504)
    assert 11 * 1024 <= low and high <= 21 * 1024
    ibe = report["ibeTls"]
    assert ibe["kemCiphertextBytes"] == 3 * ibe["ciphertextBytes"]


def test_bench_report_takes_no_seed(capsys):
    # The report holds sizes, counts and the certificate model, which no key
    # changes, so there is no seed to choose.
    with pytest.raises(SystemExit) as exited:
        main(["bench-report", "--seed", "5"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_serve_refuses_without_share_quorum(home, capsys):
    directory = setup_domain(home, capsys)
    # leave fewer than t=2 readable share files
    (directory / "shares" / "node-1.json").write_text("{not json")
    (directory / "shares" / "node-2.json").unlink()
    code, _, err = run_cli([
        "--home", str(home), "tpkg-serve", "--domain", "control-plane",
        "--listen", "127.0.0.1:0", "--max-requests", "1",
    ], capsys)
    assert code == 2 and "refusing to serve" in err


# Each share set that does not rebuild this domain's master, wherever the
# bad share sorts, stops tpkg-serve at startup as corruption.
@pytest.mark.parametrize("damage", ["another-domains-shares", "first-threshold-zero",
                                    "past-the-field", "last-share-foreign"])
def test_serve_refuses_shares_that_do_not_rebuild_the_master(home, capsys, damage):
    shares = setup_domain(home, capsys) / "shares"
    if damage in ("another-domains-shares", "last-share-foreign"):
        # another seed: domains set up from one seed share one master
        run_cli(["--home", str(home), "tpkg-setup", "--domain", "other", "--seed", "2"], capsys)
        other = home / "domains" / "other" / "shares"
        copied = [1, 2, 3] if damage == "another-domains-shares" else [3]
        for index in copied:
            (shares / f"node-{index}.json").write_bytes(
                (other / f"node-{index}.json").read_bytes())
    else:
        # The line through (1, 0) and (2, PRIME - 2**256) is 2**256 at x = 0.
        edits = ({1: {"threshold": 0}} if damage == "first-threshold-zero"
                 else {1: {"value": "0x0"}, 2: {"value": hex(PRIME - 2**256)}})
        for index, fields in edits.items():
            path = shares / f"node-{index}.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))
    code, out, err = run_cli([
        "--home", str(home), "tpkg-serve", "--domain", "control-plane",
        "--listen", "127.0.0.1:0", "--max-requests", "1",
    ], capsys)
    assert code == 5 and out == "" and "Traceback" not in err
    assert len(reasons(err)) == 1 and reasons(err)[0].startswith("CORRUPT: "), err


def free_port():
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    listener.close()
    return port


def serve_in_thread(home, port, max_requests):
    """Start tpkg-serve; the returned dict gets its exit code."""
    result = {}

    def serve():
        result["code"] = main([
            "--home", str(home), "tpkg-serve", "--domain", "control-plane",
            "--listen", f"127.0.0.1:{port}", "--max-requests", str(max_requests),
        ])

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread, result


def connect(port):
    """A raw connection to tpkg-serve, retrying until it listens."""
    deadline = time.time() + 30
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=10)
        except ConnectionRefusedError:
            assert time.time() < deadline, "tpkg-serve did not start"
            time.sleep(0.3)


def remote_request(home, port, capsys, subject="node-05"):
    """Run id-request --remote, retrying until the server listens."""
    deadline = time.time() + 30
    while True:
        code = main([
            "--home", str(home), "id-request", "--domain", "control-plane",
            "--identity", f"kubelet:{subject}.20250101", "--subject", subject,
            "--groups", "system:bootstrappers",
            "--remote", f"127.0.0.1:{port}", "--format", "json",
        ])
        if code != 4:
            return code
        err = capsys.readouterr().err  # drop output from the failed attempt
        assert "unreachable: " in err and time.time() < deadline, err
        time.sleep(0.3)


def test_serve_and_remote_request(home, capsys):
    from ibetls.simnet import component_identity
    from ibetls.tpkg import load_domain

    directory = setup_domain(home, capsys)
    port = free_port()
    thread, server_result = serve_in_thread(home, port, 1)
    code = remote_request(home, port, capsys)
    thread.join(timeout=30)
    out = capsys.readouterr().out
    assert code == 0
    response = json.loads(out)
    assert response["status"] == 201
    assert response["body"]["status"] == "Approved"
    assert server_result.get("code") == 0
    # What the server did is on disk: the request, and the endpoint's own key.
    service = load_domain(directory)
    assert service.get_request(response["body"]["name"]).status.value == "Approved"
    endpoint = component_identity("tpkg-register", service.policy.current_epoch)
    assert service.check_validity(endpoint) == "Active"


def test_serve_refuses_a_revoked_endpoint_identity(home, capsys):
    # A separate process with a timeout: a server that issued itself a key
    # anyway would wait for a connection that never comes.
    setup_domain(home, capsys)
    code, _, _ = run_cli(["--home", str(home), "id-revoke", "--domain", "control-plane",
                          "--identity", "tpkg-register.20250101"], capsys)
    assert code == 0
    env = {**os.environ, "PYTHONPATH": str(Path(ibetls.cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "ibetls.cli", "--home", str(home),
                           "tpkg-serve", "--domain", "control-plane",
                           "--listen", "127.0.0.1:0", "--max-requests", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 3 and "Traceback" not in done.stderr, done.stderr
    assert reasons(done.stderr) == ["denied: tpkg-register is revoked"]


def test_serve_reloads_after_another_writer_and_writes_again(home, capsys):
    from ibetls.tpkg import load_domain

    directory = setup_domain(home, capsys)
    port = free_port()
    thread, server_result = serve_in_thread(home, port, 3)
    assert remote_request(home, port, capsys, subject="node-05") == 0
    assert json.loads(capsys.readouterr().out)["status"] == 201
    # another process appends to the home tpkg-serve has loaded
    code, _, _ = run_cli(["--home", str(home), "id-request", "--domain", "control-plane",
                          "--identity", "kubelet:node-06.20250101", "--subject", "node-06",
                          "--groups", "system:bootstrappers"], capsys)
    assert code == 0
    remote_request(home, port, capsys, subject="node-07")
    refused = json.loads(capsys.readouterr().out)
    assert refused["status"] == 409 and refused["error"]["reason"] == "Conflict"
    # the refusal reloaded the domain, so the same write now goes through
    assert remote_request(home, port, capsys, subject="node-07") == 0
    assert json.loads(capsys.readouterr().out)["status"] == 201
    thread.join(timeout=30)
    assert not thread.is_alive() and server_result.get("code") == 0
    identities = {r.identity.canonical for r in load_domain(directory).list_requests()}
    assert {f"kubelet:node-0{i}.20250101" for i in (5, 6, 7)} <= identities
    code, out, _ = run_cli(["--home", str(home), "registry-verify", "--domain",
                            "control-plane"], capsys)
    assert code == 0 and "intact" in out


def test_live_sessions_draw_fresh_seeds(home, capsys, monkeypatch):
    seeds = []

    def recording(session_class):
        def make(*args, **kwargs):
            seeds.append(args[-1])
            return session_class(*args, **kwargs)
        return make

    monkeypatch.setattr(ibetls.cli, "ServerSession", recording(ibetls.cli.ServerSession))
    monkeypatch.setattr(ibetls.cli, "ClientSession", recording(ibetls.cli.ClientSession))
    setup_domain(home, capsys)
    # Two restarts of the server on one home, the same principal each time.
    for _ in range(2):
        port = free_port()
        thread, server_result = serve_in_thread(home, port, 1)
        remote_request(home, port, capsys)
        thread.join(timeout=30)
        assert not thread.is_alive() and server_result.get("code") == 0
    assert len(seeds) == 4
    assert len(set(seeds)) == 4


def test_serve_drops_silent_connection_and_keeps_serving(home, capsys, monkeypatch):
    monkeypatch.setattr(ibetls.cli, "SERVE_CONNECTION_TIMEOUT", 0.5)
    setup_domain(home, capsys)
    port = free_port()
    thread, server_result = serve_in_thread(home, port, 2)
    silent = connect(port)
    try:
        code = remote_request(home, port, capsys)
    finally:
        silent.close()
    thread.join(timeout=30)
    assert not thread.is_alive()
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["status"] == 201
    assert server_result.get("code") == 0
    assert "failed" in captured.err


def test_serve_drops_dripping_connection_and_keeps_serving(home, capsys, monkeypatch):
    # The timeout bounds the whole connection, not each read: a client that
    # promises a 65,535-byte record and sends one byte every 0.3 s is dropped.
    monkeypatch.setattr(ibetls.cli, "SERVE_CONNECTION_TIMEOUT", 0.5)
    setup_domain(home, capsys)
    port = free_port()
    thread, server_result = serve_in_thread(home, port, 2)
    dripper = connect(port)
    dropped_after = {}

    def drip():
        start = time.monotonic()
        try:
            dripper.sendall(b"\x16\xff\xff")
            for _ in range(40):
                time.sleep(0.3)
                dripper.sendall(b"\x00")
        except OSError:
            dropped_after["seconds"] = time.monotonic() - start

    drip_thread = threading.Thread(target=drip, daemon=True)
    drip_thread.start()
    try:
        code = remote_request(home, port, capsys)
        drip_thread.join(timeout=20)
    finally:
        dripper.close()
    thread.join(timeout=30)
    assert not thread.is_alive() and not drip_thread.is_alive()
    captured = capsys.readouterr()
    assert dropped_after.get("seconds", 99) < 5
    assert code == 0
    assert json.loads(captured.out)["status"] == 201
    assert server_result.get("code") == 0
    assert "failed" in captured.err


def test_token_secret_first_use_agrees_across_threads(tmp_path):
    # Commands that start together on a fresh home each create token.secret;
    # they must all end up with one secret, never an empty or second one.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            config = CliConfig(argparse.Namespace(home=str(tmp_path / f"home{round_}")))
            barrier = threading.Barrier(8)
            secrets = []

            def first_use():
                barrier.wait(timeout=10)
                secrets.append(config.token_secret())

            threads = [threading.Thread(target=first_use) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(secrets) == 8
            assert len(set(secrets)) == 1 and len(secrets[0]) == 32
    finally:
        sys.setswitchinterval(previous)


def test_serve_answers_malformed_body_with_400_and_keeps_serving(home, capsys):
    from ibetls.handshake import ClientSession
    from ibetls.simnet import (
        RecordStream,
        client_handshake_over_stream,
        component_identity,
        stream_recv_message,
        stream_send_message,
    )
    from ibetls.tpkg import load_domain

    directory = setup_domain(home, capsys)
    service = load_domain(directory)
    endpoint = component_identity("tpkg-register", service.policy.current_epoch)
    port = free_port()
    thread, server_result = serve_in_thread(home, port, 3)

    def raw_request(body: bytes, seed: int) -> dict:
        stream = RecordStream(connect(port))
        try:
            session = ClientSession(service.mpk, endpoint, seed.to_bytes(32, "big"))
            assert client_handshake_over_stream(session, stream)
            stream_send_message(session, stream, body)
            return json.loads(stream_recv_message(session, stream).decode())
        finally:
            stream.close()

    for seed, body in enumerate([b"{not json", b"[1, 2]"]):
        response = raw_request(body, seed)
        assert response["status"] == 400
        assert response["error"]["reason"] == "BadRequest"

    code = remote_request(home, port, capsys, subject="node-06")
    thread.join(timeout=30)
    assert not thread.is_alive()
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["status"] == 201
    assert server_result.get("code") == 0


def test_serve_refuses_an_over_cap_message_and_answers_the_client_queued_behind_it(
        home, capsys):
    import struct

    from ibetls.handshake import ClientSession
    from ibetls.simnet import (
        RecordStream,
        client_handshake_over_stream,
        component_identity,
        stream_recv_message,
        stream_send_message,
    )
    from ibetls.simnet.transport import MAX_APP_MESSAGE
    from ibetls.tpkg import load_domain

    directory = setup_domain(home, capsys)
    service = load_domain(directory)
    endpoint = component_identity("tpkg-register", service.policy.current_epoch)
    port = free_port()
    thread, server_result = serve_in_thread(home, port, 2)
    first = RecordStream(connect(port))
    try:
        session = ClientSession(service.mpk, endpoint, bytes(32))
        assert client_handshake_over_stream(session, first)
        # A second client connects while the first holds the serial loop.
        second = RecordStream(connect(port))
        first.send(session.seal_app(struct.pack("!I", MAX_APP_MESSAGE + 1)))
        assert first.recv() is None  # closed, with no reply and no body read
    finally:
        first.close()
    try:
        queued = ClientSession(service.mpk, endpoint, bytes(31) + b"\x01")
        assert client_handshake_over_stream(queued, second)
        stream_send_message(queued, second, b"[1, 2]")
        response = json.loads(stream_recv_message(queued, second).decode())
    finally:
        second.close()
    thread.join(timeout=30)
    assert not thread.is_alive() and server_result.get("code") == 0
    assert response["status"] == 400
    assert "MessageTooLarge" in capsys.readouterr().err


def remote_request_to_fake_endpoint(home, capsys, reply):
    """Run id-request --remote against an endpoint that completes the
    handshake, reads the request and answers with reply(session, stream)."""
    from ibetls.handshake import ServerSession
    from ibetls.simnet import (
        RecordStream,
        component_identity,
        server_handshake_over_stream,
        stream_recv_message,
    )
    from ibetls.tpkg import load_domain, load_readable_shares

    directory = setup_domain(home, capsys)
    service = load_domain(directory)
    endpoint = component_identity("tpkg-register", service.policy.current_epoch)
    key = service.issue_direct(endpoint, load_readable_shares(directory)[:2], "operator")
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def fake_endpoint():
        conn, _ = listener.accept()
        stream = RecordStream(conn)
        with contextlib.closing(stream):
            session = ServerSession(service.mpk, endpoint, key, bytes(32))
            if server_handshake_over_stream(session, stream):
                stream_recv_message(session, stream)
                reply(session, stream)
                stream.recv()  # until the client hangs up

    thread = threading.Thread(target=fake_endpoint, daemon=True)
    thread.start()
    with listener:
        code, _, err = run_cli([
            "--home", str(home), "id-request", "--domain", "control-plane",
            "--identity", "kubelet:node-05.20250101", "--subject", "node-05",
            "--groups", "system:bootstrappers", "--remote", f"127.0.0.1:{port}",
        ], capsys)
        thread.join(timeout=30)
    assert not thread.is_alive()
    return code, err


def test_remote_request_refuses_an_over_cap_reply(home, capsys):
    import struct

    from ibetls.simnet.transport import MAX_APP_MESSAGE

    def declare_too_much(session, stream):
        stream.send(session.seal_app(struct.pack("!I", MAX_APP_MESSAGE + 1)))

    code, err = remote_request_to_fake_endpoint(home, capsys, declare_too_much)
    assert code == 4 and "Traceback" not in err
    assert reasons(err) == [f"refused: peer declared a {MAX_APP_MESSAGE + 1}-byte message; "
                            f"at most {MAX_APP_MESSAGE} bytes are accepted"]


def test_remote_reply_that_is_an_alert_exits_4(home, capsys):
    from ibetls.handshake.wire import AlertCode, alert_record

    code, err = remote_request_to_fake_endpoint(
        home, capsys,
        lambda session, stream: stream.send(alert_record(AlertCode.IBE_AUTH_FAILURE)))
    assert code == 4 and "Traceback" not in err
    assert reasons(err) == ["refused: not an encrypted record"]


@pytest.mark.parametrize("body", [b"[1, 2]", b"\xff\xfe{}", b"{not json"],
                         ids=["json-list", "not-utf8", "not-json"])
def test_remote_reply_that_is_not_a_json_object_exits_4(home, capsys, body):
    from ibetls.simnet import stream_send_message

    code, err = remote_request_to_fake_endpoint(
        home, capsys, lambda session, stream: stream_send_message(session, stream, body))
    assert code == 4 and "Traceback" not in err
    assert reasons(err) == ["endpoint reply is not a JSON object"]


# policy.json edited by hand: each field must have its documented JSON type.
@pytest.mark.parametrize("edit", [
    lambda policy: {},
    lambda policy: {**policy, "identityPatterns": 5},
    lambda policy: {**policy, "autoApprove": "false"},
], ids=["empty-object", "patterns-not-a-list", "auto-approve-a-string"])
def test_malformed_policy_exits_5_and_issues_nothing(home, capsys, edit):
    path = setup_domain(home, capsys) / "policy.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, out, err = run_cli([
        "--home", str(home), "id-request", "--domain", "control-plane",
        "--identity", "kubelet:node-01.20250101", "--subject", "node-01",
        "--groups", "system:bootstrappers",
    ], capsys)
    assert code == 5 and out == "" and "Traceback" not in err
    assert len(reasons(err)) == 1 and reasons(err)[0].startswith("CORRUPT: "), err
    assert (home / "domains" / "control-plane" / "requests.jsonl").read_bytes() == b""


@pytest.mark.parametrize("damage", [
    lambda share: [],
    lambda share: {**share, "nodes": 3, "prime": "0x0"},
], ids=["a-json-list", "a-zero-prime"])
def test_serve_answers_with_one_damaged_share_file(home, capsys, damage):
    path = setup_domain(home, capsys) / "shares" / "node-1.json"
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    port = free_port()
    thread, server_result = serve_in_thread(home, port, 1)
    code = remote_request(home, port, capsys)
    thread.join(timeout=30)
    assert not thread.is_alive() and server_result.get("code") == 0
    assert code == 0 and json.loads(capsys.readouterr().out)["status"] == 201


def test_readme_cli_examples_parse():
    # Each `ibetls ...` line of README's CLI block, continued lines joined,
    # comments and a trailing & dropped, must parse as the CLI reads it.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["ibetls"]]
    assert len(commands) >= 13  # as the block reads now; none would mean a broken split
    parser = ibetls.cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[:-1] if argv[-1] == "&" else argv)
