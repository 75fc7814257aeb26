import argparse
import json
import socket
import sys
import threading
import time

import pytest

import ibetls.cli
from ibetls.cli import CliConfig, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_setup_refuses_existing_domain(home, capsys):
    setup_domain(home, capsys)
    code, _, err = run_cli([
        "--home", str(home), "tpkg-setup", "--domain", "control-plane",
    ], capsys)
    assert code == 2


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
        try:
            return main([
                "--home", str(home), "id-request", "--domain", "control-plane",
                "--identity", f"kubelet:{subject}.20250101", "--subject", subject,
                "--groups", "system:bootstrappers",
                "--remote", f"127.0.0.1:{port}", "--format", "json",
            ])
        except ConnectionRefusedError:
            assert time.time() < deadline, "tpkg-serve did not start"
            capsys.readouterr()  # drop partial output from the failed attempt
            time.sleep(0.3)


def test_serve_and_remote_request(home, capsys):
    setup_domain(home, capsys)
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
