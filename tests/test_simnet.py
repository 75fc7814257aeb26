import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibetls.handshake import ClientSession, ServerSession, State
from ibetls.kem import MalformedIdentity
from ibetls.simnet import (
    COMPONENT_LINKS,
    DEMO_5G_SCRIPT,
    DEMO_K8S_SCRIPT,
    FiveGSim,
    KubernetesSim,
    TokenAuthority,
    WireCapture,
    component_identity,
    compliance_checklist,
    establish,
    k8s_identity,
    nf_identity,
    run_scenario,
)
from ibetls.simnet.core import first_client_app_record_index


def seed_of(i: int) -> bytes:
    return i.to_bytes(32, "big")


@pytest.fixture(scope="module")
def k8s():
    return KubernetesSim(seed=seed_of(90))


@pytest.fixture(scope="module")
def fiveg():
    sim = FiveGSim(seed=seed_of(91))
    for nf_type, instance in [("AMF", "amf-001"), ("SMF", "smf-001"), ("UDM", "udm-001")]:
        assert sim.register_nf(nf_type, instance)["registered"]
    return sim


# ---------------------------------------------------------------------------
# identity profiles
# ---------------------------------------------------------------------------


def test_k8s_identity_profile():
    ident = k8s_identity("prod-us-west", "payments", "checkout-api", "20250101")
    assert ident.canonical == "prod-us-west.payments.checkout-api.20250101"


def test_nf_identity_profile():
    ident = nf_identity("00101", "AMF", "amf-001", "20250101")
    assert ident.canonical == "00101.AMF.amf-001.20250101"


def test_empty_namespace_rejected():
    with pytest.raises(MalformedIdentity):
        k8s_identity("prod", "", "svc", "20250101")


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------


def test_tokens_validate_and_reject_forgeries():
    authority = TokenAuthority(b"\x01" * 32)
    principal = authority.mint("node-01", {"system:bootstrappers"})
    validated = authority.validate(principal.token)
    assert validated.subject == "node-01"
    assert authority.validate(principal.token[:-1] + b"0") is None
    other = TokenAuthority(b"\x02" * 32)
    assert other.validate(principal.token) is None


# ---------------------------------------------------------------------------
# kubernetes bootstrap
# ---------------------------------------------------------------------------


def test_kubelet_bootstrap_full_flow(k8s):
    report = k8s.bootstrap_kubelet("node-01")
    assert report["issued"] and report["handshake"] == "complete"
    assert report["identity"].startswith("kubelet:node-01.")
    # subsequent connections are mutual IBE-TLS
    connect = k8s.connect("kubelet-node-01", "kube-apiserver")
    assert connect.ok


def test_bootstrap_token_cannot_request_other_identities(k8s):
    from ibetls.simnet.principals import PrincipalKind
    from ibetls.tpkg import identity_request

    domain = k8s.domains["control-plane"]
    handler = k8s._apiserver_handler(domain)
    principal = k8s.tokens.mint("node-66", {"system:bootstrappers"},
                                PrincipalKind.BOOTSTRAP_TOKEN)
    request = identity_request(domain.service.policy.trust_domain,
                               "controller-manager.20250101", ["client"], 3600,
                               principal.token)
    assert handler(request)["status"] == 403


def test_bootstrap_token_cannot_use_other_api_routes(k8s):
    from ibetls.simnet.principals import PrincipalKind
    from ibetls.tpkg import bearer_header

    handler = k8s._apiserver_handler(k8s.domains["control-plane"])
    principal = k8s.tokens.mint("node-66", {"system:bootstrappers"},
                                PrincipalKind.BOOTSTRAP_TOKEN)
    request = {"method": "GET", "path": "/api/v1/pods",
               "authorization": bearer_header(principal.token)}
    assert handler(request)["status"] == 403


def test_impersonated_apiserver_aborts_before_token(k8s):
    report = k8s.bootstrap_kubelet("node-77", fake_apiserver=True)
    assert report["handshake"] == "aborted"
    assert report["token_sent"] is False and report["issued"] is False
    # no protected record ever left the client: the token stayed local
    assert first_client_app_record_index(report["capture"]) is None


def test_bootstrap_token_only_after_server_finished(k8s):
    report = k8s.bootstrap_kubelet("node-88")
    assert report["issued"]
    capture = report["capture"]
    # server's final handshake flight (ServerFinished) is its last protected
    # record before the client sends anything protected
    server_protected = [i for i, rec in enumerate(capture.records)
                        if rec.sender == "server" and rec.content_type == 23]
    first_client_protected = first_client_app_record_index(capture)
    assert first_client_protected is not None
    assert min(server_protected) < first_client_protected
    # the token-bearing request flows strictly after the client Finished
    client_protected = [i for i, rec in enumerate(capture.records)
                        if rec.sender == "client" and rec.content_type == 23]
    assert len(client_protected) >= 2  # Finished, then the API request


# ---------------------------------------------------------------------------
# kubernetes component links
# ---------------------------------------------------------------------------


def test_all_component_pairs_complete(k8s):
    k8s.bootstrap_kubelet("node-01")
    for initiator, responder in COMPONENT_LINKS:
        report = k8s.connect(initiator, responder)
        assert report.ok, (initiator, responder, report.outcome)


def test_no_certificate_bytes_on_any_wire(k8s):
    report = k8s.connect("kube-apiserver", "etcd-server")
    capture = report.connection.capture
    assert set(capture.plaintext_message_types()) <= {1, 2, 6}
    names = {n for _, n, _ in report.connection.client.message_log}
    names |= {n for _, n, _ in report.connection.server.message_log}
    assert not names & {"Certificate", "CertificateRequest", "CertificateVerify"}


def test_trust_domain_isolation_all_pairs(k8s):
    # A key issued by one domain never completes against a peer expecting a
    # different domain's trust anchor: a session refuses to hold it under
    # that anchor, and a server that runs under its own domain aborts.
    domains = list(k8s.domains)
    for issuing, expecting in itertools.permutations(domains, 2):
        issuer = k8s.domains[issuing]
        verifier = k8s.domains[expecting]
        identity = component_identity("cross-domain-test", issuer.current_epoch)
        wrong_key = issuer.service.issue_direct(identity, issuer.quorum(), "cluster-bootstrap")
        with pytest.raises(ValueError):
            ServerSession(verifier.mpk, identity, wrong_key, seed_of(7500))
        client = ClientSession(verifier.mpk, identity, seed_of(7000 + hash((issuing, expecting)) % 1000))
        server = ServerSession(issuer.mpk, identity, wrong_key, seed_of(7500))
        conn = establish(client, server, WireCapture())
        assert not conn.ok, (issuing, expecting)


def test_rotation_window_scenario():
    sim = KubernetesSim(seed=seed_of(92))
    report = sim.rotate_epoch_scenario()
    assert report["bootstrap"] is True
    assert report["connect_same_epoch"] is True
    assert report["connect_in_window"] is True          # e and e+1 interoperate
    assert report["new_epoch_bootstrap"] is True
    assert report["new_epoch_connect"] is True
    assert report["revoked_in_window"] == "refused:revoked"
    assert report["connect_after_window"] == "refused:stale-epoch"


# ---------------------------------------------------------------------------
# 5G flows
# ---------------------------------------------------------------------------


def test_nf_register_discover_connect(fiveg):
    response = fiveg.discover("smf-001", "nudm-sdm")
    assert response["status"] == 200
    profile = response["body"]
    assert profile["identity"].startswith("00101.UDM.udm-001.")
    assert profile["identity"].endswith(fiveg.domain.current_epoch)
    report = fiveg.connect("smf-001", "nudm-sdm")
    assert report.ok


def test_discover_unknown_service(fiveg):
    response = fiveg.discover("smf-001", "nxxx-nothing")
    assert response["status"] == 404
    assert response["error"]["reason"] == "UnknownService"
    report = fiveg.connect("smf-001", "nxxx-nothing")
    assert report.outcome == "refused:UnknownService"


def test_registration_carries_no_certificate(fiveg):
    report = fiveg.register_nf("PCF", "pcf-900")
    assert report["registered"]
    capture = report["capture"]
    assert set(capture.plaintext_message_types()) <= {1, 2, 6}


def test_revoked_nf_fails_at_finished():
    sim = FiveGSim(seed=seed_of(93))
    sim.register_nf("AMF", "amf-001")
    sim.register_nf("UDM", "udm-001")
    assert sim.connect("amf-001", "nudm-sdm").ok

    sim.revoke("UDM", "udm-001")
    sim.rotate(reregister=("amf-001",))  # honest NFs rotate; the revoked one cannot
    report = sim.connect("amf-001", "nudm-sdm")
    assert report.outcome == "aborted"  # possession of the old key is not enough
    assert report.connection.client.state is State.ABORTED


def test_revoked_nf_cannot_reregister():
    sim = FiveGSim(seed=seed_of(94))
    sim.register_nf("UDM", "udm-001")
    sim.revoke("UDM", "udm-001")
    report = sim.register_nf("UDM", "udm-001")
    assert not report["registered"]
    assert report["reason"] == "IdentityRevoked"


def test_ts33501_checklist():
    sim = FiveGSim(seed=seed_of(95))
    rows = compliance_checklist(sim)
    assert len(rows) == 6
    assert all(row["satisfied"] for row in rows), rows
    assert {row["clause"] for row in rows} == {"13.1", "13.2.1", "13.2.2", "13.2.3",
                                               "13.3", "5.9.2"}


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------


def test_demo_k8s_scenario_passes_and_covers_all_links():
    log = run_scenario(DEMO_K8S_SCRIPT, seed=5)
    assert log.all_ok
    connected = {(e["detail"]["initiator"], e["detail"]["responder"])
                 for e in log.entries if e["op"] == "connect" and e["outcome"] == "ok"}
    assert set(COMPONENT_LINKS) <= connected


def test_demo_5g_scenario_passes():
    log = run_scenario(DEMO_5G_SCRIPT, seed=5)
    assert log.all_ok
    ops = [e["op"] for e in log.entries]
    for op in ("register", "discover", "connect", "revoke", "rotate", "verify_registry"):
        assert op in ops


def test_scenarios_deterministic_per_seed():
    for script in (DEMO_K8S_SCRIPT, DEMO_5G_SCRIPT):
        first = run_scenario(script, seed=21).to_jsonl()
        second = run_scenario(script, seed=21).to_jsonl()
        third = run_scenario(script, seed=22).to_jsonl()
        assert first == second
        assert first != third


def test_mutual_handshake_over_tcp_sockets(mpk, server_identity, server_key,
                                           client_identity, client_key):
    import socket
    import threading

    from ibetls.simnet import (
        RecordStream,
        client_handshake_over_stream,
        server_handshake_over_stream,
        stream_recv_message,
        stream_send_message,
    )

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    result = {}

    def serve():
        conn, _ = listener.accept()
        stream = RecordStream(conn)
        session = ServerSession(mpk, server_identity, server_key, seed_of(801),
                                mutual=True)
        result["server_ok"] = server_handshake_over_stream(session, stream)
        if result["server_ok"]:
            request = stream_recv_message(session, stream)
            stream_send_message(session, stream, b"echo:" + request)
        stream.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()

    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    stream = RecordStream(sock)
    session = ClientSession(mpk, server_identity, seed_of(800),
                            own_identity=client_identity, own_key=client_key,
                            mutual=True)
    assert client_handshake_over_stream(session, stream)
    stream_send_message(session, stream, b"over tcp")
    reply = stream_recv_message(session, stream)
    stream.close()
    thread.join(timeout=20)
    listener.close()
    assert reply == b"echo:over tcp"
    assert result["server_ok"]


def test_record_stream_sets_nodelay_on_tcp_only():
    import socket

    from ibetls.simnet import RecordStream

    # A flight is sent one record per send; Nagle would hold back the second.
    with socket.create_server(("127.0.0.1", 0)) as listener, \
            socket.create_connection(listener.getsockname(), timeout=10) as sock:
        RecordStream(sock)
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    left, right = socket.socketpair()  # AF_UNIX: no TCP options to set
    with left, right:
        RecordStream(left).send(b"\x17\x00\x02hi")
        assert RecordStream(right).recv() == b"\x17\x00\x02hi"


def test_over_cap_message_refused_before_its_body_is_read(mpk, server_identity, server_key):
    import socket
    import struct

    from ibetls.simnet import MessageTooLarge, RecordStream, stream_recv_message
    from ibetls.simnet.transport import MAX_APP_MESSAGE

    conn = establish(ClientSession(mpk, server_identity, seed_of(810)),
                     ServerSession(mpk, server_identity, server_key, seed_of(811)))
    assert conn.ok
    header = conn.client.seal_app(struct.pack("!I", MAX_APP_MESSAGE + 1))
    body = conn.client.seal_app(bytes(1000))
    left, right = socket.socketpair()
    with left, right:
        right.settimeout(10)  # without the cap the receiver waits for the body
        left.sendall(header + body)
        with pytest.raises(MessageTooLarge):
            stream_recv_message(conn.server, RecordStream(right))
        right.setblocking(False)
        assert right.recv(len(body) + 1) == body  # still unread


@settings(deadline=None, max_examples=60, derandomize=True)
@given(messages=st.lists(st.binary(max_size=200), min_size=1, max_size=4),
       cuts=st.lists(st.integers(1, 4 * 204)))
def test_reassembly_returns_each_message_however_its_records_split(messages, cuts):
    import struct

    from ibetls.simnet.transport import _Reassembler

    stream = b"".join(struct.pack("!I", len(message)) + message for message in messages)
    bounds = sorted({0, len(stream), *(cut for cut in cuts if cut < len(stream))})
    ends = list(itertools.accumulate(4 + len(message) for message in messages))
    reassembler = _Reassembler()
    got = []
    for a, b in zip(bounds, bounds[1:]):
        message = reassembler.push(stream[a:b])
        while message is not None:
            got.append(message)
            message = reassembler.pop()
        # every message whose last byte has arrived is out, with no further push
        assert got == messages[:sum(end <= b for end in ends)]
    assert got == messages


def test_two_messages_sealed_in_one_record_both_arrive(mpk, server_identity, server_key):
    import socket
    import struct

    from ibetls.simnet import RecordStream, stream_recv_message

    conn = establish(ClientSession(mpk, server_identity, seed_of(820)),
                     ServerSession(mpk, server_identity, server_key, seed_of(821)))
    assert conn.ok
    both = b"".join(struct.pack("!I", len(m)) + m for m in (b"first", b"second"))
    left, right = socket.socketpair()
    with left, right:
        right.settimeout(2)  # no further record comes: a wait for one times out
        left.sendall(conn.client.seal_app(both))
        stream = RecordStream(right)
        assert stream_recv_message(conn.server, stream) == b"first"
        assert stream_recv_message(conn.server, stream) == b"second"


def test_reassembly_cap_is_checked_on_the_length_alone():
    import struct

    from ibetls.simnet import MessageTooLarge
    from ibetls.simnet.transport import MAX_APP_MESSAGE, _Reassembler

    assert _Reassembler().push(struct.pack("!I", MAX_APP_MESSAGE)) is None
    too_long = struct.pack("!I", MAX_APP_MESSAGE + 1)
    reassembler = _Reassembler()
    assert reassembler.push(too_long[:3]) is None
    with pytest.raises(MessageTooLarge):
        reassembler.push(too_long[3:])


def test_scenario_from_json_file(tmp_path):
    import json

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "kind": "5g",
        "steps": [
            {"op": "register", "nfType": "AMF", "instance": "amf-001", "expect": "ok"},
            {"op": "discover", "requester": "amf-001", "service": "nnrf-disc",
             "expect": "ok"},
        ],
    }))
    log = run_scenario(json.loads(path.read_text()), seed=3)
    assert log.all_ok
