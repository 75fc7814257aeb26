import base64
import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibetls.kem import IdentityString, decode_private_key, derive_public, encode_private_key, scheme
from ibetls.kem.scheme import _trapdoor_public
from ibetls.tpkg import (
    IDENTITYREQUESTS_PATH,
    AlreadyIssued,
    ApiServer,
    ApprovalNotAuthorized,
    BlocklistedIdentity,
    EpochExpired,
    InvalidTransition,
    IssuerPolicy,
    PolicyViolation,
    Principal,
    RequestStatus,
    ShareMismatch,
    ThresholdNotMet,
    TpkgService,
    UnauthenticatedPrincipal,
    UnknownIdentity,
    bearer_header,
    load_domain,
    load_readable_shares,
    save_domain,
)

TOKENS = {
    b"bootstrap-node-01": Principal("node-01", frozenset({"system:bootstrappers"}), "BootstrapToken"),
    b"sa-checkout": Principal("checkout-api", frozenset({"system:serviceaccounts"})),
    b"admin": Principal("admin", frozenset({"system:masters"})),
}


def authenticator(token: bytes):
    return TOKENS.get(token)


def fixed_clock():
    return datetime.datetime(2025, 1, 2, 3, 4, 5, tzinfo=datetime.timezone.utc)


def make_policy(**overrides) -> IssuerPolicy:
    defaults = dict(
        trust_domain="ibe.kubernetes.io/apiserver",
        identity_patterns=("kubelet:*", "kube-apiserver", "scheduler", "controller-manager"),
        permitted_usages=frozenset({"client", "server"}),
        max_expiration_seconds=30 * 86400,
        current_epoch="20250101",
        rotation_window=1,
        auto_approve=True,
        principal_template="kubelet:{subject}",
        approvers=frozenset({"admin"}),
    )
    defaults.update(overrides)
    return IssuerPolicy(**defaults)


def make_domain(desk):
    return TpkgService.setup_domain(
        domain="ibe.kubernetes.io/apiserver",
        params=desk,
        n_nodes=3,
        threshold=2,
        seed=b"\x10" * 32,
        policy=make_policy(),
        authenticator=authenticator,
        clock=fixed_clock,
    )


@pytest.fixture()
def domain(desk):
    return make_domain(desk)


# ---------------------------------------------------------------------------
# setup and quorum
# ---------------------------------------------------------------------------


def test_setup_produces_three_shares_and_genesis(domain):
    service, shares = domain
    assert len(shares.shares) == 3 and {share.threshold for share in shares.shares} == {2}
    assert service.registry.records[0].identity.endswith("/genesis")
    assert service.registry.verify() is None


def test_setup_threshold_exceeding_nodes_rejected(desk):
    with pytest.raises(ValueError):
        TpkgService.setup_domain(
            domain="x", params=desk, n_nodes=3, threshold=4, seed=bytes(32),
            policy=make_policy(),
        )


def test_quorum_reconstruct_requires_threshold(domain):
    service, shares = domain
    with pytest.raises(ThresholdNotMet):
        with service.reconstructed_master(list(shares.shares[:1])):
            pass
    # any two shares re-derive a master that matches the published mpk
    for pair in ([0, 1], [1, 2], [0, 2]):
        with service.reconstructed_master([shares.shares[i] for i in pair]) as msk:
            assert np.array_equal(_trapdoor_public(service.mpk.params, msk.a_bar, msk.R),
                                  service.mpk.A)


def test_quorum_zeroizes_on_exit(domain):
    service, shares = domain
    with service.reconstructed_master(list(shares.shares[:2])) as msk:
        held = msk
    assert not held.R.any() and not held.a_bar.any()


def test_mixed_domain_shares_rejected(desk, domain, monkeypatch):
    service, shares = domain
    other, other_shares = TpkgService.setup_domain(
        domain="ibe.kubernetes.io/etcd", params=desk, n_nodes=3, threshold=2,
        seed=b"\x22" * 32, policy=make_policy(trust_domain="ibe.kubernetes.io/etcd",
                                              identity_patterns=("etcd:*",)),
    )
    with pytest.raises(ShareMismatch):
        with service.reconstructed_master([shares.shares[0], other_shares.shares[1]]):
            pass
    # a full foreign quorum is also rejected: its a_bar is not mpk's left
    # block, and what it derived is wiped before ShareMismatch leaves
    derived = []
    master_secret = scheme._master_secret

    def recording(params, seed):
        arrays = master_secret(params, seed)
        derived.append(arrays)
        return arrays

    monkeypatch.setattr(scheme, "_master_secret", recording)
    with pytest.raises(ShareMismatch):
        with service.reconstructed_master(list(other_shares.shares[:2])):
            pass
    [(a_bar, R)] = derived
    assert a_bar.shape == (desk.n, desk.m_bar) and R.shape == (desk.m_bar, desk.n * desk.k)
    assert not a_bar.any() and not R.any()


# ---------------------------------------------------------------------------
# request workflow
# ---------------------------------------------------------------------------


def test_kubelet_bootstrap_auto_approved(domain):
    service, _ = domain
    request = service.submit_request(
        identity="kubelet:node-01.20250101",
        usage=("client", "server"),
        expiration_seconds=86400,
        principal_token=b"bootstrap-node-01",
    )
    assert request.status is RequestStatus.APPROVED
    assert request.to_dict()["spec"]["expirationSeconds"] == 86400


def test_bootstrap_cannot_request_control_plane_identity(domain):
    service, _ = domain
    # pattern matches, but the auto-approve template does not: stays Pending
    pending = service.submit_request("kubelet:node-99.20250101", ("client",), 3600,
                                     b"bootstrap-node-01")
    assert pending.status is RequestStatus.PENDING
    # outside the issuer patterns entirely: refused
    with pytest.raises(PolicyViolation):
        service.submit_request("etcd:node-1.20250101", ("client",), 3600,
                               b"bootstrap-node-01")


def test_unauthenticated_principal_rejected(domain):
    service, _ = domain
    with pytest.raises(UnauthenticatedPrincipal):
        service.submit_request("kubelet:node-01.20250101", ("client",), 3600, b"bogus")


def test_future_epoch_rejected(domain):
    service, _ = domain
    with pytest.raises(EpochExpired):
        service.submit_request("kubelet:node-01.20990101", ("client",), 3600,
                               b"bootstrap-node-01")


def test_usage_and_expiration_policy(domain):
    service, _ = domain
    with pytest.raises(PolicyViolation):
        service.submit_request("kubelet:node-01.20250101", ("peer",), 3600,
                               b"bootstrap-node-01")
    with pytest.raises(PolicyViolation):
        service.submit_request("kubelet:node-01.20250101", ("client",),
                               365 * 86400, b"bootstrap-node-01")


def test_approval_state_machine(domain):
    service, shares = domain
    pending = service.submit_request("scheduler.20250101", ("client",), 3600, b"admin")
    assert pending.status is RequestStatus.PENDING
    approved = service.approve_request(pending.name, "admin")
    assert approved.status is RequestStatus.APPROVED
    with pytest.raises(InvalidTransition):
        service.approve_request(pending.name, "admin")

    denied = service.submit_request("controller-manager.20250101", ("client",), 3600, b"admin")
    service.deny_request(denied.name, "admin")
    with pytest.raises(InvalidTransition):
        service.approve_request(denied.name, "admin")
    with pytest.raises(InvalidTransition):
        service.extract_and_deliver(denied.name, list(shares.shares[:2]))


def test_approver_must_be_authorized(domain):
    service, _ = domain
    pending = service.submit_request("scheduler.20250101", ("client",), 3600, b"admin")
    with pytest.raises(ApprovalNotAuthorized):
        service.approve_request(pending.name, "node-01")


def test_extract_and_deliver_key_verifies(domain):
    service, shares = domain
    request = service.submit_request("kubelet:node-01.20250101", ("client", "server"),
                                     86400, b"bootstrap-node-01")
    delivery = service.extract_and_deliver(request.name, list(shares.shares[1:3]))
    sk = delivery.private_key
    U = derive_public(service.mpk, delivery.identity).U
    prod = (service.mpk.A.astype(np.float64) @ sk.X.astype(np.float64)).astype(np.int64) % service.mpk.params.q
    assert np.array_equal(prod, U)
    assert delivery.expiration == fixed_clock() + datetime.timedelta(seconds=86400)
    # one-shot issuance
    with pytest.raises(AlreadyIssued):
        service.extract_and_deliver(request.name, list(shares.shares[:2]))


def test_delivery_json_field_names(domain):
    service, shares = domain
    request = service.submit_request("kubelet:node-02.20250101", ("client",), 86400,
                                     b"admin")
    service.approve_request(request.name, "admin")
    doc = service.extract_and_deliver(request.name, list(shares.shares[:2])).to_json_dict()
    assert set(doc) == {"identity", "privateKey", "mpk", "expiration"}
    assert doc["identity"] == "kubelet:node-02.20250101"
    decoded = decode_private_key(base64.b64decode(doc["privateKey"]))
    assert decoded.identity.canonical == "kubelet:node-02.20250101"
    assert doc["expiration"].endswith("Z")


def test_threshold_not_met_at_delivery(domain):
    service, shares = domain
    request = service.submit_request("kubelet:node-03.20250101", ("client",), 3600,
                                     b"admin")
    service.approve_request(request.name, "admin")
    with pytest.raises(ThresholdNotMet):
        service.extract_and_deliver(request.name, list(shares.shares[:1]))


# ---------------------------------------------------------------------------
# lifecycle: epochs, revocation, validity
# ---------------------------------------------------------------------------


def test_epoch_window_accept_and_reject(domain):
    service, shares = domain
    service.epoch_increment()  # 20250101 -> 20250102
    assert service.policy.current_epoch == "20250102"
    # previous epoch still within rotation_window=1
    request = service.submit_request("kubelet:node-01.20250101", ("client",), 3600,
                                     b"bootstrap-node-01")
    delivery = service.extract_and_deliver(request.name, list(shares.shares[:2]))
    assert delivery.identity.epoch == "20250101"

    service.epoch_increment()  # second bump pushes 20250101 out of the window
    with pytest.raises(EpochExpired):
        service.submit_request("kubelet:node-04.20250101", ("client",), 3600,
                               b"admin")


def test_epoch_expiry_between_approval_and_delivery(domain):
    service, shares = domain
    request = service.submit_request("kubelet:node-05.20250101", ("client",), 3600,
                                     b"admin")
    service.approve_request(request.name, "admin")
    service.epoch_increment()
    service.epoch_increment()
    with pytest.raises(EpochExpired):
        service.extract_and_deliver(request.name, list(shares.shares[:2]))


@pytest.fixture(scope="module")
def epoch_service(desk):
    return make_domain(desk)[0]


# An epoch as (form, value) and as written: integers with or without leading
# zeros, and dates.
tagged_epochs = (
    st.tuples(st.integers(0, 40), st.integers(0, 2)).map(
        lambda nw: (("int", nw[0]), str(nw[0]).zfill(nw[1])))
    | st.dates(datetime.date(2024, 12, 25), datetime.date(2025, 1, 8)).map(
        lambda day: (("date", day), day.isoformat()))
)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(current=tagged_epochs, new=tagged_epochs)
def test_epoch_bump_accepted_exactly_when_the_new_epoch_is_later(epoch_service, current, new):
    (current_key, current_text), (new_key, new_text) = current, new
    epoch_service.policy = make_policy(current_epoch=current_text, epoch_history=["3"])
    before = epoch_service.policy.to_dict()
    later = current_key[0] == new_key[0] and new_key[1] > current_key[1]
    if later:
        assert epoch_service.epoch_increment(new_text) == new_text
        assert epoch_service.policy.valid_epochs() == [new_text, current_text]
    else:
        with pytest.raises(ValueError):
            epoch_service.epoch_increment(new_text)
        assert epoch_service.policy.to_dict() == before


def test_revocation_blocks_issuance_regardless_of_epoch(domain):
    service, shares = domain
    service.revoke_identity("kubelet:node-01.20250101")
    with pytest.raises(BlocklistedIdentity):
        service.submit_request("kubelet:node-01.20250101", ("client",), 3600,
                               b"bootstrap-node-01")
    service.epoch_increment()
    with pytest.raises(BlocklistedIdentity):
        service.submit_request("kubelet:node-01.20250102", ("client",), 3600,
                               b"bootstrap-node-01")


# issue_direct extracts every key, out of band too, so it refuses on its own,
# before the quorum rebuilds the master and before the registry records it.
@pytest.mark.parametrize("identity, refusal", [
    ("scheduler.20250101", BlocklistedIdentity),
    ("kube-apiserver.20241231", EpochExpired),
], ids=["revoked-base", "epoch-outside-window"])
def test_issue_direct_refuses_before_any_rebuild(domain, monkeypatch, identity, refusal):
    service, shares = domain
    service.revoke_identity("scheduler.20250101")
    records = list(service.registry.records)

    def rebuild(quorum):
        raise AssertionError("the quorum rebuilt the master")

    monkeypatch.setattr(service, "reconstructed_master", rebuild)
    with pytest.raises(refusal):
        service.issue_direct(IdentityString.parse(identity), list(shares.shares[:2]),
                             "operator")
    assert service.registry.records == records


def test_check_validity_lifecycle(domain):
    service, shares = domain
    request = service.submit_request("kubelet:node-01.20250101", ("client",), 86400,
                                     b"bootstrap-node-01")
    service.extract_and_deliver(request.name, list(shares.shares[:2]))
    assert service.check_validity("kubelet:node-01.20250101") == "Active"

    service.epoch_increment()
    assert service.check_validity("kubelet:node-01.20250101") == "Active"  # in window
    service.epoch_increment()
    assert service.check_validity("kubelet:node-01.20250101") == "Expired"

    service.revoke_identity("kubelet:node-01.20250101")
    assert service.check_validity("kubelet:node-01.20250101") == "Revoked"

    with pytest.raises(UnknownIdentity):
        service.check_validity("kubelet:never-issued.20250101")


def test_time_based_expiry(domain):
    service, shares = domain
    request = service.submit_request("kubelet:node-01.20250101", ("client",), 3600,
                                     b"bootstrap-node-01")
    service.extract_and_deliver(request.name, list(shares.shares[:2]))
    assert service.check_validity("kubelet:node-01.20250101") == "Active"
    service.clock = lambda: fixed_clock() + datetime.timedelta(seconds=7200)
    assert service.check_validity("kubelet:node-01.20250101") == "Expired"


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_no_key_material_in_domain_storage(tmp_path, domain):
    service, shares = domain
    request = service.submit_request("kubelet:node-01.20250101", ("client",), 86400,
                                     b"bootstrap-node-01")
    delivery = service.extract_and_deliver(request.name, list(shares.shares[:2]))
    save_domain(tmp_path, service, shares)

    key_blob = encode_private_key(delivery.private_key)
    key_b64 = base64.b64encode(key_blob)
    for path in tmp_path.rglob("*"):
        if path.is_file():
            blob = path.read_bytes()
            assert key_blob not in blob, path
            assert key_b64 not in blob, path
            # the raw preimage coefficients never appear either
            assert delivery.private_key.X.astype("<i8").tobytes() not in blob, path


def test_domain_save_load_round_trip(tmp_path, domain):
    service, shares = domain
    service.submit_request("kubelet:node-01.20250101", ("client",), 86400,
                           b"bootstrap-node-01")
    save_domain(tmp_path, service, shares)
    assert len(load_readable_shares(tmp_path)) == 3

    reloaded = load_domain(tmp_path, authenticator=authenticator, clock=fixed_clock)
    assert reloaded.mpk.params_hash == service.mpk.params_hash
    assert reloaded.policy.trust_domain == service.policy.trust_domain
    assert reloaded.registry.verify() is None
    quorum = load_readable_shares(tmp_path)[:2]
    with reloaded.reconstructed_master(quorum) as msk:
        assert np.array_equal(_trapdoor_public(reloaded.mpk.params, msk.a_bar, msk.R),
                              reloaded.mpk.A)


# ---------------------------------------------------------------------------
# JSON API surface
# ---------------------------------------------------------------------------


def test_api_server_flow(domain):
    service, shares = domain
    api = ApiServer(service, shares_provider=lambda: list(shares.shares[:2]))
    token = base64.b64encode(b"bootstrap-node-01").decode()

    response = api.handle({
        "method": "POST",
        "path": "/apis/security.k8s.io/v1alpha1/identityrequests",
        "authorization": f"Bearer {token}",
        "body": {"spec": {
            "issuer": "ibe.kubernetes.io/apiserver",
            "identity": "kubelet:node-01.20250101",
            "usage": ["client", "server"],
            "expirationSeconds": 86400,
        }},
    })
    assert response["status"] == 201
    assert response["body"]["status"] == "Approved"
    name = response["body"]["name"]

    listing = api.handle({"method": "GET", "path": "/identityrequests"})
    assert any(item["name"] == name for item in listing["body"]["items"])

    key_response = api.handle({"method": "POST", "path": f"/identityrequests/{name}/key"})
    assert key_response["status"] == 200
    assert set(key_response["body"]) == {"identity", "privateKey", "mpk", "expiration"}

    again = api.handle({"method": "POST", "path": f"/identityrequests/{name}/key"})
    assert again["status"] == 409 and again["error"]["reason"] == "AlreadyIssued"


def test_api_error_mapping(domain):
    service, shares = domain
    api = ApiServer(service, shares_provider=lambda: list(shares.shares[:2]))
    token = base64.b64encode(b"bootstrap-node-01").decode()

    denied = api.handle({
        "method": "POST", "path": "/identityrequests",
        "authorization": f"Bearer {token}",
        "body": {"spec": {"identity": "etcd:node-1.20250101", "usage": ["client"],
                          "expirationSeconds": 3600}},
    })
    assert denied["status"] == 403

    unauth = api.handle({
        "method": "POST", "path": "/identityrequests",
        "authorization": "Bearer " + base64.b64encode(b"nope").decode(),
        "body": {"spec": {"identity": "kubelet:node-01.20250101", "usage": ["client"],
                          "expirationSeconds": 3600}},
    })
    assert unauth["status"] == 401

    missing = api.handle({"method": "POST", "path": "/identityrequests/req-999/approve",
                          "body": {"approver": "admin"}})
    assert missing["status"] == 404


def test_api_deny_route(domain):
    service, shares = domain
    api = ApiServer(service, shares_provider=lambda: list(shares.shares[:2]))
    token = base64.b64encode(b"admin").decode()
    created = api.handle({
        "method": "POST", "path": "/identityrequests",
        "authorization": f"Bearer {token}",
        "body": {"spec": {"identity": "scheduler.20250101", "usage": ["client"],
                          "expirationSeconds": 3600}},
    })
    name = created["body"]["name"]
    denied = api.handle({"method": "POST", "path": f"/identityrequests/{name}/deny",
                         "body": {"approver": "admin"}})
    assert denied["status"] == 200 and denied["body"]["status"] == "Denied"
    key = api.handle({"method": "POST", "path": f"/identityrequests/{name}/key"})
    assert key["status"] == 409


@pytest.mark.parametrize("request_doc", [
    {"method": "POST", "path": IDENTITYREQUESTS_PATH, "authorization": bearer_header(b"admin"),
     "body": {"spec": {"usage": ["client"], "expirationSeconds": 3600}}},
    {"method": "POST", "path": IDENTITYREQUESTS_PATH, "authorization": bearer_header(b"admin"),
     "body": {"spec": {"identity": "scheduler.20250101", "usage": ["client"],
                       "expirationSeconds": "abc"}}},
    {"method": "POST", "path": IDENTITYREQUESTS_PATH, "authorization": bearer_header(b"admin"),
     "body": {"spec": {"identity": 5, "usage": ["client"], "expirationSeconds": 3600}}},
    {"method": "POST", "path": IDENTITYREQUESTS_PATH, "body": []},
    {"method": "POST", "path": "/identityrequests/req-1/approve",
     "body": {"approver": ["admin"]}},
    {"method": 5, "path": "/identityrequests"},
    [1, 2],
], ids=["no-identity", "expiration-abc", "identity-int", "body-list", "approver-list",
        "method-int", "not-an-object"])
def test_api_answers_malformed_requests_with_400(domain, request_doc):
    service, shares = domain
    api = ApiServer(service, shares_provider=lambda: list(shares.shares[:2]))
    response = api.handle(request_doc)
    assert response["status"] == 400
    assert response["error"]["reason"] == "BadRequest"


@pytest.fixture(scope="module")
def fuzzed_api(desk):
    service, shares = make_domain(desk)
    return ApiServer(service, shares_provider=lambda: list(shares.shares[:2]))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6,
)


def documented_or_any(strategy):
    return strategy | json_values


specs = st.fixed_dictionaries({}, optional={
    "issuer": documented_or_any(st.just("ibe.kubernetes.io/apiserver")),
    "identity": documented_or_any(st.sampled_from(
        ["kubelet:node-01.20250101", "scheduler.20250101", "a..20250101"])),
    "usage": documented_or_any(st.lists(st.sampled_from(["client", "server", "peer"]),
                                        max_size=3)),
    "expirationSeconds": documented_or_any(st.integers(-5, 40 * 86400)),
})
api_requests = st.fixed_dictionaries({}, optional={
    "method": documented_or_any(st.sampled_from(["GET", "POST", "post"])),
    "path": documented_or_any(st.sampled_from([
        IDENTITYREQUESTS_PATH, "/identityrequests", "/identityrequests/req-1",
        "/identityrequests/req-1/approve", "/identityrequests/req-1/deny",
        "/identityrequests/req-1/key", "/"])),
    "authorization": documented_or_any(st.sampled_from([
        bearer_header(b"admin"), bearer_header(b"bootstrap-node-01"), "Bearer !!", "Basic eA=="])),
    "body": documented_or_any(st.fixed_dictionaries({}, optional={
        "spec": documented_or_any(specs),
        "approver": documented_or_any(st.just("admin")),
    })),
})


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(doc=api_requests | json_values)
def test_api_never_answers_500(fuzzed_api, doc):
    # Any JSON document gets a mapped status: never 500, never an exception.
    response = fuzzed_api.handle(doc)
    assert isinstance(response["status"], int)
    assert response["status"] != 500, response
