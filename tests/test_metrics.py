import json

import pytest

from ibetls.cli import main
from ibetls.handshake import ClientSession, ServerSession
from ibetls.kem import ciphertext_size, encode_eph_public, eph_generate, eph_public_size
from ibetls.metrics import (
    CertCostModel,
    MetricsIncomplete,
    compare_report,
    instrument,
    render_table,
)
from ibetls.simnet import WireCapture, establish


def seed_of(i: int) -> bytes:
    return i.to_bytes(32, "big")


def run_conn(mpk, server_identity, server_key, client_identity=None, client_key=None,
             mutual=False, seed=9000, **kwargs):
    client = ClientSession(mpk, server_identity, seed_of(seed),
                           own_identity=client_identity, own_key=client_key,
                           mutual=mutual, **kwargs)
    server = ServerSession(mpk, server_identity, server_key, seed_of(seed + 1),
                           mutual=mutual)
    return establish(client, server, WireCapture())


@pytest.fixture(scope="module")
def mutual_metrics(mpk, server_identity, server_key, client_identity, client_key):
    conn = run_conn(mpk, server_identity, server_key, client_identity, client_key,
                    mutual=True)
    assert conn.ok
    return instrument(conn)


def test_mutual_op_counts(mutual_metrics):
    assert mutual_metrics.ops == {"encaps": 3, "decaps": 3, "sign": 0, "verify": 0,
                                  "pubkey_derive": 2}


def test_unilateral_op_counts(mpk, server_identity, server_key):
    conn = run_conn(mpk, server_identity, server_key, seed=9100)
    metrics = instrument(conn)
    assert metrics.ops["encaps"] == 2 and metrics.ops["decaps"] == 2
    assert metrics.ops["sign"] == 0 and metrics.ops["verify"] == 0


def test_message_set_matches_comparison_table(mutual_metrics):
    assert mutual_metrics.message_names() == {
        "ClientHello", "ServerHello", "EncryptedExtensions",
        "Finished (Server)", "Finished (Client)",
    }


def test_auth_byte_formula(mutual_metrics, desk):
    ct = ciphertext_size(desk)
    assert mutual_metrics.ciphertext_bytes == ct
    assert mutual_metrics.auth_bytes == 2 * (4 + 2 + 2 + ct)
    assert mutual_metrics.kem_auth_wire_bytes == 3 * ct


def test_ciphertext_size_constant_across_handshakes(mpk, server_identity, server_key,
                                                    client_identity, client_key):
    sizes = set()
    for i in range(5):
        conn = run_conn(mpk, server_identity, server_key, client_identity, client_key,
                        mutual=True, seed=9200 + 2 * i)
        sizes.add(instrument(conn).ciphertext_bytes)
    assert len(sizes) == 1


def test_desk_wire_sizes_follow_the_packing_formula(desk, capsys):
    """Ciphertexts carry c0 at d_u = 18 and c1 at d_v = 6 bits per coefficient,
    each part padded to a byte; ephemeral shares carry k = 20 bits per Z_q
    coefficient."""
    d_u, d_v = desk.ciphertext_bits
    assert (d_u, d_v) == (18, 6)
    ct = 34 + (desk.m * d_u + 7) // 8 + (desk.ell * d_v + 7) // 8
    assert ciphertext_size(desk) == ct == 3106
    share = 34 + len(desk.header_bytes()) + 32 + desk.n * desk.ell * desk.k // 8
    assert eph_public_size(desk) == share == 20599
    assert len(encode_eph_public(eph_generate(desk, seed_of(1)).public)) == share

    assert main(["bench-report", "--format", "json"]) == 0
    ibe = json.loads(capsys.readouterr().out)["ibeTls"]
    # Framing and the random take 41 B of each hello, the client's identity
    # extension 29 B more; each auth extension is 8 B of header + |ct|.
    assert ibe["messages"]["ClientHello"] == 41 + 29 + share + 8 + ct == 23783
    assert ibe["messages"]["ServerHello"] == 41 + ct + 8 + ct == 6261
    assert (ibe["ephemeralShareBytes"], ibe["coefficientBits"]) == (share, desk.k)

    # Measured authentication data is below the certificate model's range.
    low, high = CertCostModel().total_range()
    assert ibe["kemCiphertextBytes"] == 3 * ct == 9318
    assert 3 * ct < low


def test_cert_model_totals():
    model = CertCostModel()
    assert model.total_range() == (11264, 21504)
    assert model.OP_COUNTS == {"encaps": 1, "decaps": 1, "sign": 2, "verify": 4}
    assert model.SCHEME_SIZES_KB["Lattice-based"] == 11
    assert model.SCHEME_SIZES_KB["Code-based"] == 190


def test_compare_report_contents(mutual_metrics):
    report = compare_report(mutual_metrics)
    cert = report["certBasedModel"]
    assert cert["totalAuthBytesRange"] == [11264, 21504]
    ibe = report["ibeTls"]
    assert ibe["kemCiphertextBytes"] == 3 * ibe["ciphertextBytes"]
    assert ibe["ops"]["sign"] == 0 and ibe["ops"]["verify"] == 0
    assert "5 KB" in report["note"]  # cited figure, never asserted against
    table = render_table(report)
    assert "Certificate chain(s)" in table and "Total authentication data" in table


def test_report_on_aborted_session_rejected(mpk, msk, server_identity):
    from ibetls.kem import IdentityString, extract

    wrong = extract(msk, mpk, IdentityString.parse("front-proxy.20250101"))
    conn = run_conn(mpk, server_identity, wrong, seed=9300)
    assert not conn.ok
    metrics = instrument(conn)
    assert metrics.state == "aborted"
    with pytest.raises(MetricsIncomplete):
        compare_report(metrics)


def test_invariants_allow_hrr(mpk, server_identity, server_key, client_identity,
                              client_key):
    conn = run_conn(mpk, server_identity, server_key, client_identity, client_key,
                    mutual=True, seed=9400, offer_identity=False)
    assert conn.ok
    metrics = instrument(conn)
    assert metrics.message_names() == {
        "ClientHello", "HelloRetryRequest", "ServerHello", "EncryptedExtensions",
        "Finished (Server)", "Finished (Client)",
    }


def test_wire_bytes_accounted(mutual_metrics):
    assert mutual_metrics.wire_bytes > sum(mutual_metrics.bytes_per_message.values())
    assert mutual_metrics.auth_extension_count == 2
