import json
import re
from pathlib import Path

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
    """Ciphertexts carry c0's trapdoor half at d_r = 18, its gadget half at
    d_z = 12 and c1 at d_v = 4 bits per coefficient, each part padded to a
    byte; ephemeral shares carry share_bits = 7 bits per syndrome after the
    prefix and the matrix seed."""
    d_r, d_z, d_v = desk.ciphertext_bits
    assert (d_r, d_z, d_v) == (18, 12, 4)
    ct = (34 + (desk.m_bar * d_r + 7) // 8 + (desk.m_bar * d_z + 7) // 8
          + (desk.ell * d_v + 7) // 8)
    assert ciphertext_size(desk) == ct == 2562
    assert desk.share_bits == 7
    share = 34 + 32 + (desk.n * desk.ell * desk.share_bits + 7) // 8
    assert eph_public_size(desk) == share == 7234
    assert len(encode_eph_public(eph_generate(desk, seed_of(1)).public)) == share

    assert main(["bench-report", "--format", "json"]) == 0
    ibe = json.loads(capsys.readouterr().out)["ibeTls"]
    # Framing and the random take 41 B of each hello, the client's identity
    # extension 29 B more; each auth extension is 8 B of header + |ct|.
    assert ibe["messages"]["ClientHello"] == 41 + 29 + share + 8 + ct == 9874
    assert ibe["messages"]["ServerHello"] == 41 + ct + 8 + ct == 5173
    assert (ibe["ephemeralShareBytes"], ibe["coefficientBits"]) == (share, desk.share_bits)

    # Measured authentication data is below the certificate model's range.
    low, high = CertCostModel().total_range()
    assert ibe["kemCiphertextBytes"] == 3 * ct == 7686
    assert 3 * ct < low


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_wire_format_figures_match_bench_report(desk, capsys):
    """Every size and width that README's wire-format paragraph quotes for the
    share, the ciphertext and the two hellos is the one bench-report measures
    and KemParams derives, so a change to the wire cannot leave it stale."""
    text = " ".join(README.read_text().split())  # a figure may wrap across lines
    assert main(["bench-report", "--format", "json"]) == 0
    ibe = json.loads(capsys.readouterr().out)["ibeTls"]
    d_r, d_z, d_v = desk.ciphertext_bits
    quoted = {
        r"A ciphertext is ([\d,]+) B": ibe["ciphertextBytes"],
        r"an ephemeral share ([\d,]+) B": ibe["ephemeralShareBytes"],
        r"a mutual handshake ([\d,]+) B": ibe["wireBytes"],
        r"ClientHello ([\d,]+) B": ibe["messages"]["ClientHello"],
        r"ServerHello ([\d,]+) B": ibe["messages"]["ServerHello"],
        r"`share_bits = (\d+)` bits": ibe["coefficientBits"],
        r"not `k = (\d+)`": desk.k,
        r"`d_r = (\d+)` bits": d_r,
        r"`d_z = (\d+)` bits": d_z,
        r"`d_v = (\d+)` bits": d_v,
        r"= ([\d,]+) < [\d,]+ at desk parameters, where": desk.ephemeral_noise(desk.share_bits),
        r"where (\d+) bits would reach": desk.share_bits - 1,
        r"bits would reach ([\d,]+)": desk.ephemeral_noise(desk.share_bits - 1),
    }
    for pattern, expected in quoted.items():
        found = {int(figure.replace(",", "")) for figure in re.findall(pattern, text)}
        assert found == {expected}, (pattern, found)
    assert ibe["coefficientBits"] == desk.share_bits


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
