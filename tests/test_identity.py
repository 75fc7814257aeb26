import pytest

from ibetls.kem import IdentityString, MalformedIdentity


def test_parse_render_round_trip():
    text = "prod-us-west.payments.checkout-api.20250101"
    ident = IdentityString.parse(text)
    assert ident.canonical == text
    assert ident.segments == ("prod-us-west", "payments", "checkout-api", "20250101")
    assert ident.epoch == "20250101"
    assert IdentityString.parse(ident.canonical) == ident


def test_colon_allowed_inside_segment():
    ident = IdentityString.parse("kubelet:node-01.20250101")
    assert ident.segments == ("kubelet:node-01", "20250101")
    assert ident.base == "kubelet:node-01"


def test_iso_date_epoch():
    ident = IdentityString.parse("00101.AMF.amf-001.2025-01-01")
    assert ident.epoch == "2025-01-01"


@pytest.mark.parametrize(
    "text",
    [
        "single-segment",            # fewer than two segments
        "a..20250101",               # empty segment
        "a.b.not-an-epoch",          # epoch neither integer nor ISO date
        ".b.20250101",               # leading empty segment
        "a.b.",                      # empty epoch
        "svc.2025-W01-1",            # ISO week dates, which Python 3.11's
        "svc.2025W011",              # fromisoformat reads and 3.10's refuses
    ],
)
def test_malformed_identities_rejected(text):
    with pytest.raises(MalformedIdentity):
        IdentityString.parse(text)


def test_segment_cannot_contain_separator():
    with pytest.raises(MalformedIdentity):
        IdentityString(("a.b", "20250101"))
