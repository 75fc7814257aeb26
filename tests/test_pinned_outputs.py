"""Digests of master and identity keys, the demo logs and the bench report,
pinned across commits.

Keys and demo logs are deterministic in the seed, so a change to how setup or
extract draws, or to the order in which a simulation draws its seeds, or to
what a log line carries, changes these bytes. Update a digest only in a change
that means to change that output, and say why.
"""

import hashlib

import pytest

from ibetls.cli import main
from ibetls.kem import IdentityString, encode_master_public, encode_private_key, extract, setup
from ibetls.simnet import DEMO_5G_SCRIPT, DEMO_K8S_SCRIPT, run_scenario


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("script, seed, digest", [
    (DEMO_K8S_SCRIPT, 0, "3d3e22e7bb77a83cb69d356eca32de1e0dd97ebad948ccc89ede64ca22e6378b"),
    (DEMO_5G_SCRIPT, 0, "629c3c213861f4b29ff18768bfc80cb25be1653bb645220e68dbe16b59206384"),
    (DEMO_K8S_SCRIPT, 7, "6d3e21db347e63794a62782a5c50b9ed100da2cf66f6603a01a22109a04036c1"),
    (DEMO_5G_SCRIPT, 7, "41fded50cdf4fc362ef840ec7e212a64e9d97a2b17582cf104451cc7d1a35407"),
], ids=["k8s-0", "5g-0", "k8s-7", "5g-7"])
def test_demo_log_digest(script, seed, digest):
    # the bytes demo-k8s / demo-5g --format json print
    assert sha256(run_scenario(script, seed=seed).to_jsonl()) == digest


def test_bench_report_digest(capsys):
    assert main(["bench-report", "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out) == (
        "aafcd0c1ff1feb3880f4f4c4e968ab1d682c4d815feced759dab019509cffad9")


KEY_DIGESTS = {
    0: ("48b186ead32841d46d28dc4b874cb1034296fe8e99d0e615bf02fbf9d41477fd",
        {"kubelet:node-01.20250101":
         "92ad4e81f33f1fd66773706b63e1a04de41dd54ebb53707099a61362ff6f0e87",
         "prod-us-west.payments.checkout-api.20250101":
         "29c1d7751b11ba1de47422913d9a940d78042befd05fd77437b1808d57230b5e"}),
    7: ("2f2a61e22ee0efab2b303912b1d25607ba492742e84559473604ceb24d6750c5",
        {"kubelet:node-01.20250101":
         "aaf58aea7c6c864cf2114fcbd8a22c20f64aa1ad0032263bb458f86d8fc7d198",
         "prod-us-west.payments.checkout-api.20250101":
         "e9c52830418b82b58ab271f3b207ea9b77e4cd9aa83bbd57ac0142593e68bc11"}),
}


@pytest.mark.parametrize("seed", sorted(KEY_DIGESTS))
def test_key_digests(desk, seed):
    mpk_digest, key_digests = KEY_DIGESTS[seed]
    mpk, msk = setup(desk, seed.to_bytes(32, "big"))
    assert hashlib.sha256(encode_master_public(mpk)).hexdigest() == mpk_digest
    for identity, digest in key_digests.items():
        key = extract(msk, mpk, IdentityString.parse(identity))
        assert hashlib.sha256(encode_private_key(key)).hexdigest() == digest, identity
