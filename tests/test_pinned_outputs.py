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
    (DEMO_K8S_SCRIPT, 0, "4eae09c7a4515fb4c2c20a76347704180ec8c5e6557901fe616a3c818e7d8d56"),
    (DEMO_5G_SCRIPT, 0, "e7fe8ae584c65181f8d69e8d2ba41e8dc34f76c841a19ea610a292b5edabc76d"),
    (DEMO_K8S_SCRIPT, 7, "84eaba61ba504252e80597ddc56aac663138f0a820ef009c4c0bd5dfc677736b"),
    (DEMO_5G_SCRIPT, 7, "422bb97a6ac62b793e59222021ad3439bfc2d98b3b4e0f7f0d8f6c6f83bb9f33"),
], ids=["k8s-0", "5g-0", "k8s-7", "5g-7"])
def test_demo_log_digest(script, seed, digest):
    # the bytes demo-k8s / demo-5g --format json print
    assert sha256(run_scenario(script, seed=seed).to_jsonl()) == digest


def test_bench_report_digest(capsys):
    assert main(["bench-report", "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out) == (
        "9756986f1b4e661d7ce27ce0419f9fb43efe7930101646f21377401e9609129e")


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
