"""Digests of the demo logs and of the bench report, pinned across commits.

The demo logs are deterministic in the seed, so a change to the order in
which a simulation draws its seeds, or to what a log line carries, changes
these bytes. Update a digest only in a change that means to change that
output, and say why.
"""

import hashlib

import pytest

from ibetls.cli import main
from ibetls.simnet import DEMO_5G_SCRIPT, DEMO_K8S_SCRIPT, run_scenario


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("script, seed, digest", [
    (DEMO_K8S_SCRIPT, 0, "060dd74ed5ca8fcefd6035857eed0b7446fc4b7809b52e19bd741d7f8553713e"),
    (DEMO_5G_SCRIPT, 0, "70ae7d3c387bd0149082de82016a94ebcc736e494b8dde00624d1fed8141d514"),
    (DEMO_K8S_SCRIPT, 7, "b82786949927cab541215eb24a8490607df54a6f0ea653112c3b02a013c11b94"),
    (DEMO_5G_SCRIPT, 7, "2d640cdcac60860a225e8ac823fadffed5a4bbed00dacab4ce5162920d4762af"),
], ids=["k8s-0", "5g-0", "k8s-7", "5g-7"])
def test_demo_log_digest(script, seed, digest):
    # the bytes demo-k8s / demo-5g --format json print
    assert sha256(run_scenario(script, seed=seed).to_jsonl()) == digest


def test_bench_report_digest(capsys):
    assert main(["bench-report", "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out) == (
        "726041b3c5f44f6399247ce24879c21c6a8a61067eefd239bce7a9ce12208937")
