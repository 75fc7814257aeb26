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
    (DEMO_K8S_SCRIPT, 0, "d43cfe3a65c2893c0183283dedf791bb30f990ebdf8fe4255d9604f1d46ed667"),
    (DEMO_5G_SCRIPT, 0, "e1db944fb1cb8abd3b426d6d9222e987cc105376f10de472debd8491513b78d8"),
    (DEMO_K8S_SCRIPT, 7, "e46c6adaf9fa3f8e209554d1c5b6f27e94bceabc22439758ea1837e2e478764b"),
    (DEMO_5G_SCRIPT, 7, "075f139cc73b7240cf2dcb43947b055fd23a58b8a7109e51440d7001dea14c25"),
], ids=["k8s-0", "5g-0", "k8s-7", "5g-7"])
def test_demo_log_digest(script, seed, digest):
    # the bytes demo-k8s / demo-5g --format json print
    assert sha256(run_scenario(script, seed=seed).to_jsonl()) == digest


def test_bench_report_digest(capsys):
    assert main(["bench-report", "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out) == (
        "5c8ea1b6e96e8d1e5a501c8d1c20a3ed6587876ca025627fe106aea42a493184")
