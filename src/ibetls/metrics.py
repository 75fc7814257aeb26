"""Per-handshake accounting and the comparison against certificate-based
post-quantum TLS.

The certificate side is a static cost model (chain and signature byte ranges,
operation counts); the identity-based side is measured from live sessions.
Authentication bandwidth here is bounded and predictable: at fixed parameters
every KEM ciphertext serializes to the same length, so a mutual handshake
carries exactly three ciphertexts' worth of authentication data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kem.codec import ciphertext_size, eph_public_size
from .simnet.transport import Connection

# Key + signature size estimates (KB) for signature families, as used to
# motivate the certificate-side model.
SIGNATURE_FAMILY_SIZES_KB = {
    "ECDSA": 0.1,
    "RSA": 0.5,
    "Lattice-based": 11,
    "Stateful HBS": 15,
    "Stateless HBS": 42,
    "ZK Proofs (ex: Picnic L1FS)": 66,
    "Multivariate": 100,
    "Supersingular Isogenies": 122,
    "Code-based": 190,
}


class MetricsIncomplete(Exception):
    """Comparison requested on a handshake that did not complete."""


@dataclass
class HandshakeMetrics:
    bytes_per_message: dict[str, int]
    auth_bytes: int                 # sum over ibe_identity_auth extensions
    auth_extension_count: int
    ops: dict[str, int]
    state: str                      # "complete" | "aborted"
    mutual: bool
    ciphertext_bytes: int           # serialized |ct| at these parameters
    wire_bytes: int
    eph_share_bytes: int            # serialized ephemeral public share in the ClientHello
    coefficient_bits: int           # bits per Z_q coefficient in the ephemeral share

    @property
    def kem_ciphertext_count(self) -> int:
        # every encapsulation puts exactly one ciphertext on the wire
        return self.ops["encaps"]

    @property
    def kem_auth_wire_bytes(self) -> int:
        return self.kem_ciphertext_count * self.ciphertext_bytes

    def message_names(self) -> frozenset[str]:
        return frozenset(self.bytes_per_message)


def instrument(conn: Connection) -> HandshakeMetrics:
    """Aggregate both sides of a driven handshake into one metrics view.

    Each message is counted once, by its sender; KEM operation counters sum
    over both peers, and signature counters exist only to stay at zero.
    """
    client, server = conn.client, conn.server
    bytes_per_message: dict[str, int] = {}
    for session in (client, server):
        for direction, name, length in session.message_log:
            if direction == "send":
                bytes_per_message[name] = bytes_per_message.get(name, 0) + length
    ops = {key: client.ops[key] + server.ops[key] for key in client.ops}
    auth_extensions = (1 if client.auth_bytes else 0) + (1 if server.auth_bytes else 0)
    return HandshakeMetrics(
        bytes_per_message=bytes_per_message,
        auth_bytes=client.auth_bytes + server.auth_bytes,
        auth_extension_count=auth_extensions,
        ops=ops,
        state="complete" if conn.ok else "aborted",
        mutual=bool(getattr(client, "mutual", False)),
        ciphertext_bytes=ciphertext_size(client.params),
        wire_bytes=conn.capture.total_bytes(),
        eph_share_bytes=eph_public_size(client.params),
        coefficient_bits=client.params.k,
    )


class CertCostModel:
    """Static accounting of certificate-based post-quantum mutual TLS."""

    CHAIN_BYTES_RANGE = (8 * 1024, 15 * 1024)
    CERT_VERIFY_BYTES_RANGE = (3 * 1024, 6 * 1024)
    OP_COUNTS = {"encaps": 1, "decaps": 1, "sign": 2, "verify": 4}
    SCHEME_SIZES_KB = SIGNATURE_FAMILY_SIZES_KB

    def total_range(self) -> tuple[int, int]:
        return (self.CHAIN_BYTES_RANGE[0] + self.CERT_VERIFY_BYTES_RANGE[0],
                self.CHAIN_BYTES_RANGE[1] + self.CERT_VERIFY_BYTES_RANGE[1])


def compare_report(metrics: HandshakeMetrics, model: CertCostModel | None = None) -> dict:
    if metrics.state != "complete":
        raise MetricsIncomplete("handshake did not complete; no comparable metrics")
    model = model or CertCostModel()
    low, high = model.total_range()
    return {
        "ibeTls": {
            "messages": dict(sorted(metrics.bytes_per_message.items())),
            "authExtensionBytes": metrics.auth_bytes,
            "kemCiphertextBytes": metrics.kem_auth_wire_bytes,
            "ciphertextBytes": metrics.ciphertext_bytes,
            "ephemeralShareBytes": metrics.eph_share_bytes,
            "coefficientBits": metrics.coefficient_bits,
            "kemCiphertexts": metrics.kem_ciphertext_count,
            "wireBytes": metrics.wire_bytes,
            "ops": dict(metrics.ops),
            "mutual": metrics.mutual,
        },
        "certBasedModel": {
            "chainBytesRange": list(model.CHAIN_BYTES_RANGE),
            "certificateVerifyBytesRange": list(model.CERT_VERIFY_BYTES_RANGE),
            "totalAuthBytesRange": [low, high],
            "ops": dict(model.OP_COUNTS),
            "signatureFamilySizesKb": dict(model.SCHEME_SIZES_KB),
        },
        "note": (
            "Desk-scale parameters: measured ciphertext sizes are specific to "
            "this reference instantiation. A production ID-ML-KEM-768 "
            "instantiation carries roughly 5 KB of authentication data per "
            "side; that figure is cited for context, not asserted here."
        ),
    }


def render_table(report: dict) -> str:
    ibe = report["ibeTls"]
    cert = report["certBasedModel"]
    low, high = cert["totalAuthBytesRange"]
    rows = [
        ("Component", "Cert-based PQ-TLS", "ID-based IBE-TLS"),
        ("Certificate chain(s)",
         f"{cert['chainBytesRange'][0]}-{cert['chainBytesRange'][1]} B", "0 B"),
        ("CertificateVerify signatures",
         f"{cert['certificateVerifyBytesRange'][0]}-{cert['certificateVerifyBytesRange'][1]} B",
         "0 B"),
        ("Identity-based auth data", "0 B",
         f"{ibe['kemCiphertextBytes']} B ({ibe['kemCiphertexts']} x {ibe['ciphertextBytes']})"),
        ("Total authentication data", f"{low}-{high} B", f"{ibe['kemCiphertextBytes']} B"),
        ("KEM encapsulation", str(cert["ops"]["encaps"]), str(ibe["ops"]["encaps"])),
        ("KEM decapsulation", str(cert["ops"]["decaps"]), str(ibe["ops"]["decaps"])),
        ("Signature generation", str(cert["ops"]["sign"]), str(ibe["ops"]["sign"])),
        ("Signature verification", str(cert["ops"]["verify"]), str(ibe["ops"]["verify"])),
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(3)))
    lines.append("")
    lines.append(report["note"])
    return "\n".join(lines)
