"""One-shot unauthenticated KEM carrying the forward-secrecy share.

Identity-free dual-Regev through the identity KEM's core: keygen samples a
fresh public matrix (as a 32-byte seed) and publishes the syndromes of a
short secret, one column per secret bit. Ciphertexts have exactly the same
(c0, c1) shape and wire layout as identity-KEM ciphertexts.

The syndromes U are uniform in Z_q, so they do not compress on their own.
Keygen rounds them onto the Compress_d grid of params.share_bits (7 bits at
desk, not k = 20), and the public key holds exactly what the wire carries.
The rounding error meets the encryptor's secret s, which _encrypt_bits
draws within eta, so it adds at most n*eta*B(share_bits) to the noise
(Lindner-Peikert 2011); KemParams.ephemeral_noise keeps the sum below q/4.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .params import KemParams
from .sampling import HashStream, matmul_mod
from .scheme import IdKemCiphertext, _decrypt_bits, _encrypt_bits, _kem_kdf, compress, decompress


def _expand_matrix(seed_a: bytes, p: KemParams) -> np.ndarray:
    A = HashStream(seed_a, b"eph-matrix").uniform_mod(p.n * p.m, p.q).reshape(p.n, p.m)
    A.setflags(write=False)
    return A


@dataclass(frozen=True)
class EphemeralPublicKey:
    params: KemParams
    seed_a: bytes          # expands to the fresh public matrix
    U: np.ndarray          # (n, ell) syndromes of the short secret, on the share_bits grid

    def __post_init__(self) -> None:
        self.U.setflags(write=False)

    def binding_hash(self) -> bytes:
        h = hashlib.sha256(self.params.header_bytes())
        h.update(self.seed_a)
        h.update(self.U.astype("<u4").tobytes())
        return h.digest()


@dataclass
class EphemeralKeyPair:
    public: EphemeralPublicKey
    _x: np.ndarray = field(repr=False)  # (m, ell) int8 secret, entries in {-1, 0, 1}

    def erase(self) -> None:
        """Drop the secret share once the handshake secret is derived."""
        if self._x.flags.writeable:
            self._x.fill(0)


def eph_generate(params: KemParams, rng_seed: bytes) -> EphemeralKeyPair:
    if len(rng_seed) != 32:
        raise ValueError("rng_seed must be exactly 32 bytes")
    stream = HashStream(rng_seed, b"eph-gen")
    seed_a = stream.read(32)
    A = _expand_matrix(seed_a, params)
    x = stream.signed_uniform(params.m * params.ell, 1).reshape(params.m, params.ell)
    d = params.share_bits
    U = decompress(compress(matmul_mod(A, x, params.q, bound=1), d, params.q), d, params.q)
    return EphemeralKeyPair(public=EphemeralPublicKey(params=params, seed_a=seed_a, U=U), _x=x)


def eph_encaps(public: EphemeralPublicKey, rng_seed: bytes) -> tuple[IdKemCiphertext, bytes]:
    if len(rng_seed) != 32:
        raise ValueError("rng_seed must be exactly 32 bytes")
    # Expanded per call, not kept with the key: each share is encapsulated to once.
    A = _expand_matrix(public.seed_a, public.params)
    ct, k_bits = _encrypt_bits(public.params, A, public.U, HashStream(rng_seed, b"eph-encaps"))
    return ct, _kem_kdf(k_bits, public.binding_hash(), b"ibetls eph ss")


def eph_decaps(keypair: EphemeralKeyPair, ct: IdKemCiphertext) -> bytes:
    k_bits = _decrypt_bits(keypair.public.params, keypair._x, ct, 1)
    return _kem_kdf(k_bits, keypair.public.binding_hash(), b"ibetls eph ss")
