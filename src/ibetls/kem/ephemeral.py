"""One-shot unauthenticated KEM carrying the forward-secrecy share.

Identity-free dual-Regev over the same lattice machinery: keygen samples a
fresh public matrix (as a 32-byte seed) and publishes the syndromes of a
short secret, one column per secret bit. Ciphertexts have exactly the same
(c0, c1) shape as identity-KEM ciphertexts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..hkdf import hkdf_expand, hkdf_extract
from .errors import DecodeError, EphemeralKeyReuse
from .params import KemParams
from .sampling import HashStream, matmul_mod
from .scheme import IdKemCiphertext


def _expand_matrix(seed_a: bytes, n: int, m: int, q: int) -> np.ndarray:
    return HashStream(seed_a, b"eph-matrix").uniform_mod(n * m, q).reshape(n, m)


@dataclass(frozen=True)
class EphemeralPublicKey:
    params: KemParams
    seed_a: bytes          # expands to the fresh public matrix
    U: np.ndarray          # (n, ell) syndromes of the short secret

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
    _x: np.ndarray = field(repr=False)  # (m, ell) secret, entries in {-1, 0, 1}
    _consumed: bool = field(default=False, repr=False)

    def consume(self) -> None:
        """One handshake per key pair; a second use is a protocol error."""
        if self._consumed:
            raise EphemeralKeyReuse("ephemeral key pair already used in a handshake")
        self._consumed = True

    def erase(self) -> None:
        """Drop the secret share once the handshake secret is derived."""
        if self._x.flags.writeable:
            self._x.fill(0)


def eph_generate(params: KemParams, rng_seed: bytes) -> EphemeralKeyPair:
    if len(rng_seed) != 32:
        raise ValueError("rng_seed must be exactly 32 bytes")
    stream = HashStream(rng_seed, b"eph-gen")
    seed_a = stream.read(32)
    A = _expand_matrix(seed_a, params.n, params.m, params.q)
    x = stream.signed_uniform(params.m * params.ell, 1).reshape(params.m, params.ell)
    U = matmul_mod(A, x, params.q)
    return EphemeralKeyPair(public=EphemeralPublicKey(params=params, seed_a=seed_a, U=U), _x=x)


def _eph_kdf(k_bits: np.ndarray, binding: bytes) -> bytes:
    ikm = np.packbits(k_bits.astype(np.uint8), bitorder="little").tobytes() + binding
    return hkdf_expand(hkdf_extract(b"", ikm), b"ibetls eph ss", 32)


def eph_encaps(public: EphemeralPublicKey, rng_seed: bytes) -> tuple[IdKemCiphertext, bytes]:
    if len(rng_seed) != 32:
        raise ValueError("rng_seed must be exactly 32 bytes")
    p = public.params
    A = _expand_matrix(public.seed_a, p.n, p.m, p.q)
    stream = HashStream(rng_seed, b"eph-encaps")
    s = stream.uniform_mod(p.n, p.q)
    e0 = stream.signed_uniform(p.m, p.eta)
    e1 = stream.signed_uniform(p.ell, p.eta)
    k_bits = stream.bits(p.ell)
    c0 = (matmul_mod(A.T, s.reshape(-1, 1), p.q).ravel() + e0) % p.q
    c1 = (matmul_mod(public.U.T, s.reshape(-1, 1), p.q).ravel() + e1
          + (p.q // 2) * k_bits) % p.q
    return IdKemCiphertext(c0=c0, c1=c1), _eph_kdf(k_bits, public.binding_hash())


def eph_decaps(keypair: EphemeralKeyPair, ct: IdKemCiphertext) -> bytes:
    p = keypair.public.params
    if ct.c0.shape != (p.m,) or ct.c1.shape != (p.ell,):
        raise DecodeError("ephemeral ciphertext dimensions do not match parameters")
    mask = (ct.c1 - matmul_mod(keypair._x.T, ct.c0.reshape(-1, 1), p.q).ravel()) % p.q
    k_bits = ((2 * mask + p.q // 2) // p.q) % 2
    return _eph_kdf(k_bits, keypair.public.binding_hash())
