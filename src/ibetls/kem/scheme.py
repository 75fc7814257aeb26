"""Identity-based KEM with a gadget-trapdoor lattice instantiation.

The master public key is A = [a_bar | G - a_bar*R] mod q with R the trapdoor.
Identity public keys are syndrome matrices U hashed from the identity string;
the identity private key is the exact preimage X = [R*z ; z] with
z = bit-decompose(U), so A*X = G*z = U holds with equality and
||X||_inf <= beta by the fixed trapdoor row weight.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..hkdf import hkdf_expand, hkdf_extract
from .errors import DecodeError, MasterKeyMismatch
from .identity import IdentityString
from .params import KemParams
from .sampling import HashStream, matmul_mod


def gadget_matrix(params: KemParams) -> np.ndarray:
    """G = I_n kron (1, 2, 4, ..., 2^(k-1)), shape (n, n*k)."""
    powers = (np.int64(1) << np.arange(params.k, dtype=np.int64)) % params.q
    return np.kron(np.eye(params.n, dtype=np.int64), powers.reshape(1, params.k))


def gadget_decompose(params: KemParams, values: np.ndarray) -> np.ndarray:
    """Binary z with G @ z == values (mod q); values shape (n, cols) -> (n*k, cols)."""
    shifts = np.arange(params.k, dtype=np.int64)
    bits = (values[:, None, :] >> shifts[None, :, None]) & 1
    return bits.reshape(params.n * params.k, values.shape[1])


def _trapdoor_public(params: KemParams, a_bar: np.ndarray, R: np.ndarray) -> np.ndarray:
    """A = [a_bar | G - a_bar*R] mod q."""
    right = (gadget_matrix(params) - matmul_mod(a_bar, R, params.q)) % params.q
    return np.concatenate([a_bar, right], axis=1)


@dataclass(frozen=True)
class MasterPublicKey:
    params: KemParams
    A: np.ndarray  # (n, m) over Z_q
    params_hash: bytes = field(repr=False)

    def __post_init__(self) -> None:
        self.A.setflags(write=False)


@dataclass(frozen=True)
class MasterSecretKey:
    R: np.ndarray      # (m_bar, n*k), entries in {-1, 0, 1}
    a_bar: np.ndarray  # (n, m_bar) over Z_q
    params_hash: bytes = field(repr=False)  # of the public key setup derived with it

    def __post_init__(self) -> None:
        self.R.setflags(write=False)
        self.a_bar.setflags(write=False)

    def reconstruct_public(self, params: KemParams) -> np.ndarray:
        return _trapdoor_public(params, self.a_bar, self.R)

    def zeroize(self) -> None:
        for arr in (self.R, self.a_bar):
            arr.setflags(write=True)
            arr.fill(0)
            arr.setflags(write=False)


@dataclass(frozen=True)
class IdentityPublicKey:
    U: np.ndarray  # (n, ell) over Z_q; derived, never stored or transmitted

    def __post_init__(self) -> None:
        self.U.setflags(write=False)


@dataclass(frozen=True)
class IdentityPrivateKey:
    identity: IdentityString
    X: np.ndarray  # (m, ell) integers with ||X||_inf <= beta
    params_hash: bytes
    params: KemParams

    def __post_init__(self) -> None:
        self.X.setflags(write=False)


@dataclass(frozen=True)
class IdKemCiphertext:
    c0: np.ndarray  # length m over Z_q
    c1: np.ndarray  # length ell over Z_q

    def __post_init__(self) -> None:
        self.c0.setflags(write=False)
        self.c1.setflags(write=False)


def params_hash_of(params: KemParams, A: np.ndarray) -> bytes:
    h = hashlib.sha256(params.header_bytes())
    h.update(A.astype("<u4").tobytes())
    return h.digest()


def setup(params: KemParams, seed: bytes) -> tuple[MasterPublicKey, MasterSecretKey]:
    """Deterministically derive the master key pair from a 32-byte seed."""
    if len(seed) != 32:
        raise ValueError("setup seed must be exactly 32 bytes")
    n, q, w = params.n, params.q, params.n * params.k

    stream = HashStream(seed, b"setup")
    a_bar = stream.uniform_mod(n * params.m_bar, q).reshape(n, params.m_bar)

    # Trapdoor rows have a fixed support of beta-1 signed entries: the support
    # is the columns holding the row's beta-1 smallest fresh 64-bit keys, put
    # in column order so the result does not depend on argpartition's order.
    weight = params.trapdoor_row_weight
    R = np.zeros((params.m_bar, w), dtype=np.int64)
    if weight:
        keys = stream.u64(params.m_bar * w).reshape(params.m_bar, w)
        support = np.sort(np.argpartition(keys, weight - 1, axis=1)[:, :weight], axis=1)
        signs = stream.signs(params.m_bar * weight).reshape(params.m_bar, weight)
        np.put_along_axis(R, support, signs, axis=1)

    A = _trapdoor_public(params, a_bar, R)
    params_hash = params_hash_of(params, A)
    return (MasterPublicKey(params=params, A=A, params_hash=params_hash),
            MasterSecretKey(R=R, a_bar=a_bar, params_hash=params_hash))


def _syndrome_matrix(p: KemParams, canonical: str) -> np.ndarray:
    stream = HashStream(p.domain_sep, b"syndrome" + canonical.encode("utf-8"))
    return stream.uniform_mod(p.n * p.ell, p.q).reshape(p.n, p.ell)


def derive_public(mpk: MasterPublicKey, identity: IdentityString) -> IdentityPublicKey:
    """Anyone can derive U from the identity alone; no secret input involved."""
    return IdentityPublicKey(U=_syndrome_matrix(mpk.params, identity.canonical))


def extract(
    msk: MasterSecretKey, mpk: MasterPublicKey, identity: IdentityString
) -> IdentityPrivateKey:
    """Compute the exact short preimage X with A @ X == U (mod q)."""
    p = mpk.params
    if msk.params_hash != mpk.params_hash:
        raise MasterKeyMismatch("master secret was not set up with this public key")

    U = derive_public(mpk, identity).U
    Z = gadget_decompose(p, U)
    X = np.concatenate([np.asarray(msk.R.astype(np.float64) @ Z.astype(np.float64),
                                   dtype=np.int64), Z])
    # Postcondition checks are cheap relative to the trapdoor product.
    if int(np.abs(X).max()) > p.beta:
        raise AssertionError("preimage norm exceeded beta")
    if not np.array_equal(matmul_mod(mpk.A, X, p.q), U):
        raise AssertionError("preimage does not satisfy A @ X == U")
    return IdentityPrivateKey(identity=identity, X=X, params_hash=mpk.params_hash, params=p)


def _kem_kdf(k_bits: np.ndarray, context: bytes, label: bytes) -> bytes:
    """32-byte secret from the recovered bits, bound to `context` under `label`."""
    ikm = np.packbits(k_bits.astype(np.uint8), bitorder="little").tobytes() + context
    return hkdf_expand(hkdf_extract(b"", ikm), label, 32)


def shared_secret_kdf(k_bits: np.ndarray, identity: IdentityString, params_hash: bytes) -> bytes:
    """32-byte secret bound to (identity, params_hash) for domain separation."""
    return _kem_kdf(k_bits, identity.canonical.encode("utf-8") + params_hash,
                    b"ibetls id-kem ss")


def _encrypt_bits(p: KemParams, A: np.ndarray, U: np.ndarray,
                  stream: HashStream) -> tuple[IdKemCiphertext, np.ndarray]:
    """Dual-Regev encryption of ell fresh bits to syndromes U under A (both KEMs)."""
    s = stream.uniform_mod(p.n, p.q)
    e0 = stream.signed_uniform(p.m, p.eta)
    e1 = stream.signed_uniform(p.ell, p.eta)
    k_bits = stream.bits(p.ell)
    c0 = (matmul_mod(A.T, s.reshape(-1, 1), p.q).ravel() + e0) % p.q
    c1 = (matmul_mod(U.T, s.reshape(-1, 1), p.q).ravel() + e1 + (p.q // 2) * k_bits) % p.q
    return IdKemCiphertext(c0=c0, c1=c1), k_bits


def _decrypt_bits(p: KemParams, X: np.ndarray, ct: IdKemCiphertext) -> np.ndarray:
    """Recover the bits with the short preimage X; rejects malformed ciphertexts."""
    if ct.c0.shape != (p.m,) or ct.c1.shape != (p.ell,):
        raise DecodeError("ciphertext dimensions do not match parameters")
    if int(ct.c0.min(initial=0)) < 0 or int(ct.c0.max(initial=0)) >= p.q \
            or int(ct.c1.min(initial=0)) < 0 or int(ct.c1.max(initial=0)) >= p.q:
        raise DecodeError("ciphertext coefficient out of range")
    mask = (ct.c1 - matmul_mod(X.T, ct.c0.reshape(-1, 1), p.q).ravel()) % p.q
    return ((2 * mask + p.q // 2) // p.q) % 2


def encaps(
    mpk: MasterPublicKey, identity: IdentityString, rng_seed: bytes
) -> tuple[IdKemCiphertext, bytes]:
    """Encapsulate a fresh 32-byte secret to an identity."""
    if len(rng_seed) != 32:
        raise ValueError("encaps rng_seed must be exactly 32 bytes")
    U = derive_public(mpk, identity).U
    ct, k_bits = _encrypt_bits(mpk.params, mpk.A, U, HashStream(rng_seed, b"id-encaps"))
    return ct, shared_secret_kdf(k_bits, identity, mpk.params_hash)


def decaps(sk: IdentityPrivateKey, ct: IdKemCiphertext) -> bytes:
    """Recover the secret; never signals failure (implicit rejection).

    A wrong key or tampered ciphertext yields a different 32-byte value, and
    the mismatch surfaces later at Finished verification.
    """
    return shared_secret_kdf(_decrypt_bits(sk.params, sk.X, ct), sk.identity, sk.params_hash)
