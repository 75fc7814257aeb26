"""Identity-based KEM with a gadget-trapdoor lattice instantiation.

The master public key is A = [a_bar | G - a_bar*R] mod q with R the trapdoor
(Micciancio-Peikert 2012, "Trapdoors for Lattices"). Identity public keys are
syndrome matrices U hashed from the identity string; the identity private key
is the exact preimage X = [R*z ; z] with z = bit-decompose(U), so
A*X = G*z = U holds with equality and ||X||_inf <= beta by the fixed trapdoor
row weight. R and X are held in the narrowest signed dtype that holds beta
(int8 at desk parameters). Products against them pass their bound to
sampling.matmul_mod, the one place that derives when such a product is exact.
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
    """Binary z with G @ z == values (mod q), as uint8; values in [0, q), shape
    (n, cols) -> (n*k, cols), row i*k + b holding bit b of values' row i."""
    n, cols = values.shape
    bits = np.unpackbits(values.astype("<u4").view(np.uint8), bitorder="little")
    bits = bits.reshape(n, cols, 32)[:, :, : params.k]
    return bits.transpose(0, 2, 1).reshape(n * params.k, cols)


def _trapdoor_public(params: KemParams, a_bar: np.ndarray, R: np.ndarray) -> np.ndarray:
    """A = [a_bar | G - a_bar*R] mod q."""
    right = (gadget_matrix(params) - matmul_mod(a_bar, R, params.q, bound=1)) % params.q
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
    R: np.ndarray      # (m_bar, n*k) int8, entries in {-1, 0, 1}
    a_bar: np.ndarray  # (n, m_bar) over Z_q
    params_hash: bytes = field(repr=False)  # of the public key setup derived with it

    def __post_init__(self) -> None:
        self.R.setflags(write=False)
        self.a_bar.setflags(write=False)

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
    X: np.ndarray  # (m, ell) with ||X||_inf <= beta, dtype preimage_dtype(params)
    params_hash: bytes
    params: KemParams

    def __post_init__(self) -> None:
        self.X.setflags(write=False)


@dataclass(frozen=True)
class IdKemCiphertext:
    params: KemParams
    c0: np.ndarray  # length m over Z_q
    c1: np.ndarray  # length ell over Z_q

    def __post_init__(self) -> None:
        self.c0.setflags(write=False)
        self.c1.setflags(write=False)


def params_hash_of(params: KemParams, A: np.ndarray) -> bytes:
    h = hashlib.sha256(params.header_bytes())
    h.update(A.astype("<u4").tobytes())
    return h.digest()


def preimage_dtype(params: KemParams) -> np.dtype:
    """Narrowest signed dtype holding [-beta, beta]; int8 at desk parameters."""
    return np.min_scalar_type(-params.beta)


class _Replay(HashStream):
    """A stream that hands back bytes already read from stream, then goes on
    reading stream itself."""

    def __init__(self, prefix: bytes, stream: HashStream) -> None:
        self._prefix, self._stream = memoryview(prefix), stream

    def read(self, n: int) -> bytes:
        head, self._prefix = self._prefix[:n], self._prefix[n:]
        return bytes(head) + self._stream.read(n - len(head))


def _shuffle_picks(stream: HashStream, rows: int, w: int, steps: int) -> np.ndarray:
    """Row j is stream.uniform_mod(rows, w - j), for j < steps, as int32.

    The stream is left where steps such calls in sequence leave it. Each call
    reads a window of rows + 8 words and keeps the first rows words below its
    rejection limit, so all windows are read in one call. When every window
    keeps its first rows words, they are reduced in one pass. Otherwise (about
    1 derivation in 345 at desk parameters) the windows go back through
    uniform_mod itself, which also makes the extra draw of a window with more
    than 8 rejected words.
    """
    mods = np.arange(w, w - steps, -1, dtype=np.int64)
    words = stream.read(4 * steps * (rows + 8))
    head = np.frombuffer(words, dtype="<u4").reshape(steps, rows + 8)[:, :rows]
    if (head < (2**32 // mods * mods)[:, None]).all():
        return (head % mods[:, None].astype(np.uint32)).astype(np.int32)
    replay = _Replay(words, stream)
    return np.array([replay.uniform_mod(rows, int(mod)) for mod in mods], dtype=np.int32)


def _master_secret(params: KemParams, seed: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(a_bar, R) from a 32-byte seed: the only sampler of the master key."""
    if len(seed) != 32:
        raise ValueError("setup seed must be exactly 32 bytes")
    n, w, rows = params.n, params.n * params.k, params.m_bar

    stream = HashStream(seed, b"setup.v3")
    a_bar = stream.uniform_mod(n * rows, params.q).reshape(n, rows)

    # Trapdoor rows have a fixed support of beta-1 signed entries, drawn by a
    # partial Fisher-Yates shuffle of the columns run on every row at once:
    # step j swaps position j of row r with position j + picks[j, r]. The
    # table is transposed and flat, table[c*rows + r] being the column at
    # position c of row r, so a step is one gather and one scatter at its
    # picks and one contiguous copy of position j of every row.
    weight = params.trapdoor_row_weight
    table = np.repeat(np.arange(w, dtype=np.min_scalar_type(w)), rows)
    support = table[: weight * rows].reshape(weight, rows)
    picks = _shuffle_picks(stream, rows, w, weight)
    for here, there in zip(support, picks * rows + np.arange(weight * rows).reshape(weight, rows)):
        chosen = table[there]
        table[there] = here
        here[:] = chosen
    R = np.zeros((rows, w), dtype=np.int8)
    R.reshape(-1)[support + np.arange(0, rows * w, w)] = \
        stream.signs(rows * weight).reshape(rows, weight).T
    return a_bar, R


def setup(params: KemParams, seed: bytes) -> tuple[MasterPublicKey, MasterSecretKey]:
    """Deterministically derive the master key pair from a 32-byte seed."""
    a_bar, R = _master_secret(params, seed)
    A = _trapdoor_public(params, a_bar, R)
    params_hash = params_hash_of(params, A)
    return (MasterPublicKey(params=params, A=A, params_hash=params_hash),
            MasterSecretKey(R=R, a_bar=a_bar, params_hash=params_hash))


def rebuild_master(mpk: MasterPublicKey, seed: bytes) -> MasterSecretKey:
    """Re-derive the master secret of mpk from its seed, without the public half.

    The seed is accepted when it derives mpk's left block a_bar; a seed that
    matches there but not in R cannot occur short of a hash collision, and
    extract's A @ X == U postcondition would still catch it. On a mismatch
    the derived arrays are zeroed before MasterKeyMismatch is raised.
    """
    p = mpk.params
    a_bar, R = _master_secret(p, seed)
    if not np.array_equal(a_bar, mpk.A[:, : p.m_bar]):
        a_bar.fill(0)
        R.fill(0)
        raise MasterKeyMismatch("seed does not derive this master public key")
    return MasterSecretKey(R=R, a_bar=a_bar, params_hash=mpk.params_hash)


def _syndrome_matrix(p: KemParams, canonical: str) -> np.ndarray:
    stream = HashStream(p.domain_sep, b"syndrome" + canonical.encode("utf-8"))
    return stream.uniform_mod(p.n * p.ell, p.q).reshape(p.n, p.ell)


def derive_public(mpk: MasterPublicKey, identity: IdentityString) -> IdentityPublicKey:
    """Anyone can derive U from the identity alone; no secret input involved."""
    return IdentityPublicKey(U=_syndrome_matrix(mpk.params, identity.canonical))


def extract(
    msk: MasterSecretKey, mpk: MasterPublicKey, identity: IdentityString
) -> IdentityPrivateKey:
    """Compute the exact short preimage X with A @ X == U (mod q).

    R @ Z is one float32 product, and it is exact: every entry of R is in
    {-1, 0, 1} with beta-1 nonzeros per row and Z is binary, so every partial
    sum is an integer of magnitude at most beta-1, far below the 2^24 that
    sampling.limb_bits keeps every float32 sum under. The A @ X == U check is
    matmul_mod's float64 product, exact because ||X||_inf <= beta < q and
    KemParams keeps m*q*q below 2^53.
    """
    p = mpk.params
    if msk.params_hash != mpk.params_hash:
        raise MasterKeyMismatch("master secret was not set up with this public key")

    U = derive_public(mpk, identity).U
    Z = gadget_decompose(p, U)
    X = np.empty((p.m, p.ell), dtype=preimage_dtype(p))
    X[: p.m_bar] = msk.R.astype(np.float32) @ Z.astype(np.float32)
    X[p.m_bar :] = Z
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


def compress(x: np.ndarray, d: int, q: int) -> np.ndarray:
    """FIPS 203's Compress_d: round(2^d * x / q) mod 2^d, for x in [0, q)."""
    return (((x << (d + 1)) + q) // (2 * q)) & ((1 << d) - 1)


def decompress(y: np.ndarray, d: int, q: int) -> np.ndarray:
    """FIPS 203's Decompress_d: round(q * y / 2^d), in [0, q) for y in [0, 2^d)."""
    return (y * q + (1 << (d - 1))) >> d


def _encrypt_bits(p: KemParams, A: np.ndarray, U: np.ndarray,
                  stream: HashStream) -> tuple[IdKemCiphertext, np.ndarray]:
    """Dual-Regev encryption of ell fresh bits to syndromes U under A (both KEMs).

    c0 and c1 are rounded onto the grids of p.ciphertext_bits, so the
    ciphertext is exactly what its encoding carries; the rounding error is
    inside the noise p.ciphertext_bits allows for."""
    s = stream.uniform_mod(p.n, p.q)
    e0 = stream.signed_uniform(p.m, p.eta)
    e1 = stream.signed_uniform(p.ell, p.eta)
    k_bits = stream.bits(p.ell)
    c0 = (matmul_mod(A.T, s.reshape(-1, 1), p.q).ravel() + e0) % p.q
    c1 = (matmul_mod(U.T, s.reshape(-1, 1), p.q).ravel() + e1 + (p.q // 2) * k_bits) % p.q
    d_u, d_v = p.ciphertext_bits
    return IdKemCiphertext(params=p, c0=decompress(compress(c0, d_u, p.q), d_u, p.q),
                           c1=decompress(compress(c1, d_v, p.q), d_v, p.q)), k_bits


def _decrypt_bits(p: KemParams, X: np.ndarray, ct: IdKemCiphertext, bound: int) -> np.ndarray:
    """Recover the bits with the short preimage X, ||X||_inf <= bound (checked by
    matmul_mod); rejects malformed ciphertexts."""
    if ct.c0.shape != (p.m,) or ct.c1.shape != (p.ell,):
        raise DecodeError("ciphertext dimensions do not match parameters")
    if int(ct.c0.min(initial=0)) < 0 or int(ct.c0.max(initial=0)) >= p.q \
            or int(ct.c1.min(initial=0)) < 0 or int(ct.c1.max(initial=0)) >= p.q:
        raise DecodeError("ciphertext coefficient out of range")
    mask = (ct.c1 - matmul_mod(ct.c0.reshape(1, -1), X, p.q, bound=bound).ravel()) % p.q
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
    the mismatch surfaces later at Finished verification. A hand-built key
    whose X exceeds beta raises ValueError; decode_private_key refuses one.
    """
    return shared_secret_kdf(_decrypt_bits(sk.params, sk.X, ct, sk.params.beta),
                             sk.identity, sk.params_hash)
