"""Dense matrix primitives: norms, compact SVD, orthonormal bases, RNG streams,
and the Monte Carlo mean and standard error.

All matrices are 2-D float64 numpy arrays.  Singular values below
``max(rows, cols) * eps * sigma_max`` are treated as zero (standard
numerical-rank rule), which fixes the rank tolerance used by :func:`svd`
and :func:`orthonormal_basis`.  The basis is CholeskyQR2 (two passes of
Gram, Cholesky and apply) with a fallback to the truncating SVD, taken for
small Y, when a Cholesky fails, when the result is not orthonormal, and
whenever a bound on cond(Y) cannot rule out a rank below the column count;
so the basis always has numerical-rank columns.  Every SVD is one LAPACK
call, retried on the transpose and then through a QR when LAPACK does not
converge; both SVD users take it and its rank cut from one helper.  A
Frobenius norm is ``sqrt(v . v)`` over the entries v: ``np.linalg.norm``'s
own arithmetic, bit for bit, without its wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DegenerateInputError, DimensionError, NumericalAbortError

__all__ = [
    "Svd",
    "RngStream",
    "derive_stream_id",
    "as_matrix",
    "frobenius_norm",
    "operator_norm",
    "nuclear_norm",
    "inner_product",
    "svd",
    "orthonormal_basis",
    "rank_tolerance",
]


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a 2-D float64 array with finite entries.

    Public entry points check their caller's input with it; package code
    passing an array it computed calls the unchecked ``_``-kernels instead.
    """
    a = _as_nonempty_2d(m, name)
    _require_finite(a, name)
    return a


def _as_nonempty_2d(m, name: str = "matrix") -> np.ndarray:
    """``m`` as a nonempty 2-D float64 array, its entries not yet scanned."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionError(f"{name} must be nonempty")
    return a


def _require_finite(a: np.ndarray, name: str = "matrix") -> None:
    if not np.isfinite(a).all():
        raise NumericalAbortError(f"{name} contains non-finite entries")


def _frobenius(a: np.ndarray) -> float:
    v = a.ravel(order="K")
    return math.sqrt(float(v.dot(v)))


def frobenius_norm(m) -> float:
    return _frobenius(as_matrix(m))


def _operator_norm(a: np.ndarray) -> float:
    return float(_lapack_svd(a, compute_uv=False)[0])


def operator_norm(m) -> float:
    """Largest singular value."""
    return _operator_norm(as_matrix(m))


def nuclear_norm(m) -> float:
    """Sum of singular values."""
    return float(np.sum(_lapack_svd(as_matrix(m), compute_uv=False)))


def _inner_product(x: np.ndarray, y: np.ndarray) -> float:
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.sum(x * y))


def inner_product(a, b) -> float:
    """Trace inner product <A, B> = tr(A^T B)."""
    return _inner_product(as_matrix(a, "a"), as_matrix(b, "b"))


def rank_tolerance(shape: tuple[int, int], sigma_max: float) -> float:
    return max(shape) * np.finfo(np.float64).eps * sigma_max


@dataclass(frozen=True)
class Svd:
    """Compact SVD: ``u @ diag(sigma) @ v.T`` reconstructs the input.

    ``u`` is m x r, ``sigma`` has length r (positive, nonincreasing),
    ``v`` is n x r.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.sigma)


def _lapack_svd(a: np.ndarray, compute_uv: bool = True):
    """Thin ``np.linalg.svd`` of ``a``, retried when LAPACK does not converge:
    on A^T (swapping U and V), then on the R of a QR of A's tall orientation
    (U = Q U_R); NumericalAbortError when all three fail.  Every SVD of the
    package is taken here, on matrices derived from inputs that
    ``as_matrix`` checked for NaNs, so a LinAlgError means non-convergence."""
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        pass
    tall = a if a.shape[0] >= a.shape[1] else a.T
    for m, via_qr in ((a.T, False), (tall, True)):
        try:
            q, r = np.linalg.qr(m) if via_qr else (None, m)
            out = np.linalg.svd(r, full_matrices=False, compute_uv=compute_uv)
        except np.linalg.LinAlgError:
            continue
        if not compute_uv:
            return out
        u, s, vt = out
        if q is not None:
            u = q @ u
        return (u, s, vt) if m is a else (vt.T, s, u.T)
    raise NumericalAbortError(
        f"svd did not converge on a {a.shape[0]} x {a.shape[1]} matrix, "
        "its transpose or its QR factor"
    )


def _truncated_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One thin SVD of ``a`` (:func:`_lapack_svd`), cut to its numerical
    rank r: views of the first r columns of U, singular values and rows of
    V^T."""
    u, s, vt = _lapack_svd(a)
    r = np.count_nonzero(s > rank_tolerance(a.shape, s[0]))
    if r == 0:
        raise DegenerateInputError("svd: all singular values below tolerance")
    return u[:, :r], s[:r], vt[:r]


def _svd(a: np.ndarray) -> Svd:
    u, s, vt = _truncated_svd(a)
    return Svd(u=u.copy(), sigma=s.copy(), v=vt.T.copy())


def svd(m) -> Svd:
    """Compact SVD with rank-tolerance truncation; DegenerateInputError when
    no singular value passes the rank cut, as for the zero matrix."""
    return _svd(as_matrix(m))


#: Largest ||Q^T Q - I||_F that a CholeskyQR2 basis may keep.
ORTHOGONALITY_TOL = 1e-12
#: Smallest rows * cols^2 of Y for which the basis tries CholeskyQR2.  Below
#: it the SVD's one LAPACK call costs less than CholeskyQR2's nine numpy
#: calls (16 x 5: 22 us against 46 us; 128 x 16: 100 us against 69 us).
CHOLESKY_QR_MIN_WORK = 2**15


def _cholesky_qr2(y: np.ndarray) -> np.ndarray | None:
    """Q = Y (L1 L2)^-T from two passes of Gram, Cholesky and apply, or None.

    None when a Cholesky fails, when Q is not orthonormal to
    ``ORTHOGONALITY_TOL``, or when Y may fall short of full numerical rank:
    cond(Y) = cond(L1 L2) <= prod ||L_i||_F ||L_i^-1||_F must stay below
    1 / (max(shape) eps), the rank rule's threshold.  Non-finite values from
    an overflow fail these tests, so the caller silences numpy's warnings.
    """
    q, cond_bound = y, 1.0
    for _ in range(2):
        try:
            chol = np.linalg.cholesky(q.T @ q)
            chol_inv = np.linalg.inv(chol)
        except np.linalg.LinAlgError:
            return None
        cond_bound *= np.linalg.norm(chol) * np.linalg.norm(chol_inv)
        q = q @ chol_inv.T
    ortho_err = np.linalg.norm(q.T @ q - np.eye(q.shape[1]))
    if ortho_err <= ORTHOGONALITY_TOL and cond_bound * rank_tolerance(y.shape, 1.0) < 1.0:
        return q
    return None


def _tries_cholesky_qr(rows: int, cols: int) -> bool:
    """Whether :func:`orthonormal_basis` tries CholeskyQR2 on a rows x cols Y."""
    return rows * cols**2 >= CHOLESKY_QR_MIN_WORK


def orthonormal_basis(y: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning range(y); column count = numerical rank.

    CholeskyQR2 (Fukaya et al. 2014) when Y is large enough
    (``CHOLESKY_QR_MIN_WORK``) and well conditioned; else U of the truncating
    SVD, which also serves rank-deficient Y: LAPACK's U itself at full rank,
    else a C-ordered copy of its first r columns, the layout of ``svd(y).u``.
    ``y`` is a finite 2-D float64 array and is not re-validated (the sketch
    pipeline passes the matrix it computed).  Raises DegenerateInputError for
    zero input.
    """
    if _tries_cholesky_qr(*y.shape):
        with np.errstate(all="ignore"):
            q = _cholesky_qr2(y)
        if q is not None:
            return q
    return np.ascontiguousarray(_truncated_svd(y)[0])


def _mean_and_se(vals) -> tuple[float, float]:
    """Sample mean of ``vals`` and its standard error std / sqrt(count)."""
    v = np.asarray(vals)
    return float(np.mean(v)), float(np.std(v) / np.sqrt(len(v)))


_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_stream_id(*ids: int) -> int:
    """Mix integers into a 64-bit stream id (splitmix-style, documented).

    Used to give every (seed, trial, cell, ...) tuple its own independent
    Philox stream without collisions across sweep cells.
    """
    h = 0x9E3779B97F4A7C15
    for x in ids:
        h ^= int(x) & _MASK64
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 31
    return h


class _PhiloxKey(ISeedSequence):
    """Hands Philox its 2-word key as the seed state: ``Philox(_PhiloxKey(k))``
    draws bit for bit what ``Philox(key=k)`` draws, without the SeedSequence
    seeded from OS entropy that an explicit key builds and then discards."""

    def __init__(self, key: np.ndarray):
        self._key = key

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self._key


class RngStream:
    """Counter-based RNG stream: identical (seed, stream) replays exactly.

    Backed by Philox4x64 keyed on (seed, stream), both taken modulo 2^64, so
    streams with distinct ids are statistically independent and reproducible
    across platforms.  A stream's (seed, stream) is fixed when it is built.
    """

    __slots__ = ("_seed", "_stream", "_gen")

    def __init__(self, seed: int, stream: int = 0):
        self._seed, self._stream = seed, stream
        key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(key)))

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def stream(self) -> int:
        return self._stream

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(shape)

    def substream(self, *ids: int) -> "RngStream":
        """Fresh stream derived from this one's identity plus extra ids."""
        return RngStream(self._seed, derive_stream_id(self._stream, *ids))
