"""Dense matrix primitives: norms, compact SVD, orthonormal bases, RNG streams.

All matrices are 2-D float64 numpy arrays.  Singular values below
``max(rows, cols) * eps * sigma_max`` are treated as zero (standard
numerical-rank rule), which fixes the rank tolerance used by :func:`svd`,
:func:`orthonormal_basis`, and :func:`numerical_rank`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError

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
    "numerical_rank",
    "rank_tolerance",
]


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a 2-D float64 array with finite entries."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionError(f"{name} must be nonempty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def frobenius_norm(m) -> float:
    a = as_matrix(m)
    return float(np.sqrt(np.sum(a * a)))


def operator_norm(m) -> float:
    """Largest singular value."""
    a = as_matrix(m)
    if not a.any():
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def nuclear_norm(m) -> float:
    """Sum of singular values."""
    a = as_matrix(m)
    if not a.any():
        return 0.0
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def inner_product(a, b) -> float:
    """Trace inner product <A, B> = tr(A^T B)."""
    x = as_matrix(a, "a")
    y = as_matrix(b, "b")
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.sum(x * y))


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

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def svd(m) -> Svd:
    """Compact SVD with rank-tolerance truncation.

    Raises DegenerateInputError for the zero matrix.
    """
    a = as_matrix(m)
    if not a.any():
        raise DegenerateInputError("svd of zero matrix")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    tol = rank_tolerance(a.shape, s[0])
    r = int(np.sum(s > tol))
    if r == 0:
        raise DegenerateInputError("svd: all singular values below tolerance")
    return Svd(u=u[:, :r].copy(), sigma=s[:r].copy(), v=vt[:r].T.copy())


def numerical_rank(m) -> int:
    a = as_matrix(m)
    if not a.any():
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > rank_tolerance(a.shape, s[0])))


def orthonormal_basis(y) -> np.ndarray:
    """Orthonormal columns spanning range(y); column count = numerical rank.

    Raises DegenerateInputError for zero input.
    """
    return svd(y).u


def derive_stream_id(*ids: int) -> int:
    """Mix integers into a 64-bit stream id (splitmix-style, documented).

    Used to give every (seed, trial, cell, ...) tuple its own independent
    Philox stream without collisions across sweep cells.
    """
    h = 0x9E3779B97F4A7C15
    for x in ids:
        h ^= int(x) & 0xFFFFFFFFFFFFFFFF
        h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


@dataclass
class RngStream:
    """Counter-based RNG stream: identical (seed, stream) replays exactly.

    Backed by Philox4x64 keyed on (seed, stream), so streams with distinct
    ids are statistically independent and reproducible across platforms.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        key = np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(shape)

    def substream(self, *ids: int) -> "RngStream":
        """Fresh stream derived from this one's identity plus extra ids."""
        return RngStream(self.seed, derive_stream_id(self.stream, *ids))
