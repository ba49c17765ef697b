"""Lifted randomized polar decomposition with Gaussian and Kaczmarz sketches.

Pipeline: draw a sketch Omega (n x ell), form Y = (M M^T)^h M Omega, take
Q = orth(Y), compress to B = Q^T M, run the polynomial polar iteration on
B / delta, and lift back with Q.  Each power step forms M^T Y as (Y^T M)^T.
When n >= 2 ell the polynomial runs on the ell x ell Gram matrix of B (the
Gram form of :func:`polarmuon.polar.polynomial_iterate`).  The
expected-alignment lower bound and the integer power-iteration rule are
exposed as spectrum calculators; they read the split s from their
:class:`SpectrumSummary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matcore
from .errors import DegenerateInputError, NumericalAbortError, PreconditionError
from .matcore import RngStream
from .polar import (
    SIGMA1_REL_SLACK, PolarConfig, _checked_input, _scaled_polynomial, polynomial_iterate,
)

__all__ = [
    "SketchConfig",
    "SpectrumSummary",
    "ThetaGamma",
    "gaussian_sketch",
    "kaczmarz_sketch",
    "power_iterate",
    "randomized_polar",
    "prop2_lower_bound",
    "choose_power_iterations",
    "theta_and_gamma",
]


@dataclass(frozen=True)
class SketchConfig:
    """Randomized-polar parameters: target rank s, oversampling p >= 2,
    power iterations h, sketch kind."""

    s: int
    p: int = 2
    h: int = 0
    kind: str = "gaussian"  # "gaussian" | "kaczmarz"

    def __post_init__(self):
        if self.s < 1:
            raise PreconditionError("target rank s must be >= 1")
        if self.p < 2:
            raise PreconditionError("oversampling p must be >= 2")
        if self.h < 0:
            raise PreconditionError("power iterations h must be >= 0")
        if self.kind not in ("gaussian", "kaczmarz"):
            raise PreconditionError(f"unknown sketch kind: {self.kind!r}")

    @property
    def ell(self) -> int:
        return self.s + self.p

    def check_shape(self, shape: tuple[int, int]) -> None:
        """The sketch must fit the matrix: ell = s + p <= min(shape)."""
        if self.ell > min(shape):
            raise PreconditionError(
                f"ell = s + p = {self.ell} exceeds min(shape) = {min(shape)}"
            )


@dataclass(frozen=True)
class SpectrumSummary:
    """Head/tail energy split of a singular spectrum at index s.

    H_s = sum of sigma_j^2 for j <= s, T_s for j > s, and the gap ratio
    rho_s = sigma_{s+1} / sigma_s.
    """

    sigma: np.ndarray
    s: int
    head_energy: float
    tail_energy: float
    gap_ratio: float

    @classmethod
    def from_sigma(cls, sigma, s: int) -> "SpectrumSummary":
        sg = np.asarray(sigma, dtype=np.float64)
        if sg.size < 2 or np.any(sg <= 0) or np.any(np.diff(sg) > 0):
            raise PreconditionError("sigma must be positive and nonincreasing, length >= 2")
        if not 1 <= s < sg.size:
            raise PreconditionError("need 1 <= s < len(sigma)")
        return cls(
            sigma=sg,
            s=s,
            head_energy=float(np.sum(sg[:s] ** 2)),
            tail_energy=float(np.sum(sg[s:] ** 2)),
            gap_ratio=float(sg[s] / sg[s - 1]),
        )


def gaussian_sketch(n: int, ell: int, rng: RngStream, stack: int | None = None) -> np.ndarray:
    """n x ell matrix of i.i.d. standard normal entries.

    With ``stack`` it returns a (stack, n, ell) array: bit for bit the
    matrices of ``stack`` successive 2-D calls, with the stream left where
    they would leave it.
    """
    return rng.normal((n, ell) if stack is None else (stack, n, ell))


def kaczmarz_sketch(m, ell: int, rng: RngStream, stack: int | None = None) -> np.ndarray:
    """Sparse sketch of rescaled canonical basis columns.

    Column j of the input is sampled with probability proportional to its
    squared norm; sketch column k is e_{i_k} / sqrt(ell * pi_{i_k}).  With
    ``stack`` it returns a (stack, n, ell) array, as :func:`gaussian_sketch`.
    """
    return _kaczmarz_sketch(matcore.as_matrix(m), ell, rng, stack)


def _kaczmarz_sketch(
    a: np.ndarray, ell: int, rng: RngStream, stack: int | None = None
) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflow raises below
        col_energy = np.sum(a * a, axis=0)
        total = float(np.sum(col_energy))
    if total == 0.0:
        raise DegenerateInputError("kaczmarz_sketch of zero matrix")
    if not np.isfinite(total):
        raise NumericalAbortError("kaczmarz_sketch: column energies overflow")
    pi = col_energy / total
    n = a.shape[1]
    size = ell if stack is None else (stack, ell)
    idx = rng.generator.choice(n, size=size, replace=True, p=pi)[..., None, :]  # (..., 1, ell)
    omega = np.zeros(idx.shape[:-2] + (n, ell))
    np.put_along_axis(omega, idx, 1.0 / np.sqrt(ell * pi[idx]), axis=-2)
    return omega


def power_iterate(m: np.ndarray, omega: np.ndarray, h: int) -> np.ndarray:
    """Y = (M M^T)^h M Omega, applied right to left.

    Each power step forms M^T Y as (Y^T M)^T: the same product, but BLAS
    then reads M in its stored order, which is faster than reading M^T
    (single-threaded OpenBLAS: 3.5 against 5.2 ms at 1024 x 1024 by 64).
    """
    y = m @ omega
    for _ in range(h):
        y = m @ (y.T @ m).T
    return y


def _draw_sketch(a: np.ndarray, scfg: SketchConfig, rng: RngStream) -> np.ndarray:
    if scfg.kind == "gaussian":
        return gaussian_sketch(a.shape[1], scfg.ell, rng)
    return _kaczmarz_sketch(a, scfg.ell, rng)


def randomized_polar(
    m, scfg: SketchConfig, pcfg: PolarConfig, rng: RngStream
) -> np.ndarray:
    """Project down, iterate, project up; returns Q @ Z_q.

    delta is resolved from ``pcfg.delta_rule`` on the *original* matrix, so
    a ``theoretical`` schedule keeps the almost-sure operator-norm <= 1
    guarantee whenever delta >= ||m||_op.  ``m`` and ``pcfg`` are checked by
    :func:`polarmuon.polar._checked_input`, then the sketch shape, then
    delta, all before the sketch is drawn; the compressed iterate Z is
    checked by :func:`polarmuon.polar._scaled_polynomial`, before the lift.
    A zero ``m`` under an explicit delta, or a Y that underflowed to
    numerical rank 0, raises DegenerateInputError; a Y that overflowed in
    the power iteration raises NumericalAbortError once its basis fails.
    """
    a, norm = _checked_input(m, pcfg, "randomized_polar")
    scfg.check_shape(a.shape)
    delta = pcfg.resolve_delta(a, norm)
    y = power_iterate(a, _draw_sketch(a, scfg, rng), scfg.h)
    try:
        q_basis = matcore.orthonormal_basis(y)
    except (DegenerateInputError, NumericalAbortError):
        if not np.isfinite(y).all():  # checked only once the basis failed
            raise NumericalAbortError("power iteration overflows") from None
        raise
    return q_basis @ _scaled_polynomial(polynomial_iterate, q_basis.T @ a, delta, pcfg)


def prop2_lower_bound(spec: SpectrumSummary, p: int, h: int, delta: float) -> float:
    """Expected-alignment lower bound (1/delta) * [H_s - s/(p-1) rho^(4h) T_s]_+
    at the split s of ``spec``."""
    if p < 2:
        raise PreconditionError("oversampling p must be >= 2")
    if delta < spec.sigma[0] * (1.0 - SIGMA1_REL_SLACK):
        raise PreconditionError("delta must be >= sigma_1")
    a = spec.head_energy - (spec.s / (p - 1)) * spec.gap_ratio ** (4 * h) * spec.tail_energy
    return max(0.0, a) / delta


def choose_power_iterations(spec: SpectrumSummary, p: int) -> int | None:
    """Smallest integer h making the alignment bound at the split s of
    ``spec`` positive; None if infeasible.

    h = 0 already suffices when H_s > s T_s / (p-1).  Otherwise, with a
    spectral gap (rho_s < 1), h = 1 + floor(log(s T_s / ((p-1) H_s)) /
    (4 log(1/rho_s))).  A flat tail (rho_s = 1) cannot be fixed by power
    iteration, so the rule reports infeasible.
    """
    if p < 2:
        raise PreconditionError("oversampling p must be >= 2")
    penalty = spec.s * spec.tail_energy / (p - 1)
    if spec.head_energy > penalty:
        return 0
    rho = spec.gap_ratio
    if rho >= 1.0:
        return None
    return 1 + int(
        np.floor(np.log(penalty / spec.head_energy) / (4.0 * np.log(1.0 / rho)))
    )


class ThetaGamma(NamedTuple):
    theta: float
    gamma: float
    degenerate: bool


def theta_and_gamma(spec: SpectrumSummary, p: int, h: int, delta: float) -> ThetaGamma:
    """Certified alignment fraction theta = [A_{s,h}]_+ / (delta ||M||_*) and
    gamma = 1 - theta, at the split s of ``spec``.  ``degenerate`` flags
    theta = 0 (bound uninformative)."""
    bound = prop2_lower_bound(spec, p, h, delta)
    nuclear = float(np.sum(spec.sigma))
    theta = bound * delta / (delta * nuclear)
    return ThetaGamma(theta=theta, gamma=1.0 - theta, degenerate=theta == 0.0)
