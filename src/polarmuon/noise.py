"""Synthetic matrix test problems and heavy-tailed stochastic-gradient oracles.

The noise family is symmetric Pareto: entry density proportional to
|x|^-(a+1) beyond the scale, with tail exponent a slightly above the moment
index alpha, so the alpha-th moment is finite while the variance can be
infinite.  Entry scales are calibrated by Monte Carlo so the empirical
Frobenius alpha-moment sits below the budget sigma0^alpha +
sigma1^alpha * ||grad||^alpha with deliberate slack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import matcore
from .errors import PreconditionError
from .matcore import RngStream

__all__ = [
    "Problem",
    "quadratic_problem",
    "factorization_problem",
    "NoiseModel",
    "calibrate",
    "sample_noise",
    "gradient_oracle",
    "empirical_alpha_moment",
    "empirical_batch_moments",
]


@dataclass(frozen=True)
class Problem:
    """Differentiable matrix objective.

    quadratic:      f(X) = 1/2 ||X - A||_F^2           (L = 1)
    factorization:  f(U) = 1/4 ||U U^T - A||_F^2 with symmetric psd A
    """

    kind: str
    a: np.ndarray
    m: int
    n: int
    smoothness: float | None

    def value(self, x) -> float:
        x = matcore.as_matrix(x)
        if self.kind == "quadratic":
            d = x - self.a
            return 0.5 * float(np.sum(d * d))
        r = x @ x.T - self.a
        return 0.25 * float(np.sum(r * r))

    def gradient(self, x) -> np.ndarray:
        x = matcore.as_matrix(x)
        if self.kind == "quadratic":
            return x - self.a
        return (x @ x.T - self.a) @ x

    def radius(self) -> float:
        """Iterate-ball radius used to keep the non-convex problem in a
        region of bounded curvature."""
        return 10.0 * float(np.linalg.norm(self.a)) ** 0.5

    def project(self, x) -> tuple[np.ndarray, bool]:
        """Clip the iterate back to the Frobenius ball (factorization only)."""
        if self.kind != "factorization":
            return x, False
        r = self.radius()
        nrm = float(np.linalg.norm(x))
        if nrm <= r:
            return x, False
        return x * (r / nrm), True


def quadratic_problem(a) -> Problem:
    a = matcore.as_matrix(a)
    return Problem(kind="quadratic", a=a, m=a.shape[0], n=a.shape[1], smoothness=1.0)


def factorization_problem(a0) -> Problem:
    """Non-convex symmetric factorization target A = A0 A0^T; the iterate is
    an m x rank factor U."""
    a0 = matcore.as_matrix(a0)
    a = a0 @ a0.T
    return Problem(
        kind="factorization", a=a, m=a0.shape[0], n=a0.shape[1], smoothness=None
    )


@dataclass(frozen=True)
class NoiseModel:
    """Heavy-tail parameters plus the calibrated per-entry scales.

    ``scale0``/``scale1`` multiply unit-scale Pareto draws for the constant
    and gradient-proportional components; ``None`` means not yet calibrated.
    ``calib_shape`` records the matrix shape the calibration targeted and
    ``calib_rel_tol`` the Monte Carlo tolerance of the fit.
    """

    alpha: float = 2.0
    sigma0: float = 0.0
    sigma1: float = 0.0
    tail_exponent: float | None = None
    scale0: float | None = None
    scale1: float | None = None
    calib_shape: tuple[int, int] | None = None
    calib_rel_tol: float | None = None

    def __post_init__(self):
        if not 1.0 < self.alpha <= 2.0:
            raise PreconditionError("alpha must lie in (1, 2]")
        if self.sigma0 < 0 or self.sigma1 < 0:
            raise PreconditionError("sigma0, sigma1 must be nonnegative")
        if self.tail_exponent is None:
            object.__setattr__(self, "tail_exponent", self.alpha + 0.25)
        if self.tail_exponent <= self.alpha:
            raise PreconditionError("tail exponent must exceed alpha")

    @property
    def calibrated(self) -> bool:
        return (self.sigma0 == 0.0 or self.scale0 is not None) and (
            self.sigma1 == 0.0 or self.scale1 is not None
        )


def _pareto_entries(shape, tail_exponent: float, rng: RngStream) -> np.ndarray:
    """Unit-scale symmetric Pareto draws: sign * U^(-1/a), |x| >= 1."""
    u = rng.uniform(shape)
    mag = u ** (-1.0 / tail_exponent)
    sign = np.where(rng.uniform(shape) < 0.5, -1.0, 1.0)
    return sign * mag

# Slack applied to each component's moment budget.  A single active
# component targets 0.9 of its budget; with both components active each
# targets 0.45, so the von Bahr-Esseen combination (constant <= 2) keeps the
# total inside the budget.
_SLACK_SINGLE = 0.9
_SLACK_PAIRED = 0.45


def calibrate(
    model: NoiseModel, shape: tuple[int, int], rng: RngStream, n_samples: int = 20000
) -> NoiseModel:
    """Fit entry scales by Monte Carlo so each component's Frobenius
    alpha-moment hits its slack-reduced budget for matrices of ``shape``.

    The moment is alpha-homogeneous in the scale, so a single unit-scale
    estimate determines the fit exactly: scale = (target / m_hat)^(1/alpha).
    """
    moments = np.empty(n_samples)
    for i in range(n_samples):
        xi = _pareto_entries(shape, model.tail_exponent, rng)
        moments[i] = np.sum(xi * xi) ** (model.alpha / 2.0)
    m_hat = float(np.mean(moments))
    rel_tol = float(np.std(moments) / np.sqrt(n_samples) / m_hat)
    slack = (
        _SLACK_PAIRED if (model.sigma0 > 0 and model.sigma1 > 0) else _SLACK_SINGLE
    )
    scale0 = (
        (slack * model.sigma0**model.alpha / m_hat) ** (1.0 / model.alpha)
        if model.sigma0 > 0
        else 0.0
    )
    scale1 = (
        (slack * model.sigma1**model.alpha / m_hat) ** (1.0 / model.alpha)
        if model.sigma1 > 0
        else 0.0
    )
    return replace(
        model,
        scale0=scale0,
        scale1=scale1,
        calib_shape=tuple(shape),
        calib_rel_tol=rel_tol,
    )


def sample_noise(
    model: NoiseModel, shape: tuple[int, int], grad_norm: float, rng: RngStream
) -> np.ndarray:
    """One zero-mean noise matrix: scale0 * Xi0 + scale1 * grad_norm * Xi1
    with Xi0, Xi1 i.i.d. unit-scale symmetric Pareto."""
    if model.sigma0 == 0.0 and model.sigma1 == 0.0:
        return np.zeros(shape)
    if not model.calibrated:
        raise PreconditionError("NoiseModel must be calibrated before sampling")
    out = np.zeros(shape)
    if model.sigma0 > 0:
        out += model.scale0 * _pareto_entries(shape, model.tail_exponent, rng)
    if model.sigma1 > 0 and grad_norm > 0:
        out += model.scale1 * grad_norm * _pareto_entries(
            shape, model.tail_exponent, rng
        )
    return out


def gradient_oracle(
    grad: np.ndarray, batch: int, model: NoiseModel, rng: RngStream
) -> np.ndarray:
    """Unbiased stochastic gradient: the exact gradient ``grad`` plus the
    mean of ``batch`` independent noise draws."""
    if batch < 1:
        raise PreconditionError("batch must be >= 1")
    if model.sigma0 == 0.0 and model.sigma1 == 0.0:
        return grad
    gnorm = float(np.linalg.norm(grad))
    acc = np.zeros_like(grad)
    for _ in range(batch):
        acc += sample_noise(model, grad.shape, gnorm, rng)
    return grad + acc / batch


def empirical_alpha_moment(
    model: NoiseModel,
    shape: tuple[int, int],
    n: int,
    rng: RngStream,
    grad_norm: float = 0.0,
    batch: int = 1,
) -> tuple[float, float]:
    """Monte Carlo estimate of E ||Xi||_F^alpha (with its standard error),
    where Xi is a batch-mean of ``batch`` independent noise draws."""
    if n < 1000:
        raise PreconditionError("need at least 1000 samples")
    vals = np.empty(n)
    for i in range(n):
        acc = np.zeros(shape)
        for _ in range(batch):
            acc += sample_noise(model, shape, grad_norm, rng)
        acc /= batch
        vals[i] = np.sum(acc * acc) ** (model.alpha / 2.0)
    return float(np.mean(vals)), float(np.std(vals) / np.sqrt(n))


def empirical_batch_moments(
    model: NoiseModel,
    shape: tuple[int, int],
    n: int,
    rng: RngStream,
    batches: tuple[int, ...] = (1, 4, 16, 64),
    grad_norm: float = 0.0,
) -> dict[int, tuple[float, float]]:
    """Coupled Monte Carlo estimates of E ||batch-mean noise||_F^alpha for
    several batch sizes, keyed by batch size.

    Every batch size in a trial reuses the same underlying draws (the size-b
    mean averages the first b of max(batches) draws), so cross-batch
    comparisons share randomness.  This common-random-numbers coupling keeps
    the decreasing-in-b trend visible at sample counts where independent
    estimates would be dominated by the estimator's own heavy tail.
    """
    if n < 1000:
        raise PreconditionError("need at least 1000 samples")
    if any(b < 1 for b in batches):
        raise PreconditionError("batch sizes must be >= 1")
    if not model.calibrated:
        raise PreconditionError("NoiseModel must be calibrated before sampling")
    b_max = max(batches)
    vals = {b: np.empty(n) for b in batches}
    half = model.alpha / 2.0
    for i in range(n):
        draws = np.zeros((b_max,) + tuple(shape))
        if model.sigma0 > 0:
            draws += model.scale0 * _pareto_entries(draws.shape, model.tail_exponent, rng)
        if model.sigma1 > 0 and grad_norm > 0:
            draws += model.scale1 * grad_norm * _pareto_entries(
                draws.shape, model.tail_exponent, rng
            )
        csum = np.cumsum(draws, axis=0)
        for b in batches:
            mean_b = csum[b - 1] / b
            vals[b][i] = np.sum(mean_b * mean_b) ** half
    return {
        b: (float(np.mean(v)), float(np.std(v) / np.sqrt(n))) for b, v in vals.items()
    }
