"""Synthetic matrix test problems and heavy-tailed stochastic-gradient oracles.

The noise family is symmetric Pareto: entry density proportional to
|x|^-(a+1) beyond the scale, with tail exponent a slightly above the moment
index alpha, so the alpha-th moment is finite while the variance can be
infinite.  Entry scales are calibrated by Monte Carlo so the empirical
Frobenius alpha-moment sits below the budget sigma0^alpha +
sigma1^alpha * ||grad||^alpha with deliberate slack.  Batch-mean moments
come only from :func:`empirical_batch_moments`.

Draw order: each noise matrix takes, per active component (Xi0, then Xi1),
one uniform per entry for the magnitudes, then one per entry for the signs;
batch sums add in draw order.  So ``gradient_oracle(g, ||g||_F, B)`` is ``g``
plus the mean of the next B :func:`sample_noise` draws, bit for bit.  Draws
come in chunks of at most 2^16 uniforms (at least one sample), which leaves
the stream unchanged.  At that bound a chunk's arrays (512 KB of uniforms,
about 256 KB per derived array) fit in a core's L2 cache, so the allocator
recycles them instead of mapping and faulting in fresh pages: on a Xeon core
with 2 MiB of L2 the verify noise-moments scope took about 1.0 s at 2^16
against 1.4 s at 2^20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import matcore
from .errors import NumericalAbortError, PreconditionError
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

    :meth:`value_and_gradient` forms the residual, X - A or U U^T - A, once
    and returns f = 1/2 <d, d> or 1/4 <R, R> (dot products) with grad f = d
    or R U; :meth:`value` and :meth:`gradient` read their half of it.  The
    methods take a float64 array of the parameter shape and do not
    re-validate it; a non-finite entry makes f non-finite, which is how the
    runner detects a diverged iterate.
    """

    kind: str
    a: np.ndarray

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if self.kind == "quadratic":
            d = x - self.a
            return 0.5 * float(np.vdot(d, d)), d
        r = x @ x.T - self.a
        return 0.25 * float(np.vdot(r, r)), r @ x

    def value(self, x: np.ndarray) -> float:
        return self.value_and_gradient(x)[0]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(x)[1]

    def radius(self) -> float:
        """Iterate-ball radius used to keep the non-convex problem in a
        region of bounded curvature."""
        return 10.0 * float(np.linalg.norm(self.a)) ** 0.5

    def project(self, x) -> np.ndarray:
        """Clip the iterate back to the Frobenius ball (factorization only).

        An iterate whose Frobenius norm overflows has diverged, and scaling
        it by r / inf would zero it, so it raises NumericalAbortError.
        """
        if self.kind != "factorization":
            return x
        r = self.radius()
        with np.errstate(over="ignore"):
            nrm = float(np.linalg.norm(x))
        if nrm <= r:
            return x
        if not np.isfinite(nrm):
            raise NumericalAbortError("iterate norm overflows")
        return x * (r / nrm)


def quadratic_problem(a) -> Problem:
    a = matcore.as_matrix(a, "quadratic target")
    return Problem(kind="quadratic", a=a)


def factorization_problem(a0) -> Problem:
    """Non-convex symmetric factorization target A = A0 A0^T; the iterate is
    an m x rank factor U."""
    a0 = matcore.as_matrix(a0)
    a = matcore.as_matrix(a0 @ a0.T, "factorization target")
    return Problem(kind="factorization", a=a)


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


# Slack applied to each component's moment budget.  A single active
# component targets 0.9 of its budget; with both components active each
# targets 0.45, so the von Bahr-Esseen combination (constant <= 2) keeps the
# total inside the budget.
_SLACK_SINGLE = 0.9
_SLACK_PAIRED = 0.45

# Uniforms per chunk of a draw (at least one whole sample per chunk).
_CHUNK_UNIFORMS = 1 << 16


def _noise_chunks(model: NoiseModel, count: int, inner: tuple, grad_norm: float,
                  rng: RngStream):
    """Yield ``count`` noise matrices scale0 * Xi0 + scale1 * grad_norm * Xi1
    of shape ``inner`` in chunks of shape (k, *inner).  Xi0 (drawn when
    sigma0 > 0) and Xi1 (when sigma1 > 0 and grad_norm > 0) are unit-scale
    symmetric Pareto, sign * U^(-1/a); a chunk's uniforms are laid out as
    (k, components, magnitude/sign, *inner)."""
    if not model.calibrated:
        raise PreconditionError("NoiseModel must be calibrated before sampling")
    coefs = []
    if model.sigma0 > 0:
        coefs.append(model.scale0)
    if model.sigma1 > 0 and grad_norm > 0:
        coefs.append(model.scale1 * grad_norm)
    per_sample = 2 * max(1, len(coefs)) * math.prod(inner)
    step = max(1, _CHUNK_UNIFORMS // per_sample)
    for start in range(0, count, step):
        u = rng.uniform((min(step, count - start), len(coefs), 2) + inner)
        xi = u[:, :, 0] ** (-1.0 / model.tail_exponent)
        np.copysign(xi, u[:, :, 1] - 0.5, out=xi)  # negative iff u < 0.5
        out = np.zeros((len(u),) + inner)  # a zero coef adds +0.0, not -0.0
        for c, coef in enumerate(coefs):
            out += coef * xi[:, c]
        yield out


def _frobenius_powers(x: np.ndarray, alpha: float) -> list:
    """||x[i]||_F^alpha for each i, powered as Python floats (array ** rounds apart)."""
    sq = (x * x).reshape(len(x), -1).sum(axis=1)
    return [v ** (alpha / 2.0) for v in sq.tolist()]


def calibrate(
    model: NoiseModel, shape: tuple[int, int], rng: RngStream, n_samples: int = 20000
) -> NoiseModel:
    """Fit entry scales by Monte Carlo so each component's Frobenius
    alpha-moment hits its slack-reduced budget for matrices of ``shape``.

    The moment is alpha-homogeneous in the scale, so one unit-scale estimate
    m_hat of :func:`empirical_alpha_moment` (``n_samples >= 1000``)
    determines the fit exactly: scale = (target / m_hat)^(1/alpha).
    """
    shape = tuple(shape)
    unit = NoiseModel(model.alpha, 1.0, tail_exponent=model.tail_exponent, scale0=1.0)
    m_hat, se = empirical_alpha_moment(unit, shape, n_samples, rng)
    slack = (
        _SLACK_PAIRED if (model.sigma0 > 0 and model.sigma1 > 0) else _SLACK_SINGLE
    )

    def fit(sigma: float) -> float:
        return (slack * sigma**model.alpha / m_hat) ** (1.0 / model.alpha) if sigma > 0 else 0.0

    return replace(
        model,
        scale0=fit(model.sigma0),
        scale1=fit(model.sigma1),
        calib_shape=shape,
        calib_rel_tol=se / m_hat,
    )


def sample_noise(
    model: NoiseModel, shape: tuple[int, int], grad_norm: float, rng: RngStream
) -> np.ndarray:
    """One zero-mean noise matrix: scale0 * Xi0 + scale1 * grad_norm * Xi1
    with Xi0, Xi1 i.i.d. unit-scale symmetric Pareto."""
    return next(_noise_chunks(model, 1, tuple(shape), grad_norm, rng))[0]


def gradient_oracle(
    grad: np.ndarray, grad_norm: float, batch: int, model: NoiseModel, rng: RngStream
) -> np.ndarray:
    """Unbiased stochastic gradient: the exact gradient ``grad`` plus the
    mean of ``batch`` independent noise draws; ``grad_norm`` = ||grad||_F
    scales Xi1 as in :func:`sample_noise`."""
    if batch < 1:
        raise PreconditionError("batch must be >= 1")
    if model.sigma0 == 0.0 and model.sigma1 == 0.0:
        return grad
    total = None
    for draws in _noise_chunks(model, batch, grad.shape, grad_norm, rng):
        if total is not None:
            draws[0] += total  # carry the running sum across chunks
        total = np.add.accumulate(draws)[-1]  # in draw order; sum may pair up
    return grad + total / batch


def empirical_alpha_moment(
    model: NoiseModel,
    shape: tuple[int, int],
    n: int,
    rng: RngStream,
    grad_norm: float = 0.0,
) -> tuple[float, float]:
    """Monte Carlo estimate of E ||Xi||_F^alpha (with its standard error) over
    ``n`` noise draws Xi; batch means take :func:`empirical_batch_moments`."""
    if n < 1000:
        raise PreconditionError("need at least 1000 samples")
    vals = []
    for draws in _noise_chunks(model, n, tuple(shape), grad_norm, rng):
        vals += _frobenius_powers(draws, model.alpha)
    return matcore._mean_and_se(vals)


def empirical_batch_moments(
    model: NoiseModel,
    shape: tuple[int, int],
    n: int,
    rng: RngStream,
    batches: tuple[int, ...] = (1, 4, 16, 64),
    grad_norm: float = 0.0,
) -> dict[int, tuple[float, float]]:
    """Coupled Monte Carlo estimates of E ||batch-mean noise||_F^alpha for
    several batch sizes, keyed by batch size.  Each size-b estimate averages
    ``n`` means of b i.i.d. draws; the coupling only correlates the sizes.

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
    inner = (max(batches),) + tuple(shape)
    vals = {b: [] for b in batches}
    for draws in _noise_chunks(model, n, inner, grad_norm, rng):
        csum = np.add.accumulate(draws, axis=1)
        for b in batches:
            vals[b] += _frobenius_powers(csum[:, b - 1] / b, model.alpha)
    return {b: matcore._mean_and_se(v) for b, v in vals.items()}
