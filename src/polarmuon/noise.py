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
recycles them instead of mapping and faulting in fresh pages.

The estimators take a tuple of models and draw each chunk once for all of
them: the models share its uniforms and signs and differ only in the power
and the scales applied to them, so each model's estimate is bit for bit that
of a call with it alone on the same stream.  The shared layout needs the
models to agree on their number of active components.  :func:`calibrate_models`
fits several models from one draw the same way.  The verify noise-moments
scope calibrates and estimates alpha = 1.25, 1.5 and 2 from one draw of each
of its three streams, not three, so a ``polarmuon verify`` of all scopes
makes 330 ``RngStream.uniform`` calls instead of 990.  A batch-mean estimate
forms only the prefix sums of the batch sizes it reads, in draw order.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import cached_property

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
    "calibrate_models",
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

    @cached_property
    def radius(self) -> float:
        """Iterate-ball radius 10 ||A||_F^(1/2) used to keep the non-convex
        problem in a region of bounded curvature.  It is computed on first
        use and kept: a factorization run takes ||A||_F once, and a quadratic
        run, whose projection is the identity, never takes it."""
        return 10.0 * matcore._frobenius(self.a) ** 0.5

    def project(self, x) -> np.ndarray:
        """Clip the iterate back to the Frobenius ball (factorization only).

        An iterate whose Frobenius norm overflows has diverged, and scaling
        it by r / inf would zero it, so it raises NumericalAbortError.
        """
        if self.kind != "factorization":
            return x
        r = self.radius
        with np.errstate(over="ignore"):
            nrm = matcore._frobenius(x)
        if nrm <= r:
            return x
        if not math.isfinite(nrm):
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


def _noise_plans(models: tuple, grad_norm: float) -> tuple[int, list]:
    """(active components, [(-1/a, component coefficients) per model]) of a
    draw shared by ``models``.  The component count sets the draw's layout,
    so models that disagree on it cannot share one."""
    if not models:
        raise PreconditionError("need at least one noise model")
    plans = []
    for model in models:
        if not model.calibrated:
            raise PreconditionError("NoiseModel must be calibrated before sampling")
        coefs = (model.scale0,) if model.sigma0 > 0 else ()
        if model.sigma1 > 0 and grad_norm > 0:
            coefs += (model.scale1 * grad_norm,)
        plans.append((-1.0 / model.tail_exponent, coefs))
    comps = len(plans[0][1])
    for _, coefs in plans:
        if len(coefs) != comps:
            raise PreconditionError(
                "noise models sharing a draw must have the same active components"
            )
    return comps, plans


def _compose(u: np.ndarray, sign: np.ndarray, power: float, coefs: tuple) -> np.ndarray:
    """sum_c coefs[c] * sign[:, c] * u[:, c, 0]^power, shape (k, *inner).
    One component with a positive coefficient is scaled in place: |Xi| >= 1,
    so coef * Xi is never -0.0 and equals 0.0 + coef * Xi bit for bit."""
    xi = u[:, :, 0] ** power
    np.copysign(xi, sign, out=xi)
    if len(coefs) == 1 and coefs[0] > 0:
        out = xi[:, 0]
        out *= coefs[0]
        return out
    out = np.zeros((len(u),) + u.shape[3:])  # a zero coef adds +0.0, not -0.0
    for c, coef in enumerate(coefs):
        out += coef * xi[:, c]
    return out


def _draw(comps: int, plans: list, k: int, inner: tuple, rng: RngStream) -> list:
    """``k`` noise matrices scale0 * Xi0 + scale1 * grad_norm * Xi1 of shape
    ``inner`` per plan of :func:`_noise_plans`: one (k, *inner) array per
    model.  Xi0 (drawn when sigma0 > 0) and Xi1 (when sigma1 > 0 and
    grad_norm > 0) are unit-scale symmetric Pareto, sign * U^(-1/a); the
    uniforms are laid out as (k, components, magnitude/sign, *inner).  The
    models share the uniforms and the signs, so each model's matrices are
    bit for bit those of a draw of that model alone from the same stream."""
    u = rng.uniform((k, comps, 2) + inner)
    sign = u[:, :, 1] - 0.5  # negative iff u < 0.5
    return [_compose(u, sign, power, coefs) for power, coefs in plans]


def _noise_chunks(models: tuple, count: int, inner: tuple, grad_norm: float,
                  rng: RngStream):
    """Yield :func:`_draw` lists of ``count`` matrices per model in chunks of
    at most ``_CHUNK_UNIFORMS`` uniforms (at least one sample each)."""
    comps, plans = _noise_plans(models, grad_norm)
    step = max(1, _CHUNK_UNIFORMS // (2 * max(1, comps) * math.prod(inner)))
    for start in range(0, count, step):
        yield _draw(comps, plans, min(step, count - start), inner, rng)


def _frobenius_powers(x: np.ndarray, alpha: float) -> list:
    """||x[i]||_F^alpha for each i, powered as Python floats (array ** rounds apart)."""
    sq = (x * x).reshape(len(x), -1).sum(axis=1)
    return [v ** (alpha / 2.0) for v in sq.tolist()]


def _prefix_sums(draws: np.ndarray, batches: tuple) -> np.ndarray:
    """(len(batches), k, *inner) sums of the first b of each row of a
    (k, max(batches), *inner) ``draws`` for each b of ``batches``, added in
    draw order: bit for bit ``np.add.accumulate(draws, axis=1)[:, b - 1]``.
    numpy reduces a non-innermost axis slice by slice, in order, so only the
    sums read are formed.  With one entry per matrix the batch axis becomes
    the innermost, which numpy sums pairwise, so that case accumulates."""
    out = np.empty((len(batches),) + draws.shape[:1] + draws.shape[2:])
    if math.prod(draws.shape[2:]) == 1:
        csum = np.add.accumulate(draws, axis=1)
        for sums, b in zip(out, batches):
            sums[...] = csum[:, b - 1]
        return out
    for sums, b in zip(out, batches):
        np.add.reduce(draws[:, :b], axis=1, out=sums)
    return out


def calibrate_models(
    models: tuple[NoiseModel, ...],
    shape: tuple[int, int],
    rng: RngStream,
    n_samples: int = 20000,
) -> list[NoiseModel]:
    """Fit entry scales by Monte Carlo so each component's Frobenius
    alpha-moment hits its slack-reduced budget for matrices of ``shape``;
    one fitted model per model of ``models``, in order.

    The moment is alpha-homogeneous in the scale, so one unit-scale estimate
    m_hat of :func:`empirical_alpha_moment` (``n_samples >= 1000``)
    determines the fit exactly: scale = (target / m_hat)^(1/alpha).  The
    unit models share one draw, so each fit is bit for bit that of
    :func:`calibrate` with its model alone on the same stream.
    """
    shape = tuple(shape)
    units = tuple(
        NoiseModel(model.alpha, 1.0, tail_exponent=model.tail_exponent, scale0=1.0)
        for model in models
    )
    estimates = empirical_alpha_moment(units, shape, n_samples, rng)
    return [_fit(model, m_hat, se, shape) for model, (m_hat, se) in zip(models, estimates)]


def _fit(model: NoiseModel, m_hat: float, se: float, shape: tuple) -> NoiseModel:
    """``model`` with the scales that put each component's moment at its
    slack-reduced budget, given the unit-scale moment ``m_hat`` (s.e. ``se``)."""
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


def calibrate(
    model: NoiseModel, shape: tuple[int, int], rng: RngStream, n_samples: int = 20000
) -> NoiseModel:
    """:func:`calibrate_models` of the one model ``model``."""
    return calibrate_models((model,), shape, rng, n_samples)[0]


def sample_noise(
    model: NoiseModel, shape: tuple[int, int], grad_norm: float, rng: RngStream
) -> np.ndarray:
    """One zero-mean noise matrix: scale0 * Xi0 + scale1 * grad_norm * Xi1
    with Xi0, Xi1 i.i.d. unit-scale symmetric Pareto."""
    return _draw(*_noise_plans((model,), grad_norm), 1, tuple(shape), rng)[0][0]


def gradient_oracle(
    grad: np.ndarray, grad_norm: float, batch: int, model: NoiseModel, rng: RngStream
) -> np.ndarray:
    """Unbiased stochastic gradient: the exact gradient ``grad`` plus the
    mean of ``batch`` independent noise draws; ``grad_norm`` = ||grad||_F
    scales Xi1 as in :func:`sample_noise`.  A batch of one adds its draw as
    it is (the running sum of one draw is the draw, and x / 1 = x)."""
    if batch < 1:
        raise PreconditionError("batch must be >= 1")
    if model.sigma0 == 0.0 and model.sigma1 == 0.0:
        return grad
    if batch == 1:
        return grad + _draw(*_noise_plans((model,), grad_norm), 1, grad.shape, rng)[0][0]
    total = None
    for (draws,) in _noise_chunks((model,), batch, grad.shape, grad_norm, rng):
        if total is not None:
            draws[0] += total  # carry the running sum across chunks
        total = np.add.accumulate(draws)[-1]  # in draw order; sum may pair up
    return grad + total / batch


def empirical_alpha_moment(
    models: tuple[NoiseModel, ...],
    shape: tuple[int, int],
    n: int,
    rng: RngStream,
    grad_norm: float = 0.0,
) -> list[tuple[float, float]]:
    """Monte Carlo estimates of E ||Xi||_F^alpha (with their standard errors)
    over ``n`` noise draws Xi, one per model of ``models``, in order; batch
    means take :func:`empirical_batch_moments`.  The models share one draw
    (see :func:`_draw`), so each estimate equals that of a call with
    its model alone on the same stream."""
    if n < 1000:
        raise PreconditionError("need at least 1000 samples")
    vals = [array("d") for _ in models]
    for chunk in _noise_chunks(models, n, tuple(shape), grad_norm, rng):
        for v, model, draws in zip(vals, models, chunk):
            v.extend(_frobenius_powers(draws, model.alpha))
    return [matcore._mean_and_se(v) for v in vals]


def empirical_batch_moments(
    models: tuple[NoiseModel, ...],
    shape: tuple[int, int],
    n: int,
    rng: RngStream,
    batches: tuple[int, ...] = (1, 4, 16, 64),
    grad_norm: float = 0.0,
) -> list[dict[int, tuple[float, float]]]:
    """Coupled Monte Carlo estimates of E ||batch-mean noise||_F^alpha for
    several batch sizes and models: one dict per model of ``models``, in
    order, keyed by batch size.  Each size-b estimate averages ``n`` means
    of b i.i.d. draws; the coupling only correlates the estimates.
    ``batches`` names at least one size, each once.

    Every batch size in a trial reuses the same underlying draws (the size-b
    mean averages the first b of max(batches) draws), so cross-batch
    comparisons share randomness.  This common-random-numbers coupling keeps
    the decreasing-in-b trend visible at sample counts where independent
    estimates would be dominated by the estimator's own heavy tail.  The
    models are coupled the same way: they share each chunk's uniforms (see
    :func:`_draw`), so each model's dict equals that of a call with
    its model alone on the same stream, and the stream is drawn once.
    """
    if n < 1000:
        raise PreconditionError("need at least 1000 samples")
    if not batches or len(set(batches)) < len(batches) or min(batches) < 1:
        raise PreconditionError("batch sizes must be distinct, >= 1 and at least one")
    shape = tuple(shape)
    sizes = np.array(batches, dtype=np.float64).reshape((-1, 1) + (1,) * len(shape))
    vals = [{b: array("d") for b in batches} for _ in models]
    for chunk in _noise_chunks(models, n, (max(batches),) + shape, grad_norm, rng):
        for v, model, draws in zip(vals, models, chunk):
            means = _prefix_sums(draws, batches)
            means /= sizes
            powers = _frobenius_powers(means.reshape((-1,) + shape), model.alpha)
            k = len(draws)
            for i, b in enumerate(batches):
                v[b].extend(powers[i * k:(i + 1) * k])
    return [{b: matcore._mean_and_se(vb) for b, vb in v.items()} for v in vals]
