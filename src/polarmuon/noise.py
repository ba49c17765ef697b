"""Synthetic matrix test problems and heavy-tailed stochastic-gradient oracles.

The noise family is symmetric Pareto: entry density proportional to
|x|^-(a+1) beyond the scale, with tail exponent a slightly above the moment
index alpha, so the alpha-th moment is finite while the variance can be
infinite.  Entry scales are fitted so the exact Frobenius alpha-moment sits
below the budget sigma0^alpha + sigma1^alpha * ||grad||^alpha with
deliberate slack.  The unit-scale moment comes from a quadrature
(:func:`unit_alpha_moment`), not from a sample: a Monte Carlo estimate of
it has infinite variance and falls short more often than not, which would
put fitted models above their budget.  The fit draws nothing and costs the
same at every shape.

Draw order: each noise matrix takes, per active component (Xi0, then Xi1),
one uniform per entry for the magnitudes, then one per entry for the signs;
batch sums add in draw order.  So ``gradient_oracle(g, ||g||_F, B)`` is ``g``
plus the mean of the next B :func:`sample_noise` draws, bit for bit.  Draws
come in chunks of at most 2^16 uniforms (at least one sample), which leaves
the stream unchanged.  At that bound a chunk's arrays (512 KB of uniforms,
about 256 KB per derived array) fit in a core's L2 cache, so the allocator
recycles them instead of mapping and faulting in fresh pages.

Batch means come from one lazy generator of blocks: as many whole steps as
fit in one chunk, or one step whose batch needs more, its running sum
carried across chunks.  :func:`batch_means` collects the blocks, and a run's
seed, whose noise :func:`seed_oracle` draws, takes them one at a time when
the noise does not read the gradient (sigma1 = 0) and so has a layout fixed
by the model.  Either way each step's noise is bit for bit that of one
:func:`gradient_oracle` call, the one-step case of :func:`batch_means`.
With sigma1 > 0 whether Xi1 is drawn, and its coefficient, read each step's
||grad f||_F, so those runs draw step by step.

The two estimators run one loop: the alpha-moment estimate is the batch-mean
estimate at the one batch size 1.  The loop takes a tuple of models and
draws each chunk once for all of them: the models share its uniforms and signs and differ only in the power
and the scales applied to them, so each model's estimate is bit for bit that
of a call with it alone on the same stream.  The shared layout needs the
models to agree on their number of active components.  The verify
noise-moments scope estimates alpha = 1.25, 1.5 and 2 from one draw of each
of its two streams, not three, so a ``polarmuon verify`` of all scopes
makes 308 ``RngStream.uniform`` calls instead of 924.  A batch-mean estimate
forms only the prefix sums of the batch sizes it reads, in draw order.
"""

from __future__ import annotations

import math
import sys
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
    "unit_alpha_moment",
    "MAX_FIT_TAIL_EXPONENT",
    "sample_noise",
    "batch_means",
    "gradient_oracle",
    "seed_oracle",
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
    ``calib_rel_tol`` the relative error bound of the unit moment the fit
    divides by (:func:`unit_alpha_moment`), so of each fitted moment.
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
        if not (0 <= self.sigma0 < math.inf and 0 <= self.sigma1 < math.inf):
            raise PreconditionError("sigma0, sigma1 must be nonnegative and finite")
        if self.tail_exponent is None:
            object.__setattr__(self, "tail_exponent", self.alpha + 0.25)
        if not self.alpha < self.tail_exponent < math.inf:
            raise PreconditionError("tail exponent must exceed alpha and be finite")
        if not all(math.isfinite(s) for s in (self.scale0, self.scale1) if s is not None):
            raise PreconditionError("scale0, scale1 must be finite")

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


def _draws_per_chunk(comps: int, inner: tuple) -> int:
    """Matrices of shape ``inner`` in a chunk of at most ``_CHUNK_UNIFORMS``
    uniforms, and at least one."""
    return max(1, _CHUNK_UNIFORMS // (2 * max(1, comps) * math.prod(inner)))


def _noise_chunks(models: tuple, count: int, inner: tuple, grad_norm: float,
                  rng: RngStream):
    """Yield :func:`_draw` lists of ``count`` matrices per model in chunks of
    at most ``_CHUNK_UNIFORMS`` uniforms (at least one sample each)."""
    comps, plans = _noise_plans(models, grad_norm)
    step = _draws_per_chunk(comps, inner)
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


# Gauss-Legendre panels in z = log t for :func:`unit_alpha_moment`: the rule
# with _NODES nodes a panel, and the coarser one whose distance from it bounds
# the error.  t runs from e^-92 (about 1e-40) to _T_HI = 50.
_PANELS, _NODES, _CHECK_NODES = 48, 16, 12
_LOG_T_LO, _T_HI = -92.0, 50.0
# Largest tail exponent the fit takes.  u's kernel e^(-k (v - z)) narrows as
# k = a / 2 grows, and the fixed panels resolve it to about 1e-13 up to
# a = 16; with scales written in, a model may have any tail exponent.
MAX_FIT_TAIL_EXPONENT = 16.0
# Rounding floor of the error bound, relative to the terms that cancel.
_ROUNDING = 32 * sys.float_info.epsilon


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], from
    the eigenpairs of its Jacobi matrix (Golub-Welsch)."""
    j = np.arange(1.0, n)
    off = j / np.sqrt(4.0 * j * j - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vecs[0] ** 2


def _excess_integral(s: float, k: float, size: int, n: int) -> float:
    """int_0^inf r(t) t^(-s-1) dt with r = N u - 1 + (1 - u)^N, u = 1 - L(t)
    and N = ``size``, by the n-node rule on each panel in z = log t.

    u(t) = k int_z^inf e^(-k (v - z)) phi(v) dv with phi(v) = 1 - e^(-e^v),
    v = log(t y): a positive integrand, so u keeps its relative accuracy at
    every t, also at k = 1, and every exponent is <= 0, so nothing
    overflows at any k.  At a node the integral is its own panel from the
    node up (the same rule mapped onto that piece), then each panel above
    relative to its lower edge, carried down panel by panel with e^(-k h),
    and 1 / k beyond _T_HI, where e^(-e^v) is below rounding.  Rounding can
    put u at 1 for large t, where L^N is below rounding too; u is clipped
    just under 1 so that log1p stays finite.  r >= 0 decays as
    t^(2 min(k, 1)) at 0, so the panels stop at e^-92; beyond _T_HI,
    r = N - 1 up to N L(t), which integrates to (N - 1) _T_HI^-s / s.
    """
    x, w = _gauss_legendre(n)
    edges = np.linspace(_LOG_T_LO, math.log(_T_HI), _PANELS + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    z = lo + (hi - lo) / 2.0 * (x + 1.0)
    wz = (hi - lo) / 2.0 * w

    def phi(v):
        return -np.expm1(-np.exp(v))

    half = (hi - z)[..., None] / 2.0
    v = z[..., None] + half * (x + 1.0)
    own = (np.exp(-k * (v - z[..., None])) * phi(v) * (half * w)).sum(axis=-1)
    panels = (np.exp(-k * (z - lo)) * phi(z) * wz).sum(axis=1)
    above, acc, step = np.empty(_PANELS), 1.0 / k, math.exp(-k * (edges[1] - edges[0]))
    for p in range(_PANELS - 1, -1, -1):
        above[p] = acc
        acc = panels[p] + step * acc
    u = np.minimum(k * (own + np.exp(-k * (hi - z)) * above[:, None]), 1.0 - 2.0**-53)
    r = size * u + np.expm1(size * np.log1p(-u))
    return float((r * np.exp(-s * z) * wz).sum()) + (size - 1) * _T_HI**-s / s


def unit_alpha_moment(order: float, tail_exponent: float, size: int) -> tuple[float, float]:
    """(E ||Xi||_F^order, its relative error bound) for a unit-scale noise
    matrix Xi of ``size`` i.i.d. symmetric Pareto entries with tail exponent
    a = ``tail_exponent``; 0 < order <= 2, order < a and
    a <= :data:`MAX_FIT_TAIL_EXPONENT`.

    ||Xi||_F^order = X^s with s = order / 2 and X the sum of N = ``size``
    squares, each Pareto with index k = a / 2 on [1, inf).  At s = 1,
    E X = N a / (a - 2).  For s < 1, with L the Laplace transform of a square,
    E X^s = s / Gamma(1 - s) int_0^inf (1 - L(t)^N) t^(-s-1) dt.  With
    u = 1 - L, the part N u of the integrand integrates to N E xi^(2s) =
    N k / (k - s) in closed form; the rest, r = N u - (1 - (1 - u)^N) >= 0,
    is :func:`_excess_integral`.  The bound is the distance from a coarser
    rule, and at least a rounding floor on the two terms that cancel.  The
    cost does not depend on ``size``; nothing is drawn or kept between calls.
    """
    s, k = order / 2.0, tail_exponent / 2.0
    if not (0.0 < s <= 1.0 and s < k <= MAX_FIT_TAIL_EXPONENT / 2.0) or size < 1:
        raise PreconditionError(
            "need 0 < order <= 2, order < tail exponent "
            f"<= {MAX_FIT_TAIL_EXPONENT:g} and size >= 1"
        )
    if s == 1.0:
        return size * tail_exponent / (tail_exponent - 2.0), _ROUNDING
    head = size * k / (k - s)
    c = s / math.gamma(1.0 - s)
    fine, coarse = (c * _excess_integral(s, k, size, n) for n in (_NODES, _CHECK_NODES))
    moment = head - fine
    return moment, max(abs(fine - coarse), _ROUNDING * (head + fine)) / moment


def calibrate_models(
    models: tuple[NoiseModel, ...], shape: tuple[int, int]
) -> list[NoiseModel]:
    """:func:`calibrate` of each model of ``models``, in order."""
    return [calibrate(model, shape) for model in models]


def calibrate(
    model: NoiseModel, shape: tuple[int, int], rng: RngStream | None = None
) -> NoiseModel:
    """``model`` with the entry scales that put each component's exact
    Frobenius alpha-moment for matrices of ``shape`` at its slack-reduced
    budget, and the error bound of the unit moment they divide by.

    The moment is alpha-homogeneous in the scale, so the unit-scale moment m
    of :func:`unit_alpha_moment` determines the fit:
    scale = (target / m)^(1/alpha).  The fit draws nothing: ``rng`` is
    ignored, and stays for callers that pass one.
    """
    shape = tuple(shape)
    slack = (
        _SLACK_PAIRED if (model.sigma0 > 0 and model.sigma1 > 0) else _SLACK_SINGLE
    )
    unit, rel_err = unit_alpha_moment(model.alpha, model.tail_exponent, math.prod(shape))

    def fit(sigma: float) -> float:
        return (slack * sigma**model.alpha / unit) ** (1.0 / model.alpha) if sigma > 0 else 0.0

    return replace(
        model,
        scale0=fit(model.sigma0),
        scale1=fit(model.sigma1),
        calib_shape=shape,
        calib_rel_tol=rel_err,
    )


def sample_noise(
    model: NoiseModel, shape: tuple[int, int], grad_norm: float, rng: RngStream
) -> np.ndarray:
    """One zero-mean noise matrix: scale0 * Xi0 + scale1 * grad_norm * Xi1
    with Xi0, Xi1 i.i.d. unit-scale symmetric Pareto."""
    return _draw(*_noise_plans((model,), grad_norm), 1, tuple(shape), rng)[0][0]


def batch_means(
    model: NoiseModel,
    shape: tuple[int, int],
    batch: int,
    steps: int,
    rng: RngStream,
    grad_norm: float = 0.0,
) -> np.ndarray:
    """(steps, *shape) means of ``steps`` successive batches of ``batch``
    noise draws from ``rng``, each batch summed in draw order; ``grad_norm``
    scales Xi1 as in :func:`sample_noise`.  Memory holds the output and one
    chunk."""
    if batch < 1 or steps < 1:
        raise PreconditionError("batch and steps must be >= 1")
    blocks = list(_mean_blocks(model, tuple(shape), batch, steps, rng, grad_norm))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _mean_blocks(model: NoiseModel, shape: tuple, batch: int, steps: int,
                 rng: RngStream, grad_norm: float):
    """Yield the (k, *shape) blocks of :func:`batch_means`, in step order,
    each drawn when it is asked for.

    Steps whose draws fit in one chunk of ``_CHUNK_UNIFORMS`` uniforms are
    drawn and composed together, as many whole steps a chunk as fit; a step
    whose batch needs more is drawn alone, chunk by chunk, its running sum
    carried across chunk boundaries.  Either way :func:`_prefix_sums` adds
    the draws, which keeps draw order also where the batch axis is the
    innermost (1 x 1 matrices).  A batch of one is its own mean
    (x / 1 = x), so its draws are returned as drawn.
    """
    comps, plans = _noise_plans((model,), grad_norm)
    per_chunk = _draws_per_chunk(comps, shape)
    if batch > per_chunk:
        for _ in range(steps):
            total = None
            for (draws,) in _noise_chunks((model,), batch, shape, grad_norm, rng):
                if total is not None:
                    draws[0] += total  # carry the running sum across chunks
                total = _prefix_sums(draws[None], (len(draws),))[0, 0]
            yield total[None] / batch
        return
    per_block = per_chunk // batch
    for start in range(0, steps, per_block):
        k = min(per_block, steps - start)
        (draws,) = _draw(comps, plans, k * batch, shape, rng)
        if batch > 1:
            draws = _prefix_sums(draws.reshape((k, batch) + shape), (batch,))[0]
            draws /= batch
        yield draws


def gradient_oracle(
    grad: np.ndarray, grad_norm: float, batch: int, model: NoiseModel, rng: RngStream
) -> np.ndarray:
    """Unbiased stochastic gradient: the exact gradient ``grad`` plus the
    mean of ``batch`` independent noise draws; ``grad_norm`` = ||grad||_F
    scales Xi1 as in :func:`sample_noise`.  The noise is the one-step case of
    :func:`batch_means`."""
    if batch < 1:
        raise PreconditionError("batch must be >= 1")
    if model.sigma0 == 0.0 and model.sigma1 == 0.0:
        return grad
    return grad + batch_means(model, grad.shape, batch, 1, rng, grad_norm)[0]


def seed_oracle(
    model: NoiseModel, shape: tuple[int, int], batch: int, steps: int, rng: RngStream
):
    """``oracle(grad, grad_norm)`` for ``steps`` successive steps of one seed:
    its k-th call returns bit for bit the k-th of ``steps`` successive
    :func:`gradient_oracle` calls on ``rng``, and it takes at most ``steps``
    calls.  Noise that does not read the gradient (sigma1 = 0) is drawn
    ahead in the blocks of :func:`batch_means`, each when its first step is
    asked for, so ``rng`` gives at most steps * batch draws.  Noise with
    sigma1 > 0 is drawn each step by :func:`gradient_oracle`, as its layout
    and Xi1's coefficient read that step's ``grad_norm``."""
    if batch < 1:
        raise PreconditionError("batch must be >= 1")
    if model.sigma0 == 0.0 and model.sigma1 == 0.0:
        return lambda grad, grad_norm: grad
    if model.sigma1 > 0.0:
        return lambda grad, grad_norm: gradient_oracle(grad, grad_norm, batch, model, rng)

    blocks = _mean_blocks(model, tuple(shape), batch, steps, rng, 0.0)
    means = (mean for block in blocks for mean in block)
    return lambda grad, grad_norm: grad + next(means)


def empirical_alpha_moment(
    models: tuple[NoiseModel, ...],
    shape: tuple[int, int],
    n: int,
    rng: RngStream,
    grad_norm: float = 0.0,
    orders: tuple[float, ...] | None = None,
) -> list[tuple[float, float]]:
    """Monte Carlo estimates of E ||Xi||_F^alpha (with their standard errors)
    over ``n`` noise draws Xi, one per model of ``models``, in order: the
    batch-size-1 estimates of :func:`empirical_batch_moments`, bit for bit.
    ``orders``, one per model, replaces each model's alpha as the moment
    order.  The models share one draw (see :func:`_draw`), so each estimate
    equals that of a call with its model alone on the same stream."""
    return [m[1] for m in _batch_moments(models, shape, n, rng, (1,), grad_norm, orders)]


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
    return _batch_moments(models, shape, n, rng, batches, grad_norm)


def _batch_moments(models: tuple, shape: tuple, n: int, rng: RngStream,
                   batches: tuple, grad_norm: float, orders: tuple | None = None) -> list[dict]:
    """The one estimator loop behind both public estimators; the moment
    orders are ``orders``, or else each model's alpha."""
    if n < 1000:
        raise PreconditionError("need at least 1000 samples")
    if not batches or len(set(batches)) < len(batches) or min(batches) < 1:
        raise PreconditionError("batch sizes must be distinct, >= 1 and at least one")
    if orders is None:
        orders = tuple(model.alpha for model in models)
    if len(orders) != len(models):
        raise PreconditionError("need one moment order per model")
    shape = tuple(shape)
    sizes = np.array(batches, dtype=np.float64).reshape((-1, 1) + (1,) * len(shape))
    vals = [{b: array("d") for b in batches} for _ in models]
    for chunk in _noise_chunks(models, n, (max(batches),) + shape, grad_norm, rng):
        for v, order, draws in zip(vals, orders, chunk):
            if max(batches) == 1:  # a batch of one is its own mean (x / 1 = x)
                means = draws.swapaxes(0, 1)
            else:
                means = _prefix_sums(draws, batches)
                means /= sizes
            powers = _frobenius_powers(means.reshape((-1,) + shape), order)
            k = len(draws)
            for i, b in enumerate(batches):
                v[b].extend(powers[i * k:(i + 1) * k])
    return [{b: matcore._mean_and_se(vb) for b, vb in v.items()} for v in vals]
