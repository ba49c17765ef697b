"""Numerical certification harness.

Estimates the inexact-polar constants (gamma_hat, nu_hat) by Monte Carlo,
checks the expected-alignment bound and the scalar-polynomial properties,
and evaluates the FLOP cost models.  Expectation bounds are accepted at a
3-standard-error criterion.  Every polar output T of A is measured once, as
(<A, T>, ||T||_op), by the one measurement that the trial loop behind
:func:`estimate_gamma_nu` and :func:`check_prop2` and the runner's verify
mode share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import matcore
from .errors import ConfigError, PreconditionError
from .matcore import RngStream
from .polar import RANGE_SLACK, PolarConfig, PolynomialSchedule, _extrema, _gram_form
from .sketch import SketchConfig, SpectrumSummary, prop2_lower_bound, randomized_polar

__all__ = [
    "AssumptionEstimate",
    "Prop2Report",
    "PolynomialLemmaReport",
    "FlopModel",
    "StepFlopsConfig",
    "estimate_gamma_nu",
    "check_prop2",
    "check_polynomial_lemmas",
    "flop_counts",
    "measured_step_flops",
]


@dataclass(frozen=True)
class AssumptionEstimate:
    """Monte Carlo estimates of the alignment loss and spectral slack.

    gamma_hat = 1 - mean alignment ratio <M, T(M)> / ||M||_*;
    nu_hat = sqrt(mean ||T(M)||_op^2) - 1.
    """

    gamma_hat: float
    nu_hat: float
    gamma_se: float
    nu_se: float
    ratios: np.ndarray
    op_norms: np.ndarray
    degenerate_trials: int = 0


def _alignment_and_op_norm(a: np.ndarray, out) -> tuple[float, float]:
    """(<A, T>, ||T||_op) of one polar output T of a finite 2-D float64 A.
    T, which a user-supplied map may return, is validated once and named
    "polar output" in its errors.  An all-zero T measures (0.0, 0.0), and
    only an all-zero T has ||T||_op = 0."""
    t = matcore.as_matrix(out, "polar output")
    return matcore._inner_product(a, t), matcore._operator_norm(t)


def _polar_trials(
    a: np.ndarray, polar, trials: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of <A, T_t> and ||T_t||_op for T_t = polar(a, rng.substream(t)),
    t < trials.  One stream serves every trial: it is re-keyed to
    ``rng.substream(t)`` before trial t and draws bit for bit what that
    stream draws, so ``polar`` must not keep its rng after the call."""
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    inners, op_norms = np.empty(trials), np.empty(trials)
    trial = rng.substream(0)
    for t in range(trials):
        if t:
            trial._rekey(matcore.derive_stream_id(rng.stream, t))
        inners[t], op_norms[t] = _alignment_and_op_norm(a, polar(a, trial))
    return inners, op_norms


def estimate_gamma_nu(m, polar, trials: int, rng: RngStream) -> AssumptionEstimate:
    """Estimate (gamma, nu) for a polar map ``polar(matrix, rng) -> matrix``.

    Deterministic maps may ignore the rng argument; one trial then suffices
    and the standard errors are zero.  Trial t draws from the stream of
    ``rng.substream(t)``, but every trial gets the same object, re-keyed, so
    ``polar`` must not keep its rng after the call.  All-zero outputs are
    excluded from the averages and counted as degenerate.
    """
    a = matcore.as_matrix(m)
    inners, op_norms = _polar_trials(a, polar, trials, rng)
    kept = op_norms > 0.0
    if not kept.any():
        raise PreconditionError("all trials produced degenerate polar outputs")
    ratios = inners[kept] / matcore.nuclear_norm(a)
    op_norms = op_norms[kept]
    mean_ratio, gamma_se = matcore._mean_and_se(ratios)
    mean_sq, mean_sq_se = matcore._mean_and_se(op_norms**2)
    return AssumptionEstimate(
        gamma_hat=1.0 - mean_ratio,
        nu_hat=float(np.sqrt(mean_sq) - 1.0),
        gamma_se=gamma_se,
        # Delta method for sqrt(mean op^2).
        nu_se=float(mean_sq_se / (2.0 * np.sqrt(mean_sq))),
        ratios=ratios,
        op_norms=op_norms,
        degenerate_trials=trials - int(kept.sum()),
    )


@dataclass(frozen=True)
class Prop2Report:
    mean_alignment: float
    alignment_se: float
    bound: float
    alignment_pass: bool
    max_op_norm: float
    op_norm_pass: bool

    @property
    def passed(self) -> bool:
        return self.alignment_pass and self.op_norm_pass


OP_NORM_TOL = 1e-10


def check_prop2(
    m, scfg: SketchConfig, pcfg: PolarConfig, trials: int, rng: RngStream
) -> Prop2Report:
    """Monte Carlo check of the expected-alignment lower bound and the
    almost-sure operator-norm bound for the Gaussian-sketch pipeline; the
    bound's delta is handed to every trial as an explicit delta.  Under the
    operator-norm rule delta is sigma_1 of the one SVD that gives the
    spectrum."""
    if scfg.kind != "gaussian":
        raise PreconditionError("the alignment bound is proved for Gaussian sketches")
    a = matcore.as_matrix(m)
    sigma = matcore.svd(a).sigma
    delta = float(sigma[0]) if pcfg.delta_rule == "operator-norm" else pcfg.resolve_delta(a)
    spec = SpectrumSummary.from_sigma(sigma, scfg.s)
    bound = prop2_lower_bound(spec, scfg.p, scfg.h, delta)
    trial_cfg = replace(pcfg, delta_rule=delta)
    inners, op_norms = _polar_trials(
        a, lambda x, r: randomized_polar(x, scfg, trial_cfg, r), trials, rng
    )
    mean, se = matcore._mean_and_se(inners)
    max_op = float(np.max(op_norms))
    return Prop2Report(
        mean_alignment=mean,
        alignment_se=se,
        bound=bound,
        alignment_pass=mean >= bound - 3.0 * se,
        max_op_norm=max_op,
        op_norm_pass=(not pcfg.schedule.theoretical) or max_op <= 1.0 + OP_NORM_TOL,
    )


@dataclass(frozen=True)
class StepLemmaResult:
    min_value: float
    max_value: float
    min_gain: float  # min of phi(x) - x
    min_derivative: float
    passed: bool


@dataclass(frozen=True)
class PolynomialLemmaReport:
    """Per-step check of 0 <= phi <= 1, phi(x) >= x and phi' >= 0 on [0, 1],
    each read from the exact extrema of the step up to ``RANGE_SLACK``.

    A schedule that is not ``theoretical`` may fail them (expected
    overshoot); that is reported, not a failure of the harness itself.
    """

    steps: tuple[StepLemmaResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.steps)


def check_polynomial_lemmas(schedule: PolynomialSchedule) -> PolynomialLemmaReport:
    """The extrema on [0, 1] of each step phi(x) = a*x + b*x^3 + c*x^5, of
    phi(x) - x and of phi'(x) = a + 3b*x^2 + 5c*x^4, taken at the ends and at
    the critical points: x = sqrt(y) for the roots y of a quadratic in x^2
    (for phi', of phi''(x) / (2x) = 3b + 10c*x^2, and x = 0)."""
    s = RANGE_SLACK
    results = []
    for a, b, c in schedule.steps:
        def phi(x):
            return a * x + b * x * x * x + c * x * x * x * x * x

        min_v, max_v = _extrema(phi, (a, 3.0 * b, 5.0 * c), 0.0, 1.0)
        min_gain = _extrema(lambda x: phi(x) - x, (a - 1.0, 3.0 * b, 5.0 * c), 0.0, 1.0)[0]
        def dphi(x):
            return a + 3.0 * b * x * x + 5.0 * c * x * x * x * x

        min_d = _extrema(dphi, (0.0, 3.0 * b, 10.0 * c), 0.0, 1.0)[0]
        ok = min_v >= -s and max_v <= 1.0 + s and min_gain >= -s and min_d >= -s
        results.append(StepLemmaResult(min_v, max_v, min_gain, min_d, ok))
    return PolynomialLemmaReport(steps=tuple(results))


@dataclass(frozen=True)
class FlopModel:
    """Shape and method parameters for the polar-pipeline cost formulas."""

    m: int
    n: int
    ell: int
    q: int
    h: int = 0

    def __post_init__(self):
        if min(self.m, self.n, self.ell) < 1 or self.q < 0 or self.h < 0:
            raise PreconditionError("m, n and ell must be >= 1 and q and h must be >= 0")
        if self.ell > min(self.m, self.n):
            raise PreconditionError("ell must not exceed min(m, n)")


# Per-primitive FLOP table (documented, bit-reproducible):
#   matmul (a x b)(b x c):            2 a b c
#   Cholesky of ell x ell:            ell^3 // 3
#   inverse of ell x ell (LU):        2 ell^3
#   axpy / scaled add on m x n:       2 m n
#   Frobenius norm of m x n (dot):    2 m n
#   rescale of m x n:                 m n
#   SVD of m x n (d1 >= d0):          14 d1 d0^2 + 8 d0^3
# Terms of order ell^2 (small norms, the identity subtraction) are dropped.


def _svd_flops(m: int, n: int) -> int:
    d0, d1 = min(m, n), max(m, n)
    return 14 * d1 * d0**2 + 8 * d0**3


def _delta_flops(rule: str, m: int, n: int) -> int:
    """The scale delta of an m x n matrix by its rule (the rescale is apart)."""
    if rule == "frobenius-norm":
        return 2 * m * n
    if rule == "operator-norm":
        return _svd_flops(m, n)
    if rule == "explicit":
        return 0
    raise ConfigError(f"unknown delta rule: {rule!r}")


def _direct_poly_flops(rows: int, cols: int, q: int) -> int:
    """q degree-5 steps on the smaller Gram side: q (4 d1 d0^2 + 2 d0^3)."""
    d0, d1 = min(rows, cols), max(rows, cols)
    return q * (4 * d1 * d0**2 + 2 * d0**3)


def _poly_flops(rows: int, cols: int, q: int) -> int:
    """The q steps in the form :func:`polarmuon.polar.polynomial_iterate`
    evaluates (by its own rule): 4 d1 d0^2 + (8q - 6) d0^3 in Gram form, else
    the direct form."""
    if _gram_form(rows, cols, q):
        d0, d1 = min(rows, cols), max(rows, cols)
        return 4 * d1 * d0**2 + (8 * q - 6) * d0**3
    return _direct_poly_flops(rows, cols, q)


def _polar_stages(
    polar: str, m: int, n: int, q: int, ell: int, h: int, delta: str = "frobenius-norm"
) -> dict:
    """Analytic FLOPs of each stage of one polar call on an m x n matrix, in
    the order the code runs them.  The basis of the m x ell sketch is priced
    as :func:`matcore.orthonormal_basis` takes it (by its own rule): CholeskyQR2
    (two passes of Gram, Cholesky, inverse and apply, then the Gram of the
    orthogonality check), or the SVD.  delta is taken on the full m x n matrix
    by its rule in both polynomial solvers; the randomized one rescales the
    ell x n compression.  The polynomial stage is priced in the form the
    code evaluates (:func:`_poly_flops`)."""
    if polar == "exact":
        return {"svd": _svd_flops(m, n), "product": 2 * max(m, n) * min(m, n) ** 2}
    if polar == "polynomial":
        return {"delta": _delta_flops(delta, m, n) + m * n, "polynomial": _poly_flops(m, n, q)}
    if polar != "randomized":
        raise ConfigError(f"unknown polar kind: {polar!r}")
    if ell < 1:
        raise ConfigError("randomized polar needs ell >= 1")
    if matcore._tries_cholesky_qr(m, ell):
        basis = 2 * (4 * m * ell**2 + ell**3 // 3 + 2 * ell**3) + 2 * m * ell**2
    else:  # small Y takes the SVD
        basis = _svd_flops(m, ell)
    return {
        "power": (4 * h + 2) * m * n * ell,
        "basis": basis,
        "compress": 2 * m * n * ell,
        "delta": _delta_flops(delta, m, n) + n * ell,
        "polynomial": _poly_flops(ell, n, q),
        "lift": 2 * m * n * ell,
    }


def flop_counts(model: FlopModel) -> tuple[int, int, float]:
    """(full-space count, randomized count, full/randomized ratio), analytic.

    full       = q (4 d1 d0^2 + 2 d0^3)
    randomized = (4h+6) m n ell + q (4 n ell^2 + 2 ell^3)

    The paper's model: the product stages of :func:`_polar_stages` with the
    polynomial priced in its direct form, without the basis and delta stages
    that :func:`measured_step_flops` adds.
    """
    m, n, q, ell = model.m, model.n, model.q, model.ell
    full = _direct_poly_flops(m, n, q)
    rand = _polar_stages("randomized", m, n, q, ell, model.h)
    rand = sum(rand[k] for k in ("power", "compress", "lift")) + _direct_poly_flops(ell, n, q)
    try:
        ratio = full / rand if rand else float("inf")
    except OverflowError:  # the ratio exceeds the float range
        ratio = float("inf")
    return full, rand, ratio


@dataclass(frozen=True)
class StepFlopsConfig:
    """Names one Muon step for analytic FLOP counting."""

    optimizer: str  # "muon", the one optimizer
    m: int
    n: int
    momentum: str = "nesterov"  # "nesterov" | "polyak"
    polar: str = "polynomial"  # "exact" | "polynomial" | "randomized"
    q: int = 0
    ell: int = 0
    h: int = 0
    delta: str = "frobenius-norm"  # "frobenius-norm" | "operator-norm" | "explicit"


def measured_step_flops(cfg: StepFlopsConfig) -> int:
    """FLOPs of one Muon step, counted analytically from the shapes with the
    tables above (not measured): momentum, every polar stage, update."""
    m, n = cfg.m, cfg.n
    axpy = 2 * m * n
    if cfg.optimizer != "muon":
        raise ConfigError(f"unknown optimizer: {cfg.optimizer!r}")
    if cfg.momentum not in ("nesterov", "polyak"):
        raise ConfigError(f"unknown momentum kind: {cfg.momentum!r}")
    momentum_cost = axpy if cfg.momentum == "polyak" else 2 * axpy
    stages = _polar_stages(cfg.polar, m, n, cfg.q, cfg.ell, cfg.h, cfg.delta)
    return momentum_cost + sum(stages.values()) + axpy
