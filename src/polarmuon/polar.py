"""Polar decomposition: exact oracle and polynomial (Newton-Schulz family) solvers.

A polynomial solver normalizes the input by a scale delta, then applies q
odd-polynomial steps phi_t(x) = a_t*x + b_t*x^3 + c_t*x^5 to the singular
values via matrix products: directly on a near-square input, or as a
polynomial in its short-side Gram matrix when one side is at least twice the
other (see :func:`polynomial_iterate`).  The alignment coefficient gamma of
such a solver has a closed form in the singular values, exposed as
:func:`prop1_gamma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import DegenerateInputError, NumericalAbortError, PreconditionError

__all__ = [
    "PolynomialSchedule",
    "PolarConfig",
    "cubic_schedule",
    "quintic_theoretical_schedule",
    "quintic_empirical_schedule",
    "polar_express_schedule",
    "schedule_by_name",
    "certified_range",
    "exact_polar",
    "polynomial_iterate",
    "inexact_polar",
    "prop1_gamma",
]

CUBIC_COEFFS = (1.5, -0.5, 0.0)
QUINTIC_THEORETICAL_COEFFS = (15.0 / 8.0, -10.0 / 8.0, 3.0 / 8.0)
QUINTIC_EMPIRICAL_COEFFS = (3.4445, -4.7750, 2.0315)

# Iteration-dependent degree-5 coefficient tables (9 steps each), as used by
# the PolarExpress solver in its two published tunings.
_POLAR_EXPRESS = {
    "nanogpt": (
        (8.1566, -22.4833, 15.8788),
        (4.0429, -2.8089, 0.5000),
        (3.8917, -2.7725, 0.5061),
        (3.2858, -2.3681, 0.4645),
        (2.3005, -1.6112, 0.3833),
        (1.8631, -1.2042, 0.3422),
        (1.8383, -1.1779, 0.3397),
        (1.8382, -1.1779, 0.3396),
        (1.8750, -1.2500, 0.3750),
    ),
    "cifar10": (
        (8.2872, -23.5959, 17.3004),
        (4.1071, -2.9478, 0.5448),
        (3.9487, -2.9089, 0.5518),
        (3.3184, -2.4885, 0.5100),
        (2.3007, -1.6689, 0.4188),
        (1.8913, -1.2680, 0.3768),
        (1.8750, -1.2500, 0.3750),
        (1.8750, -1.2500, 0.3750),
        (1.8750, -1.2500, 0.3750),
    ),
}


def _quadratic_roots(k0: float, k1: float, k2: float) -> list:
    """Real roots of k0 + k1*y + k2*y^2 in closed form (the product of the
    roots gives the second without cancellation); none when the polynomial is
    constant."""
    if k2 == 0.0:
        return [] if k1 == 0.0 else [-k0 / k1]
    disc = k1 * k1 - 4.0 * k2 * k0
    if not disc >= 0.0:  # also a disc that overflowed to nan
        return []
    t = -0.5 * (k1 + math.copysign(math.sqrt(disc), k1))
    return [t / k2] if t == 0.0 else [t / k2, k0 / t]


def _extrema(f, k: tuple, lo: float, hi: float) -> tuple[float, float]:
    """(min, max) of ``f`` on [lo, hi], where f' vanishes only at x = +-sqrt(y)
    for the real roots y >= 0 of k[0] + k[1]*y + k[2]*y^2: both are taken at
    an endpoint or at such a point.  Python floats overflow to inf without
    a warning; a value that is not finite makes the extrema (-inf, inf)."""
    xs = [lo, hi]
    for y in _quadratic_roots(*k):
        if y >= 0.0:
            r = math.sqrt(y)
            xs += [x for x in (r, -r) if lo < x < hi]
    v = [f(x) for x in xs]
    if not all(map(math.isfinite, v)):
        return -math.inf, math.inf
    return min(v), max(v)


def _step_map(a: float, b: float, c: float):
    """Step phi(x) = a*x + b*x^3 + c*x^5 by products (** raises on overflow)."""
    return lambda x: a * x + b * x * x * x + c * x * x * x * x * x


def certified_range(steps) -> tuple[float, float]:
    """The image (lo, hi) of [0, 1] under the composite map of ``steps``,
    exact up to rounding: step phi (:func:`_step_map`) takes its extrema on
    an interval at the ends or where phi' = a + 3b*x^2 + 5c*x^4 vanishes.
    Overflowing coefficients give (-inf, inf), which no schedule's slack
    admits."""
    lo, hi = 0.0, 1.0
    for a, b, c in steps:
        lo, hi = _extrema(_step_map(a, b, c), (a, 3.0 * b, 5.0 * c), lo, hi)
    return lo, hi


# Rounding slack of the range certificate, per step.  The bounds are
# float64 values of a*x + b*x^3 + c*x^5 at rounded points.  At an interior
# extremum phi' = 0, so rounding the point moves phi by second order only;
# the evaluation itself (eight products and two sums) rounds a result near
# 1 by a few ulps of 1.  On a 2M-point grid, ``scalar_map`` (the same step
# maps) exceeds the builtin schedules' bounds at q = 1 to 9 by at most 2.5
# ulps of 1 (the nanogpt table; quintic-theoretical 2).  Four ulps per step,
# summed over the steps, cover that; a designed schedule's real overshoot
# is far larger (quintic-empirical's is 0.2), so the slack admits none.
RANGE_SLACK = 4.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class PolynomialSchedule:
    """Ordered coefficient triples (a_t, b_t, c_t), one per iteration.

    ``theoretical`` is computed from the coefficients, not set: it holds when
    :func:`certified_range` puts the image of [0, 1] under the composite map
    p_q inside [0, 1], up to ``RANGE_SLACK`` per step.  Then nu <= 0 and
    every singular value of p_q(M / delta) with delta >= ||M||_op is at most
    1, so the operator-norm bound <= 1 is asserted downstream.  It holds for
    cubic and quintic-theoretical at every q and for both PolarExpress
    tables, not for quintic-empirical (peak 1.2024); a custom schedule gets
    the bound exactly when its image passes.
    """

    steps: tuple[tuple[float, float, float], ...]
    name: str = "custom"

    def __post_init__(self):
        # built once with the schedule (not fields, so eq, hash, replace and
        # the INI writer see only the fields above)
        coeffs = np.array(self.steps, dtype=np.float64).reshape(-1, 3)
        coeffs.flags.writeable = False
        object.__setattr__(self, "_coeffs", coeffs)
        lo, hi = certified_range(coeffs.tolist())
        slack = len(coeffs) * RANGE_SLACK
        object.__setattr__(self, "theoretical", lo >= -slack and hi <= 1.0 + slack)

    @property
    def q(self) -> int:
        return len(self.steps)

    def coeff_array(self) -> np.ndarray:
        """The q x 3 float64 array of the steps, built once with the schedule
        and read-only."""
        return self._coeffs

    def scalar_map(self, x):
        """Apply p_0(x) = x, p_{t+1} = phi_t(p_t) elementwise, phi_t by :func:`_step_map`."""
        p = np.asarray(x, dtype=np.float64)
        for a, b, c in self.steps:
            p = _step_map(a, b, c)(p)
        return p


# name -> (coefficient triple repeated q times, smallest q)
_REPEATED = {
    "cubic": (CUBIC_COEFFS, 0),
    "quintic-theoretical": (QUINTIC_THEORETICAL_COEFFS, 0),
    "quintic-empirical": (QUINTIC_EMPIRICAL_COEFFS, 1),
}


def cubic_schedule(q: int) -> PolynomialSchedule:
    return schedule_by_name("cubic", q)


def quintic_theoretical_schedule(q: int) -> PolynomialSchedule:
    return schedule_by_name("quintic-theoretical", q)


def quintic_empirical_schedule(q: int) -> PolynomialSchedule:
    return schedule_by_name("quintic-empirical", q)


def polar_express_schedule(variant: str) -> PolynomialSchedule:
    if variant not in _POLAR_EXPRESS:
        raise PreconditionError(f"unknown PolarExpress variant: {variant!r}")
    return PolynomialSchedule(_POLAR_EXPRESS[variant], name=f"polar-express-{variant}")


def schedule_by_name(name: str, q: int) -> PolynomialSchedule:
    """Builtin schedule by its config name; q is ignored by PolarExpress."""
    if name.startswith("polar-express-"):
        return polar_express_schedule(name.removeprefix("polar-express-"))
    if name not in _REPEATED:
        raise PreconditionError(f"unknown schedule name: {name!r}")
    coeffs, q_min = _REPEATED[name]
    if q < q_min:
        raise PreconditionError(f"q must be >= {q_min}")
    return PolynomialSchedule((coeffs,) * q, name=name)


@dataclass(frozen=True)
class PolarConfig:
    """Selects a polar solver.

    ``delta_rule``: "frobenius-norm" (default, the common practitioner
    choice), "operator-norm" (tight scaling), or an explicit positive float.
    """

    solver: str = "polynomial"  # "exact" | "polynomial"
    schedule: PolynomialSchedule = field(
        default_factory=lambda: quintic_theoretical_schedule(6)
    )
    delta_rule: str | float = "frobenius-norm"

    def __post_init__(self):
        if self.solver not in ("exact", "polynomial"):
            raise PreconditionError(f"unknown solver: {self.solver!r}")
        if isinstance(self.delta_rule, (int, float)):
            if not 0 < self.delta_rule < math.inf:
                raise PreconditionError("explicit delta must be positive and finite")
        elif self.delta_rule not in ("operator-norm", "frobenius-norm"):
            raise PreconditionError(f"unknown delta rule: {self.delta_rule!r}")

    @property
    def q(self) -> int:
        return self.schedule.q

    @property
    def explicit_delta(self) -> bool:
        """Whether delta is the given float rather than a norm of the input."""
        return not isinstance(self.delta_rule, str)

    def resolve_delta(self, m: np.ndarray, frobenius: float | None = None) -> float:
        """The scale delta for ``m``, a finite 2-D float64 array that the
        calling solver has validated: DegenerateInputError if delta is 0 (a
        zero ``m``, or squares that underflow), NumericalAbortError if it is
        not finite (squares that overflow).  ``frobenius`` is ||m||_F when
        the caller has taken it (:func:`_checked_input`)."""
        if self.explicit_delta:
            delta = float(self.delta_rule)
        elif self.delta_rule == "operator-norm":
            delta = matcore._operator_norm(m)
        elif frobenius is not None:
            delta = frobenius
        else:
            with np.errstate(over="ignore"):
                delta = matcore._frobenius(m)
        if delta == 0.0:
            raise DegenerateInputError("scale delta is 0")
        if not math.isfinite(delta):
            raise NumericalAbortError("scale delta is not finite")
        return delta


def _checked_input(m, cfg: PolarConfig, solver: str) -> tuple[np.ndarray, float | None]:
    """(``m`` checked as :func:`matcore.as_matrix` checks it, ||m||_F when
    ``cfg`` takes delta by the frobenius-norm rule, else None); after ``m``,
    ``cfg`` must select the polynomial solver (the error names ``solver``).
    The norm is taken before the entries are scanned: a finite norm proves
    every entry finite, so only a norm that is not finite (NaN or inf
    entries, or overflowing squares) scans them, to tell the two apart."""
    if cfg.delta_rule != "frobenius-norm":
        a, norm = matcore.as_matrix(m), None
    else:
        a = matcore._as_nonempty_2d(m)
        with np.errstate(over="ignore"):
            norm = matcore._frobenius(a)
        if not math.isfinite(norm):
            matcore._require_finite(a)
    if cfg.solver != "polynomial":
        raise PreconditionError(f"{solver} requires a polynomial config")
    return a, norm


def exact_polar(m) -> np.ndarray:
    """U V^T from the compact SVD: the nuclear-norm-aligned partial isometry."""
    f = matcore.svd(m)
    return f.u @ f.v.T


def _gram_form(rows: int, cols: int, q: int) -> bool:
    """Whether :func:`polynomial_iterate` runs q steps on a rows x cols
    input in Gram form: q >= 1 and one side at least twice the other."""
    return q >= 1 and max(rows, cols) >= 2 * min(rows, cols)


def polynomial_iterate(z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply each row (a, b, c) of ``coeffs`` as a*Z + b*Z(Z^T Z) + c*Z(Z^T Z)^2.

    Two evaluation forms, chosen by shape.  With d0 <= d1 the sides of Z:

    - Direct (d1 < 2*d0): each step is realized on the smaller Gram factor,
      (ZZ^T)Z when rows <= cols, Z(Z^T Z) otherwise; q (4 d1 d0^2 + 2 d0^3)
      FLOPs.
    - Gram (d1 >= 2*d0, q >= 1): every odd polynomial of B (Z in its wide
      orientation) is R*B with R a polynomial in G = BB^T, so the schedule
      runs on d0 x d0 matrices: S = G; per step P = aI + bS + cS^2 and
      R <- P*R, and, except on the last step, S <- P(PS); then R*B is applied
      once.  4 d0^2 d1 + (8q - 6) d0^3 FLOPs.

    Forming G squares the singular values, so the Gram form loses accuracy on
    those far below 1.  Against the exact map U p_q(Sigma) V^T, over 200
    random B with sigma log-spaced from 1 down to 1e-14 (d0 in [4, 64], d1 in
    [2 d0, 8 d0], both orientations, q = 5), the largest relative Frobenius
    error of the Gram form was 1.5e-14 for the cubic and quintic-theoretical
    schedules (as for the direct form; ||Z||_op - 1 stayed below 4e-15), but
    2.4e-12 for quintic-empirical and 1.7e-9 for PolarExpress, where the
    direct form reached 2.1e-13 and 3.6e-12.
    """
    steps = coeffs.tolist()
    rows, cols = z.shape
    if not _gram_form(rows, cols, len(steps)):
        for a, b, c in steps:
            if rows <= cols:
                g = z @ z.T
                z = a * z + (b * g + c * (g @ g)) @ z
            else:
                g = z.T @ z
                z = a * z + z @ (b * g + c * (g @ g))
        return z
    wide = z if rows <= cols else z.T
    s = wide @ wide.T
    eye = np.eye(s.shape[0])
    r = None
    for t, (a, b, c) in enumerate(steps):
        p = a * eye + b * s + c * (s @ s)
        r = p if r is None else p @ r
        if t < len(steps) - 1:
            s = p @ (p @ s)
    out = r @ wide
    return out if rows <= cols else out.T


def _scaled_polynomial(kernel, b: np.ndarray, delta: float, cfg: PolarConfig) -> np.ndarray:
    """p_q(b / delta) for the schedule of ``cfg``, run by ``kernel``, the
    calling solver's own.  No norm of the input bounds an explicit delta, so
    under one the kernel runs with numpy's overflow warnings silenced and an
    output that is not finite raises NumericalAbortError."""
    coeffs = cfg.schedule.coeff_array()
    if not cfg.explicit_delta:
        return kernel(b / delta, coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        z = kernel(b / delta, coeffs)
    if not np.isfinite(z).all():
        raise NumericalAbortError("polynomial output is not finite under the explicit delta")
    return z


def inexact_polar(m, cfg: PolarConfig) -> np.ndarray:
    """Polynomial polar approximation p_q(m / delta).

    The operator norm of the output is at most 1 (up to rounding) when the
    schedule is ``theoretical`` and delta >= ||m||_op, which the two norm
    rules guarantee; an explicit delta below the operator norm voids it.
    The checks are the randomized solver's: :func:`_checked_input`, then
    :meth:`PolarConfig.resolve_delta` (only an explicit delta maps a zero
    ``m``, to p_q(0) = 0) and :func:`_scaled_polynomial`.
    """
    a, norm = _checked_input(m, cfg, "inexact_polar")
    return _scaled_polynomial(polynomial_iterate, a, cfg.resolve_delta(a, norm), cfg)


# Relative slack of the bounds' hypothesis delta >= sigma_1: delta and sigma
# often come from independent SVD calls, whose sigma_1 may differ in the last ulp.
SIGMA1_REL_SLACK = 1e-12


def prop1_gamma(sigma, delta: float, schedule: PolynomialSchedule) -> float:
    """Alignment loss 1 - sum(sigma_i * p_q(sigma_i/delta)) / sum(sigma_i)."""
    s = np.asarray(sigma, dtype=np.float64)
    if s.size == 0 or np.any(s <= 0):
        raise PreconditionError("sigma must be nonempty and positive")
    if delta < np.max(s) * (1.0 - SIGMA1_REL_SLACK):
        raise PreconditionError("delta must be >= max(sigma)")
    p = schedule.scalar_map(s / delta)
    return float(1.0 - np.sum(s * p) / np.sum(s))
