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

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import DegenerateInputError, PreconditionError

__all__ = [
    "PolynomialSchedule",
    "PolarConfig",
    "cubic_schedule",
    "quintic_theoretical_schedule",
    "quintic_empirical_schedule",
    "polar_express_schedule",
    "schedule_by_name",
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


@dataclass(frozen=True)
class PolynomialSchedule:
    """Ordered coefficient triples (a_t, b_t, c_t), one per iteration.

    ``theoretical`` marks schedules whose scalar map provably stays in [0, 1]
    on [0, 1] (cubic, quintic-theoretical); only for those is the hard
    operator-norm bound <= 1 asserted downstream.
    """

    steps: tuple[tuple[float, float, float], ...]
    name: str = "custom"
    theoretical: bool = False

    def __post_init__(self):
        # built once: every solver call reads it (not a field, so eq, hash,
        # replace and the INI writer see only the fields above)
        coeffs = np.array(self.steps, dtype=np.float64).reshape(-1, 3)
        coeffs.flags.writeable = False
        object.__setattr__(self, "_coeffs", coeffs)

    @property
    def q(self) -> int:
        return len(self.steps)

    def coeff_array(self) -> np.ndarray:
        """The q x 3 float64 array of the steps, built once with the schedule
        and read-only."""
        return self._coeffs

    def scalar_map(self, x):
        """Apply the scalar recursion p_0(x)=x, p_{t+1}=phi_t(p_t) elementwise."""
        p = np.asarray(x, dtype=np.float64)
        for a, b, c in self.steps:
            p = a * p + b * p**3 + c * p**5
        return p


# name -> (coefficient triple repeated q times, theoretical, smallest q)
_REPEATED = {
    "cubic": (CUBIC_COEFFS, True, 0),
    "quintic-theoretical": (QUINTIC_THEORETICAL_COEFFS, True, 0),
    "quintic-empirical": (QUINTIC_EMPIRICAL_COEFFS, False, 1),
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
    return PolynomialSchedule(
        _POLAR_EXPRESS[variant], name=f"polar-express-{variant}", theoretical=False
    )


def schedule_by_name(name: str, q: int) -> PolynomialSchedule:
    """Builtin schedule by its config name; q is ignored by PolarExpress."""
    if name.startswith("polar-express-"):
        return polar_express_schedule(name.removeprefix("polar-express-"))
    if name not in _REPEATED:
        raise PreconditionError(f"unknown schedule name: {name!r}")
    coeffs, theoretical, q_min = _REPEATED[name]
    if q < q_min:
        raise PreconditionError(f"q must be >= {q_min}")
    return PolynomialSchedule((coeffs,) * q, name=name, theoretical=theoretical)


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
            if self.delta_rule <= 0:
                raise PreconditionError("explicit delta must be positive")
        elif self.delta_rule not in ("operator-norm", "frobenius-norm"):
            raise PreconditionError(f"unknown delta rule: {self.delta_rule!r}")

    @property
    def q(self) -> int:
        return self.schedule.q

    def resolve_delta(self, m: np.ndarray) -> float:
        """The scale delta for ``m``, a finite 2-D float64 array that the
        calling solver has validated (it is not re-checked here)."""
        if isinstance(self.delta_rule, (int, float)):
            return float(self.delta_rule)
        if self.delta_rule == "operator-norm":
            return matcore._operator_norm(m)
        return matcore._frobenius(m)


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


def inexact_polar(m, cfg: PolarConfig) -> np.ndarray:
    """Polynomial polar approximation p_q(m / delta).

    An explicit delta below the operator norm voids the <= 1 spectral
    guarantee of theoretical schedules.
    """
    a = matcore.as_matrix(m)
    if not a.any():
        raise DegenerateInputError("inexact_polar of zero matrix")
    if cfg.solver != "polynomial":
        raise PreconditionError("inexact_polar requires a polynomial config")
    delta = cfg.resolve_delta(a)
    return polynomial_iterate(a / delta, cfg.schedule.coeff_array())


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
