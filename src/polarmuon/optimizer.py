"""Muon update rule with Nesterov/Polyak momentum and parameter schedules.
A step rebinds its state's fields to fresh arrays and returns None; it
writes into no array it was given."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import DimensionError, PreconditionError

__all__ = [
    "MuonState",
    "Schedule",
    "check_eta",
    "check_momentum",
    "muon_step",
    "scaled_momentum",
    "theorem1_schedule",
    "corollary1_schedule",
    "min_batch_size",
]


def check_momentum(kind: str, beta: float) -> None:
    """Muon momentum is "nesterov" or "polyak" with beta in [0, 1)."""
    if kind not in ("nesterov", "polyak"):
        raise PreconditionError(f"unknown momentum kind: {kind!r}")
    if not 0.0 <= beta < 1.0:
        raise PreconditionError("beta must lie in [0, 1)")


def check_eta(eta: float) -> None:
    """A Muon step size eta is positive and finite."""
    if not 0.0 < eta < math.inf:
        raise PreconditionError("eta must be positive and finite")


@dataclass
class MuonState:
    """Per-matrix optimizer state: parameter x and momentum buffer c."""

    x: np.ndarray
    c: np.ndarray
    kind: str = "nesterov"  # "nesterov" | "polyak"
    beta: float = 0.95
    eta: float = 0.02

    def __post_init__(self):
        check_momentum(self.kind, self.beta)
        check_eta(self.eta)
        if self.x.shape != self.c.shape:
            raise DimensionError("momentum buffer shape must match parameter shape")

    @classmethod
    def initial(cls, x0, kind="nesterov", beta=0.95, eta=0.02) -> "MuonState":
        a = matcore.as_matrix(x0)
        return cls(x=a, c=np.zeros_like(a), kind=kind, beta=beta, eta=eta)


def muon_step(state: MuonState, g, polar) -> None:
    """One update of ``state``: C_k = beta C_{k-1} + G_k, M_k = beta C_k + G_k
    (nesterov) or M_k = C_k (polyak), X_{k+1} = X_k - eta * polar(M_k).

    ``polar`` maps a nonzero matrix to its (approximate) polar factor; a zero
    momentum matrix leaves x as it is, by convention.  ``g`` is not checked
    for finite entries here: the package's polar maps validate the momentum
    built from it.  C_k, M_k and X_{k+1} are each built in one fresh array,
    with the roundings of the formulas above; ``g``, M_k, the polar output
    and the state's old arrays are never written.
    """
    grad = np.asarray(g, dtype=np.float64)
    if grad.shape != state.x.shape:
        raise DimensionError(f"gradient shape {grad.shape} != parameter shape {state.x.shape}")
    c = state.c * state.beta
    c += grad
    if state.kind == "nesterov":
        m = c * state.beta
        m += grad
    else:
        m = c
    if m.any():
        direction = polar(m)
        if direction.shape != state.x.shape:
            raise DimensionError("polar output shape mismatch")
        x = direction * -state.eta
        x += state.x
        state.x = x
    state.c = c


def scaled_momentum(state: MuonState, g_current, g_previous, m_tilde_previous) -> np.ndarray:
    """Rescaled Nesterov momentum via the recursion
    M~_k = beta M~_{k-1} + (1-beta)((1+beta) G_k - beta G_{k-1}).

    Cross-validation path: equals (1-beta) * M_k from the direct recursion.
    """
    if state.kind != "nesterov":
        raise PreconditionError("scaled_momentum is defined for nesterov momentum")
    gk = matcore.as_matrix(g_current)
    gp = matcore.as_matrix(g_previous)
    mp = matcore.as_matrix(m_tilde_previous)
    if not (gk.shape == gp.shape == mp.shape):
        raise DimensionError("scaled_momentum operands must share one shape")
    b = state.beta
    return b * mp + (1.0 - b) * ((1.0 + b) * gk - b * gp)


@dataclass(frozen=True)
class Schedule:
    """Step size eta and momentum beta of a run."""

    eta: float
    beta: float


def theorem1_schedule(K: int, alpha: float) -> Schedule:
    """eta = K^-((2a-1)/(3a-2)), beta = 1 - K^-(a/(3a-2)) for tail index a."""
    if K < 2:
        raise PreconditionError("K must be >= 2")
    if not 1.0 < alpha <= 2.0:
        raise PreconditionError("alpha must lie in (1, 2]")
    eta = K ** (-(2.0 * alpha - 1.0) / (3.0 * alpha - 2.0))
    beta = 1.0 - K ** (-alpha / (3.0 * alpha - 2.0))
    return Schedule(eta=eta, beta=beta)


def corollary1_schedule(K: int) -> Schedule:
    """Tail-agnostic schedule eta = K^-(3/4), beta = 1 - K^-(1/2)."""
    if K < 2:
        raise PreconditionError("K must be >= 2")
    return Schedule(eta=K**-0.75, beta=1.0 - K**-0.5)


#: von Bahr-Esseen constant upper bound used in the batch-size threshold.
C_ALPHA = 2.0


def min_batch_size(
    alpha: float, sigma1: float, d0: int, gamma_bar: float = 0.0, nu_bar: float = 0.0
) -> int:
    """Smallest integer batch size strictly above
    {2 sqrt(pi) (1 + sqrt(d0) (1 + nu)) C_alpha^(1/alpha) sigma1 / (1 - gamma)}^(alpha/(alpha-1)).

    With sigma1 = 0 any batch size works, so 1 is returned.
    """
    if not 1.0 < alpha <= 2.0:
        raise PreconditionError("alpha must lie in (1, 2]")
    if not 0.0 <= gamma_bar < 1.0:
        raise PreconditionError("gamma_bar must lie in [0, 1)")
    if sigma1 == 0.0:
        return 1
    base = (
        2.0
        * math.sqrt(math.pi)
        * (1.0 + math.sqrt(d0) * (1.0 + nu_bar))
        * C_ALPHA ** (1.0 / alpha)
        * sigma1
        / (1.0 - gamma_bar)
    )
    threshold = base ** (alpha / (alpha - 1.0))
    return int(math.floor(threshold)) + 1
