"""Muon update rule with Nesterov/Polyak momentum, parameter schedules, and
baseline optimizers (SGD-Nesterov, AdamW)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import matcore
from .errors import DimensionError, PreconditionError

__all__ = [
    "MuonState",
    "Schedule",
    "check_momentum",
    "SgdState",
    "AdamWState",
    "muon_step",
    "scaled_momentum",
    "theorem1_schedule",
    "corollary1_schedule",
    "min_batch_size",
    "baseline_step",
    "sgd_nesterov_step",
    "adamw_step",
]


def check_momentum(kind: str, beta: float) -> None:
    """Muon momentum is "nesterov" or "polyak" with beta in [0, 1)."""
    if kind not in ("nesterov", "polyak"):
        raise PreconditionError(f"unknown momentum kind: {kind!r}")
    if not 0.0 <= beta < 1.0:
        raise PreconditionError("beta must lie in [0, 1)")


@dataclass(frozen=True)
class MuonState:
    """Per-matrix optimizer state: parameter x, momentum buffer c, step index k."""

    x: np.ndarray
    c: np.ndarray
    k: int = 0
    kind: str = "nesterov"  # "nesterov" | "polyak"
    beta: float = 0.95
    eta: float = 0.02

    def __post_init__(self):
        check_momentum(self.kind, self.beta)
        if self.x.shape != self.c.shape:
            raise DimensionError("momentum buffer shape must match parameter shape")

    @classmethod
    def initial(cls, x0, kind="nesterov", beta=0.95, eta=0.02) -> "MuonState":
        a = matcore.as_matrix(x0)
        return cls(x=a, c=np.zeros_like(a), k=0, kind=kind, beta=beta, eta=eta)


def muon_step(state: MuonState, g, polar) -> MuonState:
    """One update: C_k = beta C_{k-1} + G_k, M_k = beta C_k + G_k (nesterov)
    or M_k = C_k (polyak), X_{k+1} = X_k - eta * polar(M_k).

    ``polar`` maps a nonzero matrix to its (approximate) polar factor; a zero
    momentum matrix produces a zero update by convention.  ``g`` is not
    checked for finite entries here: the package's polar maps validate the
    momentum built from it.  Each of C_k, M_k and X_{k+1} is built in one
    fresh array, with the same roundings as the formulas above; the arrays
    of ``state``, ``g`` and the polar output are never written.
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
    else:
        x = state.x.copy()
    return replace(state, x=x, c=c, k=state.k + 1)


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
    """(eta, beta) pair together with its source rule."""

    eta: float
    beta: float
    source: str = "manual"
    K: int | None = None
    alpha: float | None = None


def theorem1_schedule(K: int, alpha: float) -> Schedule:
    """eta = K^-((2a-1)/(3a-2)), beta = 1 - K^-(a/(3a-2)) for tail index a."""
    if K < 2:
        raise PreconditionError("K must be >= 2")
    if not 1.0 < alpha <= 2.0:
        raise PreconditionError("alpha must lie in (1, 2]")
    eta = K ** (-(2.0 * alpha - 1.0) / (3.0 * alpha - 2.0))
    beta = 1.0 - K ** (-alpha / (3.0 * alpha - 2.0))
    return Schedule(eta=eta, beta=beta, source="theorem1", K=K, alpha=alpha)


def corollary1_schedule(K: int) -> Schedule:
    """Tail-agnostic schedule eta = K^-(3/4), beta = 1 - K^-(1/2)."""
    if K < 2:
        raise PreconditionError("K must be >= 2")
    return Schedule(eta=K**-0.75, beta=1.0 - K**-0.5, source="corollary1", K=K)


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


@dataclass(frozen=True)
class SgdState:
    x: np.ndarray
    buf: np.ndarray
    lr: float = 1e-2
    momentum: float = 0.9

    @classmethod
    def initial(cls, x0, lr=1e-2, momentum=0.9) -> "SgdState":
        a = matcore.as_matrix(x0)
        return cls(x=a, buf=np.zeros_like(a), lr=lr, momentum=momentum)


def sgd_nesterov_step(state: SgdState, g) -> SgdState:
    grad = matcore.as_matrix(g)
    if grad.shape != state.x.shape:
        raise DimensionError("gradient shape mismatch")
    buf = state.momentum * state.buf + grad
    d = grad + state.momentum * buf if state.momentum > 0 else grad
    return replace(state, x=state.x - state.lr * d, buf=buf)


@dataclass(frozen=True)
class AdamWState:
    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    k: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    @classmethod
    def initial(cls, x0, **kw) -> "AdamWState":
        a = matcore.as_matrix(x0)
        return cls(x=a, m=np.zeros_like(a), v=np.zeros_like(a), **kw)


def adamw_step(state: AdamWState, g) -> AdamWState:
    grad = matcore.as_matrix(g)
    if grad.shape != state.x.shape:
        raise DimensionError("gradient shape mismatch")
    k = state.k + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1**k)
    v_hat = v / (1.0 - state.beta2**k)
    x = state.x * (1.0 - state.lr * state.weight_decay)
    x = x - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return replace(state, x=x, m=m, v=v, k=k)


def baseline_step(kind: str, state, g):
    if kind == "sgd_nesterov":
        return sgd_nesterov_step(state, g)
    if kind == "adamw":
        return adamw_step(state, g)
    raise PreconditionError(f"unknown baseline kind: {kind!r}")
