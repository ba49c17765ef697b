"""Named certification suites with fixed seeds, driven by the CLI.

Each scope runs a set of numerical checks and returns per-check results;
exit status 0 means every pass flag held.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import matcore, noise as noise_mod, optimizer as opt, polar as polar_mod
from .config import make_output_dir, write_csv
from .errors import ConfigError
from .matcore import RngStream
from .polar import (
    PolarConfig,
    cubic_schedule,
    quintic_empirical_schedule,
    quintic_theoretical_schedule,
)
from .sketch import SketchConfig, gaussian_sketch, kaczmarz_sketch
from .verify import (
    FlopModel,
    check_polynomial_lemmas,
    check_prop2,
    estimate_gamma_nu,
    flop_counts,
)

__all__ = ["CheckResult", "SCOPES", "run_scope", "verify_suite"]

_SUITE_SEED = 0x5EED5

@dataclass(frozen=True)
class CheckResult:
    scope: str
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.scope}: {self.name} -- {self.detail}"


def _scope_polynomials() -> list[CheckResult]:
    out = []
    for sched in (cubic_schedule(5), quintic_theoretical_schedule(5)):
        rep = check_polynomial_lemmas(sched)
        out.append(
            CheckResult(
                "polynomials",
                f"{sched.name} range properties",
                rep.all_passed,
                f"min_value={min(s.min_value for s in rep.steps):.3e} "
                f"max_value={max(s.max_value for s in rep.steps):.12f}",
            )
        )
    # Non-theoretical schedule: overshoot above 1 is expected and reported,
    # not a failure of the harness.
    rep = check_polynomial_lemmas(quintic_empirical_schedule(1))
    overshoot = max(s.max_value for s in rep.steps)
    out.append(
        CheckResult(
            "polynomials",
            "quintic-empirical overshoot reported",
            overshoot > 1.0,
            f"max_value={overshoot:.6f} (expected > 1)",
        )
    )
    return out


def _scope_prop1() -> list[CheckResult]:
    rng = RngStream(_SUITE_SEED, 1)
    schedules = (cubic_schedule(3), quintic_theoretical_schedule(3))
    worst = 0.0
    for i in range(100):
        m_rows = int(rng.generator.integers(3, 12))
        n_cols = int(rng.generator.integers(3, 12))
        m = rng.normal((m_rows, n_cols))
        sigma = matcore.svd(m).sigma
        for sched in schedules:
            for rule in ("operator-norm", "frobenius-norm"):
                pcfg = PolarConfig(schedule=sched, delta_rule=rule)
                delta = pcfg.resolve_delta(m)
                # measure at the delta that gamma is computed for
                pcfg = replace(pcfg, delta_rule=delta)
                est = estimate_gamma_nu(
                    m, lambda a, _r: polar_mod.inexact_polar(a, pcfg), 1, rng
                )
                gamma = polar_mod.prop1_gamma(sigma, delta, sched)
                worst = max(worst, abs(est.gamma_hat - gamma))
    return [
        CheckResult(
            "prop1",
            "measured alignment matches closed-form gamma",
            worst <= 1e-8,
            f"max deviation {worst:.3e} over 100 matrices",
        )
    ]


def _scope_prop2() -> list[CheckResult]:
    m = np.diag([10.0, 10.0, 1.0, 1.0])
    scfg = SketchConfig(s=2, p=2, h=0, kind="gaussian")
    pcfg = PolarConfig(schedule=quintic_theoretical_schedule(6), delta_rule=10.0)
    rep = check_prop2(m, scfg, pcfg, trials=2000, rng=RngStream(_SUITE_SEED, 2))
    return [
        CheckResult(
            "prop2",
            "expected alignment above bound (3 SE)",
            rep.alignment_pass,
            f"mean={rep.mean_alignment:.4f} bound={rep.bound:.4f} se={rep.alignment_se:.4f}",
        ),
        CheckResult(
            "prop2",
            "operator norm <= 1 in every realization",
            rep.op_norm_pass,
            f"max_op_norm={rep.max_op_norm:.12f}",
        ),
    ]


def _gram_moments(omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise mean of Omega Omega^T over a (trials, n, ell) stack of draws
    and its standard error, from sums of G and G * G over the trials in
    draw order (numpy reduces the leading axis of an n x n stack, n >= 2,
    slice by slice)."""
    trials = len(omega)
    g = omega @ omega.transpose(0, 2, 1)
    mean = g.sum(axis=0) / trials
    sq = (g * g).sum(axis=0)
    return mean, np.sqrt(np.maximum(sq / trials - mean**2, 0.0) / trials)


def _scope_sketch_moments() -> list[CheckResult]:
    rng = RngStream(_SUITE_SEED, 30)
    n, ell, trials = 6, 3, 5000
    mean, se = _gram_moments(gaussian_sketch(n, ell, rng, trials))
    g_pass = bool(np.all(np.abs(mean - ell * np.eye(n)) <= 3.0 * se + 1e-12))

    base = rng.normal((5, n)) * np.array([3.0, 1.0, 1.0, 0.5, 2.0, 1.0])
    mean, se = _gram_moments(kaczmarz_sketch(base, ell, rng, trials))
    k_pass = bool(np.all(np.abs(mean - np.eye(n)) <= 3.0 * se + 1e-12))
    return [
        CheckResult("sketch-moments", "Gaussian E[Omega Omega^T] = ell I", g_pass, f"n={n} ell={ell} trials={trials}"),
        CheckResult("sketch-moments", "Kaczmarz E[Omega Omega^T] = I", k_pass, f"n={n} ell={ell} trials={trials}"),
    ]


def _scope_noise_moments() -> list[CheckResult]:
    # The calibration and the estimators each draw their stream once for all
    # three models, which share its uniforms.
    shape, batches = (6, 6), (1, 4, 16, 64)
    models = tuple(noise_mod.calibrate_models(
        tuple(noise_mod.NoiseModel(alpha=alpha, sigma0=1.0) for alpha in (1.25, 1.5, 2.0)),
        shape,
        RngStream(_SUITE_SEED, 4),
    ))
    moments = noise_mod.empirical_alpha_moment(models, shape, 20000, RngStream(_SUITE_SEED, 5))
    coupled = noise_mod.empirical_batch_moments(
        models, shape, 4000, RngStream(_SUITE_SEED, 6), batches=batches
    )
    out = []
    for model, (est, se), by_batch in zip(models, moments, coupled):
        alpha = model.alpha
        budget = model.sigma0**alpha
        out.append(
            CheckResult(
                "noise-moments",
                f"alpha={alpha} moment within budget (3 SE)",
                est <= budget + 3.0 * se,
                f"estimate={est:.4f} budget={budget:.4f} se={se:.4f}",
            )
        )
        batch_moments = [by_batch[b][0] for b in batches]
        mono = all(
            batch_moments[i + 1] < batch_moments[i]
            for i in range(len(batch_moments) - 1)
        )
        out.append(
            CheckResult(
                "noise-moments",
                f"alpha={alpha} batch moment decreases over B in (1,4,16,64)",
                mono,
                " -> ".join(f"{v:.4f}" for v in batch_moments),
            )
        )
    return out


def _scope_flops() -> list[CheckResult]:
    full, rand, ratio = flop_counts(FlopModel(m=4096, n=4096, ell=256, q=5, h=1))
    return [
        CheckResult(
            "flops",
            "4096/256/q5/h1 reduction ratio in [40, 45]",
            40.0 <= ratio <= 45.0,
            f"full={full} randomized={rand} ratio={ratio:.2f} (paper-scale reduction ~40x)",
        )
    ]


def _scope_lemma1() -> list[CheckResult]:
    rng = RngStream(_SUITE_SEED, 7)
    beta = 0.9
    shape = (5, 4)
    state = opt.MuonState.initial(np.zeros(shape), kind="nesterov", beta=beta, eta=0.1)
    c = np.zeros(shape)
    g_prev = np.zeros(shape)
    m_tilde = np.zeros(shape)
    worst = 0.0
    for k in range(10):
        g = rng.normal(shape)
        c = beta * c + g
        m_direct = beta * c + g
        if k == 0:
            m_tilde = (1.0 - beta) * m_direct
        else:
            m_tilde = opt.scaled_momentum(state, g, g_prev, m_tilde)
        worst = max(worst, float(np.max(np.abs(m_tilde - (1.0 - beta) * m_direct))))
        g_prev = g
    return [
        CheckResult(
            "lemma1",
            "rescaled momentum recursion matches direct path",
            worst <= 1e-12,
            f"max deviation {worst:.3e} over 10 steps, beta=0.9",
        )
    ]


SCOPES = {
    "polynomials": _scope_polynomials,
    "prop1": _scope_prop1,
    "prop2": _scope_prop2,
    "sketch-moments": _scope_sketch_moments,
    "noise-moments": _scope_noise_moments,
    "flops": _scope_flops,
    "lemma1": _scope_lemma1,
}


def run_scope(scope: str) -> list[CheckResult]:
    if scope not in SCOPES:
        raise ConfigError(f"unknown verify scope {scope!r} (choose from {sorted(SCOPES)})")
    return SCOPES[scope]()


def verify_suite(scopes, output_dir: str | None = None) -> tuple[int, list[CheckResult]]:
    """Run the named scopes; returns (exit_status, results) and optionally
    writes them as ``verify.csv`` and as ``verify.txt``, one result line
    each.  The output directory is made before any scope runs."""
    out = None if output_dir is None else make_output_dir(output_dir)
    results: list[CheckResult] = []
    for scope in scopes:
        results.extend(run_scope(scope))
    status = 0 if all(r.passed for r in results) else 1
    if out is not None:
        write_csv(
            out / "verify.csv",
            ("scope", "check", "passed", "detail"),
            [(r.scope, r.name, int(r.passed), r.detail) for r in results],
        )
        with open(out / "verify.txt", "w", encoding="utf-8", newline="\n") as f:
            f.writelines(f"{r}\n" for r in results)
    return status, results
