"""Acceptance gate: one test per top-level criterion, each printing a
single pass/fail line (run with ``pytest -s`` to see them inline)."""

import time

import numpy as np
import pytest

from polarmuon.config import (
    OptimizerSpec,
    ProblemSpec,
    RunConfig,
    parse,
    serialize,
)
from polarmuon.matcore import RngStream, inner_product, nuclear_norm, operator_norm, svd
from polarmuon.noise import (
    NoiseModel,
    calibrate,
    empirical_alpha_moment,
    empirical_batch_moments,
    unit_alpha_moment,
)
from polarmuon import optimizer
from polarmuon import optimizer
from polarmuon.optimizer import MuonState, scaled_momentum
from polarmuon.polar import (
    PolarConfig,
    cubic_schedule,
    exact_polar,
    inexact_polar,
    prop1_gamma,
    quintic_theoretical_schedule,
)
from polarmuon.runner import run_experiment
from polarmuon.sketch import (
    SketchConfig,
    SpectrumSummary,
    choose_power_iterations,
    prop2_lower_bound,
    randomized_polar,
)
from polarmuon.verify import (
    FlopModel,
    check_polynomial_lemmas,
    check_prop2,
    flop_counts,
)

from test_config_cli import random_config


def report(num: int, passed: bool, detail: str) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}")
    return passed


def test_criterion_01_exact_polar_oracle():
    rng = RngStream(0xACC, 1)
    t0 = time.perf_counter()
    worst_align = 0.0
    worst_op = 0.0
    for _ in range(200):
        shape = (int(rng.generator.integers(1, 65)), int(rng.generator.integers(1, 49)))
        m = rng.normal(shape)
        out = exact_polar(m)
        worst_align = max(worst_align, abs(inner_product(m, out) / nuclear_norm(m) - 1.0))
        worst_op = max(worst_op, abs(operator_norm(out) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_align <= 1e-8 and worst_op <= 1e-8 and elapsed < 5.0
    assert report(
        1,
        ok,
        f"exact polar: max |align-1|={worst_align:.2e}, max |op-1|={worst_op:.2e}, "
        f"{elapsed:.2f}s over 200 matrices (tol 1e-8, <5s)",
    )


def test_criterion_02_prop1_identity():
    rng = RngStream(0xACC, 2)
    worst = 0.0
    for _ in range(100):
        shape = (int(rng.generator.integers(3, 12)), int(rng.generator.integers(3, 12)))
        m = rng.normal(shape)
        sigma = svd(m).sigma
        for make in (cubic_schedule, quintic_theoretical_schedule):
            for q in (1, 3, 5):
                for rule in ("operator-norm", "frobenius-norm"):
                    cfg = PolarConfig(schedule=make(q), delta_rule=rule)
                    delta = cfg.resolve_delta(m)
                    ratio = inner_product(m, inexact_polar(m, cfg)) / nuclear_norm(m)
                    gamma = prop1_gamma(sigma, delta, cfg.schedule)
                    worst = max(worst, abs(ratio - (1.0 - gamma)))
    ok = worst <= 1e-8
    assert report(
        2,
        ok,
        f"prop1 identity: max |ratio-(1-gamma)|={worst:.2e} over 100 spectra x "
        f"2 schedules x q in (1,3,5) x 2 delta rules (tol 1e-8)",
    )


def test_criterion_03_polynomial_lemmas():
    reps = [
        check_polynomial_lemmas(cubic_schedule(5)),
        check_polynomial_lemmas(quintic_theoretical_schedule(5)),
    ]
    ok = all(r.all_passed for r in reps)
    assert report(
        3,
        ok,
        "scalar range properties (0<=phi<=1, phi>=x, phi'>=0) hold for cubic and "
        "quintic-theoretical at each step's exact extrema (slack 4 ulps)",
    )


def test_criterion_04_newton_schulz_convergence():
    rng = RngStream(0xACC, 4)
    worst = 0.0
    for t in range(50):
        shape = (int(rng.generator.integers(3, 12)), int(rng.generator.integers(3, 12)))
        r = min(shape)
        # singular values in [0.5, 1] * delta, so sigma_min/delta >= 0.5
        sigma = np.sort(rng.uniform((r,)) * 0.5 + 0.5)[::-1]
        u, _ = np.linalg.qr(rng.normal((shape[0], r)))
        v, _ = np.linalg.qr(rng.normal((shape[1], r)))
        m = (u * sigma) @ v.T
        cfg = PolarConfig(schedule=quintic_theoretical_schedule(6), delta_rule=float(sigma[0]))
        worst = max(worst, operator_norm(inexact_polar(m, cfg) - exact_polar(m)))
    ok = worst <= 1e-4
    assert report(
        4,
        ok,
        f"quintic-theoretical q=6 with sigma_min/delta>=0.5: max op-norm error "
        f"{worst:.2e} over 50 instances (tol 1e-4)",
    )


def test_criterion_05_prop2_monte_carlo():
    t0 = time.perf_counter()
    rep = check_prop2(
        np.diag([10.0, 10.0, 1.0, 1.0]),
        SketchConfig(s=2, p=2, h=0),
        PolarConfig(schedule=quintic_theoretical_schedule(6), delta_rule=10.0),
        trials=2000,
        rng=RngStream(0xACC, 5),
    )
    elapsed = time.perf_counter() - t0
    ok = rep.passed and rep.bound == pytest.approx(19.6) and elapsed < 30.0
    assert report(
        5,
        ok,
        f"prop2: mean alignment {rep.mean_alignment:.3f} >= bound {rep.bound:.2f} "
        f"- 3*{rep.alignment_se:.3f}; max op norm {rep.max_op_norm:.12f} <= 1+1e-10; "
        f"{elapsed:.1f}s for 2000 sketches (<30s)",
    )


def test_criterion_06_h_rule():
    gapped = SpectrumSummary.from_sigma([2.0, 1.0, 1.0, 1.0, 1.0], 1)
    h = choose_power_iterations(gapped, 2)
    bound = prop2_lower_bound(gapped, 2, h, 2.0) if h is not None else -1.0
    flat = SpectrumSummary.from_sigma([1.0, 1.0, 1.0, 1.0], 1)
    infeasible = choose_power_iterations(flat, 2) is None
    ok = h == 1 and bound > 0.0 and infeasible
    assert report(
        6,
        ok,
        f"h-rule: spectrum (2,1,1,1,1) s=1 p=2 -> h={h}, bound={bound:.4f} > 0; "
        f"flat tail reports infeasible={infeasible}",
    )


def test_criterion_07_sketch_moments():
    from polarmuon.sketch import gaussian_sketch, kaczmarz_sketch

    rng = RngStream(0xACC, 70)
    n, ell, trials = 6, 3, 5000

    def band_check(draw):
        acc = np.zeros((n, n))
        sq = np.zeros((n, n))
        for _ in range(trials):
            om = draw()
            g = om @ om.T
            acc += g
            sq += g * g
        mean = acc / trials
        se = np.sqrt(np.maximum(sq / trials - mean**2, 0.0) / trials)
        return mean, se

    g_mean, g_se = band_check(lambda: gaussian_sketch(n, ell, rng))
    g_ok = bool(np.all(np.abs(g_mean - ell * np.eye(n)) <= 3.0 * g_se + 1e-12))
    base = rng.normal((5, n)) * np.array([3.0, 1.0, 1.0, 0.5, 2.0, 1.0])
    k_mean, k_se = band_check(lambda: kaczmarz_sketch(base, ell, rng))
    k_ok = bool(np.all(np.abs(k_mean - np.eye(n)) <= 3.0 * k_se + 1e-12))
    ok = g_ok and k_ok
    assert report(
        7,
        ok,
        f"sketch moments at 5000 trials, 3-SE entrywise: Gaussian E[OO^T]=ell*I "
        f"({g_ok}), Kaczmarz E[OO^T]=I ({k_ok})",
    )


def test_criterion_08_flop_model():
    model = FlopModel(m=4096, n=4096, ell=256, q=5, h=1)
    full, rand, ratio = flop_counts(model)
    expected_full = 5 * (4 * 4096 * 4096**2 + 2 * 4096**3)
    expected_rand = 10 * 4096 * 4096 * 256 + 5 * (4 * 4096 * 256**2 + 2 * 256**3)
    ok = (
        full == expected_full
        and rand == expected_rand
        and isinstance(full, int)
        and isinstance(rand, int)
        and 40.0 <= ratio <= 45.0
    )
    assert report(
        8,
        ok,
        f"flop model: full={full}, randomized={rand}, ratio={ratio:.2f} in [40,45]; "
        f"integer formulas match exactly",
    )


def _lemma1_deviation() -> float:
    """Max |M~_k - (1 - beta) M_k| over 10 steps, where M_k is the matrix
    ``optimizer.muon_step`` hands its polar map under kind = nesterov, as
    the lemma1 scope takes it, and M~_k the rescaled recursion."""
    rng = RngStream(0xACC, 9)
    beta = 0.9
    shape = (5, 4)
    state = MuonState.initial(np.zeros(shape), kind="nesterov", beta=beta, eta=0.1)
    steps = []  # each M_k that muon_step hands its polar map
    g_prev = np.zeros(shape)
    m_tilde = np.zeros(shape)
    worst = 0.0
    for k in range(10):
        g = rng.normal(shape)
        optimizer.muon_step(state, g, lambda m: steps.append(m) or m)
        m_direct = steps[k]
        if k == 0:
            m_tilde = (1.0 - beta) * m_direct
        else:
            m_tilde = scaled_momentum(state, g, g_prev, m_tilde)
        worst = max(worst, float(np.max(np.abs(m_tilde - (1.0 - beta) * m_direct))))
        g_prev = g
    return worst


def test_criterion_09_lemma1_equivalence():
    worst = _lemma1_deviation()
    ok = worst <= 1e-12
    assert report(
        9, ok, f"lemma1: dual-path momentum deviation {worst:.2e} over 10 steps, beta=0.9"
    )


def test_criterion_09_rejects_polyak_step(monkeypatch):
    # a step that forms Polyak momentum M_k = C_k under kind = nesterov
    # must fail the check
    def polyak_step(state, g, polar):
        state.c = state.c * state.beta + g
        polar(state.c)

    monkeypatch.setattr(optimizer, "muon_step", polyak_step)
    assert _lemma1_deviation() > 1e-12


def test_criterion_10_noise_certification():
    # The fit is exact, so the budget check reads each model's exact moment
    # with the quadrature's error bound.  ||Xi||_F^alpha has infinite
    # variance, so an SE at alpha bounds nothing: the sampler is checked
    # against the exact moment at the order a / 4, whose variance is finite.
    details = []
    ok = True
    shape = (6, 6)
    size = shape[0] * shape[1]
    for alpha in (1.25, 1.5, 2.0):
        model = calibrate(NoiseModel(alpha=alpha, sigma0=1.0), shape, RngStream(0xACC, 10))
        a = model.tail_exponent
        exact = model.scale0**alpha * unit_alpha_moment(alpha, a, size)[0]
        budget_ok = exact * (1.0 + model.calib_rel_tol) <= 1.0
        order = a / 4.0
        est, se = empirical_alpha_moment(
            (model,), shape, 20000, RngStream(0xACC, 11), orders=(order,)
        )[0]
        at_order = model.scale0**order * unit_alpha_moment(order, a, size)[0]
        sampled_ok = abs(est - at_order) <= 3.0 * se
        coupled = empirical_batch_moments(
            (model,), shape, 4000, RngStream(0xACC, 12), batches=(1, 4, 16, 64)
        )[0]
        batch = [coupled[b][0] for b in (1, 4, 16, 64)]
        mono = all(batch[i + 1] < batch[i] for i in range(3))
        ok = ok and budget_ok and sampled_ok and mono
        details.append(
            f"alpha={alpha}: exact moment {exact:.4f}<=1 ({budget_ok}), order {order:g} "
            f"estimate {est:.4f} vs exact {at_order:.4f} within 3*{se:.4f} ({sampled_ok}), "
            f"batch monotone ({mono})"
        )
    assert report(10, ok, "noise certification: " + "; ".join(details))


def _muon_config(**kw) -> RunConfig:
    base = dict(
        problem=ProblemSpec(kind="quadratic", m=16, n=16, rank=8),
        optimizer=OptimizerSpec(kind="muon", schedule="corollary1", K=500),
        polar=PolarConfig(solver="exact"),
        noise=NoiseModel(alpha=2.0, sigma0=0.0),
        seeds=(1,),
        output_dir="out",
    )
    base.update(kw)
    return RunConfig(**base)


def test_criterion_11_desk_scale_optimization():
    t0 = time.perf_counter()

    # (a) deterministic quadratic, exact polar, corollary1, K=500
    rep_a = run_experiment(_muon_config(), write_files=False)
    ratio_a = rep_a.mean_min_grad_norm / rep_a.initial_grad_norm
    ok_a = not rep_a.aborted and ratio_a <= 0.1

    # (b) heavy-tailed factorization, randomized Muon, K-sweep, 20 seeds
    problem = ProblemSpec(kind="factorization", m=16, n=16, rank=8, gen_seed=11)
    model = calibrate(NoiseModel(alpha=1.5, sigma0=0.5), problem.param_shape, RngStream(0xACC, 13))
    means = []
    for K in (64, 256, 1024):
        rep = run_experiment(
            _muon_config(
                problem=problem,
                optimizer=OptimizerSpec(kind="muon", schedule="corollary1", K=K),
                polar=PolarConfig(solver="polynomial", schedule=quintic_theoretical_schedule(5)),
                sketch=SketchConfig(s=3, p=2, h=1),
                noise=model,
                seeds=tuple(range(1, 21)),
            ),
            write_files=False,
        )
        means.append(rep.mean_min_grad_norm)
    ok_b = means[0] >= means[1] >= means[2]

    # (c) randomized vs full Muon paired runs on one deterministic problem
    paired = dict(
        problem=ProblemSpec(kind="quadratic", m=16, n=16, rank=8, gen_seed=12),
        optimizer=OptimizerSpec(kind="muon", schedule="corollary1", K=200),
        polar=PolarConfig(solver="polynomial", schedule=quintic_theoretical_schedule(5)),
    )
    rep_full = run_experiment(_muon_config(**paired), write_files=False)
    rep_rand = run_experiment(
        _muon_config(**paired, sketch=SketchConfig(s=6, p=2, h=1)), write_files=False
    )
    g_full, g_rand = rep_full.mean_min_grad_norm, rep_rand.mean_min_grad_norm
    within_2x = max(g_full, g_rand) <= 2.0 * min(g_full, g_rand)
    # per-step counts come from the analytic cost model, so the cumulative
    # ratio must match the model exactly
    from polarmuon.verify import StepFlopsConfig, measured_step_flops

    shape = (16, 16)
    step_full = measured_step_flops(
        StepFlopsConfig("muon", *shape, polar="polynomial", q=5)
    )
    step_rand = measured_step_flops(
        StepFlopsConfig("muon", *shape, polar="randomized", q=5, ell=8, h=1)
    )
    flops_consistent = (
        rep_full.cum_flops * step_rand == rep_rand.cum_flops * step_full
    )
    ok_c = within_2x and flops_consistent

    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 600.0
    assert report(
        11,
        ok,
        f"(a) quadratic min/initial grad ratio {ratio_a:.4f} <= 0.1 ({ok_a}); "
        f"(b) K-sweep means {means[0]:.4f} >= {means[1]:.4f} >= {means[2]:.4f} ({ok_b}); "
        f"(c) randomized {g_rand:.4f} vs full {g_full:.4f} within 2x ({within_2x}), "
        f"flop ratio consistent ({flops_consistent}); total {elapsed:.1f}s (<600s)",
    )


def test_criterion_12_determinism(tmp_path):
    cfg_a = _muon_config(
        optimizer=OptimizerSpec(kind="muon", schedule="corollary1", K=30),
        noise=NoiseModel(alpha=1.5, sigma0=0.5),
        seeds=(1, 2),
        output_dir=str(tmp_path / "a"),
        verify=True,
    )
    cfg_b = RunConfig(
        **{**cfg_a.__dict__, "output_dir": str(tmp_path / "b")}
    )
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("run_seed1.csv", "run_seed2.csv", "run.summary.csv")
    )
    rng = RngStream(0xACC, 14)
    round_trips = sum(
        1 for _ in range(100) if (c := random_config(rng)) == parse(serialize(c))
    )
    ok = identical and round_trips == 100
    assert report(
        12,
        ok,
        f"byte-identical rerun CSVs ({identical}); config round-trip "
        f"{round_trips}/100 exact",
    )
