import math
from dataclasses import replace
import tracemalloc
import warnings

import numpy as np
import pytest

from polarmuon import matcore, noise
from polarmuon.errors import NumericalAbortError, PreconditionError
from polarmuon.matcore import RngStream
from polarmuon.noise import (
    NoiseModel,
    calibrate,
    calibrate_models,
    empirical_alpha_moment,
    empirical_batch_moments,
    factorization_problem,
    gradient_oracle,
    quadratic_problem,
    sample_noise,
    unit_alpha_moment,
)


class TestProblems:
    def test_quadratic_value_gradient(self):
        a = np.diag([1.0, 2.0])
        p = quadratic_problem(a)
        x = np.zeros((2, 2))
        assert p.value(x) == pytest.approx(2.5)
        np.testing.assert_allclose(p.gradient(x), -a)
        assert p.value(a) == 0.0
        np.testing.assert_allclose(p.gradient(a), 0.0)

    def test_quadratic_gradient_finite_difference(self):
        rng = RngStream(41)
        p = quadratic_problem(rng.normal((3, 4)))
        x = rng.normal((3, 4))
        g = p.gradient(x)
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (2, 3)]:
            e = np.zeros((3, 4))
            e[idx] = eps
            fd = (p.value(x + e) - p.value(x - e)) / (2 * eps)
            assert g[idx] == pytest.approx(fd, abs=1e-6)

    def test_factorization_value_gradient(self):
        rng = RngStream(42)
        a0 = rng.normal((4, 2))
        p = factorization_problem(a0)
        assert p.value(a0) == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(p.gradient(a0), 0.0, atol=1e-12)
        x = rng.normal((4, 2))
        g = p.gradient(x)
        eps = 1e-6
        for idx in [(0, 0), (3, 1)]:
            e = np.zeros((4, 2))
            e[idx] = eps
            fd = (p.value(x + e) - p.value(x - e)) / (2 * eps)
            assert g[idx] == pytest.approx(fd, abs=1e-4)

    @pytest.mark.parametrize("kind", ["quadratic", "factorization"])
    def test_value_and_gradient_from_one_residual(self, kind):
        # grad f bitwise equal to the formula; f within 4 ulp of the summed
        # squares that value() took before it became a dot product
        worst_ulp = 0.0
        for t in range(50):
            rng = RngStream(43, t)
            if kind == "quadratic":
                p, x = quadratic_problem(rng.normal((12, 7))), rng.normal((12, 7))
                r, w, grad = x - p.a, 0.5, x - p.a
            else:
                p, x = factorization_problem(rng.normal((10, 4))), rng.normal((10, 4))
                r, w, grad = x @ x.T - p.a, 0.25, (x @ x.T - p.a) @ x
            f, g = p.value_and_gradient(x)
            assert np.array_equal(g, grad) and np.array_equal(p.gradient(x), grad)
            assert p.value(x) == f
            summed = w * float(np.sum(r * r))
            worst_ulp = max(worst_ulp, abs(f - summed) / np.spacing(summed))
        assert worst_ulp <= 4.0

    def test_projection(self):
        p = factorization_problem(np.eye(3))
        r = p.radius
        inside = np.eye(3)
        assert np.array_equal(p.project(inside), inside)
        far = np.eye(3) * (10 * r)
        out = p.project(far)
        assert not np.array_equal(out, far)
        assert np.linalg.norm(out) == pytest.approx(r)

    def test_projection_of_overflowing_norm_aborts(self):
        # every entry is finite, but the sum of squares overflows; scaling by
        # r / inf would return all zeros
        p = factorization_problem(np.eye(3))
        far = np.full((3, 3), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbortError):
                p.project(far)
            with pytest.raises(NumericalAbortError):
                p.project(np.full((3, 3), np.nan))

    def test_radius_taken_once(self, monkeypatch):
        # the factorization's ball radius is computed on first use and kept;
        # each projection takes only the iterate's norm
        p = factorization_problem(RngStream(64).normal((6, 3)))
        norms = []
        norm = matcore._frobenius
        monkeypatch.setattr(matcore, "_frobenius", lambda a: norms.append(a.shape) or norm(a))
        inside = np.eye(6, 3)
        for _ in range(3):
            assert p.project(inside) is inside
        assert norms == [(6, 6), (6, 3), (6, 3), (6, 3)]
        assert p.radius == 10.0 * float(np.linalg.norm(p.a)) ** 0.5
        assert len(norms) == 4

    def test_quadratic_never_projects(self):
        p = quadratic_problem(np.eye(2))
        far = 1e9 * np.ones((2, 2))
        assert np.array_equal(p.project(far), far)


class TestNoiseModel:
    def test_default_tail_exponent(self):
        m = NoiseModel(alpha=1.5, sigma0=1.0)
        assert m.tail_exponent == pytest.approx(1.75)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            NoiseModel(alpha=1.0, sigma0=1.0)
        with pytest.raises(PreconditionError):
            NoiseModel(alpha=1.5, sigma0=-1.0)
        with pytest.raises(PreconditionError):
            NoiseModel(alpha=1.5, sigma0=1.0, tail_exponent=1.4)

    @pytest.mark.parametrize("field", ["sigma0", "sigma1", "tail_exponent", "scale0", "scale1"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameter_rejected_when_built(self, field, value):
        # not at the first draw, where a NaN sigma0 calibrated to scale 0 and
        # an inf one drew +-inf
        with pytest.raises(PreconditionError, match="finite"):
            NoiseModel(**{"alpha": 1.5, "sigma0": 1.0, "sigma1": 0.5, field: value})

    def test_calibrated_flag(self):
        m = NoiseModel(alpha=1.5, sigma0=1.0)
        assert not m.calibrated
        m = calibrate(m, (4, 4), RngStream(43))
        assert m.calibrated
        assert m.calib_shape == (4, 4)
        assert NoiseModel(alpha=1.5, sigma0=0.0).calibrated  # noiseless

    def test_sampling_requires_calibration(self):
        m = NoiseModel(alpha=1.5, sigma0=1.0)
        with pytest.raises(PreconditionError):
            sample_noise(m, (2, 2), 0.0, RngStream(44))


def _direct_moment(alpha, a, size):
    """E ||Xi||_F^alpha = s / Gamma(1 - s) int_0^inf (1 - L(t)^N) t^(-s-1) dt,
    s = alpha / 2, for N = ``size`` unit Pareto entries of tail exponent a,
    evaluated apart from the package: 1 - L(t) from its power series in t
    for t <= 1 and L(t) = k t^k Gamma(-k, t) from the continued fraction of
    the incomplete gamma function above (k = a / 2, not 1); 20-node
    Gauss-Legendre panels of width 1 in log t from 1e-20 to 60; the lower
    end from the series' leading terms, the upper from 1 - L^N = 1."""
    s, k, n = alpha / 2.0, a / 2.0, size
    gk, b = math.gamma(1.0 - k), k / (1.0 - k)

    def integrand(t):
        if t <= 1.0:
            u, term = gk * t**k, 1.0
            for j in range(1, 40):
                term *= t / j
                u -= k * (-1) ** (j + 1) * term / (j - k)
            return -math.expm1(n * math.log1p(-u))
        c, d = 1e300, 1.0 / (t + 1.0 + k)  # modified Lentz
        h, bb = d, t + 1.0 + k
        for i in range(1, 300):
            an = -i * (i + k)
            bb += 2.0
            d = 1.0 / (an * d + bb)
            c = bb + an / c
            h *= d * c
            if abs(d * c - 1.0) < 1e-16:
                break
        return 1.0 - (k * math.exp(-t) * h) ** n

    t0, t_hi = 1e-20, 60.0
    x, w = np.polynomial.legendre.leggauss(20)
    lo = math.log(t0)
    panels = np.linspace(lo, math.log(t_hi), 1 + math.ceil(math.log(t_hi) - lo))
    total = t_hi**-s / s
    total += n * (gk * t0 ** (k - s) / (k - s) - b * t0 ** (1 - s) / (1 - s))
    total -= n * (n - 1) / 2 * gk**2 * t0 ** (2 * k - s) / (2 * k - s)
    for z0, z1 in zip(panels[:-1], panels[1:]):
        for xi, wi in zip(x, w):
            z = z0 + (z1 - z0) * (xi + 1.0) / 2.0
            total += (z1 - z0) / 2.0 * wi * integrand(math.exp(z)) * math.exp(-s * z)
    return s / math.gamma(1.0 - s) * total


class TestUnitMoment:
    """The exact unit-scale moment the fit divides by."""

    @pytest.mark.parametrize(
        "alpha, a", [(1.25, 1.5), (1.5, 1.75), (1.75, 2.0), (1.75, 1.9), (1.5, 2.6), (0.375, 1.5)]
    )
    def test_single_entry_closed_form(self, alpha, a):
        # E |xi|^alpha = a / (a - alpha); a = 2 is k = 1, the default at 1.75
        assert unit_alpha_moment(alpha, a, 1)[0] == pytest.approx(a / (a - alpha), rel=1e-12)

    @pytest.mark.parametrize("a, size", [(2.25, 36), (2.6, 128)])
    def test_alpha_two_closed_form(self, a, size):
        assert unit_alpha_moment(2.0, a, size)[0] == pytest.approx(size * a / (a - 2.0), rel=1e-15)

    @pytest.mark.parametrize("a", [1.75, 2.6, 15.1])
    def test_independent_evaluation(self, a):
        # 1.75 is the default tail at alpha = 1.5; 15.1 nears the largest
        # tail exponent the fit takes, where u's kernel is narrowest
        assert _direct_moment(1.5, a, 1) == pytest.approx(a / (a - 1.5), rel=1e-11)
        moment, rel_err = unit_alpha_moment(1.5, a, 36)
        assert moment == pytest.approx(_direct_moment(1.5, a, 36), rel=1e-10)
        assert 0.0 < rel_err <= 1e-10

    @pytest.mark.parametrize(
        "alpha, size, reference",
        [(1.25, 36, 130.13), (1.5, 36, 179.44), (1.25, 128, 380.38), (1.5, 128, 553.39)],
    )
    def test_matches_arbitrary_precision_figures(self, alpha, size, reference):
        # computed with an arbitrary-precision library, good to about 1e-4
        moment = unit_alpha_moment(alpha, alpha + 0.25, size)[0]
        assert moment == pytest.approx(reference, rel=2e-4)

    def test_smooth_through_k_one(self):
        # a = 2 makes the squares' index k = 1, where the small-t series of
        # 1 - L takes a logarithmic form; the quadrature needs no case there
        below, at, above = (unit_alpha_moment(1.75, a, 36)[0] for a in (2 - 1e-5, 2.0, 2 + 1e-5))
        assert below > at > above
        assert at == pytest.approx((below + above) / 2, rel=1e-8)  # curvature: 1.6e-9

    def test_no_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for size in (1, 2, 36, 128, 1 << 20):
                for alpha, a in ((1.25, 1.5), (1.5, 1.75), (1.75, 2.0), (1.75, 1.9), (0.375, 1.5),
                                 (1.5, noise.MAX_FIT_TAIL_EXPONENT)):
                    moment, rel_err = unit_alpha_moment(alpha, a, size)
                    assert math.isfinite(moment) and 0.0 < rel_err < 1e-9

    def test_preconditions(self):
        too_light = noise.MAX_FIT_TAIL_EXPONENT * 1.01
        for args in ((1.5, 1.5, 4), (2.5, 3.0, 4), (0.0, 1.5, 4), (1.5, 1.75, 0), (1.5, too_light, 4)):
            with pytest.raises(PreconditionError):
                unit_alpha_moment(*args)

    def test_fit_draws_nothing(self, monkeypatch):
        def no_draw(self, shape):
            raise AssertionError("the fit drew from its stream")

        monkeypatch.setattr(RngStream, "uniform", no_draw)
        model = calibrate(NoiseModel(alpha=1.5, sigma0=1.0), (4, 4), RngStream(43))
        assert model.calib_rel_tol == unit_alpha_moment(1.5, 1.75, 16)[1]


class TestCalibration:
    def test_moment_within_band(self):
        # the calibrated constant component lands at 0.9 of the budget at
        # the calibration shape; the sampler matches the quadrature at the
        # order a / 4, whose variance is finite (at alpha it is infinite,
        # and an SE bounds nothing)
        for alpha in (1.25, 1.5, 2.0):
            m = calibrate(
                NoiseModel(alpha=alpha, sigma0=2.0), (5, 3), RngStream(45)
            )
            budget = 2.0**alpha
            exact = m.scale0**alpha * unit_alpha_moment(alpha, m.tail_exponent, 15)[0]
            assert exact == pytest.approx(0.9 * budget, rel=1e-12)
            order = m.tail_exponent / 4
            est, se = empirical_alpha_moment(
                (m,), (5, 3), 20000, RngStream(46), orders=(order,)
            )[0]
            at_order = m.scale0**order * unit_alpha_moment(order, m.tail_exponent, 15)[0]
            assert abs(est - at_order) <= 3 * se
            assert se <= 0.01 * at_order

    def test_fit_within_budget_at_run_shape(self):
        # the runner's calibration of criterion 11(b)'s noise at 16 x 8: the
        # Monte Carlo fit put the exact moment at 1.129 of the budget
        m = calibrate(NoiseModel(alpha=1.5, sigma0=0.5), (16, 8), RngStream(0xCA11B))
        exact = m.scale0**1.5 * _direct_moment(1.5, 1.75, 128)
        assert exact <= 0.5**1.5
        assert exact == pytest.approx(0.9 * 0.5**1.5, rel=1e-10)

    def test_paired_components_within_budget(self):
        # each component's exact moment sits at 0.45 of its budget term, so
        # the von Bahr-Esseen bound E||X + Y||^alpha <= 2 (E||X||^alpha +
        # E||Y||^alpha) keeps the total inside the budget; each component's
        # sampler is checked at the order a / 4, whose variance is finite
        shape, gnorm = (4, 4), 3.0
        m = calibrate(NoiseModel(alpha=1.5, sigma0=1.0, sigma1=0.5), shape, RngStream(47))
        unit, rel_err = unit_alpha_moment(1.5, m.tail_exponent, 16)
        assert rel_err == m.calib_rel_tol
        terms = (1.0**1.5, 0.5**1.5 * gnorm**1.5)
        coefs = (m.scale0, m.scale1 * gnorm)
        components = [c**1.5 * unit for c in coefs]
        for component, term in zip(components, terms):
            assert component == pytest.approx(0.45 * term, rel=1e-12)
        assert 2.0 * sum(components) * (1.0 + rel_err) <= sum(terms)
        order = m.tail_exponent / 4
        unit_at_order = unit_alpha_moment(order, m.tail_exponent, 16)[0]
        alone = (replace(m, sigma1=0.0), replace(m, sigma0=0.0))
        for model, coef in zip(alone, coefs):
            est, se = empirical_alpha_moment(
                (model,), shape, 20000, RngStream(48), grad_norm=gnorm, orders=(order,)
            )[0]
            assert abs(est - coef**order * unit_at_order) <= 3 * se

    def test_scale_homogeneity(self):
        a = calibrate(NoiseModel(alpha=1.5, sigma0=1.0), (4, 4), RngStream(49))
        b = calibrate(NoiseModel(alpha=1.5, sigma0=3.0), (4, 4), RngStream(49))
        assert b.scale0 == pytest.approx(3.0 * a.scale0, rel=1e-12)


class TestSampling:
    def test_zero_mean(self):
        m = calibrate(NoiseModel(alpha=2.0, sigma0=1.0), (3, 3), RngStream(50))
        rng = RngStream(51)
        acc = np.zeros((3, 3))
        n = 40000
        for _ in range(n):
            acc += sample_noise(m, (3, 3), 0.0, rng)
        assert np.abs(acc / n).max() <= 0.02

    def test_noiseless_model(self):
        m = NoiseModel(alpha=1.5, sigma0=0.0)
        np.testing.assert_allclose(sample_noise(m, (2, 2), 1.0, RngStream(52)), 0.0)

    def test_gradient_proportional_scaling(self):
        m = calibrate(
            NoiseModel(alpha=2.0, sigma0=0.0, sigma1=1.0), (3, 3), RngStream(53)
        )
        a = sample_noise(m, (3, 3), 1.0, RngStream(54))
        b = sample_noise(m, (3, 3), 5.0, RngStream(54))
        np.testing.assert_allclose(b, 5.0 * a, rtol=1e-12)

    def test_heavy_tail_present(self):
        # with tail exponent 1.75 the empirical max over many draws must
        # far exceed a Gaussian-scale prediction
        m = calibrate(NoiseModel(alpha=1.5, sigma0=1.0), (2, 2), RngStream(55))
        rng = RngStream(56)
        mx = max(
            np.abs(sample_noise(m, (2, 2), 0.0, rng)).max() for _ in range(20000)
        )
        assert mx >= 20.0 * m.scale0


class TestGradientOracle:
    def test_noiseless_exact(self):
        p = quadratic_problem(np.eye(2))
        m = NoiseModel(alpha=1.5, sigma0=0.0)
        g = p.gradient(np.zeros((2, 2)))
        assert gradient_oracle(g, float(np.linalg.norm(g)), 1, m, RngStream(57)) is g

    def test_unbiased(self):
        p = quadratic_problem(np.diag([2.0, 1.0]))
        m = calibrate(NoiseModel(alpha=2.0, sigma0=0.5), (2, 2), RngStream(58))
        x = np.ones((2, 2))
        rng = RngStream(59)
        acc = np.zeros((2, 2))
        n = 40000
        g = p.gradient(x)
        for _ in range(n):
            acc += gradient_oracle(g, float(np.linalg.norm(g)), 1, m, rng)
        np.testing.assert_allclose(acc / n, p.gradient(x), atol=0.03)

    def test_coupled_batch_moments_monotone(self):
        # common-random-numbers coupling keeps the Lemma-style decreasing
        # trend visible even at the heaviest admissible tail
        for alpha in (1.25, 1.5, 2.0):
            m = calibrate(NoiseModel(alpha=alpha, sigma0=1.0), (4, 4), RngStream(65))
            est = empirical_batch_moments(
                (m,), (4, 4), 2000, RngStream(66), batches=(1, 4, 16, 64)
            )[0]
            vals = [est[b][0] for b in (1, 4, 16, 64)]
            assert vals[0] > vals[1] > vals[2] > vals[3]

    def test_coupled_matches_plain_estimator_at_b1(self):
        m = calibrate(NoiseModel(alpha=2.0, sigma0=1.0), (3, 3), RngStream(67))
        coupled = empirical_batch_moments((m,), (3, 3), 5000, RngStream(68), batches=(1,))[0]
        plain, se = empirical_alpha_moment((m,), (3, 3), 5000, RngStream(69))[0]
        assert coupled[1][0] == pytest.approx(plain, abs=6 * se)
        # on one stream, the plain estimate is the coupled one at b = 1, bit for bit
        paired = _model_triple("paired")[:2]
        for shape in ((1, 1), (1, 7), (3, 5), (6, 6), (16, 8)):
            for models in ((_calibrated("sigma0", shape),), (_calibrated("both", shape),), paired):
                for grad_norm in (0.0, 2.5):
                    plain = empirical_alpha_moment(
                        models, shape, 1000, RngStream(68), grad_norm=grad_norm
                    )
                    coupled = empirical_batch_moments(
                        models, shape, 1000, RngStream(68), batches=(1,), grad_norm=grad_norm
                    )
                    assert plain == [c[1] for c in coupled], (shape, len(models), grad_norm)

    def test_coupled_preconditions(self):
        m = calibrate(NoiseModel(alpha=1.5, sigma0=1.0), (2, 2), RngStream(70))
        with pytest.raises(PreconditionError):
            empirical_batch_moments((m,), (2, 2), 10, RngStream(70))
        # a size listed twice would count each of its samples twice and
        # understate its standard error by sqrt(2)
        for batches in ((0, 2), (1, 1), (4, 1, 4), ()):
            with pytest.raises(PreconditionError, match="batch sizes"):
                empirical_batch_moments((m,), (2, 2), 2000, RngStream(70), batches=batches)
        with pytest.raises(PreconditionError):
            empirical_batch_moments(
                (NoiseModel(alpha=1.5, sigma0=1.0),), (2, 2), 2000, RngStream(70)
            )

    @pytest.mark.parametrize("sigma1, reads", [(0.0, 0), (0.5, 1)])
    def test_gradient_norm_taken_only_for_sigma1(self, monkeypatch, sigma1, reads):
        # The caller's ||G||_F scales Xi1 only, so a sigma0-only oracle does
        # not read it; the oracle takes no norm of its own.
        model = calibrate(NoiseModel(alpha=1.5, sigma0=1.0, sigma1=sigma1), (3, 2), RngStream(71))
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(a) or norm(*a, **k))
        g = np.ones((3, 2))
        draws = [gradient_oracle(g, gn, 2, model, RngStream(72)) for gn in (1.0, 3.0)]
        assert not calls
        assert (not _bitwise_equal(*draws)) == bool(reads)

    def test_batch_precondition(self):
        p = quadratic_problem(np.eye(2))
        m = NoiseModel(alpha=1.5, sigma0=0.0)
        with pytest.raises(PreconditionError):
            gradient_oracle(p.gradient(np.zeros((2, 2))), 1.0, 0, m, RngStream(62))

    def test_moment_precondition(self):
        m = calibrate(NoiseModel(alpha=1.5, sigma0=1.0), (2, 2), RngStream(63))
        with pytest.raises(PreconditionError):
            empirical_alpha_moment((m,), (2, 2), 10, RngStream(64))


def _calibrated(components, shape=(3, 2)):
    s0 = 1.0 if components in ("sigma0", "both") else 0.0
    s1 = 0.5 if components in ("sigma1", "both") else 0.0
    return calibrate(NoiseModel(alpha=1.5, sigma0=s0, sigma1=s1), shape, RngStream(80))


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _zeros_start_draws(model, count, shape, grad_norm, rng):
    """``count`` noise draws from one chunk of uniforms, summed from zeros."""
    coefs = [model.scale0] if model.sigma0 > 0 else []
    if model.sigma1 > 0 and grad_norm > 0:
        coefs.append(model.scale1 * grad_norm)
    u = rng.uniform((count, len(coefs), 2) + tuple(shape))
    xi = np.copysign(u[:, :, 0] ** (-1.0 / model.tail_exponent), u[:, :, 1] - 0.5)
    out = np.zeros((count,) + tuple(shape))
    for c, coef in enumerate(coefs):
        out += coef * xi[:, c]
    return out


class TestDrawOrder:
    """The Monte Carlo functions read their stream in one fixed order, so a
    change of draw layout, summation order or chunking shows here."""

    @pytest.mark.parametrize("components", ["sigma0", "sigma1", "both"])
    @pytest.mark.parametrize("batch", [1, 5, 9])
    @pytest.mark.parametrize("shape", [(3, 2), (1, 1)])
    def test_oracle_is_mean_of_consecutive_samples(self, components, batch, shape):
        model = _calibrated(components, shape)
        grad = RngStream(81).normal(shape)
        gnorm = float(np.linalg.norm(grad))
        rng = RngStream(82)
        acc = np.zeros(shape)
        for _ in range(batch):
            acc += sample_noise(model, shape, gnorm, rng)
        got = gradient_oracle(grad, gnorm, batch, model, RngStream(82))
        assert _bitwise_equal(got, grad + acc / batch)

    @pytest.mark.parametrize(
        "components, grad_norm",
        [("sigma0", 2.0), ("sigma1", 2.0), ("both", 2.0), ("sigma1", 5e-324)],
    )
    def test_chunk_matches_zeros_start(self, components, grad_norm):
        # one positive coefficient scales the draws in place; a coefficient
        # that underflows to 0 (scale1 * 5e-324) still starts from zeros, so
        # its draws are +0.0 and never -0.0
        model = _calibrated(components)
        chunk = next(noise._noise_chunks((model,), 7, (3, 2), grad_norm, RngStream(91)))[0]
        ref = _zeros_start_draws(model, 7, (3, 2), grad_norm, RngStream(91))
        assert _bitwise_equal(chunk, ref)
        if grad_norm < 1e-300:
            assert model.scale1 * grad_norm == 0.0
            assert _bitwise_equal(chunk, np.zeros_like(chunk))

    @pytest.mark.parametrize("components", ["sigma0", "sigma1", "both"])
    def test_single_draw_oracle_matches_accumulate(self, components):
        # batch 1 adds its draw as it is: grad + (running sum of 1 draw) / 1
        model = _calibrated(components, (4, 3))
        grad = RngStream(92).normal((4, 3))
        gnorm = float(np.linalg.norm(grad))
        draws = _zeros_start_draws(model, 1, (4, 3), gnorm, RngStream(93))
        ref = grad + np.add.accumulate(draws)[-1] / 1
        assert _bitwise_equal(gradient_oracle(grad, gnorm, 1, model, RngStream(93)), ref)

    @pytest.mark.parametrize("components", ["sigma0", "both"])
    @pytest.mark.parametrize(
        "shape, batch",
        [((1, 1), 70_000), ((1, 3), 20_000), ((3, 5), 5_000), ((16, 8), 300), ((40, 40), 30)],
    )
    def test_long_batch_mean_sums_in_draw_order(self, components, shape, batch):
        # each batch needs more than one chunk of uniforms, so its running sum
        # is carried across chunks; a 1 x 1 matrix makes the batch axis the
        # innermost, which numpy would sum pairwise
        model = _calibrated(components, shape)
        rng = RngStream(94, shape[0])
        means = noise.batch_means(model, shape, batch, 2, RngStream(94, shape[0]), 2.5)
        for mean in means:
            draws = _zeros_start_draws(model, batch, shape, 2.5, rng)
            assert _bitwise_equal(mean, np.add.accumulate(draws)[-1] / batch)

    def test_alpha_moment_is_loop_over_samples(self):
        model = _calibrated("both")
        rng = RngStream(90)
        vals = []
        for _ in range(1000):
            xi = sample_noise(model, (3, 2), 2.0, rng)
            vals.append(float(np.sum(xi * xi)) ** 0.75)
        ref = (float(np.mean(vals)), float(np.std(vals) / np.sqrt(1000)))
        assert empirical_alpha_moment((model,), (3, 2), 1000, RngStream(90), 2.0)[0] == ref

    def test_chunked_draws_match_single_draws(self, monkeypatch):
        # 2 * 2 components * 6 entries = 24 uniforms a draw: 10 draws a chunk
        monkeypatch.setattr(noise, "_CHUNK_UNIFORMS", 240)
        model = _calibrated("both")
        chunks = [c[0] for c in noise._noise_chunks((model,), 35, (3, 2), 1.0, RngStream(83))]
        assert [len(c) for c in chunks] == [10, 10, 10, 5]
        rng = RngStream(83)
        singles = [next(noise._noise_chunks((model,), 1, (3, 2), 1.0, rng))[0] for _ in range(35)]
        assert _bitwise_equal(np.concatenate(chunks), np.concatenate(singles))

        grad = RngStream(84).normal((3, 2))
        gnorm = float(np.linalg.norm(grad))
        rng = RngStream(85)
        acc = np.zeros((3, 2))
        for _ in range(35):
            acc += sample_noise(model, (3, 2), gnorm, rng)
        assert _bitwise_equal(
            gradient_oracle(grad, gnorm, 35, model, RngStream(85)), grad + acc / 35
        )

    def test_chunk_size_does_not_change_estimates(self, monkeypatch):
        def estimates():
            return (
                empirical_alpha_moment((_calibrated("both"),), (3, 2), 1000, RngStream(87), 2.0),
                empirical_batch_moments(
                    (_calibrated("both"),), (3, 2), 1000, RngStream(88), (1, 2, 4), 2.0
                ),
            )

        whole = estimates()
        monkeypatch.setattr(noise, "_CHUNK_UNIFORMS", 100)  # a few samples a chunk
        assert repr(estimates()) == repr(whole)

    def test_calibration_pinned(self):
        # the quadrature's fit, bit for bit, and the estimator's output on it
        m = calibrate(
            NoiseModel(alpha=1.5, sigma0=1.0, sigma1=0.5), (5, 3), RngStream(2026, 4)
        )
        assert repr(m.scale0) == "0.03111291763095121"
        assert repr(m.scale1) == "0.015556458815475606"
        assert repr(m.calib_rel_tol) == "1.1091920354156066e-14"
        est = empirical_batch_moments(
            (m,), (2, 3), 1000, RngStream(2026, 5), batches=(1, 3, 8), grad_norm=2.0
        )[0]
        assert repr(est) == (
            "{1: (0.27671831449796647, 0.06266494228675226), "
            "3: (0.15619084306998934, 0.022003358783842207), "
            "8: (0.0715352830153661, 0.005581791539405329)}"
        )

    def test_draw_memory_bounded(self, monkeypatch):
        monkeypatch.setattr(noise, "_CHUNK_UNIFORMS", 1 << 12)
        model = _calibrated("sigma0", (4, 4))
        grad = np.ones((4, 4))

        def peak(batch):
            tracemalloc.start()
            try:
                gradient_oracle(grad, 4.0, batch, model, RngStream(89))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one chunk holds 128 draws; unchunked, 16 000 draws would take 4 MB
        small, large = peak(1_000), peak(16_000)
        assert large < 1.5 * small
        assert large < 1 << 18

    def test_batch_moments_memory_at_default_chunk(self):
        # the noise-moments scope's coupled estimator: 4000 samples of 64
        # draws of 6 x 6 are 18.4M uniforms, which 2^20-uniform chunks held
        # in about 28 MiB at peak; the scope shares each chunk among three
        # models, whose arrays it holds at once
        model = _calibrated("sigma0", (6, 6))
        others = tuple(
            calibrate(NoiseModel(alpha=a, sigma0=1.0), (6, 6), RngStream(80))
            for a in (1.25, 2.0)
        )
        for models in ((model,), (model,) + others):
            tracemalloc.start()
            try:
                empirical_batch_moments(models, (6, 6), 4000, RngStream(91), (1, 4, 16, 64))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20


class TestSeedOracle:
    """A seed's noise drawn ahead in blocks of steps is bit for bit that of
    one ``gradient_oracle`` call a step, and reads no further draws."""

    @pytest.mark.parametrize("chunk", [1 << 16, 1 << 11])  # 1 << 11: blocks cross
    @pytest.mark.parametrize("batch", [1, 3, 300])
    @pytest.mark.parametrize("shape", [(1, 1), (16, 8)])
    def test_matches_successive_oracle_calls(self, monkeypatch, shape, batch, chunk):
        monkeypatch.setattr(noise, "_CHUNK_UNIFORMS", chunk)
        model = _calibrated("sigma0", shape)
        steps = 11
        grads = RngStream(71).normal((steps,) + shape)
        ahead_rng, step_rng, sample_rng = RngStream(72), RngStream(72), RngStream(72)
        oracle = noise.seed_oracle(model, shape, batch, steps, ahead_rng)
        for grad in grads:
            gnorm = float(np.linalg.norm(grad))
            got = oracle(grad, gnorm)
            assert _bitwise_equal(got, gradient_oracle(grad, gnorm, batch, model, step_rng))
            acc = np.zeros(shape)
            for _ in range(batch):
                acc += sample_noise(model, shape, gnorm, sample_rng)
            assert _bitwise_equal(got, grad + acc / batch)
        # the draws stop at steps * batch matrices
        assert ahead_rng.uniform(4).tolist() == step_rng.uniform(4).tolist()
        with pytest.raises(StopIteration):
            oracle(grads[0], 1.0)

    @pytest.mark.parametrize(
        "shape, batch, steps, draws",
        [((16, 8), 1, 300, [256, 44]),  # 256 single-draw steps a chunk
         ((16, 8), 3, 100, [255, 45]),  # 85 whole steps of three a chunk
         ((16, 8), 300, 2, [256, 44, 256, 44]),  # a batch crosses chunks
         ((256, 256), 1, 3, [1, 1, 1])],  # one step a draw: memory stays bounded
    )
    def test_blocks_of_whole_steps(self, monkeypatch, shape, batch, steps, draws):
        model = _calibrated("sigma0", (4, 4))
        seen = []
        draw = noise._draw
        monkeypatch.setattr(noise, "_draw", lambda c, p, k, *a: seen.append(k) or draw(c, p, k, *a))
        oracle = noise.seed_oracle(model, shape, batch, steps, RngStream(73))
        for _ in range(steps):
            oracle(np.zeros(shape), 0.0)
        assert seen == draws

    def test_gradient_scaled_noise_draws_each_step(self, monkeypatch):
        # sigma1 > 0: each step's layout reads its grad norm, so each call
        # is one gradient_oracle call with the caller's norm
        model = _calibrated("both", (3, 2))
        norms = []
        exact = noise.gradient_oracle
        monkeypatch.setattr(noise, "gradient_oracle",
                            lambda g, gn, *a: norms.append(gn) or exact(g, gn, *a))
        oracle = noise.seed_oracle(model, (3, 2), 2, 3, RngStream(74))
        grad = RngStream(75).normal((3, 2))
        got = [oracle(grad, gn) for gn in (1.0, 0.0, 2.0)]
        assert norms == [1.0, 0.0, 2.0]
        rng = RngStream(74)
        for g, gn in zip(got, (1.0, 0.0, 2.0)):
            assert _bitwise_equal(g, exact(grad, gn, 2, model, rng))

    def test_noiseless_returns_gradient(self):
        grad = np.ones((2, 2))
        assert noise.seed_oracle(NoiseModel(), (2, 2), 4, 3, RngStream(76))(grad, 2.0) is grad
        with pytest.raises(PreconditionError, match="batch"):
            noise.seed_oracle(_calibrated("sigma0"), (3, 2), 0, 3, RngStream(76))
        for batch, steps in ((0, 1), (1, 0)):
            with pytest.raises(PreconditionError, match="steps"):
                noise.batch_means(_calibrated("sigma0"), (3, 2), batch, steps, RngStream(76))


def _model_triple(components):
    """Three calibrated models with the same active components but different
    alpha, tail exponent and scales."""
    if components == "single":  # one component each, of either kind
        specs = [dict(sigma0=1.0), dict(sigma1=0.5), dict(sigma0=2.0, tail_exponent=2.6)]
    else:
        specs = [dict(sigma0=1.0, sigma1=0.5), dict(sigma0=0.3, sigma1=2.0),
                 dict(sigma0=2.0, sigma1=0.1, tail_exponent=2.6)]
    return tuple(
        calibrate(NoiseModel(alpha=alpha, **spec), (3, 2), RngStream(80))
        for alpha, spec in zip((1.25, 1.5, 2.0), specs)
    )


class TestSharedDraw:
    """The estimators draw once for several models; each model's result is
    bit for bit that of a call with it alone on the same stream."""

    @pytest.mark.parametrize("components", ["single", "both"])
    @pytest.mark.parametrize("chunk_uniforms", [None, 1100])
    def test_models_match_single_model_calls(self, monkeypatch, components, chunk_uniforms):
        if chunk_uniforms is not None:
            # 1100 uniforms split both draws mid-way: the last chunk is partial
            monkeypatch.setattr(noise, "_CHUNK_UNIFORMS", chunk_uniforms)
        models = _model_triple(components)
        shared = (
            empirical_alpha_moment(models, (3, 2), 1000, RngStream(94), 2.0),
            empirical_batch_moments(models, (3, 2), 1000, RngStream(95), (1, 2, 4), 2.0),
        )
        alone = (
            [empirical_alpha_moment((m,), (3, 2), 1000, RngStream(94), 2.0)[0] for m in models],
            [empirical_batch_moments((m,), (3, 2), 1000, RngStream(95), (1, 2, 4), 2.0)[0]
             for m in models],
        )
        assert repr(shared) == repr(alone)
        assert len({repr(r) for r in shared[0]}) == 3  # the models do differ

    @pytest.mark.parametrize(
        "first, second, grad_norm",
        [("sigma0", "both", 2.0), ("sigma0", "sigma1", 0.0)],  # sigma1 draws nothing at 0
    )
    def test_mismatched_components_raise(self, first, second, grad_norm):
        models = (_calibrated(first), _calibrated(second))
        with pytest.raises(PreconditionError, match="same active components"):
            empirical_alpha_moment(models, (3, 2), 1000, RngStream(96), grad_norm)
        with pytest.raises(PreconditionError, match="same active components"):
            empirical_batch_moments(models, (3, 2), 1000, RngStream(96), (1, 2), grad_norm)

    @pytest.mark.parametrize("components", ["single", "both"])
    def test_calibrate_models_match_calibrate(self, components):
        # each fit of a tuple is that of its model alone
        models = _model_triple(components)
        shared = calibrate_models(models, (3, 2))
        alone = [calibrate(m, (3, 2), RngStream(80)) for m in models]
        assert repr(shared) == repr(alone)
        assert len({m.scale0 or m.scale1 for m in shared}) == 3

    def test_no_models_raise(self):
        with pytest.raises(PreconditionError):
            empirical_alpha_moment((), (3, 2), 1000, RngStream(96))


def _accumulated_batch_moments(model, shape, n, rng, batches):
    """:func:`empirical_batch_moments` of one model from every prefix sum of
    ``np.add.accumulate``, the form the estimator reads four of."""
    vals = {b: [] for b in batches}
    for (draws,) in noise._noise_chunks((model,), n, (max(batches),) + shape, 0.0, rng):
        csum = np.add.accumulate(draws, axis=1)
        for b in batches:
            vals[b].extend(noise._frobenius_powers(csum[:, b - 1] / b, model.alpha))
    return {b: matcore._mean_and_se(v) for b, v in vals.items()}


class TestPrefixSums:
    """The batch estimator forms only the prefix sums it reads, each added in
    draw order, bit for bit the ``np.add.accumulate`` prefixes."""

    @pytest.mark.parametrize(
        "shape",
        [(14, 64, 6, 6), (10, 64, 6, 6),  # the noise-moments scope's chunks
         (1, 64, 6, 6), (5, 64, 1, 1), (1, 64, 1, 1), (3, 64, 1, 2), (2, 64, 3, 1)],
    )
    def test_bitwise_accumulate_prefixes(self, shape):
        rng = RngStream(97, shape[0] * 100 + shape[2])
        draws = rng.uniform(shape) ** -0.8 * np.sign(rng.uniform(shape) - 0.5)
        batches = (1, 4, 16, 64)
        got = noise._prefix_sums(draws, batches)
        csum = np.add.accumulate(draws, axis=1)
        for sums, b in zip(got, batches):
            assert _bitwise_equal(sums, csum[:, b - 1])

    @pytest.mark.parametrize("shape", [(1, 1), (6, 6)])
    def test_public_call_matches_accumulated_prefixes(self, shape):
        # a 1 x 1 matrix makes the batch axis innermost, which numpy would sum
        # pairwise; the estimator still adds in draw order
        model = calibrate(NoiseModel(alpha=1.5, sigma0=1.0), shape, RngStream(98))
        batches = (1, 4, 16, 64)
        got = empirical_batch_moments((model,), shape, 1100, RngStream(99), batches)[0]
        assert repr(got) == repr(
            _accumulated_batch_moments(model, shape, 1100, RngStream(99), batches)
        )
