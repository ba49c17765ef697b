import warnings

import numpy as np
import pytest

from polarmuon import matcore
from polarmuon.errors import DegenerateInputError, NumericalAbortError, PreconditionError
from polarmuon.matcore import RngStream, inner_product, operator_norm, orthonormal_basis
from polarmuon.polar import PolarConfig, exact_polar, inexact_polar, quintic_theoretical_schedule
from polarmuon.sketch import (
    SketchConfig,
    SpectrumSummary,
    choose_power_iterations,
    gaussian_sketch,
    kaczmarz_sketch,
    prop2_lower_bound,
    randomized_polar,
    theta_and_gamma,
)


def gapped_matrix(sigma, m, n, seed=0):
    rng = RngStream(seed, 77)
    u, _ = np.linalg.qr(rng.normal((m, len(sigma))))
    v, _ = np.linalg.qr(rng.normal((n, len(sigma))))
    return (u * np.asarray(sigma, dtype=float)) @ v.T


class TestGaussianSketch:
    def test_deterministic(self):
        a = gaussian_sketch(10, 3, RngStream(1, 2))
        b = gaussian_sketch(10, 3, RngStream(1, 2))
        assert np.array_equal(a, b)

    def test_moments(self):
        draws = gaussian_sketch(100, 100, RngStream(3)).ravel()
        assert abs(draws.mean()) <= 0.05
        assert 0.9 <= draws.var() <= 1.1

    def test_second_moment_identity(self):
        rng = RngStream(4)
        n, ell, trials = 6, 3, 2000
        acc = np.zeros((n, n))
        for _ in range(trials):
            om = gaussian_sketch(n, ell, rng)
            acc += om @ om.T
        err = np.abs(acc / trials / ell - np.eye(n)).max()
        assert err <= 0.1


class TestKaczmarzSketch:
    def test_column_structure(self):
        m = np.diag([1.0, 2.0])
        om = kaczmarz_sketch(m, 1, RngStream(5))
        # exactly one nonzero per column, scaled 1/sqrt(ell*pi)
        nz = np.nonzero(om[:, 0])[0]
        assert len(nz) == 1
        pi = np.array([0.2, 0.8])
        assert om[nz[0], 0] == pytest.approx(1.0 / np.sqrt(pi[nz[0]]))

    def test_single_column_support(self):
        m = np.zeros((3, 4))
        m[:, 2] = [1.0, 2.0, 3.0]
        om = kaczmarz_sketch(m, 5, RngStream(6))
        np.testing.assert_allclose(om[2, :], 1.0 / np.sqrt(5.0))
        assert not om[[0, 1, 3], :].any()

    def test_unbiased_gram(self):
        m = gapped_matrix([3.0, 1.0, 0.5], 5, 6, seed=7)
        rng = RngStream(7)
        target = m @ m.T
        acc = np.zeros_like(target)
        for _ in range(5000):
            om = kaczmarz_sketch(m, 3, rng)
            p = m @ om
            acc += p @ p.T
        err = np.linalg.norm(acc / 5000 - target) / np.linalg.norm(target)
        assert err <= 0.05

    def test_zero_matrix(self):
        with pytest.raises(DegenerateInputError):
            kaczmarz_sketch(np.zeros((2, 2)), 1, RngStream(8))


class TestStackedDraws:
    """A stacked draw is the S successive 2-D draws, bit for bit, and leaves
    the stream where they leave it."""

    @pytest.mark.parametrize("stack", [1, 7])
    def test_gaussian_stack_is_successive_draws(self, stack):
        a, b = RngStream(11, 3), RngStream(11, 3)
        stacked = gaussian_sketch(6, 3, a, stack)
        assert stacked.shape == (stack, 6, 3)
        assert np.array_equal(stacked, np.stack([gaussian_sketch(6, 3, b) for _ in range(stack)]))
        assert np.array_equal(a.normal((4, 4)), b.normal((4, 4)))

    @pytest.mark.parametrize("stack", [1, 7])
    def test_kaczmarz_stack_is_successive_draws(self, stack):
        m = gapped_matrix([3.0, 1.0, 0.5], 5, 6, seed=12)
        a, b = RngStream(12, 3), RngStream(12, 3)
        stacked = kaczmarz_sketch(m, 3, a, stack)
        assert stacked.shape == (stack, 6, 3)
        assert np.array_equal(stacked, np.stack([kaczmarz_sketch(m, 3, b) for _ in range(stack)]))
        assert np.array_equal(a.uniform(5), b.uniform(5))

    def test_kaczmarz_matches_scattered_columns(self):
        # the sketch of the per-column scatter omega[i_k, k] = 1/sqrt(ell pi_i)
        m = gapped_matrix([3.0, 1.0, 0.5], 5, 6, seed=13)
        pi = np.sum(m * m, axis=0) / np.sum(m * m)
        om = kaczmarz_sketch(m, 4, RngStream(13))
        idx = RngStream(13).generator.choice(6, size=4, replace=True, p=pi)
        ref = np.zeros((6, 4))
        ref[idx, np.arange(4)] = 1.0 / np.sqrt(4 * pi[idx])
        assert np.array_equal(om, ref)


class TestRandomizedPolar:
    def test_dominant_direction_captured(self):
        m = np.diag([5.0, 0.01, 0.01])
        scfg = SketchConfig(s=1, p=2, h=0)
        pcfg = PolarConfig(schedule=quintic_theoretical_schedule(6))
        rng = RngStream(9)
        for t in range(100):
            out = randomized_polar(m, scfg, pcfg, rng.substream(t))
            assert inner_product(m, out) >= 4.9

    def test_full_dimension_matches_full_space(self):
        m = gapped_matrix([4.0, 2.0, 1.0, 0.5], 4, 7, seed=10)
        scfg = SketchConfig(s=2, p=2, h=0)  # ell = 4 = full row dimension
        pcfg = PolarConfig(schedule=quintic_theoretical_schedule(5))
        out = randomized_polar(m, scfg, pcfg, RngStream(10))
        full = inexact_polar(m, pcfg)
        assert inner_product(m, out) == pytest.approx(inner_product(m, full), abs=1e-8)

    @pytest.mark.parametrize("h", [0, 1])
    def test_full_rank_sketch_matches_inexact_polar(self, h):
        # With ell = min(m, n) a Gaussian sketch spans the whole range of M,
        # so lifting the compressed iteration reproduces p_q(M / delta) up to
        # rounding.  Worst relative errors over these 60 shapes: 1.0e-12
        # (h = 0) and 3.2e-12 (h = 1); an ill-conditioned Omega or the cubed
        # conditioning of (M M^T) M Omega costs the digits beyond eps.
        # Kaczmarz sketches are left out: they sample columns with
        # replacement, so their basis rank falls below ell.
        rng = RngStream(0xD1F)
        pcfg = PolarConfig()
        for i in range(60):
            m, n = (int(v) for v in rng.generator.integers(3, 41, size=2))
            a = rng.normal((m, n))
            scfg = SketchConfig(s=min(m, n) - 2, p=2, h=h)
            out = randomized_polar(a, scfg, pcfg, rng.substream(i, h))
            ref = inexact_polar(a, pcfg)
            assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref), (m, n)

    @pytest.mark.parametrize("h", [0, 1])
    def test_cholesky_basis_matches_svd_basis(self, monkeypatch, h):
        # Q p(Q^T M / delta) depends on range(Q) only, so the CholeskyQR2
        # basis reproduces the output of the SVD basis up to rounding.
        pcfg = PolarConfig(schedule=quintic_theoretical_schedule(5))
        scfg = SketchConfig(s=38, p=2, h=h)  # 300 * 40^2 takes CholeskyQR2
        svd_calls = []
        exact_svd = matcore._truncated_svd
        monkeypatch.setattr(
            matcore, "_truncated_svd", lambda a: (svd_calls.append(a), exact_svd(a))[1]
        )
        for t in range(5):
            a = RngStream(15, t).normal((300, 200))
            out = randomized_polar(a, scfg, pcfg, RngStream(16, t))
            with monkeypatch.context() as mp:  # the full-rank SVD basis, called directly
                mp.setattr(
                    matcore, "orthonormal_basis", lambda y: np.linalg.svd(y, full_matrices=False)[0]
                )
                ref = randomized_polar(a, scfg, pcfg, RngStream(16, t))
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
        assert svd_calls == []

    def test_operator_norm_bound_sweep(self):
        pcfg = PolarConfig(schedule=quintic_theoretical_schedule(5))
        rng = RngStream(11)
        for t in range(1000):
            shape = (
                int(rng.generator.integers(4, 10)),
                int(rng.generator.integers(4, 10)),
            )
            m = rng.normal(shape)
            s_max = min(shape) - 2
            scfg = SketchConfig(s=max(1, min(2, s_max)), p=2, h=0)
            if scfg.ell > min(shape):
                continue
            out = randomized_polar(m, scfg, pcfg, rng.substream(t))
            assert operator_norm(out) <= 1.0 + 1e-10

    def test_projector_energy_split(self):
        m = gapped_matrix([4.0, 2.0, 1.0, 0.5, 0.2], 8, 9, seed=12)
        rng = RngStream(12)
        for t in range(20):
            om = gaussian_sketch(9, 4, rng.substream(t))
            q = orthonormal_basis(m @ om)
            head = np.linalg.norm(q.T @ m) ** 2
            tail = np.linalg.norm(m - q @ (q.T @ m)) ** 2
            assert head + tail == pytest.approx(np.linalg.norm(m) ** 2, abs=1e-8)

    def test_power_iteration_improves_capture(self):
        m = gapped_matrix([4.0, 2.0, 1.0, 0.5, 0.2], 10, 10, seed=13)
        for t in range(50):
            energies = []
            for h in (0, 1, 2):
                om = gaussian_sketch(10, 4, RngStream(13, t))  # same sketch per h
                y = m @ om
                for _ in range(h):
                    y = m @ (m.T @ y)
                q = orthonormal_basis(y)
                energies.append(np.linalg.norm(q.T @ m) ** 2)
            assert energies[0] <= energies[1] + 1e-9
            assert energies[1] <= energies[2] + 1e-9

    def test_ell_too_large(self):
        m = np.diag([3.0, 1.0])
        with pytest.raises(PreconditionError):
            randomized_polar(
                m, SketchConfig(s=2, p=2), PolarConfig(), RngStream(14)
            )


ZERO_CASES = [
    ("exact", None, None),
    *[("polynomial", None, rule) for rule in ("frobenius-norm", "operator-norm")],
    *[("randomized", SketchConfig(s=2, p=2, h=h, kind=kind), rule)
      for kind in ("gaussian", "kaczmarz") for h in (0, 1)
      for rule in ("frobenius-norm", "operator-norm", 3.0)],
]


def _solve(solver, scfg, rule, m):
    if solver == "exact":
        return exact_polar(m)
    pcfg = PolarConfig(delta_rule=rule)
    if solver == "polynomial":
        return inexact_polar(m, pcfg)
    return randomized_polar(m, scfg, pcfg, RngStream(5))


class TestDeltaAndZeroInputs:
    """Each failure comes from the operation that the input breaks: the
    scale delta, the basis's rank cut or the Kaczmarz column energies."""

    @pytest.mark.parametrize("solver, scfg, rule", ZERO_CASES)
    def test_zero_input_is_degenerate(self, solver, scfg, rule):
        with pytest.raises(DegenerateInputError):
            _solve(solver, scfg, rule, np.zeros((6, 5)))

    def test_zero_input_under_explicit_delta_maps_to_zero(self):
        out = inexact_polar(np.zeros((6, 5)), PolarConfig(delta_rule=3.0))
        assert out.shape == (6, 5) and not out.any()

    @pytest.mark.parametrize(
        "entry, error", [(1e-300, DegenerateInputError), (1e160, NumericalAbortError)]
    )
    @pytest.mark.parametrize("solver", ["polynomial", "randomized"])
    def test_frobenius_delta_out_of_range_raises(self, solver, entry, error):
        # the squares under- or overflow, so the Frobenius delta reads 0 or inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match="scale delta"):
                _solve(solver, SketchConfig(s=2, p=2), "frobenius-norm", np.full((8, 8), entry))

    @pytest.mark.parametrize(
        "solver, scfg, entry, delta, match",
        [
            ("polynomial", None, 1e160, 2.0, "polynomial output"),
            ("polynomial", None, 1.0, 1e-300, "polynomial output"),
            ("randomized", SketchConfig(s=2, p=2), 1e160, 2.0, "polynomial output"),
            ("randomized", SketchConfig(s=2, p=2), 1.0, 1e-300, "polynomial output"),
            ("randomized", SketchConfig(s=2, p=2, kind="kaczmarz"), 1e160, 2.0, "column energies"),
        ],
    )
    def test_explicit_delta_overflow_raises(self, solver, scfg, entry, delta, match):
        # no norm of the input bounds an explicit delta, so the polynomial
        # (or the Kaczmarz column energies) may overflow: it raises, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbortError, match=match):
                _solve(solver, scfg, delta, np.full((8, 8), entry))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["gaussian", "kaczmarz"])
    def test_power_iteration_overflow_raises(self, kind):
        # the Frobenius delta (8e103) is finite, but (M M^T) M Omega is not:
        # the error names the power iteration, not the basis's svd
        with pytest.raises(NumericalAbortError, match="power iteration overflows"):
            _solve("randomized", SketchConfig(s=2, p=2, h=1, kind=kind), "frobenius-norm",
                   np.full((8, 8), 1e103))


class TestBoundCalculators:
    def test_prop2_hand_value(self):
        spec = SpectrumSummary.from_sigma([10.0, 10.0, 1.0, 1.0], 2)
        bound = prop2_lower_bound(spec, 2, 0, 10.0)
        assert bound == pytest.approx(19.6)

    def test_prop2_zero_tail_limit(self):
        spec = SpectrumSummary.from_sigma([5.0, 3.0, 1e-9], 2)
        bound = prop2_lower_bound(spec, 2, 0, 5.0)
        assert bound == pytest.approx(34.0 / 5.0, rel=1e-6)

    def test_prop2_degenerate(self):
        spec = SpectrumSummary.from_sigma([2.0, 1.0, 1.0, 1.0, 1.0], 1)
        assert prop2_lower_bound(spec, 2, 0, 2.0) == 0.0

    def test_choose_h_zero(self):
        spec = SpectrumSummary.from_sigma([10.0, 10.0, 1.0, 1.0], 2)
        assert choose_power_iterations(spec, 2) == 0

    def test_choose_h_one(self):
        spec = SpectrumSummary.from_sigma([2.0, 1.0, 1.0, 1.0, 1.0], 1)
        assert choose_power_iterations(spec, 2) == 1

    def test_choose_h_infeasible(self):
        spec = SpectrumSummary.from_sigma([1.0, 1.0, 1.0, 1.0], 1)
        assert choose_power_iterations(spec, 2) is None

    def test_chosen_h_makes_bound_positive(self):
        spec = SpectrumSummary.from_sigma([2.0, 1.0, 1.0, 1.0, 1.0], 1)
        h = choose_power_iterations(spec, 2)
        assert prop2_lower_bound(spec, 2, h, 2.0) > 0.0

    def test_theta_gamma_hand_value(self):
        spec = SpectrumSummary.from_sigma([10.0, 10.0, 1.0, 1.0], 2)
        tg = theta_and_gamma(spec, 2, 0, 10.0)
        assert tg.theta == pytest.approx(196.0 / 220.0)
        assert tg.gamma == pytest.approx(1.0 - 196.0 / 220.0)
        assert not tg.degenerate

    def test_theta_near_one_for_rank_one(self):
        spec = SpectrumSummary.from_sigma([3.0, 1e-8], 1)
        tg = theta_and_gamma(spec, 2, 0, 3.0)
        assert tg.theta == pytest.approx(1.0, abs=1e-6)

    def test_theta_at_most_one(self):
        rng = RngStream(15)
        for _ in range(500):
            sigma = np.sort(rng.uniform((6,)) * 10 + 0.1)[::-1]
            spec = SpectrumSummary.from_sigma(sigma, 3)
            tg = theta_and_gamma(spec, 2, 1, float(sigma[0]))
            assert tg.theta <= 1.0 + 1e-12

    def test_degenerate_flag(self):
        spec = SpectrumSummary.from_sigma([2.0, 1.0, 1.0, 1.0, 1.0], 1)
        assert theta_and_gamma(spec, 2, 0, 2.0).degenerate

    def test_p_precondition(self):
        spec = SpectrumSummary.from_sigma([2.0, 1.0], 1)
        with pytest.raises(PreconditionError):
            prop2_lower_bound(spec, 1, 0, 2.0)


class TestSpectrumSummary:
    def test_energies(self):
        spec = SpectrumSummary.from_sigma([3.0, 2.0, 1.0], 1)
        assert spec.head_energy == pytest.approx(9.0)
        assert spec.tail_energy == pytest.approx(5.0)
        assert spec.gap_ratio == pytest.approx(2.0 / 3.0)

    def test_rejects_increasing(self):
        with pytest.raises(PreconditionError):
            SpectrumSummary.from_sigma([1.0, 2.0], 1)
