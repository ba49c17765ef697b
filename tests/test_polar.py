from dataclasses import fields, replace

import numpy as np
import pytest

from polarmuon.errors import DegenerateInputError, PreconditionError
from polarmuon.matcore import RngStream, inner_product, nuclear_norm, operator_norm, svd
from polarmuon.polar import (
    QUINTIC_EMPIRICAL_COEFFS,
    PolarConfig,
    cubic_schedule,
    exact_polar,
    inexact_polar,
    polar_express_schedule,
    polynomial_iterate,
    prop1_gamma,
    quintic_empirical_schedule,
    quintic_theoretical_schedule,
    schedule_by_name,
)


class TestExactPolar:
    def test_positive_diagonal(self):
        np.testing.assert_allclose(exact_polar(np.diag([3.0, 0.5])), np.eye(2), atol=1e-12)

    def test_rank_one(self):
        m = np.zeros((2, 2))
        m[0, 0] = 3.0
        out = exact_polar(m)
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert inner_product(m, out) == pytest.approx(3.0)

    def test_alignment_and_norm(self):
        m = RngStream(21).normal((8, 6))
        out = exact_polar(m)
        assert inner_product(m, out) / nuclear_norm(m) == pytest.approx(1.0, abs=1e-8)
        assert operator_norm(out) == pytest.approx(1.0, abs=1e-8)

    def test_scale_invariance(self):
        m = RngStream(22).normal((5, 7))
        np.testing.assert_allclose(exact_polar(3.7 * m), exact_polar(m), atol=1e-10)

    def test_zero(self):
        with pytest.raises(DegenerateInputError):
            exact_polar(np.zeros((2, 2)))


class TestPolynomialStep:
    def test_cubic_on_diag(self):
        out = polynomial_iterate(np.diag([1.0, 0.5]), np.array([(1.5, -0.5, 0.0)]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.6875]), atol=1e-14)

    def test_fixed_point(self):
        q, _ = np.linalg.qr(RngStream(23).normal((4, 4)))
        out = polynomial_iterate(q, np.array([(0.25, 0.5, 0.25)]))  # a+b+c = 1
        np.testing.assert_allclose(out, q, atol=1e-12)

    def test_zero(self):
        out = polynomial_iterate(np.zeros((3, 2)), np.array([(1.5, -0.5, 0.0)]))
        np.testing.assert_allclose(out, 0.0)

    def test_gram_side_equivalence(self):
        # tall and wide inputs take different Gram sides but agree with the
        # singular-value map
        m = RngStream(24).normal((7, 3))
        coeffs = np.array([(1.5, -0.5, 0.0)])
        out_tall = polynomial_iterate(m / 10.0, coeffs)
        out_wide = polynomial_iterate(m.T / 10.0, coeffs)
        np.testing.assert_allclose(out_tall, out_wide.T, atol=1e-12)


def _direct_loop(z, coeffs):
    """The direct form, one step at a time on the smaller Gram side."""
    for a, b, c in coeffs.tolist():
        if z.shape[0] <= z.shape[1]:
            g = z @ z.T
            z = a * z + (b * g + c * (g @ g)) @ z
        else:
            g = z.T @ z
            z = a * z + z @ (b * g + c * (g @ g))
    return z


def _gram_recursion(z, coeffs):
    """The Gram form: R(G) B with B the wide orientation and G = BB^T."""
    wide = z if z.shape[0] <= z.shape[1] else z.T
    s = wide @ wide.T
    eye = np.eye(s.shape[0])
    r = None
    steps = coeffs.tolist()
    for t, (a, b, c) in enumerate(steps):
        p = a * eye + b * s + c * (s @ s)
        r = p if r is None else p @ r
        if t < len(steps) - 1:
            s = p @ (p @ s)
    out = r @ wide
    return out if z.shape[0] <= z.shape[1] else out.T


def _ill_conditioned(rng, ell, n):
    """ell x n with singular values spaced log-evenly from 1 down to 1e-14."""
    u, _ = np.linalg.qr(rng.normal((ell, ell)))
    v, _ = np.linalg.qr(rng.normal((n, ell)))
    return (u * np.logspace(0.0, -14.0, ell)) @ v.T


class TestGramForm:
    """One side at least twice the other: the schedule runs on the short-side
    Gram matrix.  Forming it squares the singular values, so the schedules
    that overshoot 1 (quintic-empirical, PolarExpress) lose digits on the
    smallest ones; the theoretical schedules keep near-ulp accuracy."""

    @pytest.mark.parametrize(
        "name, rel_tol, op_tol",
        [
            ("cubic", 1e-13, 1e-14),
            ("quintic-theoretical", 1e-13, 1e-14),
            ("quintic-empirical", 1e-8, None),
            ("polar-express-nanogpt", 1e-8, None),
        ],
    )
    def test_matches_exact_spectral_map(self, name, rel_tol, op_tol):
        sched = schedule_by_name(name, 5)
        coeffs = sched.coeff_array()
        rng = RngStream(28)
        for trial in range(12):
            ell = int(rng.generator.integers(4, 65))
            n = int(rng.generator.integers(2 * ell, 8 * ell + 1))
            b = _ill_conditioned(rng, ell, n)
            if trial % 2:
                b = b.T
            u, sigma, vt = np.linalg.svd(b, full_matrices=False)
            ref = (u * sched.scalar_map(sigma)) @ vt
            out = polynomial_iterate(b, coeffs)
            assert out.shape == b.shape
            assert np.linalg.norm(out - ref) <= rel_tol * np.linalg.norm(ref)
            if op_tol is not None:
                assert np.linalg.norm(out, 2) <= 1.0 + op_tol

    @pytest.mark.parametrize("ell", [3, 8, 16])
    def test_two_to_one_rule(self, ell):
        rng = RngStream(29)
        coeffs = quintic_theoretical_schedule(5).coeff_array()
        near = rng.normal((ell, 2 * ell - 1)) / (2 * ell)
        wide = rng.normal((ell, 2 * ell)) / (2 * ell)
        for z in (near, near.T):
            np.testing.assert_array_equal(polynomial_iterate(z, coeffs), _direct_loop(z, coeffs))
        for z in (wide, wide.T):
            np.testing.assert_array_equal(
                polynomial_iterate(z, coeffs), _gram_recursion(z, coeffs)
            )
            assert not np.array_equal(_gram_recursion(z, coeffs), _direct_loop(z, coeffs))

    @pytest.mark.parametrize("shape", [(4, 12), (12, 4), (5, 5)])
    def test_q_zero_returns_input(self, shape):
        z = RngStream(30).normal(shape)
        assert polynomial_iterate(z, np.empty((0, 3))) is z


class TestInexactPolar:
    def test_cubic_one_step(self):
        cfg = PolarConfig(schedule=cubic_schedule(1), delta_rule="operator-norm")
        out = inexact_polar(np.diag([2.0, 1.0]), cfg)
        np.testing.assert_allclose(out, np.diag([1.0, 0.6875]), atol=1e-12)

    def test_q_zero_normalizes_only(self):
        m = np.diag([2.0, 1.0])
        cfg = PolarConfig(schedule=cubic_schedule(0), delta_rule=2.0)
        np.testing.assert_allclose(inexact_polar(m, cfg), m / 2.0, atol=1e-14)

    def test_quintic_converges(self):
        # scalar recursion from 0.5 reaches 1 within 1e-4 by q=6
        cfg = PolarConfig(schedule=quintic_theoretical_schedule(6), delta_rule=2.0)
        out = inexact_polar(np.diag([2.0, 1.0]), cfg)
        assert operator_norm(out - np.eye(2)) <= 1e-4

    def test_theoretical_operator_bound(self):
        rng = RngStream(25)
        for sched in (cubic_schedule(5), quintic_theoretical_schedule(5)):
            for rule in ("operator-norm", "frobenius-norm"):
                m = rng.normal((6, 9))
                out = inexact_polar(m, PolarConfig(schedule=sched, delta_rule=rule))
                assert operator_norm(out) <= 1.0 + 1e-10

    def test_zero(self):
        with pytest.raises(DegenerateInputError):
            inexact_polar(np.zeros((2, 2)), PolarConfig())

    def test_matches_scalar_recursion(self):
        m = RngStream(26).normal((6, 4))
        sched = quintic_theoretical_schedule(4)
        cfg = PolarConfig(schedule=sched, delta_rule="frobenius-norm")
        out = inexact_polar(m, cfg)
        f = svd(m)
        expected = (f.u * sched.scalar_map(f.sigma / cfg.resolve_delta(m))) @ f.v.T
        np.testing.assert_allclose(out, expected, atol=1e-10)


class TestProp1Gamma:
    def test_exactly_one(self):
        assert prop1_gamma([1.0], 1.0, cubic_schedule(3)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        g = prop1_gamma([2.0, 1.0], 2.0, cubic_schedule(1))
        assert g == pytest.approx(1.0 - 2.6875 / 3.0, abs=1e-12)

    def test_monotone_in_q(self):
        gammas = [prop1_gamma([2.0, 1.0], 2.0, cubic_schedule(q)) for q in (1, 2, 3)]
        assert gammas[0] >= gammas[1] >= gammas[2]

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            prop1_gamma([2.0, 1.0], 1.0, cubic_schedule(1))

    def test_alignment_identity(self):
        # <m, T(m)> = (1 - gamma) ||m||_* for polynomial solvers
        rng = RngStream(27)
        for _ in range(20):
            m = rng.normal((5, 8))
            sched = quintic_theoretical_schedule(3)
            cfg = PolarConfig(schedule=sched, delta_rule="frobenius-norm")
            out = inexact_polar(m, cfg)
            gamma = prop1_gamma(svd(m).sigma, cfg.resolve_delta(m), sched)
            lhs = inner_product(m, out)
            rhs = (1.0 - gamma) * nuclear_norm(m)
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestSchedules:
    @pytest.mark.parametrize("name", ["cubic", "quintic-empirical", "polar-express-nanogpt"])
    def test_coeff_array_built_once_and_read_only(self, name):
        sched = schedule_by_name(name, 4)
        coeffs = sched.coeff_array()
        assert coeffs is sched.coeff_array()
        fresh = np.array(sched.steps, dtype=np.float64).reshape(-1, 3)
        assert coeffs.dtype == fresh.dtype and coeffs.tobytes() == fresh.tobytes()
        assert coeffs.shape == fresh.shape and not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0, 0] = 1.0
        # the array is no field: equality, hashing and replace see the steps
        copy = replace(sched)
        assert copy == sched and hash(copy) == hash(sched)
        assert copy.coeff_array() is not coeffs
        assert "_coeffs" not in {f.name for f in fields(sched)}

    def test_empty_schedule_coeff_array(self):
        assert cubic_schedule(0).coeff_array().shape == (0, 3)

    def test_polar_express_nanogpt_first(self):
        sched = polar_express_schedule("nanogpt")
        assert sched.steps[0] == (8.1566, -22.4833, 15.8788)
        assert sched.q == 9

    def test_polar_express_cifar10_endpoints(self):
        sched = polar_express_schedule("cifar10")
        assert sched.steps[0] == (8.2872, -23.5959, 17.3004)
        assert sched.steps[8] == (1.8750, -1.2500, 0.3750)

    def test_quintic_empirical(self):
        sched = quintic_empirical_schedule(7)
        assert sched.q == 7
        assert all(s == QUINTIC_EMPIRICAL_COEFFS for s in sched.steps)
        # a + b + c = 0.7010, so an isometry shrinks by that factor per step;
        # the above-1 overshoot of this schedule happens inside (0, 1)
        out = polynomial_iterate(np.eye(3), np.array([QUINTIC_EMPIRICAL_COEFFS]))
        np.testing.assert_allclose(out, 0.7010 * np.eye(3), atol=1e-12)
        grid = np.linspace(0.0, 1.0, 10_001)
        a, b, c = QUINTIC_EMPIRICAL_COEFFS
        assert np.max(a * grid + b * grid**3 + c * grid**5) > 1.0

    def test_builtin_constants(self):
        assert cubic_schedule(2).steps == ((1.5, -0.5, 0.0),) * 2
        assert quintic_theoretical_schedule(1).steps == ((1.875, -1.25, 0.375),)

    def test_schedule_by_name(self):
        assert schedule_by_name("cubic", 4).q == 4
        assert schedule_by_name("polar-express-nanogpt", 0).q == 9
        with pytest.raises(PreconditionError):
            schedule_by_name("nope", 1)
