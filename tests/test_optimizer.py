import numpy as np
import pytest

from polarmuon.errors import DimensionError, PreconditionError
from polarmuon.matcore import RngStream
from polarmuon.optimizer import (
    AdamWState,
    MuonState,
    SgdState,
    adamw_step,
    baseline_step,
    corollary1_schedule,
    min_batch_size,
    muon_step,
    scaled_momentum,
    sgd_nesterov_step,
    theorem1_schedule,
)
from polarmuon.polar import exact_polar


class TestMuonStep:
    def test_momentum_recursion_nesterov(self):
        # hand-computed two steps with identity "polar" to isolate the
        # momentum recursion: C_k = b C_{k-1} + G_k, M_k = b C_k + G_k
        beta, eta = 0.5, 1.0
        seen = []
        record = lambda m: (seen.append(m.copy()), m)[1]
        st = MuonState.initial(np.zeros((1, 1)), beta=beta, eta=eta)
        g1 = np.array([[1.0]])
        st = muon_step(st, g1, record)
        np.testing.assert_allclose(seen[0], [[1.5]])  # C=1, M=1.5
        np.testing.assert_allclose(st.x, [[-1.5]])
        g2 = np.array([[2.0]])
        st = muon_step(st, g2, record)
        np.testing.assert_allclose(seen[1], [[3.25]])  # C=2.5, M=3.25
        np.testing.assert_allclose(st.x, [[-4.75]])
        assert st.k == 2

    def test_momentum_recursion_polyak(self):
        seen = []
        record = lambda m: (seen.append(m.copy()), m)[1]
        st = MuonState.initial(np.zeros((1, 1)), kind="polyak", beta=0.5, eta=1.0)
        st = muon_step(st, np.array([[1.0]]), record)
        st = muon_step(st, np.array([[2.0]]), record)
        np.testing.assert_allclose(seen[0], [[1.0]])
        np.testing.assert_allclose(seen[1], [[2.5]])

    def test_zero_momentum_zero_update(self):
        st = MuonState.initial(np.ones((2, 2)))
        boom = lambda m: (_ for _ in ()).throw(AssertionError("polar called"))
        out = muon_step(st, np.zeros((2, 2)), boom)
        np.testing.assert_allclose(out.x, st.x)
        assert out.k == 1

    def test_update_is_unit_spectral_step(self):
        rng = RngStream(31)
        st = MuonState.initial(rng.normal((4, 6)), beta=0.0, eta=0.1)
        g = rng.normal((4, 6))
        out = muon_step(st, g, exact_polar)
        step = (st.x - out.x) / st.eta
        s = np.linalg.svd(step, compute_uv=False)
        np.testing.assert_allclose(s, np.ones(4), atol=1e-10)

    def test_converges_on_quadratic(self):
        # f(X) = 1/2 ||X - A||^2: Muon with exact polar reaches A
        a = RngStream(32).normal((5, 5))
        st = MuonState.initial(np.zeros((5, 5)), beta=0.9, eta=0.05)
        for _ in range(400):
            st = muon_step(st, st.x - a, exact_polar)
        assert np.linalg.norm(st.x - a) <= 0.25

    @pytest.mark.parametrize("kind", ["nesterov", "polyak"])
    def test_step_bitwise_equal_to_formula_and_inputs_untouched(self, kind):
        rng = RngStream(33)
        calls = []  # (momentum seen, polar output, copy of that output)

        def polar(m):
            out = exact_polar(m)
            calls.append((m.copy(), out, out.copy()))
            return out

        st = MuonState.initial(rng.normal((6, 4)), kind=kind, beta=0.9, eta=0.03)
        for _ in range(5):
            g = rng.normal((6, 4))
            before = [a.copy() for a in (st.x, st.c, g)]
            out = muon_step(st, g, polar)
            for a, b in zip((st.x, st.c, g), before):
                assert np.array_equal(a, b)
            seen, direction, direction_copy = calls[-1]
            assert np.array_equal(direction, direction_copy)
            c = st.beta * st.c + g
            m = st.beta * c + g if kind == "nesterov" else c
            assert np.array_equal(out.c, c)
            assert np.array_equal(seen, m)
            assert np.array_equal(out.x, st.x - st.eta * direction)
            st = out

    def test_shape_mismatch(self):
        st = MuonState.initial(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            muon_step(st, np.zeros((3, 2)), exact_polar)

    def test_bad_kind(self):
        with pytest.raises(PreconditionError):
            MuonState.initial(np.zeros((2, 2)), kind="heavy-ball")


class TestScaledMomentum:
    def test_matches_direct_recursion(self):
        rng = RngStream(33)
        beta = 0.8
        st = MuonState.initial(np.zeros((3, 4)), beta=beta)
        c = np.zeros((3, 4))
        g_prev = np.zeros((3, 4))
        m_tilde = np.zeros((3, 4))
        for k in range(25):
            g = rng.normal((3, 4))
            c = beta * c + g
            m_direct = beta * c + g
            if k == 0:
                m_tilde = (1.0 - beta) * m_direct
            else:
                m_tilde = scaled_momentum(st, g, g_prev, m_tilde)
            np.testing.assert_allclose(m_tilde, (1.0 - beta) * m_direct, atol=1e-12)
            g_prev = g

    def test_polyak_rejected(self):
        st = MuonState.initial(np.zeros((2, 2)), kind="polyak")
        z = np.zeros((2, 2))
        with pytest.raises(PreconditionError):
            scaled_momentum(st, z, z, z)


class TestSchedules:
    def test_theorem1_alpha2(self):
        s = theorem1_schedule(K=256, alpha=2.0)
        assert s.eta == pytest.approx(256.0 ** (-0.75))
        assert s.beta == pytest.approx(1.0 - 256.0 ** (-0.5))

    def test_theorem1_general_alpha(self):
        s = theorem1_schedule(K=81, alpha=1.5)
        assert s.eta == pytest.approx(81.0 ** (-0.8))
        assert s.beta == pytest.approx(1.0 - 81.0 ** (-0.6))

    def test_corollary1_matches_theorem1_at_alpha2(self):
        for K in (16, 256, 4096):
            c = corollary1_schedule(K)
            t = theorem1_schedule(K, 2.0)
            assert c.eta == pytest.approx(t.eta)
            assert c.beta == pytest.approx(t.beta)

    def test_limits(self):
        s = corollary1_schedule(10**8)
        assert 0.0 < s.eta < 1e-5
        assert 0.999 < s.beta < 1.0

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            theorem1_schedule(1, 1.5)
        with pytest.raises(PreconditionError):
            theorem1_schedule(16, 1.0)
        with pytest.raises(PreconditionError):
            theorem1_schedule(16, 2.5)


class TestMinBatchSize:
    def test_noiseless(self):
        assert min_batch_size(1.5, 0.0, 100) == 1

    def test_hand_value(self):
        # alpha=2: threshold = (2 sqrt(pi) (1 + sqrt(d0)) sqrt(2) sigma1)^2
        import math

        base = 2.0 * math.sqrt(math.pi) * (1.0 + 2.0) * 2.0 ** 0.5 * 0.1
        expected = int(math.floor(base**2)) + 1
        assert min_batch_size(2.0, 0.1, 4) == expected

    def test_strictly_above_threshold(self):
        import math

        b = min_batch_size(1.5, 0.05, 16, gamma_bar=0.2, nu_bar=0.1)
        base = (
            2.0
            * math.sqrt(math.pi)
            * (1.0 + 4.0 * 1.1)
            * 2.0 ** (1.0 / 1.5)
            * 0.05
            / 0.8
        )
        assert b > base ** (1.5 / 0.5)
        assert b - 1 <= base ** (1.5 / 0.5)

    def test_monotonicity(self):
        # heavier tails (smaller alpha) and larger sigma1 need bigger batches
        assert min_batch_size(1.2, 0.1, 64) >= min_batch_size(1.8, 0.1, 64)
        assert min_batch_size(1.5, 0.2, 64) >= min_batch_size(1.5, 0.1, 64)
        assert min_batch_size(1.5, 0.1, 256) >= min_batch_size(1.5, 0.1, 64)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            min_batch_size(1.0, 0.1, 4)
        with pytest.raises(PreconditionError):
            min_batch_size(1.5, 0.1, 4, gamma_bar=1.0)


class TestBaselines:
    def test_sgd_plain_gradient_descent(self):
        st = SgdState.initial(np.zeros((2, 2)), lr=0.5, momentum=0.0)
        g = np.ones((2, 2))
        st = sgd_nesterov_step(st, g)
        np.testing.assert_allclose(st.x, -0.5 * np.ones((2, 2)))

    def test_sgd_nesterov_hand_value(self):
        st = SgdState.initial(np.zeros((1, 1)), lr=1.0, momentum=0.5)
        st = sgd_nesterov_step(st, np.array([[1.0]]))
        # buf = 1, d = g + mu*buf = 1.5
        np.testing.assert_allclose(st.x, [[-1.5]])
        st = sgd_nesterov_step(st, np.array([[1.0]]))
        # buf = 1.5, d = 1 + 0.75 = 1.75
        np.testing.assert_allclose(st.x, [[-3.25]])

    def test_adamw_first_step_sign(self):
        st = AdamWState.initial(np.zeros((2, 3)), lr=1e-3, weight_decay=0.0)
        g = RngStream(34).normal((2, 3))
        out = adamw_step(st, g)
        # after bias correction the first step is -lr * g/(|g| + eps)
        np.testing.assert_allclose(out.x, -1e-3 * np.sign(g), atol=1e-5)

    def test_adamw_weight_decay(self):
        st = AdamWState.initial(np.ones((2, 2)), lr=0.1, weight_decay=0.5)
        out = adamw_step(st, np.zeros((2, 2)))
        np.testing.assert_allclose(out.x, 0.95 * np.ones((2, 2)))

    def test_baseline_dispatch(self):
        st = SgdState.initial(np.zeros((2, 2)))
        assert isinstance(baseline_step("sgd_nesterov", st, np.ones((2, 2))), SgdState)
        with pytest.raises(PreconditionError):
            baseline_step("newton", st, np.ones((2, 2)))

    def test_baselines_converge_on_quadratic(self):
        a = RngStream(35).normal((4, 4))
        sgd = SgdState.initial(np.zeros((4, 4)), lr=0.05, momentum=0.9)
        for _ in range(300):
            sgd = sgd_nesterov_step(sgd, sgd.x - a)
        assert np.linalg.norm(sgd.x - a) <= 1e-6
        adam = AdamWState.initial(np.zeros((4, 4)), lr=0.1, weight_decay=0.0)
        for _ in range(800):
            adam = adamw_step(adam, adam.x - a)
        assert np.linalg.norm(adam.x - a) <= 1e-2
