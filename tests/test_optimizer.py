import math

import numpy as np
import pytest

from polarmuon.errors import DimensionError, PreconditionError
from polarmuon.matcore import RngStream
from polarmuon.optimizer import (
    MuonState,
    corollary1_schedule,
    min_batch_size,
    muon_step,
    scaled_momentum,
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
        assert muon_step(st, g1, record) is None  # the state is updated in place
        np.testing.assert_allclose(seen[0], [[1.5]])  # C=1, M=1.5
        np.testing.assert_allclose(st.x, [[-1.5]])
        g2 = np.array([[2.0]])
        muon_step(st, g2, record)
        np.testing.assert_allclose(seen[1], [[3.25]])  # C=2.5, M=3.25
        np.testing.assert_allclose(st.x, [[-4.75]])

    def test_momentum_recursion_polyak(self):
        seen = []
        record = lambda m: (seen.append(m.copy()), m)[1]
        st = MuonState.initial(np.zeros((1, 1)), kind="polyak", beta=0.5, eta=1.0)
        muon_step(st, np.array([[1.0]]), record)
        muon_step(st, np.array([[2.0]]), record)
        np.testing.assert_allclose(seen[0], [[1.0]])
        np.testing.assert_allclose(seen[1], [[2.5]])

    def test_zero_momentum_zero_update(self):
        st = MuonState.initial(np.ones((2, 2)))
        boom = lambda m: (_ for _ in ()).throw(AssertionError("polar called"))
        muon_step(st, np.zeros((2, 2)), boom)
        np.testing.assert_array_equal(st.x, np.ones((2, 2)))

    def test_update_is_unit_spectral_step(self):
        rng = RngStream(31)
        st = MuonState.initial(rng.normal((4, 6)), beta=0.0, eta=0.1)
        g = rng.normal((4, 6))
        x0 = st.x
        muon_step(st, g, exact_polar)
        step = (x0 - st.x) / st.eta
        s = np.linalg.svd(step, compute_uv=False)
        np.testing.assert_allclose(s, np.ones(4), atol=1e-10)

    def test_converges_on_quadratic(self):
        # f(X) = 1/2 ||X - A||^2: Muon with exact polar reaches A
        a = RngStream(32).normal((5, 5))
        st = MuonState.initial(np.zeros((5, 5)), beta=0.9, eta=0.05)
        for _ in range(400):
            muon_step(st, st.x - a, exact_polar)
        assert np.linalg.norm(st.x - a) <= 0.25

    @pytest.mark.parametrize("kind", ["nesterov", "polyak"])
    def test_step_bitwise_equal_to_formula_and_inputs_untouched(self, kind):
        rng = RngStream(33)
        calls = []  # (momentum passed, its copy, polar output, its copy)

        def polar(m):
            out = exact_polar(m)
            calls.append((m, m.copy(), out, out.copy()))
            return out

        x0 = rng.normal((6, 4))
        x0_copy = x0.copy()
        st = MuonState.initial(x0, kind=kind, beta=0.9, eta=0.03)
        for _ in range(5):
            g = rng.normal((6, 4))
            old = (st.x, st.c, g)
            before = [a.copy() for a in old]
            muon_step(st, g, polar)
            for a, b in zip(old, before):
                assert np.array_equal(a, b)
            m, m_copy, direction, direction_copy = calls[-1]
            assert np.array_equal(m, m_copy)  # polar's input is not written after the call
            assert np.array_equal(direction, direction_copy)
            c = st.beta * before[1] + g
            assert np.array_equal(st.c, c)
            assert np.array_equal(m, st.beta * c + g if kind == "nesterov" else c)
            assert np.array_equal(st.x, before[0] - st.eta * direction)
            assert st.x is not direction and st.x is not old[0]
        assert np.array_equal(x0, x0_copy)

    def test_shape_mismatch(self):
        st = MuonState.initial(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            muon_step(st, np.zeros((3, 2)), exact_polar)

    def test_bad_kind(self):
        with pytest.raises(PreconditionError):
            MuonState.initial(np.zeros((2, 2)), kind="heavy-ball")

    @pytest.mark.parametrize("eta", [0.0, -0.5, math.inf, math.nan])
    def test_step_size_positive_and_finite(self, eta):
        with pytest.raises(PreconditionError, match="eta must be positive and finite"):
            MuonState.initial(np.zeros((2, 2)), eta=eta)


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
