import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarmuon import matcore
from polarmuon.errors import (
    DegenerateInputError,
    DimensionError,
    NumericalAbortError,
    PreconditionError,
)
from polarmuon.matcore import (
    RngStream,
    derive_stream_id,
    frobenius_norm,
    inner_product,
    nuclear_norm,
    operator_norm,
    orthonormal_basis,
    svd,
)

finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


class TestNorms:
    def test_frobenius_zero(self):
        assert frobenius_norm(np.zeros((2, 2))) == 0.0

    def test_frobenius_identity(self):
        assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2))

    def test_frobenius_diag(self):
        assert frobenius_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0)

    def test_frobenius_is_np_linalg_norm_bitwise(self):
        # sqrt(v . v) is np.linalg.norm's own arithmetic, in any memory order
        rng = RngStream(14)
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            a = scale * rng.normal((9, 7))
            for view in (a, np.asfortranarray(a), a[::2, 1::3], a.T, a[:, ::-1]):
                assert matcore._frobenius(view).hex() == float(np.linalg.norm(view)).hex()

    def test_operator_norm_zero(self):
        # LAPACK's singular values of a zero matrix are 0, with no zero check
        assert operator_norm(np.zeros((3, 2))) == 0.0
        assert nuclear_norm(np.zeros((3, 2))) == 0.0

    def test_operator_norm_diag(self):
        assert operator_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0)

    def test_operator_norm_vs_power_iteration(self):
        # independent oracle: plain power iteration on A^T A
        rng = RngStream(42).generator
        a = rng.standard_normal((8, 5))
        v = rng.standard_normal(5)
        for _ in range(500):
            v = a.T @ (a @ v)
            v /= np.linalg.norm(v)
        est = np.linalg.norm(a @ v)
        assert operator_norm(a) == pytest.approx(est, abs=1e-8)

    def test_nuclear_norm_diag(self):
        assert nuclear_norm(np.diag([3.0, 4.0])) == pytest.approx(7.0)

    def test_nuclear_norm_rank_one(self):
        u = np.array([[0.6], [0.8]])
        v = np.array([[1.0], [0.0]])
        assert nuclear_norm(u @ v.T) == pytest.approx(1.0)

    def test_nuclear_norm_matches_svd_trace(self):
        a = RngStream(7).normal((6, 6))
        assert nuclear_norm(a) == pytest.approx(np.sum(svd(a).sigma), abs=1e-10)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            frobenius_norm(np.array([[np.nan, 0.0]]))


class TestInnerProduct:
    def test_identity(self):
        assert inner_product(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_zero(self):
        assert inner_product(np.ones((3, 2)), np.zeros((3, 2))) == 0.0

    def test_diag_trace(self):
        assert inner_product(np.diag([2.0, 1.0]), np.diag([1.0, 3.0])) == pytest.approx(5.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product(np.eye(2), np.eye(3))


class TestSvd:
    def test_diag(self):
        f = svd(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(f.sigma, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(f.u), np.eye(2), atol=1e-12)

    def test_orthogonal_input(self):
        q, _ = np.linalg.qr(RngStream(3).normal((5, 5)))
        np.testing.assert_allclose(svd(q).sigma, np.ones(5), atol=1e-12)

    def test_rank_deficient(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(svd(a).sigma, [1.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        with pytest.raises(DegenerateInputError):
            svd(np.zeros((2, 2)))

    def test_reconstruction_sweep(self):
        rng = RngStream(11)
        for _ in range(200):
            shape = (
                int(rng.generator.integers(1, 65)),
                int(rng.generator.integers(1, 65)),
            )
            a = rng.normal(shape)
            f = svd(a)
            err = np.linalg.norm((f.u * f.sigma) @ f.v.T - a) / np.linalg.norm(a)
            assert err <= 1e-10
            r = f.rank
            np.testing.assert_allclose(f.u.T @ f.u, np.eye(r), atol=1e-10)
            np.testing.assert_allclose(f.v.T @ f.v, np.eye(r), atol=1e-10)
            assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma > 0)


def _failing_svd(monkeypatch, failures: int) -> list:
    """Make the first ``failures`` LAPACK SVDs raise as a non-converging one
    does; returns the shapes of all SVD calls."""
    calls = []
    lapack = np.linalg.svd

    def svd_or_fail(x, *args, **kwargs):
        calls.append(x.shape)
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("SVD did not converge")
        return lapack(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_or_fail)
    return calls


class TestSvdRetry:
    """An SVD that LAPACK does not converge on is retried on the transpose,
    then through a QR, before it aborts."""

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7), (5, 5)])
    @pytest.mark.parametrize("failures, route", [(1, "transpose"), (2, "qr")])
    def test_fallback_order(self, monkeypatch, shape, failures, route):
        a = RngStream(12).normal(shape)
        want = np.linalg.svd(a, compute_uv=False)
        calls = _failing_svd(monkeypatch, failures)
        f = svd(a)
        assert calls[:2] == [shape, shape[::-1]]
        assert calls[2:] == ([] if route == "transpose" else [(min(shape),) * 2])
        assert f.u.shape == (shape[0], f.rank) and f.v.shape == (shape[1], f.rank)
        np.testing.assert_allclose(f.sigma, want, rtol=1e-12)
        np.testing.assert_allclose((f.u * f.sigma) @ f.v.T, a, atol=1e-12)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(f.rank), atol=1e-12)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(f.rank), atol=1e-12)

    @pytest.mark.parametrize("failures", [1, 2])
    @pytest.mark.parametrize(
        "call, of_sigma", [(operator_norm, np.max), (nuclear_norm, np.sum)], ids=["op", "nuc"]
    )
    def test_values_only_callers_retry(self, monkeypatch, call, of_sigma, failures):
        a = RngStream(13).normal((6, 4))
        want = of_sigma(np.linalg.svd(a, compute_uv=False))
        calls = _failing_svd(monkeypatch, failures)
        assert call(a) == pytest.approx(want, rel=1e-12)
        assert len(calls) == failures + 1

    @pytest.mark.parametrize(
        "call",
        [svd, operator_norm, nuclear_norm, orthonormal_basis],
        ids=["svd", "operator_norm", "nuclear_norm", "orthonormal_basis"],
    )
    def test_aborts_when_every_route_fails(self, monkeypatch, call):
        a = RngStream(14).normal((6, 4))
        calls = _failing_svd(monkeypatch, 3)
        with pytest.raises(NumericalAbortError, match="svd did not converge"):
            call(a)
        assert len(calls) == 3


class TestOrthonormalBasis:
    def test_identity(self):
        q = orthonormal_basis(np.eye(3))
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)

    def test_rank_collapse(self):
        e1 = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        q = orthonormal_basis(e1)
        assert q.shape == (3, 1)
        np.testing.assert_allclose(np.abs(q[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)

    def test_projector_residual(self):
        y = RngStream(5).normal((10, 4))
        q = orthonormal_basis(y)
        assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-10
        resid = np.linalg.norm(y - q @ (q.T @ y))
        assert resid <= 1e-8 * np.linalg.norm(y)

    def test_idempotent_span(self):
        y = RngStream(6).normal((9, 3))
        q1 = orthonormal_basis(y)
        q2 = orthonormal_basis(q1)
        p1 = q1 @ q1.T
        p2 = q2 @ q2.T
        assert np.linalg.norm(p1 - p2) <= 1e-10

    def test_zero_input(self):
        with pytest.raises(DegenerateInputError):
            orthonormal_basis(np.zeros((3, 2)))


def _svd_calls(monkeypatch) -> list:
    """Shapes of the LAPACK SVDs that both the basis and svd() take."""
    calls = []
    exact = matcore._truncated_svd
    monkeypatch.setattr(
        matcore, "_truncated_svd", lambda a: (calls.append(a.shape), exact(a))[1]
    )
    return calls


def _spectrum_matrix(sigma, m, seed):
    rng = RngStream(seed, 1)
    u, _ = np.linalg.qr(rng.normal((m, len(sigma))))
    v, _ = np.linalg.qr(rng.normal((len(sigma), len(sigma))))
    return (u * np.asarray(sigma)) @ v.T


class TestCholeskyQR2Basis:
    SHAPE = (256, 32)  # rows * cols^2 above CHOLESKY_QR_MIN_WORK

    def test_well_conditioned_takes_cholesky(self, monkeypatch):
        calls = _svd_calls(monkeypatch)
        for t in range(5):
            y = _spectrum_matrix(np.logspace(0, -2, 32), self.SHAPE[0], seed=t)
            q = orthonormal_basis(y)
            assert q.shape == self.SHAPE
            assert np.linalg.norm(q.T @ q - np.eye(32)) <= 1e-12
            u = matcore.svd(y).u
            assert np.linalg.norm(q @ q.T - u @ u.T) <= 1e-12
        assert len(calls) == 5  # only the reference SVDs above

    @pytest.mark.parametrize(
        "case, rank",
        [
            ("rank-deficient", 20),  # a Cholesky fails
            ("tiny-column", 31),  # CholeskyQR2 succeeds; the cond(Y) bound rejects it
            ("cond-1e10", 32),
            ("overflowing-gram", 32),
        ],
    )
    def test_falls_back_to_svd_without_warning(self, monkeypatch, case, rank):
        if case == "rank-deficient":
            rng = RngStream(8)
            y = rng.normal((256, 20)) @ rng.normal((20, 32))
        elif case == "tiny-column":  # sigma_min / sigma_max ~ 1e-15 < 256 eps
            y = RngStream(3).normal(self.SHAPE)
            y[:, -1] *= 1e-15
        elif case == "cond-1e10":
            y = _spectrum_matrix(np.logspace(0, -10, 32), 256, seed=9)
        else:  # Y^T Y overflows
            y = 1e160 * RngStream(10).normal(self.SHAPE)
        calls = _svd_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = orthonormal_basis(y)
        assert calls == [self.SHAPE]
        assert q.shape == (256, rank) == (256, matcore._svd(y).rank)
        assert np.linalg.norm(q.T @ q - np.eye(rank)) <= 1e-12

    def test_orthogonality_check_gates_the_result(self, monkeypatch):
        # with a zero tolerance no CholeskyQR2 result passes the check
        monkeypatch.setattr(matcore, "ORTHOGONALITY_TOL", 0.0)
        calls = _svd_calls(monkeypatch)
        orthonormal_basis(RngStream(12).normal(self.SHAPE))
        assert calls == [self.SHAPE]

    @pytest.mark.parametrize("rank", [5, 3])
    def test_svd_fallback_is_svd_u_bitwise(self, rank):
        # the basis's lean fallback returns svd(y).u bit for bit, in the same
        # C-ordered layout, at full rank (LAPACK's U itself) and below it
        for t in range(4):
            rng = RngStream(13, t)
            y = rng.normal((16, rank)) @ rng.normal((rank, 5))
            q, ref = orthonormal_basis(y), matcore._svd(y).u
            assert q.shape == ref.shape == (16, rank)
            assert q.flags.c_contiguous and q.strides == ref.strides
            assert q.tobytes() == ref.tobytes()

    def test_small_input_takes_svd(self, monkeypatch):
        assert 16 * 5**2 < matcore.CHOLESKY_QR_MIN_WORK
        calls = _svd_calls(monkeypatch)
        orthonormal_basis(RngStream(11).normal((16, 5)))
        assert calls == [(16, 5)]


@settings(max_examples=100, deadline=None)
@given(finite_matrices)
def test_norm_inequalities(a):
    # ||A||_F <= ||A||_* <= sqrt(rank) ||A||_F and ||A||_F <= sqrt(d0) ||A||_op
    fro = frobenius_norm(a)
    if fro == 0.0:
        return
    nuc = nuclear_norm(a)
    op = operator_norm(a)
    r = svd(a).rank
    tol = 1e-9 * max(1.0, fro)
    assert fro <= nuc + tol
    assert nuc <= np.sqrt(r) * fro + tol
    assert fro <= np.sqrt(min(a.shape)) * op + tol


class TestMeanAndSe:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 2000, 20000])
    def test_equals_numpy_mean_and_std(self, n):
        for vals in (RngStream(15).normal(n) * 1e3 + 7.0, RngStream(16).uniform(n) ** -1.2):
            want = (float(np.mean(vals)), float(np.std(vals) / np.sqrt(len(vals))))
            got = matcore._mean_and_se(vals)
            assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_empty_raises(self):
        with pytest.raises(PreconditionError):
            matcore._mean_and_se(np.empty(0))


class TestRngStream:
    def test_determinism(self):
        a = RngStream(123, 5).normal((10_000,))
        b = RngStream(123, 5).normal((10_000,))
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).normal((100,))
        b = RngStream(123, 1).normal((100,))
        assert not np.array_equal(a, b)

    def test_derive_stream_id_stable(self):
        assert derive_stream_id(1, 2, 3) == derive_stream_id(1, 2, 3)
        assert derive_stream_id(1, 2) != derive_stream_id(2, 1)

    @pytest.mark.parametrize("seed", [0, -5, 2**64 - 1, derive_stream_id(3, 4)])
    @pytest.mark.parametrize("stream", [0, -5, 2**64 - 1, derive_stream_id(3, 4)])
    def test_draws_match_explicit_philox_key(self, seed, stream):
        # a stream is Philox4x64 keyed on (seed, stream) modulo 2^64, bit for bit
        key = np.array([seed & (2**64 - 1), stream & (2**64 - 1)], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key))
        rng = RngStream(seed, stream)
        p = np.array([0.5, 0.1, 0.3, 0.1])
        got = [rng.normal((7, 3)), rng.uniform(11), rng.generator.integers(3, 12, 9),
               rng.generator.choice(4, size=(2, 6), replace=True, p=p)]
        want = [ref.standard_normal((7, 3)), ref.random(11), ref.integers(3, 12, 9),
                ref.choice(4, size=(2, 6), replace=True, p=p)]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert (rng.seed, rng.stream) == (seed, stream)

    def test_substream_reproducible(self):
        r = RngStream(9, 1)
        a = r.substream(4).normal((50,))
        b = RngStream(9, 1).substream(4).normal((50,))
        assert np.array_equal(a, b)
