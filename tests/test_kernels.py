import numpy as np

from polarmuon.matcore import RngStream
from polarmuon.polar import cubic_schedule, polynomial_iterate, quintic_theoretical_schedule
from polarmuon.sketch import power_iterate

EPS = np.finfo(np.float64).eps


def test_polynomial_iterate_matches_numpy_reference():
    # The iteration acts on singular values only: p_q(Z) = U diag(p_q(sigma)) V^T.
    # Rounding grows at most linearly in the step count and the dimension.
    rng = RngStream(91)
    for schedule in (quintic_theoretical_schedule(4), cubic_schedule(6)):
        coeffs = schedule.coeff_array()
        for shape in ((8, 8), (12, 5), (5, 12)):
            z = rng.normal(shape)
            z /= np.linalg.norm(z)
            u, sigma, vt = np.linalg.svd(z, full_matrices=False)
            ref = (u * schedule.scalar_map(sigma)) @ vt
            tol = 10 * schedule.q * max(shape) * EPS
            np.testing.assert_allclose(polynomial_iterate(z, coeffs), ref, rtol=0, atol=tol)


def test_power_iterate_matches_numpy_reference():
    rng = RngStream(92)
    m = rng.normal((10, 7))
    omega = rng.normal((7, 3))
    for h in (0, 1, 3):
        ref = np.linalg.matrix_power(m @ m.T, h) @ m @ omega
        tol = 10 * (2 * h + 1) * max(m.shape) * EPS * np.abs(ref).max()
        np.testing.assert_allclose(power_iterate(m, omega, h), ref, rtol=0, atol=tol)


def test_power_iterate_zero_h_is_plain_product():
    rng = RngStream(93)
    m = rng.normal((6, 4))
    omega = rng.normal((4, 2))
    np.testing.assert_array_equal(power_iterate(m, omega, 0), m @ omega)
