import warnings

import numpy as np
import pytest

from conftest import recon_bc
from klstab.boundary import BoundaryCondition
from klstab.crosscheck import (
    assemble_quasi_toeplitz,
    simulate,
    spectral_radius,
)
from klstab.errors import ShapeMismatch
from klstab.scheme import Scheme, template


def shift_scheme():
    return Scheme(r=1, p=0, coeffs={-1: 1.0, 0: 0.0}, lam=1.0)


def test_assemble_shift_scheme():
    s = shift_scheme()
    bc = BoundaryCondition(np.array([[0.7]]))
    M = assemble_quasi_toeplitz(s, bc, 4)
    expected = np.array(
        [
            [0.7, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ]
    )
    assert np.array_equal(M, expected)


def test_assemble_naive_average():
    s = template("naive_average")(0.5)
    bc = BoundaryCondition.from_matrix(np.array([[0.5, 0.5]]), s)
    M = assemble_quasi_toeplitz(s, bc, 5)
    assert np.allclose(M[0], [0.25, 0.75, 0, 0, 0])
    for i in range(1, 5):
        assert M[i, i - 1] == 0.5
        assert M[i, i] == 0.0
        if i + 1 < 5:
            assert M[i, i + 1] == 0.5


def test_assemble_size_guard():
    s = template("o3")(0.4)
    bc = recon_bc(template("o3"), 0.4, 3, 0, -0.4)
    with pytest.raises(ShapeMismatch):
        assemble_quasi_toeplitz(s, bc, 3)


def test_spectral_radius_identity():
    M = np.eye(4)
    assert spectral_radius(M) == pytest.approx(1.0)


def test_spectral_radius_diagonal():
    M = np.diag([0.5, 0.2])
    assert spectral_radius(M) == pytest.approx(0.5)


def test_spectral_radius_tracks_verdicts():
    tmpl = template("o3")
    stable = assemble_quasi_toeplitz(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, -0.4), 100)
    assert spectral_radius(stable) <= 1 + 1e-6
    unstable = assemble_quasi_toeplitz(tmpl(0.9), recon_bc(tmpl, 0.9, 3, 0, -0.4), 100)
    assert spectral_radius(unstable) > 1


def test_spectral_radius_matches_determinant_zero():
    # the dominant boundary eigenvalue of the truncation converges to the
    # determinant zero of the half-line problem
    tmpl = template("o3")
    M = assemble_quasi_toeplitz(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, 0.4), 100)
    assert spectral_radius(M) == pytest.approx(2.4593811588154986, abs=1e-9)


def test_truncation_robust_at_stable_point():
    tmpl = template("o3")
    bc = recon_bc(tmpl, 0.4, 3, 0, -0.4)
    r1 = spectral_radius(assemble_quasi_toeplitz(tmpl(0.4), bc, 100))
    r2 = spectral_radius(assemble_quasi_toeplitz(tmpl(0.4), bc, 160))
    assert abs(r2 - r1) < 0.05


def test_simulate_zero_data_stays_zero():
    tmpl = template("o3")
    s = tmpl(0.4)
    bc = recon_bc(tmpl, 0.4, 3, 0, -0.4)
    run = simulate(s, bc, np.zeros(50), None, 20)
    assert np.all(run.history == 0)
    assert not run.blew_up


def test_simulate_exact_shift_transport():
    # rightgoing transport: the full-CFL shift moves the profile one cell right
    # per step, so a delta at j=10 sits at j=15 after five steps
    s = shift_scheme()
    bc = BoundaryCondition(np.zeros((1, 1)))
    f = np.zeros(20)
    f[10] = 1.0
    run = simulate(s, bc, f, None, 5)
    expected = np.zeros(20)
    expected[15] = 1.0
    assert np.array_equal(run.history[-1], expected)


def test_simulate_history_row_zero_is_initial():
    tmpl = template("o3")
    s = tmpl(0.5)
    bc = recon_bc(tmpl, 0.5, 3, 0, -0.4)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(40)
    run = simulate(s, bc, f, None, 3)
    assert np.array_equal(run.history[0], f)
    assert run.completed_steps == 3


def test_simulate_linearity(rng):
    tmpl = template("o3")
    s = tmpl(0.5)
    bc = recon_bc(tmpl, 0.5, 3, 0, -0.4)
    f1, f2 = rng.standard_normal(40), rng.standard_normal(40)
    g1, g2 = rng.standard_normal((10, 2)), rng.standard_normal((10, 2))
    a = simulate(s, bc, f1, g1, 10)
    b = simulate(s, bc, f2, g2, 10)
    both = simulate(s, bc, f1 + f2, g1 + g2, 10)
    scale = 1 + np.max(np.abs(both.history))
    assert np.max(np.abs(both.history - a.history - b.history)) <= 1e-10 * scale


def test_simulate_stable_point_bounded():
    tmpl = template("o3")
    s = tmpl(0.4)
    bc = recon_bc(tmpl, 0.4, 3, 0, -0.4)
    g = np.zeros((2000, 2))
    g[0, :] = 1.0
    run = simulate(s, bc, np.zeros(400), g, 2000)
    assert not run.blew_up
    assert run.norm_trace.max() <= 10.0 * np.linalg.norm(g)


def test_simulate_unstable_point_blows_up():
    tmpl = template("o3")
    s = tmpl(0.9)
    bc = recon_bc(tmpl, 0.9, 3, 0, -0.4)
    g = np.zeros((500, 2))
    g[0, :] = 1.0
    run = simulate(s, bc, np.zeros(100), g, 500)
    assert run.blew_up
    assert run.completed_steps < 500


def test_simulate_reports_an_overflowing_march_as_blow_up():
    # the ghost value 1.7e308 * 0.5 is finite, but the norm of the step after
    # it is not: that is blow-up, not a warning
    s = template("upwind")(0.5)
    bc = BoundaryCondition(np.array([[1.7e308, 0.5]]))
    g = np.zeros((3, 1))
    g[0, -1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = simulate(s, bc, np.zeros(20), g, 3)
    assert run.blew_up


def test_simulate_shape_guards():
    tmpl = template("o3")
    s = tmpl(0.5)
    bc = recon_bc(tmpl, 0.5, 3, 0, -0.4)
    with pytest.raises(ShapeMismatch):
        simulate(s, bc, np.zeros(2), None, 5)
    with pytest.raises(ShapeMismatch):
        simulate(s, bc, np.zeros(40), np.zeros((5, 1)), 5)
