import numpy as np
import pytest

from conftest import brute_roots, o3_Btilde_golden, recon_bc
from klstab.boundary import BoundaryCondition, ReconstructionSpec
from klstab.errors import CauchyViolation, MultipleRoot, ShapeMismatch
from klstab.kldet import (
    CONTINUED,
    STRICT_INSIDE,
    StableRootSet,
    basis_matrices,
    delta,
    delta_reference,
    kl_curve,
    read_curve_csv,
    reduce_Btilde,
    select_stable_roots,
    sigmas_from_roots,
    write_curve_csv,
)
from klstab.scheme import Scheme, characteristic_polynomial, template
from klstab.verdict import check
from klstab.winding import winding_number


def shift_scheme():
    return Scheme(r=1, p=0, coeffs={-1: 1.0, 0: 0.0}, lam=1.0)


def zero_boundary(r: int, m: int) -> BoundaryCondition:
    # test-harness injection: identically zero boundary rows
    return BoundaryCondition(m=m, B=np.zeros((r, m)), calB=np.zeros((r, m)))


def test_select_shift_scheme_on_circle():
    s = shift_scheme()
    z = np.exp(0.7j)
    srs = select_stable_roots(s, z)
    assert len(srs.roots) == 1
    assert srs.roots[0] == pytest.approx(1 / z, abs=1e-12)
    assert srs.provenance == (CONTINUED,)


def test_select_o3_at_z_one_resolves_unit_root():
    s = template("o3")(0.4)
    srs = select_stable_roots(s, 1.0 + 0j)
    assert len(srs.roots) == 2
    mods = sorted(abs(x) for x in srs.roots)
    assert mods[1] == pytest.approx(1.0, abs=1e-9)
    assert CONTINUED in srs.provenance


def test_select_o3_exterior_matches_brute_force():
    s = template("o3")(0.4)
    srs = select_stable_roots(s, 2.0 + 0j)
    assert srs.provenance == (STRICT_INSIDE, STRICT_INSIDE)
    oracle = brute_roots(characteristic_polynomial(s, 2.0).coefficients)
    inside = sorted(
        (x for x in oracle if abs(x) < 1), key=lambda x: (x.real, x.imag)
    )
    assert np.allclose(srs.roots, inside, atol=1e-9)
    # elementary symmetric functions of the chosen roots
    assert srs.sigmas[0] == pytest.approx(inside[0] * inside[1], abs=1e-9)
    assert srs.sigmas[1] == pytest.approx(-(inside[0] + inside[1]), abs=1e-9)


def test_select_rejects_interior_z():
    with pytest.raises(ValueError):
        select_stable_roots(template("o3")(0.4), 0.5 + 0j)


def test_select_flags_cauchy_violation():
    # at an over-CFL scheme the exterior root count breaks inside the symbol curve
    s = template("o3")(1.5)
    with pytest.raises(CauchyViolation):
        select_stable_roots(s, 1.02 * np.exp(1.473j))


def test_sigma_expansion_matches_numpy():
    roots = [0.3 + 0.1j, -0.2 + 0.4j, 0.05 - 0.3j]
    sig = sigmas_from_roots(roots)
    ref = np.poly(roots)[::-1]  # ascending, monic
    assert np.allclose(sig, ref[:-1], atol=1e-14)


def test_reduce_Btilde_identity_when_m_equals_r(rng):
    calB = rng.standard_normal((2, 2))
    out = reduce_Btilde(calB, [0.3, -0.7])
    assert np.allclose(out, calB)


def test_reduce_Btilde_golden_o3(rng):
    spec = ReconstructionSpec(3, 0, 0.4)
    for _ in range(8):
        lam = float(rng.uniform(0.05, 1.0))
        s0 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        s1 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        bc = BoundaryCondition.from_reconstruction(spec, template("o3")(lam))
        bt = reduce_Btilde(bc.calB, [s0, s1])
        golden = o3_Btilde_golden(lam, s0, s1)
        assert np.max(np.abs(bt - golden) / (1 + np.abs(golden))) <= 1e-10


def test_reduce_Btilde_recurrence_oracle(rng):
    # Btilde (U0, U1)^T must equal calB (U0..U3)^T for recurrence-extended sequences
    calB = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    sig = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    bt = reduce_Btilde(calB, sig)
    for _ in range(50):
        u = list(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        while len(u) < 4:
            u.append(-sig[0] * u[-2] - sig[1] * u[-1])
        lhs = bt @ np.array(u[:2])
        rhs = calB @ np.array(u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))


def test_reduce_Btilde_shape_guards():
    with pytest.raises(ShapeMismatch):
        reduce_Btilde(np.zeros((2, 4)), [1.0])
    with pytest.raises(ShapeMismatch):
        reduce_Btilde(np.zeros((2, 1)), [1.0, 2.0])


def test_delta_zero_boundary_is_z_power_r():
    s = template("o3")(0.4)
    bc = zero_boundary(2, 3)
    for z in (2.0 + 0j, 1.5 + 0.5j, np.exp(0.9j)):
        assert delta(s, bc, z) == pytest.approx(z**2, rel=1e-12)


@pytest.mark.parametrize(
    "name,d,k_d,lam",
    [
        ("o3", 3, 0, 0.4),
        ("o3", 3, 1, 0.7),
        ("o3", 4, 0, 0.55),
        ("lw5", 5, 0, 0.5),
        ("lw5", 6, 1, 0.5),
    ],
)
def test_delta_matches_reference_ratio(name, d, k_d, lam, rng):
    tmpl = template(name)
    s = tmpl(lam)
    bc = BoundaryCondition.from_reconstruction(ReconstructionSpec(d, k_d, 0.4), s)
    done = 0
    while done < 25:
        z = float(rng.uniform(1.01, 10.0)) * np.exp(1j * float(rng.uniform(0, 2 * np.pi)))
        try:
            ref = delta_reference(s, bc, z)
        except MultipleRoot:
            continue
        mine = delta(s, bc, z)
        assert abs(mine - ref) <= 1e-8 * (1 + abs(mine))
        done += 1


def test_symmetric_function_consistency(rng):
    # reduce_Btilde(calB, sigmas(z)) equals calB K_full K_top^{-1} pointwise
    s = template("o3")(0.45)
    bc = recon_bc(template("o3"), 0.45, 3, 0, 0.4)
    for _ in range(20):
        z = float(rng.uniform(1.05, 5.0)) * np.exp(1j * float(rng.uniform(0, 2 * np.pi)))
        srs = select_stable_roots(s, z)
        basis = basis_matrices(srs, rows=bc.m)
        expected = bc.calB @ basis.K_full @ np.linalg.inv(basis.K_top)
        bt = reduce_Btilde(bc.calB, srs.sigmas)
        assert np.max(np.abs(bt - expected)) <= 1e-8 * (1 + np.max(np.abs(expected)))


def test_basis_matrices_distinct_roots():
    srs = StableRootSet(
        z=2.0 + 0j,
        roots=(0.2 + 0j, 0.5 + 0j),
        sigmas=sigmas_from_roots([0.2, 0.5]),
        provenance=(STRICT_INSIDE, STRICT_INSIDE),
    )
    basis = basis_matrices(srs, rows=3)
    assert np.allclose(basis.K_full, [[1, 1], [0.2, 0.5], [0.04, 0.25]])
    assert np.allclose(basis.K_top, [[1, 1], [0.2, 0.5]])


def test_basis_matrices_single_root():
    srs = StableRootSet(
        z=2.0 + 0j,
        roots=(0.5 + 0j,),
        sigmas=(-0.5 + 0j,),
        provenance=(STRICT_INSIDE,),
    )
    basis = basis_matrices(srs, rows=2)
    assert np.allclose(basis.K_full, [[1], [0.5]])


def test_basis_matrices_double_root_columns():
    kappa = 0.4 + 0.1j
    srs = StableRootSet(
        z=1.0 + 0j,
        roots=(kappa, kappa),
        sigmas=sigmas_from_roots([kappa, kappa]),
        provenance=(CONTINUED, CONTINUED),
    )
    basis = basis_matrices(srs, rows=4)
    expected = np.array(
        [
            [1, 0],
            [kappa, kappa],
            [kappa**2, 2 * kappa**2],
            [kappa**3, 3 * kappa**3],
        ]
    )
    assert np.allclose(basis.K_full, expected)
    with pytest.raises(MultipleRoot):
        basis_matrices(srs, rows=4, require_distinct=True)


def test_kl_curve_zero_boundary_winds_r_times():
    s = template("o3")(0.4)
    curve = kl_curve(s, zero_boundary(2, 3), n_init=64)
    expected = np.exp(2j * curve.thetas)
    assert np.max(np.abs(curve.values - expected)) <= 1e-9
    assert winding_number(curve.values).index == 2


def test_kl_curve_golden_windings():
    # three-way cross-validated: winding, truncated spectrum, and time marching
    tmpl = template("o3")
    stable = kl_curve(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, -0.4), n_init=128)
    assert winding_number(stable.values).index == 2
    unstable = kl_curve(tmpl(0.9), recon_bc(tmpl, 0.9, 3, 0, -0.4), n_init=128)
    assert winding_number(unstable.values).index == 1


def test_kl_curve_thetas_strictly_increasing():
    tmpl = template("o3")
    curve = kl_curve(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, -0.4), n_init=64)
    assert np.all(np.diff(curve.thetas) > 0)
    assert curve.thetas[0] >= 0.0 and curve.thetas[-1] < 2 * np.pi
    assert curve.closed


# Sample sets recorded before the refinement loop became array operations:
# samples per bisection depth, and the positions and depths of the refined
# samples in the final curve.  Together with the initial grid these fix every
# theta, so the loop must reproduce exactly the same sample set.
@pytest.mark.parametrize(
    "name,d,sigma,lam,n_init,per_depth,refined",
    [
        ("o3", 3, -0.4, 0.4, 256, [256], []),
        ("lw5", 5, -0.4, 0.5, 256, [256], []),
        ("o3", 3, -0.49, 0.05, 64, [64, 2], [(1, 1), (65, 1)]),
        (
            "lw5",
            5,
            -0.49,
            0.05,
            64,
            [64, 2, 4],
            [(1, 2), (2, 1), (3, 2), (67, 2), (68, 1), (69, 2)],
        ),
    ],
)
def test_kl_curve_sample_set_pinned(name, d, sigma, lam, n_init, per_depth, refined):
    tmpl = template(name)
    curve = kl_curve(tmpl(lam), recon_bc(tmpl, lam, d, 0, sigma), n_init=n_init)
    assert len(curve) == sum(per_depth)
    assert int(np.max(curve.depths)) == len(per_depth) - 1
    assert np.bincount(curve.depths).tolist() == per_depth
    positions = np.flatnonzero(curve.depths)
    assert list(zip(positions.tolist(), curve.depths[positions].tolist())) == refined
    verdict = check(tmpl, ReconstructionSpec(d, 0, sigma), lam, n_init=n_init)
    assert verdict.diagnostics["curve_samples"] == sum(per_depth)
    assert verdict.diagnostics["max_refine_depth"] == len(per_depth) - 1


def test_kl_curve_continuity_bound():
    tmpl = template("lw5")
    curve = kl_curve(tmpl(0.5), recon_bc(tmpl, 0.5, 5, 0, -0.4), n_init=128)
    v = curve.values
    w = np.roll(v, -1)
    jumps = np.abs(w - v)
    bound = 0.5 * (1 + np.minimum(np.abs(v), np.abs(w)))
    assert np.all(jumps <= bound)


def test_delta_conjugate_symmetry(rng):
    s = template("o3")(0.6)
    bc = recon_bc(template("o3"), 0.6, 3, 0, 0.2)
    for _ in range(10):
        z = float(rng.uniform(1.0, 3.0)) * np.exp(1j * float(rng.uniform(0, np.pi)))
        a = delta(s, bc, z)
        b = delta(s, bc, np.conj(z))
        assert abs(b - np.conj(a)) <= 1e-9 * (1 + abs(a))


def test_curve_csv_round_trip(tmp_path):
    tmpl = template("o3")
    curve = kl_curve(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, -0.4), n_init=64)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, str(path))
    back = read_curve_csv(str(path))
    assert np.array_equal(back.thetas, curve.thetas)
    assert np.array_equal(back.values, curve.values)
    assert np.array_equal(back.depths, curve.depths)
    assert winding_number(back.values).index == winding_number(curve.values).index


def test_kl_curve_requires_minimum_resolution():
    tmpl = template("o3")
    with pytest.raises(ValueError):
        kl_curve(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, -0.4), n_init=32)
