import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import B_GOLDEN, Y_MINUS_GOLDEN, Y_PLUS_GOLDEN, o3_calB_golden
from klstab.boundary import (
    SINGULAR_RATIO_MIN,
    BoundaryCondition,
    ReconstructionSpec,
    build_calB,
    parse_boundary_text,
    reconstruction_B,
    reconstruction_matrices,
)
from klstab.errors import ShapeMismatch, SingularYPlus
from klstab.scheme import Scheme, template
from klstab.verdict import STATUS_INVALID, STATUS_MARGINAL, check


def test_reconstruction_spec_validation():
    ReconstructionSpec(d=3, k_d=0, sigma=0.4)
    with pytest.raises(ValueError):
        ReconstructionSpec(d=3, k_d=2, sigma=0.0)  # width 0
    with pytest.raises(ValueError):
        ReconstructionSpec(d=3, k_d=3, sigma=0.0)
    with pytest.raises(ValueError):
        ReconstructionSpec(d=3, k_d=0, sigma=0.5)


def test_golden_y_matrices():
    y_minus, y_plus = reconstruction_matrices(ReconstructionSpec(3, 0, 0.4), r=2)
    assert np.max(np.abs(y_minus - Y_MINUS_GOLDEN) / np.abs(Y_MINUS_GOLDEN)) <= 1e-12
    assert np.max(np.abs(y_plus - Y_PLUS_GOLDEN) / np.abs(Y_PLUS_GOLDEN)) <= 1e-12


def test_golden_b_matrix():
    b = reconstruction_B(ReconstructionSpec(3, 0, 0.4), r=2, m=2)
    assert np.max(np.abs(b - B_GOLDEN) / np.abs(B_GOLDEN)) <= 1e-12


def test_b_matrix_zero_padding():
    b2 = reconstruction_B(ReconstructionSpec(3, 0, 0.4), r=2, m=2)
    b3 = reconstruction_B(ReconstructionSpec(3, 0, 0.4), r=2, m=3)
    assert np.allclose(b3[:, :2], b2)
    assert np.all(b3[:, 2] == 0)


def test_single_column_reconstruction_is_scalar_division():
    spec = ReconstructionSpec(d=2, k_d=0, sigma=0.3)
    y_minus, y_plus = reconstruction_matrices(spec, r=1)
    b = reconstruction_B(spec, r=1, m=1)
    assert b[0, 0] == pytest.approx(y_minus[0, 0] / y_plus[0, 0], rel=1e-14)


def test_width_one_y_plus_closed_form(rng):
    # single-column specialization: Y+ is 1x1 with ((1/2-sigma)^d - (-1/2-sigma)^d)/d!
    for d in (2, 3, 4, 5):
        sigma = float(rng.uniform(-0.49, 0.49))
        spec = ReconstructionSpec(d=d, k_d=d - 2, sigma=sigma)
        _, y_plus = reconstruction_matrices(spec, r=2)
        expected = ((0.5 - sigma) ** d - (-0.5 - sigma) ** d) / math.factorial(d)
        assert y_plus.shape == (1, 1)
        assert y_plus[0, 0] == pytest.approx(expected, rel=1e-13)


def test_y_plus_parity_at_sigma_zero():
    # reflecting the cell index flips the entry sign exactly when the power is even
    spec = ReconstructionSpec(d=5, k_d=-1, sigma=0.0)
    y_minus, y_plus = reconstruction_matrices(spec, r=3)
    w = spec.width
    for x in (1, 2, 3):
        row_plus = y_plus[x, :]  # cell centered at +x
        row_minus = y_minus[3 - x, :]  # ghost centered at -x
        for j in range(1, w + 1):
            e = j + spec.k_d + 1
            sign = -1.0 if e % 2 == 0 else 1.0
            assert row_minus[j - 1] == pytest.approx(sign * row_plus[j - 1], rel=1e-12)


def test_singular_y_plus_rejected():
    # even-order single-column reconstruction at sigma=0 averages an odd power to zero
    with pytest.raises(SingularYPlus):
        reconstruction_B(ReconstructionSpec(d=2, k_d=0, sigma=0.0), r=1, m=1)


def test_reconstruction_B_rejects_only_singular_specs():
    # the singular-value guard rejects exactly the even-order single-column
    # systems at sigma = 0; every other B solves its system to rounding
    rejected = set()
    for d in range(1, 9):
        for k_d in range(-1, d - 1):
            for sigma in np.append(np.linspace(-0.5, 0.49, 34), 0.0):
                spec = ReconstructionSpec(d, k_d, float(sigma))
                for r in (1, 2, 3):
                    try:
                        b = reconstruction_B(spec, r, spec.width)
                    except SingularYPlus:
                        rejected.add((d, k_d, float(sigma), r))
                        continue
                    y_minus, y_plus = reconstruction_matrices(spec, r)
                    scale = np.max(np.abs(b)) * np.max(np.abs(y_plus))
                    assert np.max(np.abs(b @ y_plus - y_minus)) <= 1e-14 * scale
    assert rejected == {(d, d - 2, 0.0, r) for d in (2, 4, 6, 8) for r in (1, 2, 3)}


def _solve_partial_pivot(a, b):
    """Solve a X = b by Gaussian elimination, rejecting a pivot below 1e-13 of
    max|a|: the hand-written solve that np.linalg.solve and the singular-value
    guard replaced."""
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    n = a.shape[0]
    scale = np.max(np.abs(a)) or 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) < 1e-13 * scale:
            raise SingularYPlus("pivot")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros_like(b)
    for col in range(n - 1, -1, -1):
        x[col] = (b[col] - a[col, col + 1 :] @ x[col + 1 :]) / a[col, col]
    return x


def test_singular_value_guard_against_pivot_reference():
    # Y_plus does not depend on r, so r = 1 covers every rejection.  Up to
    # d = 14 both rules reject the same specs; at d = 15 and 16 the guard also
    # rejects systems whose singular-value ratio is at most SINGULAR_RATIO_MIN
    # but whose pivots passed, and never accepts one the pivot rule rejected.
    for d in range(1, 17):
        for k_d in range(-1, d - 1):
            for sigma in np.append(np.linspace(-0.5, 0.49, 34), 0.0):
                spec = ReconstructionSpec(d, k_d, float(sigma))
                y_minus, y_plus = reconstruction_matrices(spec, 1)
                try:
                    _solve_partial_pivot(y_plus.T, y_minus.T)
                    pivot_rejects = False
                except SingularYPlus:
                    pivot_rejects = True
                try:
                    reconstruction_B(spec, 1, spec.width)
                    guard_rejects = False
                except SingularYPlus:
                    guard_rejects = True
                if d <= 14 or pivot_rejects:
                    assert guard_rejects == pivot_rejects, spec
                elif guard_rejects:
                    sv = np.linalg.svd(y_plus, compute_uv=False)
                    assert sv[-1] <= SINGULAR_RATIO_MIN * sv[0], spec


def test_reconstruction_B_shape_guard():
    with pytest.raises(ShapeMismatch):
        reconstruction_B(ReconstructionSpec(3, 0, 0.4), r=2, m=1)


def test_build_calB_naive_average():
    s = template("naive_average")(0.5)
    calB = build_calB(np.array([[0.5, 0.5]]), s)
    assert np.allclose(calB, [[0.25, 0.75]], atol=1e-15)


def test_build_calB_zero_B_is_interior_band():
    s = template("o3")(0.7)
    calB = build_calB(np.zeros((2, 3)), s)
    a = s.coeffs
    band = np.array([[a[0], a[1], 0.0], [a[-1], a[0], a[1]]])
    assert np.allclose(calB, band, atol=1e-15)


def test_build_calB_o3_golden(rng):
    spec = ReconstructionSpec(3, 0, 0.4)
    for lam in rng.uniform(0.05, 1.0, size=12):
        s = template("o3")(float(lam))
        bc = BoundaryCondition.from_reconstruction(spec, s)
        golden = o3_calB_golden(float(lam))
        scale = 1.0 + np.abs(golden)
        assert np.max(np.abs(build_calB(bc.B, s) - golden) / scale) <= 1e-12


def test_build_calB_affine_in_B(rng):
    s = template("o3")(0.3)
    b1 = rng.standard_normal((2, 3))
    b2 = rng.standard_normal((2, 3))
    lhs = (
        build_calB(b1 + b2, s)
        - build_calB(b1, s)
        - build_calB(b2, s)
        + build_calB(np.zeros((2, 3)), s)
    )
    assert np.max(np.abs(lhs)) <= 1e-14


def _calB_by_bands(B, s):
    """T B + S from the separate ghost band T and interior band S, the old loops."""
    r, p = s.r, s.p
    m = B.shape[1]
    T = np.zeros((r, r))
    for i in range(r):
        for j in range(i, r):
            T[i, j] = s.coeffs[-r + (j - i)]
    S = np.zeros((r, m))
    for i in range(r):
        for j in range(m):
            if -r <= j - i <= p:
                S[i, j] = s.coeffs[j - i]
    return T @ B + S


@pytest.mark.parametrize("name", ["upwind", "naive_average", "o3", "lw5"])
def test_build_calB_matches_band_reference(name, rng):
    for lam in rng.uniform(0.05, 2.0, size=10):
        s = template(name)(float(lam))
        for m in range(s.r + s.p, s.r + s.p + 4):
            B = rng.uniform(-2.0, 2.0, size=(s.r, m))
            assert np.array_equal(build_calB(B, s), _calB_by_bands(B, s))


def test_build_calB_shape_guards():
    s = template("o3")(0.5)
    with pytest.raises(ShapeMismatch):
        build_calB(np.zeros((3, 3)), s)
    with pytest.raises(ShapeMismatch):
        build_calB(np.zeros((2, 2)), s)


@pytest.mark.parametrize("B", [np.zeros(2), np.zeros(()), np.zeros((1, 2, 2)), [0.5]])
def test_boundary_condition_rejects_a_ghost_matrix_that_is_not_2d(B):
    with pytest.raises(ShapeMismatch):
        BoundaryCondition(B)


def test_boundary_condition_converts_its_ghost_matrix():
    # B is converted as from_matrix converts it
    bc = BoundaryCondition([[0.5, 0.5]])
    assert bc.B.dtype == float and bc.m == 2
    assert np.array_equal(bc.B, [[0.5, 0.5]])


def test_build_calB_refuses_a_calB_that_overflows():
    # B is finite, but upwind's ghost weight a_{-1} = 1.5 at lambda 1.5 takes
    # 1.7e308 past the largest float
    with pytest.raises(ValueError) as info:
        build_calB(np.array([[1.7e308, 0.0]]), template("upwind")(1.5))
    assert str(info.value) == "ghost matrix B and its calB must be finite"


@pytest.mark.parametrize("d, k_d", [(144, -1), (150, 0), (20000, 0), (171, 169)])
@pytest.mark.parametrize("name", ["upwind", "o3", "lw5"])
def test_reconstruction_refuses_an_order_that_overflows(name, d, k_d):
    # the largest cell average's power (or d!) is beyond a double; the order
    # is refused by name before the (w, w) matrix is allocated
    s = template(name)(0.5)
    spec = ReconstructionSpec(d, k_d, 0.1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            BoundaryCondition.from_reconstruction(spec, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"order d = {d} overflows the cell averages"
    assert peak < 1_000_000
    v = check(template(name), spec, 0.5)
    assert v.status == STATUS_INVALID
    assert v.error == f"ValueError: order d = {d} overflows the cell averages"


def test_an_overflowing_order_with_a_numpy_sigma_is_refused_without_warning():
    # a numpy float sigma makes the guard's power a numpy scalar, which
    # overflows to inf with a RuntimeWarning instead of raising
    spec = ReconstructionSpec(144, 0, np.float64(0.49999999999999994))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(template("upwind"), spec, 1.0)
    assert v.error == "ValueError: order d = 144 overflows the cell averages"


def test_reconstruction_of_the_highest_order_that_fits_is_not_refused():
    # R143,-1 still builds its averages, at sigma = -1/2 too, where its largest
    # power is exactly 143^143: the order guard is not a cap
    spec = ReconstructionSpec(143, -1, -0.5)
    y_minus, y_plus = reconstruction_matrices(spec, 3)
    assert np.all(np.isfinite(y_minus)) and np.all(np.isfinite(y_plus))
    with pytest.raises(SingularYPlus):
        reconstruction_B(spec, 3, 143)


def test_column_norms_refuse_a_badly_scaled_y_plus_before_the_svd(monkeypatch):
    # R143,-1's column norms span 1e59: their ratio bounds the singular-value
    # ratio from above, so the refusal needs no SVD, and its message names it
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(SingularYPlus) as info:
        reconstruction_B(ReconstructionSpec(143, -1, 0.0), 3, 143)
    assert str(info.value).startswith("Y_plus column norms ")
    assert str(info.value).endswith(f"at or below ratio {SINGULAR_RATIO_MIN:.0e}")


def test_boundary_condition_from_reconstruction_minimal_m():
    s = template("o3")(0.5)
    bc = BoundaryCondition.from_reconstruction(ReconstructionSpec(3, 0, 0.4), s)
    assert bc.m == 3  # max(p+r, d-k_d-1) = max(3, 2)
    s5 = template("lw5")(0.5)
    bc5 = BoundaryCondition.from_reconstruction(ReconstructionSpec(6, 0, 0.1), s5)
    assert bc5.m == 5  # max(5, 5)


def test_boundary_built_at_one_lambda_checks_as_its_ghost_matrix_at_another():
    # built at 0.5, where a_{-2} = -0.0625, and checked at 2, where it is 1:
    # the calB of lambda 0.5 and that of lambda 2 differ by more than the
    # largest float, and the boundary reads what its B reads at 2
    B = np.zeros((2, 3))
    B[0, 0] = 1.7e308
    bc = BoundaryCondition.from_matrix(B, template("o3")(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(template("o3"), bc, 2.0)
        assert v == check(template("o3"), B, 2.0)
    assert v.status == STATUS_MARGINAL


def test_parse_boundary_text_reconstruction():
    spec = parse_boundary_text("reconstruction 3 0 0.4\n")
    assert spec == ReconstructionSpec(d=3, k_d=0, sigma=0.4)


def test_parse_boundary_text_matrix():
    mat = parse_boundary_text("matrix 1 2\n0.5 0.5\n")
    assert np.allclose(mat, [[0.5, 0.5]])
    with pytest.raises(ValueError):
        parse_boundary_text("matrix 2 2\n0.5 0.5\n")
    with pytest.raises(ValueError):
        parse_boundary_text("wedge 1 2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty boundary description"),
        ("reconstruction 3 0", "expected: reconstruction d k_d sigma"),
        ("matrix 2", "expected: matrix r m"),
        ("matrix 1 2\n1 2 3", "every matrix row must have 2 entries"),
    ],
)
def test_parse_boundary_text_refuses_a_malformed_text(text, message):
    with pytest.raises(ValueError) as info:
        parse_boundary_text(text)
    assert str(info.value) == message


def test_scheme_r_zero_boundary_needs_no_rows():
    s = Scheme(r=0, p=1, coeffs={0: 0.5, 1: 0.5}, lam=0.5)
    calB = build_calB(np.zeros((0, 1)), s)
    assert calB.shape == (0, 1)
