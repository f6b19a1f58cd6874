import warnings

import numpy as np
import pytest

from conftest import brute_roots
from klstab.errors import NonConvergence
from klstab.poly import find_roots, find_roots_many, min_modulus_on_circle
from klstab.scheme import characteristic_polynomial, template


def test_construction_trims_leading_zeros():
    # trailing (highest-degree) zeros are roots at infinity, dropped
    assert find_roots([1, 2, 0, 0]).tolist() == [-0.5 + 0j]


def test_zero_polynomial_rejected():
    for coeffs in ([0, 0], [], [3]):
        with pytest.raises(ValueError):
            find_roots(coeffs)


def test_factorized_quadratic():
    assert find_roots([-1, 0, 1]).tolist() == [-1 + 0j, 1 + 0j]


def test_triple_root_at_origin():
    assert find_roots([0, 0, 0, 1]).tolist() == [0j, 0j, 0j]


def test_find_roots_many_drops_shared_zero_top_columns():
    # (x - 1)(x - 2) and (x - 2)(x - 3), each with a root at 0 and two at
    # infinity: the zero columns shared by the batch are exact roots
    rows = np.array([[0, 2, -3, 1, 0, 0], [0, 6, -5, 1, 0, 0]], dtype=complex)
    roots = find_roots_many(rows)
    assert np.array_equal(roots, find_roots_many(rows[:, :4]))
    assert roots.shape == (2, 3) and np.all(roots[:, 0] == 0)
    assert np.allclose(roots[:, 1:], [[1, 2], [2, 3]], atol=1e-12)
    # a row whose own leading coefficient is zero still raises
    rows[1, 4] = 1.0
    with pytest.raises(ValueError, match="leading coefficient"):
        find_roots_many(rows)


def test_subnormal_leading_coefficient_raises_without_warning():
    # the monic rows are not finite: the batch is refused, naming its
    # smallest leading coefficient
    rows = np.array([[1.0, 1.0, 1e-310], [1.0, -2.0, -5e-324]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence) as exc:
            find_roots_many(rows)
    assert str(exc.value) == (
        "dividing by leading coefficient -4.941e-324+0.000e+00j overflows"
    )


def test_o3_characteristic_vieta():
    p = characteristic_polynomial(template("o3")(0.4), 2.0)
    rs = find_roots(p)
    c = p
    d = len(p) - 1
    total = sum(rs)
    prod = np.prod(rs)
    assert abs(total + c[d - 1] / c[d]) <= 1e-10 * (1 + abs(c[d - 1] / c[d]))
    assert abs(prod - (-1) ** d * c[0] / c[d]) <= 1e-10 * (1 + abs(c[0] / c[d]))


def test_vieta_property_random(rng):
    for _ in range(40):
        d = int(rng.integers(2, 7))
        coeffs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] += 1.0
        rs = find_roots(coeffs)
        c = coeffs
        ratio1 = c[d - 1] / c[d]
        ratio0 = c[0] / c[d]
        assert abs(sum(rs) + ratio1) <= 1e-8 * (1 + abs(ratio1))
        prod = np.prod(rs)
        assert abs(prod - (-1) ** d * ratio0) <= 1e-8 * (1 + abs(ratio0))


def test_permutation_stability():
    p = [2, -3j, 0.5, 1 + 1j, 1]
    first = find_roots(p)
    for _ in range(3):
        assert np.array_equal(find_roots(p), first)


def test_count_roots_o3_unit_disk_matches_brute_force():
    s = template("o3")(0.4)
    p = characteristic_polynomial(s, 2.0)
    rs = find_roots(p)
    oracle = np.sum(np.abs(brute_roots(p)) < 1.0)
    assert sum(abs(x) < 1.0 for x in rs) == oracle == s.r


def test_min_modulus_identity():
    assert min_modulus_on_circle(1.0, [0.0], [0.0], 0.0, 1.0) == pytest.approx(1.0)


def test_min_modulus_shifted_linear():
    assert min_modulus_on_circle(1.0, [1.0], [0.0], 1.0, 0.5) == pytest.approx(0.5)


def test_min_modulus_oversampling_oracle():
    # the bound from the roots +-1 of x^2 - 1, each taken within 1e-4, against
    # a 4096-point evaluation: never above it, and within 1e-3 of it
    pts = 1.0 + 0.5 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    fine = float(np.min(np.abs(pts**2 - 1)))
    bound = min_modulus_on_circle(1.0, [-1.0, 1.0], [1e-4, 1e-4], 1.0, 0.5)
    assert fine - 1e-3 * fine <= bound <= fine


def test_roots_match_brute_force_random(rng):
    for _ in range(25):
        d = int(rng.integers(2, 6))
        coeffs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        coeffs[-1] = 1.0
        rs = find_roots(coeffs)
        mine = np.array(sorted(rs, key=lambda x: (x.real, x.imag)))
        ref = np.array(sorted(brute_roots(coeffs), key=lambda x: (x.real, x.imag)))
        assert np.max(np.abs(mine - ref)) <= 1e-7 * (1 + np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "name, lam",
    [("upwind", 0.7), ("o3", 0.5), ("o3", 1.0), ("lw5", 0.7), ("lw5", 1.0)],
)
def test_find_roots_many_rows_are_batch_independent(name, lam):
    # each row stops on its own step, so it is solved bit for bit alike alone,
    # in a sub-batch and in the full 256-point batch
    zs = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False))
    rows = characteristic_polynomial(template(name)(lam), zs)
    full = find_roots_many(rows)
    sub = find_roots_many(rows[3::7])
    assert np.array_equal(full[3::7], sub)
    for i in range(len(zs)):
        assert np.array_equal(find_roots_many(rows[i : i + 1])[0], full[i]), i


def test_stable_complex_sort_is_the_real_then_imag_lexsort():
    # the order find_roots_many returns: ties in the real part, -0.0 and
    # +0.0 included, fall to the imaginary part, and equal keys keep their
    # places
    x = np.array(
        [[1j, complex(-0.0, -1.0), complex(-0.0, 1.0), -2.0, complex(0.0, -1.0), 1j]]
    )
    order = np.lexsort((x.imag, x.real), axis=1)
    lex = np.take_along_axis(x, order, axis=1)
    assert np.sort(x, axis=1, kind="stable").tobytes() == lex.tobytes()
    # roots 0 (split off), +-i and -2 of x^4 + 2 x^3 + x^2 + 2 x
    roots = find_roots_many(np.array([[0, 2, 1, 2, 1]], dtype=complex))
    order = np.lexsort((roots.imag, roots.real), axis=1)
    assert roots.tobytes() == np.take_along_axis(roots, order, axis=1).tobytes()
    assert all(np.min(np.abs(roots - r)) <= 1e-12 for r in (-2, -1j, 0, 1j))


@pytest.mark.parametrize("name", ["upwind", "o3", "lw5"])
@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_characteristic_rows_are_the_scalar_rows(name, lam):
    # one builder of P_z: each row of the batch is the scalar row, bit for
    # bit, and find_roots of it is the batch solve's row
    s = template(name)(lam)
    zs = np.concatenate(
        (np.exp(1j * np.linspace(0.0, np.pi, 129)), [1.5, -2.0 + 0.5j, 1e-3j])
    )
    rows = characteristic_polynomial(s, zs)
    batch = find_roots_many(rows)
    assert rows.shape == (len(zs), s.r + s.p + 1)
    for i, z in enumerate(zs):
        row = characteristic_polynomial(s, z)
        assert row.shape == (s.r + s.p + 1,)
        assert row.tobytes() == rows[i].tobytes(), i
        assert find_roots(row).tobytes() == batch[i].tobytes(), i


@pytest.mark.parametrize(
    "coeffs", [[1, np.nan, 1], [1, 2, np.inf], [complex(1, np.nan), 1]]
)
def test_find_roots_many_refuses_coefficients_that_are_not_finite(coeffs):
    # refused as such, not blamed on the leading coefficient it would spoil
    with pytest.raises(ValueError) as exc:
        find_roots_many(np.array([coeffs], dtype=complex))
    assert str(exc.value) == "polynomial coefficients must be finite"
