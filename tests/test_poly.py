import warnings

import numpy as np
import pytest

from conftest import brute_roots
from klstab.errors import NonConvergence
from klstab.kldet import _char_rows
from klstab.poly import (
    ComplexPolynomial,
    find_roots,
    find_roots_many,
    min_modulus_on_circle,
)
from klstab.scheme import characteristic_polynomial, template


def test_construction_trims_leading_zeros():
    p = ComplexPolynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coefficients == (1 + 0j, 2 + 0j)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        ComplexPolynomial([0, 0])
    with pytest.raises(ValueError):
        ComplexPolynomial([])


def test_factorized_quadratic():
    rs = find_roots(ComplexPolynomial([-1, 0, 1]))
    assert rs.roots == (-1 + 0j, 1 + 0j)
    assert rs.residual <= 1e-12


def test_triple_root_at_origin():
    rs = find_roots(ComplexPolynomial([0, 0, 0, 1]))
    assert rs.roots == (0j, 0j, 0j)
    assert rs.residual == 0.0


def test_find_roots_many_drops_shared_zero_top_columns():
    # (x - 1)(x - 2) and (x - 2)(x - 3), each with a root at 0 and two at
    # infinity: the zero columns shared by the batch are exact roots
    rows = np.array([[0, 2, -3, 1, 0, 0], [0, 6, -5, 1, 0, 0]], dtype=complex)
    roots, resid = find_roots_many(rows)
    trimmed_roots, trimmed_resid = find_roots_many(rows[:, :4])
    assert np.array_equal(roots, trimmed_roots)
    assert np.array_equal(resid, trimmed_resid)
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
    c = p.coefficients
    d = p.degree
    total = sum(rs.roots)
    prod = np.prod(np.array(rs.roots))
    assert abs(total + c[d - 1] / c[d]) <= 1e-10 * (1 + abs(c[d - 1] / c[d]))
    assert abs(prod - (-1) ** d * c[0] / c[d]) <= 1e-10 * (1 + abs(c[0] / c[d]))


def test_vieta_property_random(rng):
    for _ in range(40):
        d = int(rng.integers(2, 7))
        coeffs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] += 1.0
        p = ComplexPolynomial(coeffs)
        rs = find_roots(p)
        c = p.coefficients
        ratio1 = c[d - 1] / c[d]
        ratio0 = c[0] / c[d]
        assert abs(sum(rs.roots) + ratio1) <= 1e-8 * (1 + abs(ratio1))
        prod = np.prod(np.array(rs.roots))
        assert abs(prod - (-1) ** d * ratio0) <= 1e-8 * (1 + abs(ratio0))


def test_permutation_stability():
    p = ComplexPolynomial([2, -3j, 0.5, 1 + 1j, 1])
    first = find_roots(p).roots
    for _ in range(3):
        assert find_roots(p).roots == first


def test_count_roots_o3_unit_disk_matches_brute_force():
    s = template("o3")(0.4)
    p = characteristic_polynomial(s, 2.0)
    rs = find_roots(p)
    oracle = np.sum(np.abs(brute_roots(p.coefficients)) < 1.0)
    assert sum(abs(x) < 1.0 for x in rs.roots) == oracle == s.r


def test_min_modulus_identity():
    assert min_modulus_on_circle(ComplexPolynomial([0, 1]), 0.0, 1.0) == pytest.approx(1.0)


def test_min_modulus_shifted_linear():
    assert min_modulus_on_circle(ComplexPolynomial([-1, 1]), 1.0, 0.5) == pytest.approx(0.5)


def test_min_modulus_oversampling_oracle():
    # the ROUCHE_SAMPLES-point minimum against a 4096-point evaluation
    p = ComplexPolynomial([-1, 0, 1])
    pts = 1.0 + 0.5 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    fine = float(np.min(np.abs(pts**2 - 1)))
    coarse = min_modulus_on_circle(p, 1.0, 0.5)
    assert abs(coarse - fine) <= 1e-3 * fine


def test_roots_match_brute_force_random(rng):
    for _ in range(25):
        d = int(rng.integers(2, 6))
        coeffs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        coeffs[-1] = 1.0
        rs = find_roots(ComplexPolynomial(coeffs))
        mine = np.array(sorted(rs.roots, key=lambda x: (x.real, x.imag)))
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
    rows = _char_rows(template(name)(lam), zs)
    full = find_roots_many(rows)[0]
    sub = find_roots_many(rows[3::7])[0]
    assert np.array_equal(full[3::7], sub)
    for i in range(len(zs)):
        assert np.array_equal(find_roots_many(rows[i : i + 1])[0][0], full[i]), i
