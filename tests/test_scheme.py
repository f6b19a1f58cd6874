import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_roots
from klstab.errors import SeparationFailure
from klstab.poly import find_roots
from klstab.scheme import (
    CAUCHY_SAMPLES,
    CAUCHY_TOL,
    Scheme,
    _lagrange,
    characteristic_polynomial,
    hersh_split,
    is_cauchy_stable,
    parse_scheme_line,
    symbol,
    template,
)


def shift_scheme():
    return Scheme(r=1, p=0, coeffs={-1: 1.0, 0: 0.0}, lam=1.0)


def test_consistency_sum_enforced():
    with pytest.raises(ValueError):
        Scheme(r=1, p=0, coeffs={-1: 0.6, 0: 0.6})


def test_templates_consistent_at_random_lambda(rng):
    for name in ("upwind", "o3", "lw5"):
        tmpl = template(name)
        for lam in rng.uniform(0.01, 1.0, size=100):
            s = tmpl(float(lam))
            assert abs(sum(s.coeffs.values()) - 1.0) <= 1e-12


def test_symbol_at_zero_is_one(rng):
    for name in ("upwind", "naive_average", "o3", "lw5"):
        s = template(name)(float(rng.uniform(0.05, 1.0)))
        assert symbol(s, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_naive_average_symbol_is_cosine(rng):
    s = template("naive_average")(0.5)
    for xi in rng.uniform(-10, 10, size=20):
        assert symbol(s, float(xi)) == pytest.approx(np.cos(xi), abs=1e-12)


def test_upwind_symbol_at_full_cfl():
    s = template("upwind")(1.0)
    assert symbol(s, np.pi / 2) == pytest.approx(-1j, abs=1e-12)


def test_symbol_periodicity(rng):
    s = template("o3")(0.7)
    for xi in rng.uniform(0, 2 * np.pi, size=20):
        assert abs(symbol(s, float(xi)) - symbol(s, float(xi) + 2 * np.pi)) <= 1e-12


def test_cauchy_stable_cases():
    assert is_cauchy_stable(template("o3")(0.4)).stable
    assert is_cauchy_stable(template("lw5")(0.5)).stable


@pytest.mark.parametrize("name, lam", [("o3", 1.0), ("lw5", 1.0), ("lw5", 2.0)])
def test_cauchy_of_a_pure_shift_is_exact(name, lam):
    # one nonzero coefficient: |gamma| is 1 at every xi, no FFT rounding
    assert is_cauchy_stable(template(name)(lam)) == (True, 0.0, 1.0)


def test_cauchy_unstable_reports_offender():
    report = is_cauchy_stable(template("o3")(1.5))
    assert not report.stable
    assert report.max_modulus > 1.0
    dense = max(
        abs(symbol(template("o3")(1.5), xi))
        for xi in np.linspace(0, 2 * np.pi, 2000, endpoint=False)
    )
    assert report.max_modulus == pytest.approx(dense, rel=1e-3)


def _cauchy_by_exp_matrix(s):
    """(stable, max modulus) by the explicit exp(i k xi) matrix, the pre-FFT kernel."""
    xis = np.linspace(0.0, 2.0 * np.pi, CAUCHY_SAMPLES, endpoint=False)
    ks = np.arange(-s.r, s.p + 1)
    mods = np.abs(np.exp(1j * np.outer(xis, ks)) @ s.coeff_array().astype(complex))
    peak = float(np.max(mods))
    return peak <= 1.0 + CAUCHY_TOL, peak


@pytest.mark.parametrize("name", ["upwind", "o3", "lw5", "naive_average"])
def test_cauchy_fft_matches_exp_matrix(name):
    for lam in np.append(np.linspace(0.01, 2.0, 100), 1.0):
        s = template(name)(float(lam))
        report = is_cauchy_stable(s)
        stable, peak = _cauchy_by_exp_matrix(s)
        assert report.stable == stable
        assert report.max_modulus == pytest.approx(peak, rel=1e-15, abs=0)
        worst = abs(symbol(s, report.xi_worst))
        assert worst == pytest.approx(report.max_modulus, rel=1e-15, abs=0)


def test_characteristic_polynomial_shift():
    p = characteristic_polynomial(shift_scheme(), 2.0)
    assert p.tolist() == [1 + 0j, -2 + 0j]
    assert find_roots(p).tolist() == [0.5 + 0j]


def test_characteristic_polynomial_naive_average():
    p = characteristic_polynomial(template("naive_average")(0.5), 2.0)
    assert np.allclose(p, [0.5, -2.0, 0.5])
    roots = sorted(x.real for x in find_roots(p))
    assert roots == pytest.approx([2 - np.sqrt(3), 2 + np.sqrt(3)], abs=1e-12)


def test_characteristic_polynomial_kappa_r_coefficient(rng):
    for lam in rng.uniform(0.05, 1.0, size=10):
        s = template("o3")(float(lam))
        z = complex(rng.standard_normal(), rng.standard_normal())
        p = characteristic_polynomial(s, z)
        assert p[s.r] == pytest.approx(s.coeffs[0] - z, abs=1e-14)


def test_symbol_curve_is_unit_root_locus(rng):
    for name in ("o3", "lw5"):
        s = template(name)(0.6)
        for xi in rng.uniform(0, 2 * np.pi, size=20):
            z = symbol(s, float(xi))
            p = characteristic_polynomial(s, z)
            assert abs(np.polyval(p[::-1], np.exp(1j * xi))) <= 1e-10


def test_hersh_split_shift():
    s = shift_scheme()
    p = characteristic_polynomial(s, 2.0)
    inside, outside = hersh_split(s, 2.0, find_roots(p))
    assert inside == [0.5 + 0j]
    assert outside == []


def test_hersh_split_o3():
    s = template("o3")(0.4)
    rs = find_roots(characteristic_polynomial(s, 2.0))
    inside, outside = hersh_split(s, 2.0, rs)
    assert (len(inside), len(outside)) == (2, 1)
    oracle = np.abs(brute_roots(characteristic_polynomial(s, 2.0)))
    assert int(np.sum(oracle < 1)) == 2


def test_hersh_split_lw5():
    s = template("lw5")(0.5)
    z = 1.1 + 0.3j
    rs = find_roots(characteristic_polynomial(s, z))
    inside, outside = hersh_split(s, z, rs)
    assert (len(inside), len(outside)) == (3, 2)


def test_hersh_split_requires_exterior_z():
    s = template("o3")(0.4)
    rs = find_roots(characteristic_polynomial(s, 2.0))
    with pytest.raises(ValueError):
        hersh_split(s, 1.0, rs)


def test_hersh_split_flags_circle_roots():
    s = shift_scheme()
    rs = np.array([np.exp(0.3j)])
    with pytest.raises(SeparationFailure):
        hersh_split(s, 2.0, rs)


def test_hersh_property_suite(rng):
    for name in ("upwind", "naive_average", "o3", "lw5"):
        tmpl = template(name)
        for lam in rng.uniform(0.05, 1.0, size=5):
            s = tmpl(float(lam))
            radii = rng.uniform(1.01, 100.0, size=40)
            angles = rng.uniform(0, 2 * np.pi, size=40)
            for z in radii * np.exp(1j * angles):
                rs = find_roots(characteristic_polynomial(s, z))
                inside, outside = hersh_split(s, z, rs)
                assert len(inside) == s.r
                deficit = s.r + s.p - len(rs)
                assert len(outside) + deficit == s.p


def test_parse_scheme_line():
    s = parse_scheme_line("1 1 0.5 0.0 0.5")
    assert (s.r, s.p) == (1, 1)
    assert s.coeffs == {-1: 0.5, 0: 0.0, 1: 0.5}
    with pytest.raises(ValueError):
        parse_scheme_line("2 1 0.5 0.5")
    with pytest.raises(ValueError):
        parse_scheme_line("1 1 0.0 0.5 0.5")
    # a nan or infinite coefficient makes the sum nan, which the consistency
    # tolerance alone would let through
    for line in ("1 1 0.5 nan 0.5", "1 1 inf 0.5 -inf"):
        with pytest.raises(ValueError, match="finite"):
            parse_scheme_line(line)


INTERPOLATION_LAMBDAS = [0.05, 0.3, 0.37, 0.5, 0.9, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("name,r,p", [("upwind", 1, 0), ("o3", 2, 1), ("lw5", 3, 2)])
@pytest.mark.parametrize("lam", INTERPOLATION_LAMBDAS)
def test_template_coefficients_match_exact_interpolation(name, r, p, lam):
    # a_k = prod_{j != k} (-lambda - j) / (k - j) in rationals: a zero must be
    # exactly 0 (integer lambda), anything else within 1e-15 relative
    s = template(name)(lam)
    nodes = range(-r, p + 1)
    for k in nodes:
        exact = math.prod((Fraction(-lam) - j) / (k - j) for j in nodes if j != k)
        if exact == 0:
            assert s.coeffs[k] == 0
        else:
            assert abs(Fraction(s.coeffs[k]) / exact - 1) <= 1e-15


@pytest.mark.parametrize("lam", INTERPOLATION_LAMBDAS)
def test_lagrange_one_one_is_lax_wendroff(lam):
    s = _lagrange(1, 1)(lam)
    lax_wendroff = {-1: lam * (1 + lam) / 2, 0: 1 - lam**2, 1: -lam * (1 - lam) / 2}
    for k, a in lax_wendroff.items():
        assert s.coeffs[k] == pytest.approx(a, rel=1e-15, abs=0)


@pytest.mark.parametrize("name", ["o3", "lw5"])
def test_template_overflow_is_a_value_error(name):
    with pytest.raises(ValueError, match="coefficients overflow at lambda = 1e"):
        template(name)(1e200)


def test_template_lookup_case_insensitive():
    assert template("O3").name == "o3"
    assert template("LW5").name == "lw5"
    with pytest.raises(KeyError):
        template("nope")


def test_grid_sigmas_are_not_part_of_scheme_identity():
    a, b = template("o3")(0.5), template("o3")(0.5)
    a.grid_sigmas[64] = np.zeros((64, 2), dtype=complex)
    kept = ("cauchy", "stencil", "char_row")
    for name in kept:
        getattr(a, name)  # computed on first use, and kept on ``a`` alone
    assert not set(kept) & set(vars(b))
    assert a == b and "grid_sigmas" not in repr(a)
    assert not any(name in repr(a) for name in kept)
    assert list(a.grid_sigmas) == [64] and b.grid_sigmas == {}
    for kept_rows in (a.stencil, a.char_row):
        with pytest.raises(ValueError, match="read-only"):
            kept_rows[0] = 0.0
