"""Simultaneous root finding, and a bound of min |p| on a circle from the roots.

Roots are found by Aberth-Ehrlich simultaneous iteration.  Initial radii come
from the Newton-diagram diagonal (adjacent coefficient ratios clipped to the
Cauchy root bounds), so polynomials whose root magnitudes span many orders
still converge within the sweep budget.  Roots at 0 and at infinity (runs of
zero low- or high-order coefficients) are split off exactly.  A batched
variant solves many same-degree polynomials; the scalar entry point delegates.
A polynomial is its row of complex coefficients in ascending degree order.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence

ROOT_TOL = 1e-12
ABERTH_MAX_SWEEPS = 200
_STEP_TOL = 1e-13


def _initial_guesses(monic_rows: np.ndarray) -> np.ndarray:
    """Initial guesses for each row of a (n, d+1) monic coefficient array.

    Radii come from adjacent coefficient ratios |c_k| / |c_{k+1}| (the Newton
    diagram diagonal), sorted and clipped to the Cauchy root bounds, so root
    groups of very different magnitude each receive a nearby walker.
    """
    n, w = monic_rows.shape
    d = w - 1
    mags = np.abs(monic_rows)
    upper = 1.0 + mags[:, :-1].max(axis=1)
    c0 = mags[:, 0]
    rest = np.maximum(mags[:, 1:].max(axis=1), 1e-300)
    lower = np.maximum(c0 / (c0 + rest), upper * 1e-6)
    # a tiny coefficient's ratio overflows, under the caller's errstate; clip caps it
    ratios = mags[:, :-1] / np.where(mags[:, 1:] == 0, 1e-300, mags[:, 1:])
    radii = np.sort(np.clip(ratios, lower[:, None], upper[:, None]), axis=1)
    ks = np.arange(d)
    angles = 2.0 * np.pi * ks / d + 0.7
    return radii * np.exp(1j * angles)[None, :]


def _horner_many(coeff_rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each (..., n, d+1) coefficient row evaluated at its row of x: (..., n, k)."""
    acc = np.zeros(coeff_rows.shape[:-1] + x.shape[-1:], dtype=complex)
    for k in range(coeff_rows.shape[-1] - 1, -1, -1):
        acc *= x
        acc += coeff_rows[..., k, None]
    return acc


def find_roots_many(coeff_rows: np.ndarray) -> np.ndarray:
    """Aberth-Ehrlich on a batch of same-degree polynomials.

    Parameters
    ----------
    coeff_rows : (n, d+1) complex array, ascending degree.

    Columns of zeros shared by the whole batch are exact roots: at the bottom
    roots at 0, returned as 0, at the top roots at infinity, dropped (d counts
    what is left).  A coefficient that is not finite, or a row whose own
    leading coefficient is zero, raises ValueError.  Each row starts from its
    Newton-diagram guesses and iterates until its own Aberth step falls below
    _STEP_TOL, so a row's roots depend only on its coefficients, bit for bit,
    whatever batch it is solved in.  Raises NonConvergence when a monic row is
    not finite or a backward-error residual max |P(x)| / sum_k |c_k||x|^k over
    a row's roots exceeds ROOT_TOL.

    Returns
    -------
    roots : (n, d) array, each row sorted by a stable complex sort, that is
        by (real, imag) with ties in place.
    """
    rows = np.asarray(coeff_rows, dtype=complex)
    if not np.isfinite(rows).all():
        raise ValueError("polynomial coefficients must be finite")
    top = rows.shape[1]
    while top > 1 and not rows[:, top - 1].any():
        top -= 1
    rows = rows[:, :top]
    n, w = rows.shape
    if w - 1 < 1:
        raise ValueError("degree must be >= 1")
    lead = rows[:, -1]
    if (lead == 0).any():
        raise ValueError("leading coefficient must be nonzero in every row")

    n_zero = 0
    while n_zero < w - 1 and not rows[:, n_zero].any():
        n_zero += 1
    rows = rows[:, n_zero:]
    d = rows.shape[1] - 1
    if d == 0:
        return np.zeros((n, w - 1), dtype=complex)
    active = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        monic = rows / lead[:, None]
        if not np.isfinite(monic).all():  # a subnormal leading coefficient
            tiny = lead[np.argmin(np.abs(lead))]
            raise NonConvergence(f"dividing by leading coefficient {tiny:.3e} overflows")
        x = _initial_guesses(monic)
        # p and p' in one Horner pass: monic rows over derivative rows whose
        # top coefficient is a zero, one (2, n, 1) column per degree, top first
        stacked = np.zeros((d + 1, 2, n, 1), dtype=complex)
        stacked[:, 0, :, 0] = monic.T
        stacked[:-1, 1, :, 0] = (monic[:, 1:] * np.arange(1, d + 1)[None, :]).T
        cols = list(stacked[::-1])
        xa = x
        for _ in range(ABERTH_MAX_SWEEPS):
            acc = np.zeros((2, len(xa), d), dtype=complex)
            for col in cols:
                acc *= xa
                acc += col
            p, dp = acc
            newton = p / np.where(dp == 0, 1e-300, dp)
            inv = xa[:, :, None] - xa[:, None, :]
            inv.reshape(len(xa), d * d)[:, :: d + 1] = np.inf
            np.divide(1.0, inv, out=inv)
            s = np.add.reduce(inv, axis=2)
            if np.isnan(s).any():
                s = np.nansum(inv, axis=2)
            denom = 1.0 - newton * s
            step = newton / np.where(denom == 0, 1e-300, denom)
            finite = np.isfinite(step)
            if not finite.all():
                step = np.where(finite, step, newton)
            xa = xa - step
            going = ~((np.abs(step) / (1.0 + np.abs(xa))).max(axis=1) <= _STEP_TOL)
            if not going.all():
                x[active] = xa
                if not going.any():
                    break
                active, xa = active[going], xa[going]
                cols = list(stacked[::-1, :, active])
        else:
            x[active] = xa

        p, scale = _horner_many(np.stack((monic, abs(monic))), np.stack((x, abs(x))))
        resid = np.abs(p) / np.where(scale.real == 0, 1.0, scale.real)
        worst = resid.max()  # nan where a root's d-th power overflows
    if not np.isfinite(x).all() or not (worst <= ROOT_TOL):
        raise NonConvergence(
            f"root iteration residual {worst:.3e} exceeds tol {ROOT_TOL:.3e}"
        )
    if n_zero:
        x = np.concatenate([np.zeros((n, n_zero), dtype=complex), x], axis=1)
    return np.sort(x, axis=1, kind="stable")


def find_roots(coeffs) -> np.ndarray:
    """All roots of the ascending coefficient row ``coeffs``, sorted by (real, imag);
    trailing zeros are roots at infinity, dropped, and a constant raises ValueError."""
    return find_roots_many(np.array([coeffs], dtype=complex))[0]


def min_modulus_on_circle(lead, roots, radii, center: complex, radius: float) -> float:
    """A lower bound of |p| on |x - center| = radius, p = lead prod_j (x - xi_j),
    each xi_j within radii[j] of roots[j]: |lead| prod_j max(0, ||roots[j] -
    center| - radius| - radii[j]) less its rounding, 0 if a disk meets the circle."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    dist, u = np.abs(np.asarray(roots) - center), np.finfo(float).eps
    gaps = np.abs(dist - radius) - radii - 4 * u * (dist + radius)
    return float(abs(lead) * np.maximum(gaps, 0.0).prod() * (1 - u * len(gaps)))
