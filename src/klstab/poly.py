"""Complex polynomials, simultaneous root finding, and disk root counting.

Roots are found by Aberth-Ehrlich simultaneous iteration.  Initial radii come
from the Newton-diagram diagonal (adjacent coefficient ratios clipped to the
Cauchy root bounds), so polynomials whose root magnitudes span many orders
still converge within the sweep budget.  Exact zero roots (a run of zero
low-order coefficients) are deflated analytically.  A batched variant solves
many same-degree polynomials at once; the scalar entry point delegates to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryAmbiguity, NonConvergence

DEFAULT_ROOT_TOL = 1e-12
ABERTH_MAX_SWEEPS = 200
_STEP_TOL = 1e-13


@dataclass(frozen=True)
class ComplexPolynomial:
    """Polynomial with complex coefficients in ascending degree order.

    Trailing (highest-degree) zero coefficients are trimmed on construction, so
    the leading coefficient is nonzero and ``degree == len(coefficients) - 1``.
    """

    coefficients: tuple[complex, ...]

    def __init__(self, coefficients):
        coeffs = [complex(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs or all(c == 0 for c in coeffs):
            raise ValueError("polynomial must have a nonzero coefficient")
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> "ComplexPolynomial":
        if self.degree == 0:
            return ComplexPolynomial([0.0])
        return ComplexPolynomial(
            [k * c for k, c in enumerate(self.coefficients)][1:]
        )

    def monic(self) -> "ComplexPolynomial":
        lead = self.coefficients[-1]
        return ComplexPolynomial([c / lead for c in self.coefficients])


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial, repetition for multiplicity.

    ``residual`` is the largest backward-error-normalized residual
    max |P(x)| / sum_k |c_k||x|^k over the returned roots (dimensionless).
    """

    roots: tuple[complex, ...]
    residual: float


def _initial_guesses(monic_rows: np.ndarray) -> np.ndarray:
    """Initial guesses for each row of a (n, d+1) monic coefficient array.

    Radii come from adjacent coefficient ratios |c_k| / |c_{k+1}| (the Newton
    diagram diagonal), sorted and clipped to the Cauchy root bounds, so root
    groups of very different magnitude each receive a nearby walker.
    """
    n, w = monic_rows.shape
    d = w - 1
    mags = np.abs(monic_rows)
    upper = 1.0 + np.max(mags[:, :-1], axis=1)
    c0 = mags[:, 0]
    rest = np.maximum(np.max(mags[:, 1:], axis=1), 1e-300)
    lower = np.maximum(c0 / (c0 + rest), upper * 1e-6)
    # a near-vanishing coefficient overflows its ratio; the clip caps it at upper
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = mags[:, :-1] / np.where(mags[:, 1:] == 0, 1e-300, mags[:, 1:])
    radii = np.sort(np.clip(ratios, lower[:, None], upper[:, None]), axis=1)
    ks = np.arange(d)
    angles = 2.0 * np.pi * ks / d + 0.7
    return radii * np.exp(1j * angles)[None, :]


def _horner_many(coeff_rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for k in range(coeff_rows.shape[1] - 1, -1, -1):
        acc = acc * x + coeff_rows[:, k, None]
    return acc


def find_roots_many(
    coeff_rows: np.ndarray,
    tol: float = DEFAULT_ROOT_TOL,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Aberth-Ehrlich on a batch of same-degree polynomials.

    Parameters
    ----------
    coeff_rows : (n, d+1) complex array, ascending degree, nonzero last column.
    tol : backward-error residual target.
    initial : optional warm-start guesses, shape (n, degree after deflating
        exact zero roots); distinct entries per row are the caller's duty.

    Returns
    -------
    roots : (n, d) array, each row sorted by (real, imag).
    residuals : (n,) worst normalized residual per row.
    """
    rows = np.asarray(coeff_rows, dtype=complex)
    n, w = rows.shape
    if w - 1 < 1:
        raise ValueError("degree must be >= 1")
    lead = rows[:, -1]
    if np.any(lead == 0):
        raise ValueError("leading coefficient must be nonzero in every row")

    # Exact zero roots (constant columns of zeros) are deflated analytically.
    n_zero = 0
    while n_zero < w - 1 and np.all(rows[:, n_zero] == 0):
        n_zero += 1
    full_degree = w - 1
    rows = rows[:, n_zero:]
    d = rows.shape[1] - 1
    if d == 0:
        zeros = np.zeros((n, full_degree), dtype=complex)
        return zeros, np.zeros(n)
    monic = rows / lead[:, None]
    dcoef = monic[:, 1:] * np.arange(1, d + 1)[None, :]

    x = _initial_guesses(monic) if initial is None else np.array(initial, dtype=complex)
    if x.shape != (n, d):
        raise ValueError("initial guesses must have shape (n, reduced degree)")

    eye = np.eye(d, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(ABERTH_MAX_SWEEPS):
            p = _horner_many(monic, x)
            dp = _horner_many(dcoef, x)
            newton = p / np.where(dp == 0, 1e-300, dp)
            diff = x[:, :, None] - x[:, None, :]
            diff[:, eye] = np.inf
            s = np.nansum(1.0 / diff, axis=2)
            denom = 1.0 - newton * s
            step = newton / np.where(denom == 0, 1e-300, denom)
            bad = ~np.isfinite(step)
            if np.any(bad):
                step = np.where(bad, newton, step)
            x = x - step
            if np.max(np.abs(step) / (1.0 + np.abs(x))) <= _STEP_TOL:
                break

    scale = np.zeros(x.shape, dtype=float)
    ax = np.abs(x)
    for k in range(d + 1):
        scale += np.abs(monic[:, k, None]) * ax**k
    resid = np.abs(_horner_many(monic, x)) / np.where(scale == 0, 1.0, scale)
    worst = resid.max(axis=1)
    if not np.all(np.isfinite(x)) or not (np.max(worst) <= tol):
        raise NonConvergence(
            f"root iteration residual {np.max(worst):.3e} exceeds tol {tol:.3e}"
        )
    if n_zero:
        x = np.concatenate([np.zeros((n, n_zero), dtype=complex), x], axis=1)
    order = np.lexsort((x.imag, x.real), axis=1)
    x = np.take_along_axis(x, order, axis=1)
    return x, worst


def find_roots(p: ComplexPolynomial, tol: float = DEFAULT_ROOT_TOL) -> RootSet:
    """All ``degree`` roots of ``p``, deterministic and sorted by (real, imag)."""
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    roots, resid = find_roots_many(
        np.array([p.coefficients], dtype=complex), tol=tol
    )
    return RootSet(roots=tuple(roots[0]), residual=float(resid[0]))


def count_roots_in_disk(
    p: ComplexPolynomial,
    center: complex,
    radius: float,
    roots: RootSet,
    tol: float = 1e-9,
) -> int:
    """Number of roots with |root − center| < radius.

    Raises BoundaryAmbiguity when a root sits within ``tol`` of the circle.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    count = 0
    for x in roots.roots:
        dist = abs(x - center)
        if abs(dist - radius) <= tol:
            raise BoundaryAmbiguity(
                f"root {x} is within {tol} of the counting circle"
            )
        if dist < radius:
            count += 1
    return count


def min_modulus_on_circle(
    p: ComplexPolynomial, center: complex, radius: float, n_samples: int = 512
) -> float:
    """min |p| over n_samples equispaced points of the circle |x − center| = radius."""
    if n_samples < 64:
        raise ValueError("n_samples must be >= 64")
    if radius <= 0:
        raise ValueError("radius must be positive")
    thetas = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    pts = center + radius * np.exp(1j * thetas)
    vals = _horner_many(np.array([p.coefficients], dtype=complex), pts[None, :])
    return float(np.min(np.abs(vals)))
