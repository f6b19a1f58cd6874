"""Interior finite difference schemes: symbol, Cauchy check, characteristic polynomial.

A scheme U_j^{n+1} = sum_{k=-r}^{p} a_k U_{j+k}^n is stored with its stencil
widths (r, p), its coefficient map, and the CFL number it was built at.  The
built-in templates cover the first-order upwind scheme, the (unstable-in-practice
but instructive) centered average, the third-order upwind-biased scheme and the
fifth-order Lax-Wendroff scheme, each as polynomial functions of the CFL number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import SeparationFailure
from .poly import ComplexPolynomial, RootSet

CONSISTENCY_TOL = 1e-12
TOL_UNIT = 1e-9


@dataclass(frozen=True)
class Scheme:
    """Explicit one-step interior scheme with left width r and right width p.

    ``coeffs[k]`` is the weight of U_{j+k} for k in [-r, p].  Construction
    checks the zeroth-order consistency sum(a_k) = 1.  Extreme coefficients are
    normally nonzero; exact zeros are tolerated because template families hit
    them at isolated CFL values (the third-order scheme degenerates to the pure
    shift at lambda = 1) and the downstream pipeline handles the degeneracy.
    """

    r: int
    p: int
    coeffs: dict[int, float]
    lam: float = 1.0

    def __post_init__(self):
        if self.r < 0 or self.p < 0:
            raise ValueError("stencil widths must be nonnegative")
        expected = set(range(-self.r, self.p + 1))
        if set(self.coeffs) != expected:
            raise ValueError(f"coefficient keys must be exactly {sorted(expected)}")
        total = sum(self.coeffs.values())
        if abs(total - 1.0) > CONSISTENCY_TOL:
            raise ValueError(f"coefficients must sum to 1 (got {total!r})")

    def coeff_array(self) -> np.ndarray:
        """Coefficients as a dense array indexed 0..r+p for k = -r..p."""
        return np.array([self.coeffs[k] for k in range(-self.r, self.p + 1)])


class CauchyReport(NamedTuple):
    stable: bool
    xi_worst: float
    max_modulus: float


def symbol(s: Scheme, xi: float) -> complex:
    """gamma(xi) = sum a_k exp(i k xi)."""
    return complex(sum(a * np.exp(1j * k * xi) for k, a in s.coeffs.items()))


def symbol_many(s: Scheme, xis: np.ndarray) -> np.ndarray:
    ks = np.arange(-s.r, s.p + 1)
    return np.exp(1j * np.outer(xis, ks)) @ s.coeff_array().astype(complex)


def is_cauchy_stable(
    s: Scheme, n_samples: int = 4096, tol: float = 1e-10
) -> CauchyReport:
    """Check max_xi |gamma(xi)| <= 1 + tol on a dense grid, reporting the worst offender."""
    if n_samples < 256:
        raise ValueError("n_samples must be >= 256")
    xis = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    mods = np.abs(symbol_many(s, xis))
    i = int(np.argmax(mods))
    return CauchyReport(bool(mods[i] <= 1.0 + tol), float(xis[i]), float(mods[i]))


def characteristic_coefficients(s: Scheme, z: complex) -> np.ndarray:
    """Ascending coefficients of P_z(kappa) = sum a_k kappa^{r+k} - z kappa^r."""
    cs = np.zeros(s.r + s.p + 1, dtype=complex)
    for k, a in s.coeffs.items():
        cs[s.r + k] += a
    cs[s.r] -= z
    return cs


def characteristic_polynomial(s: Scheme, z: complex) -> ComplexPolynomial:
    return ComplexPolynomial(characteristic_coefficients(s, z))


def hersh_split(
    s: Scheme, z: complex, roots: RootSet, tol_unit: float = TOL_UNIT
) -> tuple[list[complex], list[complex]]:
    """Partition characteristic roots into (inside D, outside D) for |z| > 1.

    Exactly r roots must fall strictly inside and p outside; a degree deficit of
    P_z (leading coefficients exactly zero) counts as outside roots at infinity.
    Raises SeparationFailure when a root is within tol_unit of the unit circle
    or the counts disagree, which signals a Cauchy-stability violation.
    """
    if abs(z) <= 1.0 + tol_unit:
        raise ValueError("hersh_split requires |z| > 1 + tol_unit")
    inside, outside = [], []
    for x in roots.roots:
        m = abs(x)
        if abs(m - 1.0) <= tol_unit:
            raise SeparationFailure(f"root {x} lies on the unit circle band at z={z}")
        (inside if m < 1.0 else outside).append(x)
    deficit = (s.r + s.p) - len(roots.roots)
    if len(inside) != s.r or len(outside) + deficit != s.p:
        raise SeparationFailure(
            f"expected ({s.r}, {s.p}) roots, found ({len(inside)}, "
            f"{len(outside)}+{deficit} at infinity) at z={z}"
        )
    return inside, outside


@dataclass(frozen=True)
class SchemeTemplate:
    """Named family of schemes parameterized by the CFL number."""

    name: str
    builder: Callable[[float], Scheme]

    def __call__(self, lam: float) -> Scheme:
        return self.builder(lam)


def _upwind(lam: float) -> Scheme:
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return Scheme(r=1, p=0, coeffs={-1: lam, 0: 1.0 - lam}, lam=lam)


def _naive_average(lam: float) -> Scheme:
    return Scheme(r=1, p=1, coeffs={-1: 0.5, 0: 0.0, 1: 0.5}, lam=lam)


def _o3(lam: float) -> Scheme:
    if lam <= 0:
        raise ValueError("lambda must be positive")
    coeffs = {
        -2: lam**3 / 6 - lam / 6,
        -1: lam + lam**2 / 2 - lam**3 / 2,
        0: 1 - lam / 2 - lam**2 + lam**3 / 2,
        1: lam**2 / 2 - lam**3 / 6 - lam / 3,
    }
    return Scheme(r=2, p=1, coeffs=coeffs, lam=lam)


def _lw5(lam: float) -> Scheme:
    if lam <= 0:
        raise ValueError("lambda must be positive")
    coeffs = {
        -3: lam * (lam - 2) * (lam - 1) * (lam + 1) * (lam + 2) / 120,
        -2: -lam * (lam - 1) * (lam - 3) * (lam + 1) * (lam + 2) / 24,
        -1: lam * (lam - 2) * (lam - 3) * (lam + 1) * (lam + 2) / 12,
        0: 1 - lam * (lam**4 - 3 * lam**3 - 5 * lam**2 + 15 * lam + 4) / 12,
        1: lam * (lam - 1) * (lam - 2) * (lam - 3) * (lam + 2) / 24,
        2: -lam * (lam - 1) * (lam - 2) * (lam - 3) * (lam + 1) / 120,
    }
    return Scheme(r=3, p=2, coeffs=coeffs, lam=lam)


TEMPLATES: dict[str, SchemeTemplate] = {
    "upwind": SchemeTemplate("upwind", _upwind),
    "naive_average": SchemeTemplate("naive_average", _naive_average),
    "o3": SchemeTemplate("o3", _o3),
    "lw5": SchemeTemplate("lw5", _lw5),
}


def template(name: str) -> SchemeTemplate:
    key = name.lower()
    if key not in TEMPLATES:
        raise KeyError(f"unknown scheme template {name!r}; have {sorted(TEMPLATES)}")
    return TEMPLATES[key]


def parse_scheme_line(line: str, lam: float = 1.0) -> Scheme:
    """Parse the custom scheme text format: ``r p a_{-r} ... a_p``."""
    parts = line.split()
    if len(parts) < 3:
        raise ValueError("scheme line needs at least: r p a_{-r} ... a_p")
    r, p = int(parts[0]), int(parts[1])
    vals = [float(t) for t in parts[2:]]
    if len(vals) != r + p + 1:
        raise ValueError(
            f"expected {r + p + 1} coefficients for r={r}, p={p}, got {len(vals)}"
        )
    coeffs = {k: vals[i] for i, k in enumerate(range(-r, p + 1))}
    if r >= 1 and coeffs[-r] == 0:
        raise ValueError("a_{-r} must be nonzero")
    if p >= 1 and coeffs[p] == 0:
        raise ValueError("a_p must be nonzero")
    return Scheme(r=r, p=p, coeffs=coeffs, lam=lam)


def custom_template(path: str) -> SchemeTemplate:
    """Template wrapping a fixed-coefficient scheme read from a one-line file."""
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()

    def build(lam: float) -> Scheme:
        return parse_scheme_line(line, lam=lam)

    return SchemeTemplate(f"custom:{path}", build)
