"""Interior finite difference schemes: symbol, Cauchy check, characteristic polynomial.

A scheme U_j^{n+1} = sum_{k=-r}^{p} a_k U_{j+k}^n is stored with its stencil
widths (r, p), its coefficient map, and the CFL number it was built at.  The
built-in templates are the (unstable-in-practice but instructive) centered
average and three members of one rule, the degree r+p interpolant of
U_{j-r..j+p} at x_j - lambda dx: first-order upwind (1, 0), third-order
upwind-biased o3 (2, 1) and fifth-order Lax-Wendroff lw5 (3, 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite, prod
from typing import Callable, NamedTuple

import numpy as np

from .errors import SeparationFailure

CONSISTENCY_TOL = 1e-12
TOL_UNIT = 1e-9  # hersh_split's band; kldet's |z| floor
CAUCHY_SAMPLES = 4096
CAUCHY_TOL = 1e-10


@dataclass(frozen=True)
class Scheme:
    """Explicit one-step interior scheme with left width r and right width p.

    ``coeffs[k]`` is the weight of U_{j+k} for k in [-r, p].  Construction
    checks that they are real and finite and satisfy the zeroth-order
    consistency sum(a_k) = 1.  Real coefficients make sigma(conj z) the
    conjugate of sigma(z), so kl_curve traces only the upper half.  Extreme
    coefficients are normally nonzero; exact zeros are tolerated and the
    downstream pipeline handles the degeneracy.  The interpolation templates
    hit them at integer CFL numbers inside their stencils, where they are
    exactly the shift.

    Each instance keeps, from first use, what every boundary traced on it (a
    sweep's lambda row) reads: the ``cauchy`` report; ``build_calB``'s read-only
    ``stencil``, a_k at row i, column r+i+k; ``characteristic_polynomial``'s
    read-only ``char_row``; ``grid_sigmas``, the sigma(z) rows of
    ``kl_curve``'s initial grid, z = 1 to -1, by n_init.  None takes part in
    equality or the repr.
    """

    r: int
    p: int
    coeffs: dict[int, float]
    lam: float = 1.0
    grid_sigmas: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.r < 0 or self.p < 0:
            raise ValueError("stencil widths must be nonnegative")
        expected = set(range(-self.r, self.p + 1))
        if set(self.coeffs) != expected:
            raise ValueError(f"coefficient keys must be exactly {sorted(expected)}")
        values = np.asarray(list(self.coeffs.values()))
        if np.iscomplexobj(values) or not np.all(np.isfinite(values)):
            raise ValueError(
                f"coefficients must be real and finite (got {self.coeffs!r})"
            )
        total = sum(self.coeffs.values())
        if abs(total - 1.0) > CONSISTENCY_TOL:
            raise ValueError(f"coefficients must sum to 1 (got {total!r})")

    def coeff_array(self) -> np.ndarray:
        """Coefficients as a dense array indexed 0..r+p for k = -r..p."""
        return np.array([self.coeffs[k] for k in range(-self.r, self.p + 1)])

    @cached_property
    def cauchy(self) -> CauchyReport:
        a = self.coeff_array()
        nonzero = np.flatnonzero(a)
        if len(nonzero) == 1:  # a pure shift: |gamma| is |a_k| at every xi
            mod = abs(float(a[nonzero[0]]))
            return CauchyReport(mod <= 1.0 + CAUCHY_TOL, 0.0, mod)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: unstable
            mods = np.abs(np.fft.fft(a, CAUCHY_SAMPLES))
        i = int(np.argmax(mods))
        stable = bool(mods[i] <= 1.0 + CAUCHY_TOL)
        return CauchyReport(stable, 2.0 * np.pi * i / CAUCHY_SAMPLES, float(mods[i]))

    @cached_property
    def stencil(self) -> np.ndarray:
        rows = np.zeros((self.r, 2 * self.r + self.p))
        for i in range(self.r):
            rows[i, i : i + self.r + self.p + 1] = self.coeff_array()
        rows.setflags(write=False)
        return rows

    @cached_property
    def char_row(self) -> np.ndarray:
        row = self.coeff_array().astype(complex)
        row.setflags(write=False)
        return row


class CauchyReport(NamedTuple):
    stable: bool
    xi_worst: float
    max_modulus: float


def symbol(s: Scheme, xi: float) -> complex:
    """gamma(xi) = sum a_k exp(i k xi)."""
    return complex(sum(a * np.exp(1j * k * xi) for k, a in s.coeffs.items()))


def is_cauchy_stable(s: Scheme) -> CauchyReport:
    """Check max_xi |gamma(xi)| <= 1 + CAUCHY_TOL on CAUCHY_SAMPLES equispaced xi.

    The moduli come from one FFT of the coefficient array: entry i of the
    transform is exp(-i r xi_i) conj(gamma(xi_i)) at xi_i = 2 pi i / N, because
    the coefficients are real.  The worst is reported, once per instance as
    ``s.cauchy``, which a sweep row's cells share.  Where the maximum ties in
    rounding (xi and 2 pi - xi, or a flat maximum near xi = 0), ``xi_worst``
    may be any of the tied samples.  A pure shift, one nonzero coefficient,
    takes no FFT: |gamma| is that coefficient's modulus at every xi, reported
    exactly with ``xi_worst`` 0.
    """
    return s.cauchy


def characteristic_polynomial(s: Scheme, z) -> np.ndarray:
    """Ascending coefficients of P_z(kappa) = sum a_k kappa^{r+k} - z kappa^r: one
    row for a scalar z, one per z of a 1-D array.  Zero top coefficients (lw5's
    a_p at integer lambda) are roots at infinity, which the root finders drop."""
    zs = np.asarray(z, dtype=complex)
    rows = np.tile(s.char_row, zs.shape + (1,))
    rows[..., s.r] -= zs
    return rows


def hersh_split(s: Scheme, z: complex, roots) -> tuple[list[complex], list[complex]]:
    """Partition the roots of P_z into (inside D, outside D) for |z| > 1.

    Exactly r roots must fall strictly inside and p outside; a degree deficit of
    P_z (leading coefficients exactly zero) counts as outside roots at infinity.
    Raises SeparationFailure when a root is within TOL_UNIT of the unit circle
    or the counts disagree, which signals a Cauchy-stability violation.
    """
    if abs(z) <= 1.0 + TOL_UNIT:
        raise ValueError("hersh_split requires |z| > 1 + TOL_UNIT")
    inside, outside = [], []
    for x in roots:
        m = abs(x)
        if abs(m - 1.0) <= TOL_UNIT:
            raise SeparationFailure(f"root {x} lies on the unit circle band at z={z}")
        (inside if m < 1.0 else outside).append(x)
    deficit = (s.r + s.p) - len(roots)
    if len(inside) != s.r or len(outside) + deficit != s.p:
        raise SeparationFailure(
            f"expected ({s.r}, {s.p}) roots, found ({len(inside)}, "
            f"{len(outside)}+{deficit} at infinity) at z={z}"
        )
    return inside, outside


@dataclass(frozen=True)
class SchemeTemplate:
    """Named family of schemes parameterized by a finite, positive CFL number.

    Any other lambda, or one whose coefficients overflow, raises ValueError.
    """

    name: str
    builder: Callable[[float], Scheme]

    def __call__(self, lam: float) -> Scheme:
        if not 0 < lam < np.inf:
            raise ValueError(f"lambda must be finite and positive (got {lam!r})")
        try:
            return self.builder(lam)
        except OverflowError as exc:
            raise ValueError(f"coefficients overflow at lambda = {lam!r}") from exc


def _naive_average(lam: float) -> Scheme:
    return Scheme(r=1, p=1, coeffs={-1: 0.5, 0: 0.0, 1: 0.5}, lam=lam)


def _lagrange(r: int, p: int) -> Callable[[float], Scheme]:
    """Degree r+p interpolant of U_{j-r..j+p} at x_j - lambda dx; at an integer
    lambda in [-p, r] every factor is exact, so the scheme is exactly the shift."""
    nodes = range(-r, p + 1)

    def build(lam: float) -> Scheme:
        a = {k: prod((-lam - j) / (k - j) for j in nodes if j != k) for k in nodes}
        if not all(map(isfinite, a.values())):
            raise OverflowError(f"coefficients not finite at lambda = {lam!r}")
        return Scheme(r=r, p=p, coeffs=a, lam=lam)

    return build


TEMPLATES: dict[str, SchemeTemplate] = {
    "upwind": SchemeTemplate("upwind", _lagrange(1, 0)),
    "naive_average": SchemeTemplate("naive_average", _naive_average),
    "o3": SchemeTemplate("o3", _lagrange(2, 1)),
    "lw5": SchemeTemplate("lw5", _lagrange(3, 2)),
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
