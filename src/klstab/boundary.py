"""Boundary matrices: ghost extrapolation B, its eliminated form, and reconstructions.

A ``BoundaryCondition`` is its ghost matrix B: the r ghost values (U_{-r}, ...,
U_{-1}) as combinations of the first m interior values.  Substituting them into
the first r interior updates, one stencil matrix over the ghost and interior
columns, gives the r x m matrix calB with (U_0, ..., U_{r-1})^{n+1} = calB
(U_0, ..., U_{m-1})^n for zero boundary data.  calB depends on lambda, so
``build_calB`` makes it per scheme.

The reconstruction procedure of order d with k_d time-derivative substitutions
handles a physical boundary offset by sigma*dx from grid point 0: ghost and
interior cell averages of a Taylor polynomial about the boundary give two
matrices Y_minus (ghost rows) and Y_plus (interior rows), and B = Y_minus
Y_plus^{-1} zero-padded to width m.  B comes from a library solve; a
singular-value ratio test on Y_plus, preceded by a column-norm ratio test
that spares a badly scaled Y_plus its SVD, rejects a numerically singular
system first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SingularYPlus
from .scheme import Scheme

SINGULAR_RATIO_MIN = 1e-13
_NOT_FINITE = "ghost matrix B and its calB must be finite"


@dataclass(frozen=True)
class ReconstructionSpec:
    """Reconstruction boundary of order d, derivative index k_d, grid offset sigma.

    k_d = -1 means pure extrapolation (no boundary-datum derivatives used).
    The interior system has width d - k_d - 1, which must be >= 1.
    """

    d: int
    k_d: int
    sigma: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("order d must be >= 1")
        if not (-1 <= self.k_d < self.d):
            raise ValueError("k_d must satisfy -1 <= k_d < d")
        if self.width < 1:
            raise ValueError("d - k_d - 1 must be >= 1")
        if not (-0.5 <= self.sigma < 0.5):
            raise ValueError("sigma must lie in [-1/2, 1/2)")

    @property
    def width(self) -> int:
        return self.d - self.k_d - 1


def _avg_power(x: float, e: int, sigma: float) -> float:
    """Cell average of (y - sigma)^(e-1)/(e-1)! over [x - 1/2, x + 1/2]."""
    return ((x + 0.5 - sigma) ** e - (x - 0.5 - sigma) ** e) / math.factorial(e)


def reconstruction_matrices(
    spec: ReconstructionSpec, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ghost-side and interior-side Taylor-average matrices (Y_minus, Y_plus)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    w, d, sigma = spec.width, spec.d, spec.sigma
    try:  # the largest power and factorial below, tried before Y_plus is allocated
        float(max(w - 0.5 - sigma, r + 0.5 + sigma)) ** d / math.factorial(d)
    except OverflowError:
        raise ValueError(f"order d = {d} overflows the cell averages") from None
    y_minus = np.empty((r, w))
    y_plus = np.empty((w, w))
    for j in range(1, w + 1):
        e = j + spec.k_d + 1
        for i in range(1, r + 1):
            y_minus[i - 1, j - 1] = _avg_power(-(r - i + 1), e, spec.sigma)
        for i in range(1, w + 1):
            y_plus[i - 1, j - 1] = _avg_power(i - 1, e, spec.sigma)
    return y_minus, y_plus


def reconstruction_B(spec: ReconstructionSpec, r: int, m: int) -> np.ndarray:
    """B = Y_minus Y_plus^{-1} in the first d-k_d-1 columns, zero-padded to width m.

    The library solve runs behind a singular-value guard: SingularYPlus is
    raised when Y_plus's smallest singular value is at most SINGULAR_RATIO_MIN
    times its largest.  Every column norm lies between those two, so a ratio
    of smallest to largest column norm at or below SINGULAR_RATIO_MIN already
    certifies that refusal, and is refused before the SVD.
    """
    w = spec.width
    if m < w:
        raise ShapeMismatch(f"m={m} must be >= d-k_d-1={w}")
    y_minus, y_plus = reconstruction_matrices(spec, r)
    norms = np.linalg.norm(y_plus, axis=0)
    if norms.min() <= SINGULAR_RATIO_MIN * norms.max():
        raise SingularYPlus(
            f"Y_plus column norms {norms.min():.3e} / {norms.max():.3e} "
            f"at or below ratio {SINGULAR_RATIO_MIN:.0e}"
        )
    sv = np.linalg.svd(y_plus, compute_uv=False)
    if sv[-1] <= SINGULAR_RATIO_MIN * sv[0]:
        raise SingularYPlus(
            f"Y_plus singular values {sv[-1]:.3e} / {sv[0]:.3e} "
            f"at or below ratio {SINGULAR_RATIO_MIN:.0e}"
        )
    out = np.zeros((r, m))
    out[:, :w] = np.linalg.solve(y_plus.T, y_minus.T).T
    return out


def _fit(B, s: Scheme) -> np.ndarray:
    """B as a float array, if it is r x m with m >= p + r for scheme s."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != s.r:
        raise ShapeMismatch(f"B must be r x m with r={s.r}, got {B.shape}")
    if B.shape[1] < s.p + s.r:
        raise ShapeMismatch(f"m={B.shape[1]} must be >= p+r={s.p + s.r}")
    return B


def build_calB(B: np.ndarray, s: Scheme) -> np.ndarray:
    """Eliminate ghosts: calB = A[:, :r] B + A[:, r:]; B must fit s, calB be finite.

    A is the r x (r+m) stencil of the first r interior updates over the
    columns (U_{-r}, ..., U_{-1}, U_0, ..., U_{m-1}), zero past the scheme's
    ``stencil`` columns.  Its ghost block multiplies B, its interior block is added.
    """
    B = _fit(B, s)
    r = s.r
    A = np.concatenate((s.stencil, np.zeros((r, B.shape[1] - r - s.p))), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        calB = A[:, :r] @ B + A[:, r:]
    if not np.all(np.isfinite(calB)):
        raise ValueError(_NOT_FINITE)
    return calB


@dataclass(frozen=True, eq=False)
class BoundaryCondition:
    """Finite ghost matrix B (r x m): (U_{-r}, ..., U_{-1}) = B (U_0, ..., U_{m-1}).

    B does not depend on lambda: one boundary holds at every lambda of a scheme
    whose widths it fits, and ``build_calB(bc.B, s)`` is its calB on scheme s.
    """

    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", np.asarray(self.B, dtype=float))
        if self.B.ndim != 2:
            raise ShapeMismatch(f"B must be r x m, got {self.B.shape}")
        if not np.all(np.isfinite(self.B)):
            raise ValueError(_NOT_FINITE)

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @classmethod
    def from_matrix(cls, B: np.ndarray, s: Scheme) -> "BoundaryCondition":
        """Boundary of ghost matrix B, which must fit s (``build_calB``'s rule)."""
        return cls(_fit(B, s))

    @classmethod
    def from_reconstruction(
        cls, spec: ReconstructionSpec, s: Scheme
    ) -> "BoundaryCondition":
        return cls(reconstruction_B(spec, s.r, max(s.p + s.r, spec.width)))


def parse_boundary_text(text: str) -> "ReconstructionSpec | np.ndarray":
    """Parse the boundary text format.

    Either ``reconstruction d k_d sigma`` (one line) or ``matrix r m`` followed
    by r rows of m finite decimals; returns a ReconstructionSpec or a raw B
    matrix.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty boundary description")
    head = lines[0].split()
    if head[0] == "reconstruction":
        if len(head) != 4:
            raise ValueError("expected: reconstruction d k_d sigma")
        return ReconstructionSpec(d=int(head[1]), k_d=int(head[2]), sigma=float(head[3]))
    if head[0] == "matrix":
        if len(head) != 3:
            raise ValueError("expected: matrix r m")
        r, m = int(head[1]), int(head[2])
        if len(lines) - 1 != r:
            raise ValueError(f"expected {r} matrix rows, got {len(lines) - 1}")
        rows = [[float(t) for t in ln.split()] for ln in lines[1:]]
        if any(len(row) != m for row in rows):
            raise ValueError(f"every matrix row must have {m} entries")
        if not np.all(np.isfinite(rows)):
            raise ValueError("matrix entries must be finite")
        return np.array(rows)
    raise ValueError(f"unknown boundary keyword {head[0]!r}")
