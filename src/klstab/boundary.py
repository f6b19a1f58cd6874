"""Boundary matrices: ghost extrapolation B, its eliminated form, and reconstructions.

The raw matrix B expresses the r ghost values (U_{-r}, ..., U_{-1}) as linear
combinations of the first m interior values.  Substituting the ghosts into the
interior update for rows 0..r-1 eliminates them and produces the r x m matrix
calB with (U_0, ..., U_{r-1})^{n+1} = calB (U_0, ..., U_{m-1})^n for zero
boundary data.

The reconstruction procedure of order d with k_d time-derivative substitutions
handles a physical boundary offset by sigma*dx from grid point 0: ghost and
interior cell averages of a Taylor polynomial about the boundary give two
matrices Y_minus (ghost rows) and Y_plus (interior rows), and B = Y_minus
Y_plus^{-1} zero-padded to width m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SingularYPlus
from .scheme import Scheme

PIVOT_RATIO_MIN = 1e-13
CALB_REBUILD_TOL = 1e-10


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
    w = spec.width
    y_minus = np.empty((r, w))
    y_plus = np.empty((w, w))
    for j in range(1, w + 1):
        e = j + spec.k_d + 1
        for i in range(1, r + 1):
            y_minus[i - 1, j - 1] = _avg_power(-(r - i + 1), e, spec.sigma)
        for i in range(1, w + 1):
            y_plus[i - 1, j - 1] = _avg_power(i - 1, e, spec.sigma)
    return y_minus, y_plus


def _solve_partial_pivot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a X = b by Gaussian elimination, rejecting near-singular pivots."""
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    n = a.shape[0]
    scale = np.max(np.abs(a)) or 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) < PIVOT_RATIO_MIN * scale:
            raise SingularYPlus(
                f"pivot {a[piv, col]:.3e} below {PIVOT_RATIO_MIN:.0e} of scale {scale:.3e}"
            )
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


def reconstruction_B(spec: ReconstructionSpec, r: int, m: int) -> np.ndarray:
    """B = Y_minus Y_plus^{-1} in the first d-k_d-1 columns, zero-padded to width m."""
    w = spec.width
    if m < w:
        raise ShapeMismatch(f"m={m} must be >= d-k_d-1={w}")
    y_minus, y_plus = reconstruction_matrices(spec, r)
    core = _solve_partial_pivot(y_plus.T, y_minus.T).T
    out = np.zeros((r, m))
    out[:, :w] = core
    return out


def build_calB(B: np.ndarray, s: Scheme) -> np.ndarray:
    """Eliminate ghosts: calB = T B + S.

    T is the r x r upper-triangular band of left coefficients (row i holds
    a_{-r}, ..., a_{-1} shifted right by i) and S the r x m interior band
    (row i holds a_{j-i} at column j for j-i in [-r, p], columns j >= 0).
    """
    B = np.asarray(B, dtype=float)
    r, p = s.r, s.p
    if B.ndim != 2 or B.shape[0] != r:
        raise ShapeMismatch(f"B must be r x m with r={r}, got {B.shape}")
    m = B.shape[1]
    if m < p + r:
        raise ShapeMismatch(f"m={m} must be >= p+r={p + r}")
    T = np.zeros((r, r))
    for i in range(r):
        for j in range(i, r):
            T[i, j] = s.coeffs[-r + (j - i)]
    S = np.zeros((r, m))
    for i in range(r):
        for j in range(m):
            k = j - i
            if -r <= k <= p:
                S[i, j] = s.coeffs[k]
    return T @ B + S


@dataclass(frozen=True, eq=False)
class BoundaryCondition:
    """Ghost matrix B (r x m) together with its eliminated form calB.

    calB is stored redundantly; ``validate`` recomputes it from (B, scheme).
    """

    m: int
    B: np.ndarray
    calB: np.ndarray

    def __post_init__(self):
        if self.B.shape[1] != self.m or self.calB.shape != self.B.shape:
            raise ShapeMismatch(
                f"B {self.B.shape} and calB {self.calB.shape} must be r x {self.m}"
            )

    @property
    def r(self) -> int:
        return self.B.shape[0]

    def validate(self, s: Scheme) -> None:
        fresh = build_calB(self.B, s)
        err = float(np.max(np.abs(fresh - self.calB)))
        if err > CALB_REBUILD_TOL * (1.0 + float(np.max(np.abs(fresh)))):
            raise ValueError(f"stored calB deviates from rebuild by {err:.3e}")

    @classmethod
    def from_matrix(cls, B: np.ndarray, s: Scheme) -> "BoundaryCondition":
        B = np.asarray(B, dtype=float)
        return cls(m=B.shape[1], B=B, calB=build_calB(B, s))

    @classmethod
    def from_reconstruction(
        cls, spec: ReconstructionSpec, s: Scheme
    ) -> "BoundaryCondition":
        m = max(s.p + s.r, spec.width)
        B = reconstruction_B(spec, s.r, m)
        return cls(m=m, B=B, calB=build_calB(B, s))


def parse_boundary_text(text: str) -> "ReconstructionSpec | np.ndarray":
    """Parse the boundary text format.

    Either ``reconstruction d k_d sigma`` (one line) or ``matrix r m`` followed
    by r rows of m decimals; returns a ReconstructionSpec or a raw B matrix.
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
        return np.array(rows)
    raise ValueError(f"unknown boundary keyword {head[0]!r}")
