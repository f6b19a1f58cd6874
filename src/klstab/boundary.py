"""Boundary matrices: ghost extrapolation B, its eliminated form, and reconstructions.

The raw matrix B expresses the r ghost values (U_{-r}, ..., U_{-1}) as linear
combinations of the first m interior values.  The interior update for rows
0..r-1 is one stencil matrix over the ghost and interior columns; substituting
the ghosts into it eliminates them and produces the r x m matrix calB with
(U_0, ..., U_{r-1})^{n+1} = calB (U_0, ..., U_{m-1})^n for zero boundary data.

The reconstruction procedure of order d with k_d time-derivative substitutions
handles a physical boundary offset by sigma*dx from grid point 0: ghost and
interior cell averages of a Taylor polynomial about the boundary give two
matrices Y_minus (ghost rows) and Y_plus (interior rows), and B = Y_minus
Y_plus^{-1} zero-padded to width m.  B comes from a library solve; a
singular-value ratio test on Y_plus rejects a numerically singular system
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SingularYPlus
from .scheme import Scheme

SINGULAR_RATIO_MIN = 1e-13
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


def reconstruction_B(spec: ReconstructionSpec, r: int, m: int) -> np.ndarray:
    """B = Y_minus Y_plus^{-1} in the first d-k_d-1 columns, zero-padded to width m.

    The library solve runs behind a singular-value guard: SingularYPlus is
    raised when Y_plus's smallest singular value is at most SINGULAR_RATIO_MIN
    times its largest.
    """
    w = spec.width
    if m < w:
        raise ShapeMismatch(f"m={m} must be >= d-k_d-1={w}")
    y_minus, y_plus = reconstruction_matrices(spec, r)
    sv = np.linalg.svd(y_plus, compute_uv=False)
    if sv[-1] <= SINGULAR_RATIO_MIN * sv[0]:
        raise SingularYPlus(
            f"Y_plus singular values {sv[-1]:.3e} / {sv[0]:.3e} "
            f"at or below ratio {SINGULAR_RATIO_MIN:.0e}"
        )
    out = np.zeros((r, m))
    out[:, :w] = np.linalg.solve(y_plus.T, y_minus.T).T
    return out


def build_calB(B: np.ndarray, s: Scheme) -> np.ndarray:
    """Eliminate ghosts: calB = A[:, :r] B + A[:, r:].

    A is the r x (r+m) stencil of the first r interior updates over the
    columns (U_{-r}, ..., U_{-1}, U_0, ..., U_{m-1}), zero past the scheme's
    ``stencil`` columns.  Its ghost block multiplies B, its interior block is added.
    """
    B = np.asarray(B, dtype=float)
    r, p = s.r, s.p
    if B.ndim != 2 or B.shape[0] != r:
        raise ShapeMismatch(f"B must be r x m with r={r}, got {B.shape}")
    m = B.shape[1]
    if m < p + r:
        raise ShapeMismatch(f"m={m} must be >= p+r={p + r}")
    A = np.concatenate((s.stencil, np.zeros((r, m - r - p))), axis=1)
    # BoundaryCondition rejects a calB that overflows or is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        return A[:, :r] @ B + A[:, r:]


@dataclass(frozen=True, eq=False)
class BoundaryCondition:
    """Ghost matrix B (r x m) together with its eliminated form calB.

    calB is stored redundantly; ``validate``, which ``check`` runs on a prebuilt
    boundary, recomputes it from (B, scheme).  Both must be finite.
    """

    m: int
    B: np.ndarray
    calB: np.ndarray

    def __post_init__(self):
        if self.B.shape[1:] != (self.m,) or self.calB.shape != self.B.shape:
            raise ShapeMismatch(
                f"B {self.B.shape} and calB {self.calB.shape} must be r x {self.m}"
            )
        if not (np.all(np.isfinite(self.B)) and np.all(np.isfinite(self.calB))):
            raise ValueError("ghost matrix B and its calB must be finite")

    def validate(self, s: Scheme) -> None:
        fresh = build_calB(self.B, s)
        with np.errstate(over="ignore"):  # a difference past the largest float is inf
            err = float(np.max(np.abs(fresh - self.calB)))
        if err > CALB_REBUILD_TOL * (1.0 + float(np.max(np.abs(fresh)))):
            raise ValueError(f"stored calB deviates from rebuild by {err:.3e}")

    @classmethod
    def from_matrix(cls, B: np.ndarray, s: Scheme) -> "BoundaryCondition":
        """Boundary of ghost matrix B on scheme s; ``build_calB`` checks B's shape."""
        B = np.asarray(B, dtype=float)
        calB = build_calB(B, s)
        return cls(m=B.shape[1], B=B, calB=calB)

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
