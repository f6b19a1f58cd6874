"""Independent diagnostics: truncated quasi-Toeplitz spectrum and time marching.

Both instruments depend on the boundary only through the matrices B and calB,
not on the determinant pipeline, so they cross-validate the winding verdicts.
The finite truncation closes the right edge with zero extension (outflow-like
for rightgoing transport); its spectrum is a diagnostic, not a gate, since
truncation effects are known to blur the half-line answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryCondition
from .errors import NonConvergence, ShapeMismatch
from .scheme import Scheme

BLOWUP_NORM = 1e100


@dataclass(frozen=True, eq=False)
class QuasiToeplitzMatrix:
    """J x J truncation: first r rows carry calB, the rest the interior band."""

    J: int
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class SimulationRun:
    """March record: history rows 0..completed_steps, per-step l2 norms."""

    J: int
    N: int
    lam: float
    history: np.ndarray
    norm_trace: np.ndarray
    blew_up: bool
    completed_steps: int


def assemble_quasi_toeplitz(
    s: Scheme, bc: BoundaryCondition, J: int
) -> QuasiToeplitzMatrix:
    if J < bc.m + s.p:
        raise ShapeMismatch(f"J={J} must be >= m+p={bc.m + s.p}")
    M = np.zeros((J, J))
    M[: s.r, : bc.m] = bc.calB
    for i in range(s.r, J):
        for k in range(-s.r, s.p + 1):
            j = i + k
            if 0 <= j < J:
                M[i, j] = s.coeffs[k]
    return QuasiToeplitzMatrix(J=J, entries=M)


def spectral_radius(M: QuasiToeplitzMatrix) -> float:
    """Dominant eigenvalue modulus of the truncated operator."""
    try:
        return float(np.max(np.abs(np.linalg.eigvals(M.entries))))
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc


def simulate(
    s: Scheme,
    bc: BoundaryCondition,
    f,
    g,
    N: int,
) -> SimulationRun:
    """March U^{n+1} from U^n with ghosts U_- = B U_+ + g^n, zero right extension.

    ``f`` is the initial row (length J >= m+p); ``g`` is None or an (N, r)
    array of ghost data rows (g_{-r}, ..., g_{-1}) used at steps 0..N-1.  A
    norm above 1e100 stops the march and flags blow-up (that is a result, not
    an error).
    """
    f = np.asarray(f, dtype=float)
    J = len(f)
    if J < bc.m + s.p:
        raise ShapeMismatch(f"J={J} must be >= m+p={bc.m + s.p}")
    if N < 1:
        raise ValueError("N must be >= 1")
    if g is None:
        g = np.zeros((N, s.r))
    g = np.asarray(g, dtype=float)
    if g.shape != (N, s.r):
        raise ShapeMismatch(f"g must have shape ({N}, {s.r}), got {g.shape}")

    history = np.zeros((N + 1, J))
    history[0] = f
    norms = np.zeros(N + 1)
    norms[0] = float(np.linalg.norm(f))
    u = f.copy()
    blew_up = False
    completed = 0
    coeffs = s.coeff_array()
    for n in range(N):
        ghosts = bc.B @ u[: bc.m] + g[n]
        ext = np.concatenate([ghosts, u, np.zeros(s.p)])
        nxt = np.zeros(J)
        for k in range(-s.r, s.p + 1):
            nxt += coeffs[k + s.r] * ext[s.r + k : s.r + k + J]
        u = nxt
        completed = n + 1
        history[completed] = u
        norms[completed] = float(np.linalg.norm(u))
        if norms[completed] > BLOWUP_NORM:
            blew_up = True
            break
    return SimulationRun(
        J=J,
        N=N,
        lam=s.lam,
        history=history[: completed + 1],
        norm_trace=norms[: completed + 1],
        blew_up=blew_up,
        completed_steps=completed,
    )
