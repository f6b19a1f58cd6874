"""Stability verdicts: the full circle-winding check and the (lambda, sigma) sweep.

A check builds the scheme at the requested CFL number, verifies whole-line
(Cauchy) stability of the symbol, constructs the boundary matrices, traces the
determinant curve on the unit circle, and turns its winding number into the
number of unstable modes r - Ind.  Errors never escape: Cauchy failures and
irrecoverable root-selection breakdowns yield invalid_precondition, and a curve
that cannot be certified away from the origin yields marginal (the origin is
numerically on the curve, which also violates the stability condition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .boundary import BoundaryCondition, ReconstructionSpec
from .errors import (
    EmptyGrid,
    KLStabError,
    OriginOnCurve,
    RefinementExhausted,
)
from .kldet import MAX_REFINE_DEPTH, TOL_UNIT, kl_curve
from .scheme import SchemeTemplate, is_cauchy_stable
from .winding import winding_number

STATUS_STABLE = "stable"
STATUS_UNSTABLE = "unstable"
STATUS_MARGINAL = "marginal"
STATUS_INVALID = "invalid_precondition"

DEFAULT_LAMBDA_MIN = 0.01

BoundarySpec = ReconstructionSpec | np.ndarray | BoundaryCondition


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of one check: winding index, unstable-zero count, and status."""

    winding: int | None
    unstable_zeros: int | None
    status: str
    diagnostics: dict

    @property
    def certified(self) -> bool:
        return self.status in (STATUS_STABLE, STATUS_UNSTABLE)


@dataclass(frozen=True)
class SweepGrid:
    """Verdicts over an ascending lambda grid x ascending sigma grid."""

    lambda_values: tuple[float, ...]
    sigma_values: tuple[float, ...]
    results: list  # results[i][j] for (lambda_values[i], sigma_values[j])
    r: int


def _build_boundary(spec, scheme) -> BoundaryCondition:
    if isinstance(spec, BoundaryCondition):
        return spec
    if isinstance(spec, ReconstructionSpec):
        return BoundaryCondition.from_reconstruction(spec, scheme)
    return BoundaryCondition.from_matrix(np.asarray(spec, dtype=float), scheme)


def check(
    s_template: SchemeTemplate,
    bc_spec,
    lam: float,
    n_init: int = 256,
    tol_unit: float = TOL_UNIT,
    max_depth: int = MAX_REFINE_DEPTH,
) -> StabilityVerdict:
    """Decide stability at one (scheme, boundary, lambda) point.

    status stable/unstable carries a certified winding; marginal means the
    curve approached the origin below resolution; invalid_precondition covers
    Cauchy failures, r = 0, and selection breakdowns (diagnostics say which).
    """
    diag: dict = {"lambda": lam}
    if lam <= 0:
        diag["error"] = "lambda must be positive"
        return StabilityVerdict(None, None, STATUS_INVALID, diag)
    try:
        scheme = s_template(lam)
    except (ValueError, KLStabError) as exc:
        diag["error"] = f"scheme construction failed: {exc}"
        return StabilityVerdict(None, None, STATUS_INVALID, diag)
    if scheme.r == 0:
        diag["error"] = "r = 0: no boundary modes, pipeline does not apply"
        return StabilityVerdict(None, None, STATUS_INVALID, diag)

    cauchy = is_cauchy_stable(scheme)
    diag["cauchy_max_modulus"] = cauchy.max_modulus
    diag["cauchy_xi_worst"] = cauchy.xi_worst
    if not cauchy.stable:
        diag["error"] = "Cauchy-stability violated"
        return StabilityVerdict(None, None, STATUS_INVALID, diag)

    try:
        bc = _build_boundary(bc_spec, scheme)
        curve = kl_curve(
            scheme, bc, n_init=n_init, tol_unit=tol_unit, max_depth=max_depth
        )
    except RefinementExhausted as exc:
        diag["error"] = str(exc)
        return StabilityVerdict(None, None, STATUS_MARGINAL, diag)
    except KLStabError as exc:
        diag["error"] = f"{type(exc).__name__}: {exc}"
        return StabilityVerdict(None, None, STATUS_INVALID, diag)

    diag["curve_samples"] = len(curve)
    diag["max_refine_depth"] = int(np.max(curve.depths))
    try:
        wres = winding_number(curve.values)
    except OriginOnCurve as exc:
        diag["error"] = str(exc)
        return StabilityVerdict(None, None, STATUS_MARGINAL, diag)
    diag["min_curve_distance"] = wres.min_distance

    if not wres.certified:
        diag["error"] = "curve not certifiable away from the origin"
        return StabilityVerdict(None, None, STATUS_MARGINAL, diag)
    zeros = scheme.r - wres.index
    status = STATUS_STABLE if zeros == 0 else STATUS_UNSTABLE
    return StabilityVerdict(wres.index, zeros, status, diag)


def sweep(
    s_template: SchemeTemplate,
    bc_family: Callable[[float], BoundarySpec],
    lambda_values: Sequence[float],
    sigma_values: Sequence[float],
    n_init: int = 256,
    tol_unit: float = TOL_UNIT,
    max_depth: int = MAX_REFINE_DEPTH,
) -> SweepGrid:
    """Independent check calls over the grid; cells never abort the sweep."""
    lams = tuple(float(x) for x in lambda_values)
    sigs = tuple(float(x) for x in sigma_values)
    if not lams or not sigs:
        raise EmptyGrid("sweep grid must have at least one lambda and one sigma")
    if list(lams) != sorted(lams) or list(sigs) != sorted(sigs):
        raise ValueError("grid values must be ascending")

    results = [
        [
            check(
                s_template,
                bc_family(sig),
                lam,
                n_init=n_init,
                tol_unit=tol_unit,
                max_depth=max_depth,
            )
            for sig in sigs
        ]
        for lam in lams
    ]
    r = s_template(max(lams)).r
    return SweepGrid(lambda_values=lams, sigma_values=sigs, results=results, r=r)


def write_map_csv(grid: SweepGrid, path: str) -> None:
    """CSV rows lambda,sigma,winding,zeros,status, row-major in lambda then sigma."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("lambda,sigma,winding,zeros,status\n")
        for i, lam in enumerate(grid.lambda_values):
            for j, sig in enumerate(grid.sigma_values):
                v = grid.results[i][j]
                w = "" if v.winding is None else str(v.winding)
                z = "" if v.unstable_zeros is None else str(v.unstable_zeros)
                fh.write(f"{lam:.17g},{sig:.17g},{w},{z},{v.status}\n")


_ZERO_COLORS = [
    "#2b8a3e",  # 0 unstable zeros: stable
    "#ffd43b",
    "#f76707",
    "#d9480f",
    "#a61e4d",
    "#862e9c",
    "#5f3dc4",
    "#364fc7",
    "#0b7285",
]
_MARGINAL_COLOR = "#7d1111"
_INVALID_COLOR = "#adb5bd"


def _cell_color(v: StabilityVerdict) -> str:
    if v.status == STATUS_MARGINAL:
        return _MARGINAL_COLOR
    if v.status == STATUS_INVALID:
        return _INVALID_COLOR
    return _ZERO_COLORS[min(v.unstable_zeros, len(_ZERO_COLORS) - 1)]


def write_map_svg(grid: SweepGrid, path: str, cell_px: int = 12) -> None:
    """Heatmap: lambda on the horizontal axis, sigma on the vertical axis (up)."""
    nl, ns = len(grid.lambda_values), len(grid.sigma_values)
    margin = 42
    width = nl * cell_px + 2 * margin
    height = ns * cell_px + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(nl):
        for j in range(ns):
            x = margin + i * cell_px
            y = margin + (ns - 1 - j) * cell_px
            color = _cell_color(grid.results[i][j])
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
                f'fill="{color}"/>'
            )
    x0, x1 = margin, margin + nl * cell_px
    y0, y1 = margin + ns * cell_px, margin
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{height - 8}" font-size="13" '
        f'text-anchor="middle">lambda</text>'
    )
    parts.append(
        f'<text x="12" y="{(y0 + y1) // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 12 {(y0 + y1) // 2})">sigma</text>'
    )
    lv, sv = grid.lambda_values, grid.sigma_values
    labels = [
        (x0, y0 + 14, "start", f"{lv[0]:g}"),
        (x1, y0 + 14, "end", f"{lv[-1]:g}"),
        (x0 - 4, y0, "end", f"{sv[0]:g}"),
        (x0 - 4, y1 + 10, "end", f"{sv[-1]:g}"),
    ]
    for x, y, anchor, text in labels:
        parts.append(
            f'<text x="{x}" y="{y}" font-size="10" text-anchor="{anchor}">{text}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def filter_lambda_grid(
    values: Sequence[float], lambda_min: float = DEFAULT_LAMBDA_MIN
) -> list[float]:
    """Drop the left band [0, lambda_min) where tiny time steps defeat the arithmetic."""
    return [v for v in values if v >= lambda_min]
