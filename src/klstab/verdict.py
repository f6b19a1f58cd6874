"""Stability verdicts: the full circle-winding check and the (lambda, sigma) sweep.

A check builds the scheme at the requested CFL number, verifies whole-line
(Cauchy) stability of the symbol, constructs the boundary matrices, traces the
determinant curve on the unit circle, and turns its winding number into the
number of unstable modes r - Ind.  The curve comes certified from its last
refinement round; the winding count only counts.  Errors never escape: Cauchy
failures, unbuildable boundaries and irrecoverable root-selection breakdowns
yield invalid_precondition, and a curve that cannot be certified away from the
origin yields marginal (the origin is numerically on the curve, which also
violates the stability condition).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .boundary import BoundaryCondition, ReconstructionSpec
from .errors import EmptyGrid, KLStabError, RefinementExhausted
from .kldet import MAX_REFINE_DEPTH, MIN_INIT_SAMPLES, KLCurve, kl_curve
from .scheme import SchemeTemplate, is_cauchy_stable
from .winding import winding_number

STATUS_STABLE = "stable"
STATUS_UNSTABLE = "unstable"
STATUS_MARGINAL = "marginal"
STATUS_INVALID = "invalid_precondition"

# Below LAMBDA_MIN the scheme nears the identity and the curve near z = 1 grows
# features that the initial grid misses, so check refuses such a lambda.
LAMBDA_MIN = 0.01
MAP_CELL_PX = 12

BoundarySpec = ReconstructionSpec | np.ndarray | BoundaryCondition


@dataclass(frozen=True, slots=True)
class StabilityVerdict:
    """Outcome of one check: winding index, unstable-zero count, and status.

    The fields after ``lam`` say how the check got there, None where it
    stopped before them; a sweep row's verdicts share one Cauchy report's
    floats.  Slots keep a verdict at about 190 bytes, held by the thousand.
    """

    winding: int | None
    unstable_zeros: int | None
    status: str
    lam: float
    cauchy_max_modulus: float | None = None
    cauchy_xi_worst: float | None = None
    curve_samples: int | None = None
    max_refine_depth: int | None = None
    min_curve_distance: float | None = None
    error: str | None = None

    @property
    def certified(self) -> bool:
        return self.status in (STATUS_STABLE, STATUS_UNSTABLE)

    @property
    def diagnostics(self) -> dict:
        """``lambda``, then each diagnostic field that is set, in field order."""
        values = {name: getattr(self, name) for name in _DIAGNOSTIC_FIELDS}
        return {"lambda": self.lam} | {k: v for k, v in values.items() if v is not None}


_DIAGNOSTIC_FIELDS = tuple(f.name for f in fields(StabilityVerdict))[4:]


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
    return BoundaryCondition.from_matrix(spec, scheme)


def check(
    s_template: SchemeTemplate,
    bc_spec,
    lam: float,
    n_init: int = 256,
    max_depth: int = MAX_REFINE_DEPTH,
) -> StabilityVerdict:
    """Decide stability at one (scheme, boundary, lambda) point.

    status stable/unstable carries the winding of a certified curve; no other
    curve is counted.  marginal means the curve approached the origin below
    resolution: a sample too large for the refinement predicate (tested first)
    or within ORIGIN_RESOLUTION of 0 ends refinement at once, and the ``error``
    diagnostic names its theta and |D|; or refinement left the curve uncertified.
    invalid_precondition covers a lambda the template rejects (not finite and
    positive, or with coefficients that overflow or are not finite) or below
    LAMBDA_MIN, bad n_init, Cauchy failures, r = 0, a reconstruction order that
    overflows, a ghost matrix (prebuilt or not) not r x m with m >= p + r, a B
    or calB not finite, and selection or root-finding breakdowns (diagnostics
    say which); a prebuilt boundary checks as its B.
    """
    return _check(s_template, bc_spec, lam, n_init, max_depth)[0]


def _check(
    s_template: SchemeTemplate,
    bc_spec,
    lam: float,
    n_init: int,
    max_depth: int = MAX_REFINE_DEPTH,
) -> tuple[StabilityVerdict, KLCurve | None]:
    """The verdict of ``check`` with the curve it traced, None if it traced none."""
    diag: dict = {}

    def stop(status: str, error: str, curve: KLCurve | None = None):
        return StabilityVerdict(None, None, status, lam, **diag, error=error), curve

    try:
        n_init = operator.index(n_init)
    except TypeError:
        return stop(STATUS_INVALID, f"n_init must be an integer (got {n_init!r})")
    if n_init < MIN_INIT_SAMPLES:
        return stop(STATUS_INVALID, f"n_init must be >= {MIN_INIT_SAMPLES}")
    try:
        scheme = s_template(lam)
    except (ValueError, KLStabError) as exc:
        return stop(STATUS_INVALID, f"scheme construction failed: {exc}")
    if lam < LAMBDA_MIN:
        error = f"lambda {float(lam)!r} is below LAMBDA_MIN = {LAMBDA_MIN}"
        return stop(STATUS_INVALID, error)
    if scheme.r == 0:
        return stop(STATUS_INVALID, "r = 0: no boundary modes, pipeline does not apply")

    cauchy = is_cauchy_stable(scheme)
    diag["cauchy_max_modulus"] = cauchy.max_modulus
    diag["cauchy_xi_worst"] = cauchy.xi_worst
    if not cauchy.stable:
        return stop(STATUS_INVALID, "Cauchy-stability violated")

    try:
        bc = _build_boundary(bc_spec, scheme)
        curve = kl_curve(scheme, bc, n_init=n_init, max_depth=max_depth)
    except RefinementExhausted as exc:
        return stop(STATUS_MARGINAL, str(exc))
    except (KLStabError, ValueError) as exc:
        return stop(STATUS_INVALID, f"{type(exc).__name__}: {exc}")

    diag["curve_samples"] = len(curve)
    diag["max_refine_depth"] = int(np.max(curve.depths))
    values = curve.values
    diag["min_curve_distance"] = float(np.min(np.hypot(values.real, values.imag)))
    if not curve.certified:
        return stop(STATUS_MARGINAL, "curve not certifiable away from the origin", curve)
    # no segment of a certified curve is flagged, so none meets the origin
    index = winding_number(values).index
    zeros = scheme.r - index
    status = STATUS_STABLE if zeros == 0 else STATUS_UNSTABLE
    return StabilityVerdict(index, zeros, status, lam, **diag), curve


def sweep(
    s_template: SchemeTemplate,
    bc_family: Callable[[float], BoundarySpec],
    lambda_values: Sequence[float],
    sigma_values: Sequence[float],
    n_init: int = 256,
) -> SweepGrid:
    """One check per cell; a check never aborts the sweep, but ``bc_family``
    raising for a sigma (a ReconstructionSpec refuses one outside [-1/2, 1/2)) does.

    Each lambda row builds its scheme once, so the row's cells share its
    Cauchy report and initial grid sigma(z) rows.  A cell's verdict equals that of
    a standalone check, so the cells of a lambda below LAMBDA_MIN read
    invalid_precondition.  ``r`` comes from the last row whose scheme builds,
    and is 0 if none does.
    """
    lams = tuple(float(x) for x in lambda_values)
    sigs = tuple(float(x) for x in sigma_values)
    if not lams or not sigs:
        raise EmptyGrid("sweep grid must have at least one lambda and one sigma")
    if list(lams) != sorted(lams) or list(sigs) != sorted(sigs):
        raise ValueError("grid values must be ascending")

    row_scheme = lru_cache(maxsize=1)(s_template)
    results = [
        [check(row_scheme, bc_family(sig), lam, n_init=n_init) for sig in sigs]
        for lam in lams
    ]
    r = 0
    for lam in reversed(lams):
        try:
            r = row_scheme(lam).r
            break
        except (ValueError, KLStabError):
            pass
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


def write_map_svg(grid: SweepGrid, path: str) -> None:
    """Heatmap: lambda on the horizontal axis, sigma on the vertical axis (up)."""
    cell_px = MAP_CELL_PX
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
