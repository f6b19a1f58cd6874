"""Winding number of the origin for closed sampled curves, plus the refinement rule.

The index is accumulated by exact quadrant bookkeeping: each consecutive pair
contributes its signed quadrant-boundary crossing count (0, +-1, or +-2 with
the half-plane cross-product sign test deciding the ambiguous opposite-quadrant
case).  The total is 4x the winding number of the sample polygon, with no
floating-point argument accumulation to drift.  Both the count and the
refinement predicate work on whole arrays of segments at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OriginOnCurve

ORIGIN_EPS = 1e-300
QUARTER_TURN = np.pi / 2.0
PROXIMITY_FLOOR = 1e-12
PROXIMITY_FRACTION = 0.1


@dataclass(frozen=True)
class WindingResult:
    """Index of the origin, the closest sample, and segment certification."""

    index: int
    min_distance: float
    certified: bool


def _quadrant(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return np.select(
        [(re > 0) & (im >= 0), (re <= 0) & (im > 0), (re < 0) & (im <= 0)],
        [0, 1, 2],
        3,
    )


def needs_refinement(a, b):
    """True where the segment a -> b cannot be trusted by the quadrant bookkeeping.

    Either the argument change strictly exceeds a quarter turn, or the segment
    passes within max(1e-12, 0.1 * min(|a|, |b|)) of the origin.  Two scalars
    give a bool; arrays give a flag array of their broadcast shape.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    with np.errstate(all="ignore"):
        mod_a = np.hypot(a.real, a.imag)
        mod_b = np.hypot(b.real, b.imag)
        cross = a.real * b.imag - a.imag * b.real
        dot = a.real * b.real + a.imag * b.imag
        turn = np.abs(np.arctan2(cross, dot)) > QUARTER_TURN
        # distance from the origin to the segment; a point segment is its end
        dx, dy = b.real - a.real, b.imag - a.imag
        denom = dx * dx + dy * dy
        t = np.clip(-(a.real * dx + a.imag * dy) / denom, 0.0, 1.0)
        t = np.where(denom == 0.0, 0.0, t)
        dist = np.hypot(a.real + t * dx, a.imag + t * dy)
        threshold = np.maximum(
            PROXIMITY_FLOOR, PROXIMITY_FRACTION * np.minimum(mod_a, mod_b)
        )
        flags = (mod_a == 0.0) | (mod_b == 0.0) | turn | (dist < threshold)
    return bool(flags) if flags.ndim == 0 else flags


def winding_number(samples) -> WindingResult:
    """Winding number of the origin for the closed polygon through ``samples``.

    The last sample connects back to the first.  Raises OriginOnCurve when a
    sample (modulus below 1e-300) or a segment passes exactly through 0.
    ``certified`` is True when every segment satisfies the refinement predicate,
    in which case the polygon index equals the underlying curve's index.
    """
    pts = np.asarray(samples, dtype=complex)
    if len(pts) < 2:
        raise ValueError("need at least 2 samples")
    mods = np.hypot(pts.real, pts.imag)
    at_origin = np.flatnonzero(mods < ORIGIN_EPS)
    if len(at_origin):
        raise OriginOnCurve(f"sample at {pts[at_origin[0]]} is numerically the origin")

    nxt = np.roll(pts, -1)
    quadrants = _quadrant(pts.real, pts.imag)
    steps = (np.roll(quadrants, -1) - quadrants) % 4
    # opposite quadrants: the side of the origin the segment passes decides
    half = steps == 2
    cross = pts.real * nxt.imag - pts.imag * nxt.real
    through = np.flatnonzero(half & (cross == 0.0))
    if len(through):
        i = through[0]
        raise OriginOnCurve(f"segment {pts[i]} -> {nxt[i]} passes through the origin")
    total = int(
        np.sum(steps == 1)
        - np.sum(steps == 3)
        + np.sum(np.where(cross[half] > 0, 2, -2))
    )
    assert total % 4 == 0, "quadrant transitions must telescope to a multiple of 4"
    certified = not np.any(needs_refinement(pts, nxt))
    return WindingResult(
        index=total // 4, min_distance=float(np.min(mods)), certified=certified
    )
