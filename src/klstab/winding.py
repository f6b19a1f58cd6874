"""Winding number of the origin for closed sampled curves, plus the refinement rule.

The index is accumulated by exact quadrant bookkeeping: each consecutive pair
contributes its signed quadrant-boundary crossing count (0, +-1, or +-2 with
the half-plane cross-product sign test deciding the ambiguous opposite-quadrant
case).  The total is 4x the winding number of the sample polygon, with no
floating-point argument accumulation to drift.  Both the count and the
refinement predicate work on whole arrays of segments at once; the predicate
tells a quarter turn by the sign of a dot product, with no angle to round.
The count certifies nothing: ``kldet`` certifies a curve by the predicate, as
it refines, and ``verdict`` counts only a certified curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OriginOnCurve

ORIGIN_EPS = 1e-300
PROXIMITY_FLOOR = 1e-12
PROXIMITY_FRACTION = 0.1
# samples of modulus below this keep every product the predicate forms finite
MAX_MODULUS = float(np.sqrt(np.finfo(float).max)) / 4.0


@dataclass(frozen=True)
class WindingResult:
    """Index of the origin and the modulus of the closest sample."""

    index: int
    min_distance: float


def _quadrant(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # quadrants 0, 1, 2 are exclusive conditions; the rest, 0 and nan too, is 3
    q0, q1 = (re > 0) & (im >= 0), (re <= 0) & (im > 0)
    return 3 - 3 * q0 - 2 * q1 - ((re < 0) & (im <= 0))


def needs_refinement(a, b):
    """True where the segment a -> b cannot be trusted by the quadrant bookkeeping.

    Either the argument change strictly exceeds a quarter turn, which is
    Re(conj(a) b) < 0 and needs no angle, or the segment passes within
    max(1e-12, 0.1 * min(|a|, |b|)) of the origin, or an end is 0 or not
    finite.  Two scalars give a bool; arrays give a flag array of their
    broadcast shape.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    with np.errstate(all="ignore"):
        mod_a = np.hypot(a.real, a.imag)
        mod_b = np.hypot(b.real, b.imag)
        turn = a.real * b.real + a.imag * b.imag < 0.0
        # distance from the origin to the segment; a point segment is its end
        dx, dy = b.real - a.real, b.imag - a.imag
        denom = dx * dx + dy * dy
        t = np.clip(-(a.real * dx + a.imag * dy) / denom, 0.0, 1.0)
        t = np.where(denom == 0.0, 0.0, t)
        dist = np.hypot(a.real + t * dx, a.imag + t * dy)
        near = np.minimum(mod_a, mod_b)
        threshold = np.maximum(PROXIMITY_FLOOR, PROXIMITY_FRACTION * near)
        ends = (near > 0.0) & (np.maximum(mod_a, mod_b) < np.inf)
        flags = ~ends | turn | (dist < threshold)
    return bool(flags) if flags.ndim == 0 else flags


def winding_number(samples) -> WindingResult:
    """Winding number of the origin for the closed polygon through ``samples``.

    The last sample connects back to the first.  Raises ValueError for fewer
    than 2 samples or one that is not finite, and OriginOnCurve when a sample
    (modulus below 1e-300) or a segment passes exactly through 0.
    """
    pts = np.asarray(samples, dtype=complex)
    if len(pts) < 2:
        raise ValueError("need at least 2 samples")
    if not np.all(np.isfinite(pts)):
        raise ValueError("samples must be finite")
    mods = np.hypot(pts.real, pts.imag)
    at_origin = np.flatnonzero(mods < ORIGIN_EPS)
    if len(at_origin):
        raise OriginOnCurve(f"sample at {pts[at_origin[0]]} is numerically the origin")

    ring = np.concatenate((pts, pts[:1]))
    nxt = ring[1:]  # sample i + 1, the first for the last
    quadrants = _quadrant(ring.real, ring.imag)
    # quarter turns -1, 0, +1, or 2: then the segment's side of 0 decides +-2
    steps = (quadrants[1:] - quadrants[:-1] + 1) % 4 - 1
    half = steps == 2
    cross = pts.real * nxt.imag - pts.imag * nxt.real
    through = np.flatnonzero(half & (cross == 0.0))
    if len(through):
        i = through[0]
        raise OriginOnCurve(f"segment {pts[i]} -> {nxt[i]} passes through the origin")
    total = int(np.sum(steps) - 4 * np.count_nonzero(~(cross[half] > 0)))
    assert total % 4 == 0, "quadrant transitions must telescope to a multiple of 4"
    return WindingResult(index=total // 4, min_distance=float(np.min(mods)))
