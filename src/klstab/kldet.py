"""Intrinsic boundary determinant: stable roots, the reduced matrix, and the curve.

For |z| > 1 the characteristic polynomial has exactly r roots inside the unit
disk (Hersh separation); their monic product X^r + s_{r-1}X^{r-1} + ... + s_0
drives a column elimination of the boundary matrix calB down to an r x r matrix
Bt, and the determinant D(z) = det(z I_r - Bt) is holomorphic outside the disk
and continuous up to it.  One rule picks the r roots at every |z| >= 1, by
Smith's inclusion disks (``_inclusion_radii``): a connected component of
overlapping disks wholly inside the circle is taken, one wholly outside is
left, and one that meets the circle takes a Rouche count: nudge z radially
outward by half a radius that the disks certify and count how many of its
roots land inside the disk, a count that the disks at the nudged z certify.
A lone root is moved there by one Newton step; a multi-root cluster is
re-solved.

Each kernel has one implementation over a batch of z values: the rows of P_z
(``scheme.characteristic_polynomial``), the monic product (``_monic_product``),
the column fold (``_fold_columns``) and the determinant (``_delta_batch``).
The scalar names ``sigmas_from_roots``, ``reduce_Btilde`` and ``delta`` are
one-row calls of them.  The roots and their sigma(z) depend only on the scheme
and z; the boundary enters only through the fold.  So ``kl_curve`` keeps the
sigma(z) rows of its initial grid in the scheme's ``grid_sigmas``, which every
boundary traced on that Scheme instance (a sweep's lambda row) reads.  The
coefficients are real, so D(conj z) = conj D(z): ``kl_curve`` traces and
refines only the upper half of the circle, from z = 1 to z = -1, and mirrors
it.  A point whose disks each lie wholly on one side, r of them inside,
takes those r roots in the batch; only a point with a disk that meets the
circle passes its already-solved roots, one point at a time, to
``select_stable_roots``.

Sampling theta -> D(e^{i theta}) with adaptive bisection driven by the winding
module's refinement predicate yields the closed curve whose winding number
around the origin decides stability; the predicate pass of the last round
certifies the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundary import BoundaryCondition, build_calB
from .errors import (
    CauchyViolation,
    MultipleRoot,
    RefinementExhausted,
    SelectionFailure,
    ShapeMismatch,
)
from .poly import _horner_many, find_roots_many, min_modulus_on_circle
from .scheme import TOL_UNIT, Scheme, characteristic_polynomial
from .winding import MAX_MODULUS, needs_refinement

CLUSTER_TOL = 1e-7  # roots this close have no power basis (basis_matrices)
EPSILON_CAP = 0.1
MAX_REFINE_DEPTH = 20
MIN_INIT_SAMPLES = 64
ORIGIN_RESOLUTION = 1e-13


@dataclass(frozen=True, eq=False)
class KLCurve:
    """Closed sampled curve theta -> Delta(e^{i theta}), thetas strictly increasing."""

    thetas: np.ndarray
    values: np.ndarray
    depths: np.ndarray
    certified: bool  # the refinement predicate accepts every segment

    def __len__(self) -> int:
        return len(self.thetas)


def _disk_components(roots: np.ndarray, radii: np.ndarray):
    """(d, d) bool, [i, j] when disks i and j are in one overlapping component, and
    each radius grown to hold its component, so that each disk holds one root."""
    dist = np.abs(roots[:, None] - roots[None, :])
    reach = dist <= radii[:, None] + radii[None, :]
    reach |= np.eye(len(roots), dtype=bool)
    for _ in range((len(roots) - 2).bit_length()):  # paths of up to d - 1 steps
        reach = reach @ reach
    return reach, np.where(reach, dist + radii, 0.0).max(axis=1)


def _inclusion_radii(s: Scheme, zs, rows: np.ndarray, roots: np.ndarray):
    """Smith's radii d (|p(x_i)| + 2 d u sum_k b_k |x_i|^k) / (|c_d| prod_{j != i}
    |x_i - x_j|) about the roots x_i of each row of P_z: a component of k
    overlapping disks holds k roots of the degree-d row (B. T. Smith, J. ACM
    17 (1970)).  b_k = |c_k| bounds Horner's rounding, and b_r = |a_0 - z| +
    |z| that of a_0 - z as it was formed too.  |p(x_i)| also takes
    |sum a_k - 1| |x_i|^r, so the disks hold the roots of the consistent
    scheme next to the stored one.  Exact zeros, shared by the rows, get
    radius 0; the rest are of the row deflated by them.  Equal x_i or an
    overflow give inf or nan, which decides nothing."""
    n_zero = roots.shape[1] - np.count_nonzero(roots[0]) if len(roots) else 0
    x = roots[roots != 0].reshape(len(roots), -1) if n_zero else roots
    d, ax = x.shape[1], np.abs(x)
    bounds = np.abs(rows)
    bounds[:, s.r] += np.abs(zs)
    rows, bounds = rows[:, n_zero : n_zero + d + 1], bounds[:, n_zero : n_zero + d + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, b = _horner_many(np.stack((rows, bounds)), np.stack((x, ax)))
        gaps = np.abs(x[:, :, None] - x[:, None, :]) + np.eye(d)
        defect = abs(s.char_row.sum() - 1.0) * ax ** (s.r - n_zero)
        rad = d * (np.abs(p) + defect + d * np.finfo(float).eps * b.real)
        rad /= np.abs(rows[:, -1:]) * gaps.prod(axis=2)
    if not n_zero:
        return rad
    radii = np.zeros(roots.shape)
    radii[roots != 0] = rad.ravel()
    return radii


def _monic_product(roots: np.ndarray) -> np.ndarray:
    """Ascending s_0..s_{r-1} of prod_j (X - roots[:, j]), one row per (n, r) row."""
    n, r = roots.shape
    coeffs = np.ones((n, 1), dtype=complex)
    for j in range(r):
        grown = np.zeros((n, coeffs.shape[1] + 1), dtype=complex)
        grown[:, 1:] = coeffs
        grown[:, :-1] -= roots[:, j : j + 1] * coeffs
        coeffs = grown
    return coeffs[:, :r]


def sigmas_from_roots(roots) -> tuple[complex, ...]:
    """Ascending coefficients s_0..s_{r-1} of the monic product prod (X - kappa)."""
    return tuple(_monic_product(np.asarray(roots, dtype=complex).reshape(1, -1))[0])


def select_stable_roots(s: Scheme, z: complex, roots, radii=None) -> np.ndarray:
    """The r roots of P_z inside (or continued from inside) the unit disk,
    as an array sorted by (real, imag).

    ``roots`` holds every root of P_z; nothing is solved here, and ``radii``,
    their inclusion radii, are computed unless given.  A component of
    overlapping inclusion disks wholly inside the circle is taken, one wholly
    outside is left, and one that meets the circle is resolved by moving its
    roots to z' = (1 + eta/2) z and counting those that land inside.  A count
    other than r raises CauchyViolation: for |z| > 1 a whole-line-stable
    scheme has exactly r roots inside (Hersh).
    """
    if s.r < 1:
        raise ValueError("selection requires r >= 1")
    z = complex(z)
    if abs(z) < 1.0 - TOL_UNIT:
        raise ValueError(f"|z| = {abs(z)} below the unit circle band")
    roots = np.asarray(roots, dtype=complex)
    if radii is None:
        row = characteristic_polynomial(s, z)[None]
        radii = _inclusion_radii(s, z, row, roots[None])[0]
    chosen = _select(s, z, roots, radii)
    return np.array(sorted(chosen, key=lambda x: (x.real, x.imag)))


def _select(s, z, roots, radii):
    moduli = np.abs(roots)
    gap = moduli - 1.0  # exact near the circle, so one rounding decides all sides
    reach, hull = _disk_components(roots, radii)
    meets = reach @ ~(np.abs(gap) > radii)  # the component meets the circle
    chosen = list(roots[(-gap > radii) & ~meets])
    for i in np.flatnonzero(meets):
        if reach[i, :i].any():  # one Rouche count per component, at its first root
            continue
        idx = np.flatnonzero(reach[i])
        count = _roots_from_inside(s, z, roots, hull, idx)
        chosen.extend(sorted(roots[idx], key=lambda x: (abs(x), x.real, x.imag))[:count])
    if len(chosen) != s.r:
        raise CauchyViolation(
            f"selected {len(chosen)} roots instead of r={s.r} at z={z}; "
            f"|roots|={sorted(moduli.tolist())}"
        )
    return chosen


def _roots_from_inside(s, z, roots, radii, cluster_idx) -> int:
    """Count of a boundary cluster's roots that arrive from inside the disk.

    The counting circle |kappa - c| = eps is about the members' mean c, at
    most half way to another root.  Each disk of ``radii`` holds one root of
    P_z, as ``_disk_components`` grows them, and each member's holds c, so
    eta, the disks' bound of min |P_z| on the circle over (1 + eps)^r, is
    positive only when every member's disk lies inside it and no other disk
    meets it.  Then P_z' at z' = (1 + eta/2) z, outside the unit circle, has
    as many roots inside it as P_z (Rouche).  The roots at z, a lone member
    moved by one Newton step on P_z' (a multi-root cluster's P_z' is solved
    cold), approximate those of P_z', and their inclusion disks certify the
    count: each lies off the counting circle, as many inside it as members,
    and each inside it off the unit circle.  An eta of 0, a z' not outside
    the circle, or disks that certify no count raise SelectionFailure.
    """
    members = roots[cluster_idx]
    center = complex(np.mean(members))
    others = np.abs(np.delete(roots, cluster_idx) - center)
    eps = min(EPSILON_CAP, 0.5 * float(others.min())) if len(others) else EPSILON_CAP
    lead = characteristic_polynomial(s, z)[len(roots)]  # roots at infinity dropped
    eta = (1.0 + eps) ** (-s.r) * min_modulus_on_circle(lead, roots, radii, center, eps)
    z_out = (1.0 + eta / 2.0) * z
    if eta > 0.0 and abs(z_out) > 1.0:
        row = characteristic_polynomial(s, z_out)
        # unless a_0 - z or a_0 - z' is 0, P_z and P_z' share roots at 0 and inf
        if len(members) == 1 and 0 not in (row[s.r], s.char_row[s.r] - z):
            deriv = np.append(row[1:] * np.arange(1, len(row)), 0.0)
            p, dp = _horner_many(np.stack((row, deriv)), members)
            moved = roots.copy()
            with np.errstate(divide="ignore", invalid="ignore"):  # nan: no certificate
                moved[cluster_idx] = members - p / dp
        else:
            moved = find_roots_many(row[None])[0]
        rad = _inclusion_radii(s, z_out, row[None], moved[None])[0]
        dist, gap = np.abs(moved - center), np.abs(moved) - 1.0
        inside = dist < eps
        held = (np.abs(dist - eps) > rad).all() and inside.sum() == len(members)
        if held and (np.abs(gap) > rad)[inside].all():
            return int(np.sum(inside & (gap < 0.0)))
    raise SelectionFailure(
        f"cannot certify a count in |kappa - {center}| = {eps} at z={z}: eta={eta}"
    )


def reduce_Btilde(calB: np.ndarray, sigmas) -> np.ndarray:
    """Fold columns r..m-1 of calB with the stable recurrence; returns r x r.

    Column j folds into columns j-r..j-1 with weights -sigmas[0..r-1], which is
    exactly multiplication by the elimination matrices P_{m-1} ... P_r.
    """
    calB = np.asarray(calB)
    r, m = calB.shape
    sig = np.asarray(sigmas, dtype=complex).reshape(1, -1)
    if sig.shape[1] != r:
        raise ShapeMismatch(f"need {r} recurrence coefficients, got {sig.shape[1]}")
    if m < r:
        raise ShapeMismatch(f"calB width {m} below r={r}")
    return _fold_columns(calB, sig)[0]


def _fold_columns(calB: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """calB (r, m) folded with each row of the (n, r) coefficients: (n, r, r)."""
    r, m = calB.shape
    out = np.broadcast_to(calB.astype(complex), (len(sig), r, m)).copy()
    for j in range(m - 1, r - 1, -1):
        col = out[:, :, j]
        out = out[:, :, :j]
        for i in range(r):
            out[:, :, j - r + i] -= col * sig[:, i : i + 1]
    return out


def delta(s: Scheme, bc: BoundaryCondition, z: complex) -> complex:
    """The intrinsic determinant det(z I_r - Bt(sigma(z)))."""
    if s.r < 1:
        raise ValueError("delta requires r >= 1")
    z = complex(z)
    if abs(z) < 1.0 - TOL_UNIT:
        raise ValueError(f"|z| = {abs(z)} below the unit circle band")
    zs = np.array([z])
    return complex(_delta_batch(build_calB(bc.B, s), zs, _stable_sigmas(s, zs))[0])


def basis_matrices(roots, rows: int) -> np.ndarray:
    """The rows x r power basis kappa_j^n, n = 0..rows-1, of r distinct roots.

    Clustered roots have no power basis: they raise MultipleRoot (callers skip
    the reference-determinant check at such z).
    """
    roots = np.asarray(roots, dtype=complex)
    if rows < len(roots):
        raise ShapeMismatch(f"rows={rows} below r={len(roots)}")
    gaps = np.abs(np.subtract.outer(roots, roots))[np.triu_indices(len(roots), 1)]
    if (gaps <= CLUSTER_TOL).any():
        raise MultipleRoot(f"clustered stable roots {roots}")
    return roots ** np.arange(rows)[:, None]


def delta_reference(s: Scheme, bc: BoundaryCondition, z: complex) -> complex:
    """Independent evaluation through the power basis K of the stable roots.

    det(z K[:r] - calB K) / det(K[:r]) with K = ``basis_matrices(roots, bc.m)``;
    raises MultipleRoot when the stable roots cluster, in which case the check
    is skipped at this z.
    """
    roots = find_roots_many(characteristic_polynomial(s, np.array([complex(z)])))[0]
    K = basis_matrices(select_stable_roots(s, z, roots), rows=bc.m)
    num = np.linalg.det(z * K[: s.r] - build_calB(bc.B, s) @ K)
    return complex(num / np.linalg.det(K[: s.r]))


def _stable_sigmas(s: Scheme, zs: np.ndarray) -> np.ndarray:
    """sigma(z) at each z of a 1-D array: the scheme-side half of Delta.

    The points are solved in one batch.  A point takes the batched split, its
    r roots inside in the solver's (real, imag) order, when each inclusion
    disk lies wholly inside or wholly outside the circle and r lie inside:
    that is ``_select``'s own rule for such a point.  Only a point with a disk
    that meets the circle, where ``_select`` takes a Rouche count, or with
    other than r disks inside, goes through select_stable_roots.
    """
    rows = characteristic_polynomial(s, zs)
    roots = find_roots_many(rows)
    gap, radii = np.abs(roots) - 1.0, _inclusion_radii(s, zs, rows, roots)
    inside = -gap > radii
    batch = (np.abs(gap) > radii).all(axis=1) & (inside.sum(axis=1) == s.r)

    sig = np.empty((len(zs), s.r), dtype=complex)
    sig[batch] = _monic_product(roots[batch][inside[batch]].reshape(-1, s.r))
    for i in np.flatnonzero(~batch):
        sig[i] = sigmas_from_roots(select_stable_roots(s, zs[i], roots[i], radii[i]))
    return sig


def _delta_batch(calB: np.ndarray, zs: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Delta at each z of ``zs``: fold calB with its sigma(z) row, det(z I - Bt)."""
    # a huge calB overflows here; kl_curve reports the sample
    with np.errstate(over="ignore", invalid="ignore"):
        bt = _fold_columns(calB, sig)
        return np.linalg.det(zs[:, None, None] * np.eye(sig.shape[1]) - bt)


@lru_cache(maxsize=8)
def _initial_grid(n_init: int) -> tuple[np.ndarray, np.ndarray]:
    thetas = np.linspace(0.0, 2.0 * np.pi, n_init, endpoint=False)
    thetas = np.append(thetas[: (n_init + 1) // 2], np.pi)
    zs = np.exp(1j * thetas)
    zs[-1] = -1.0
    for grid in (thetas, zs):
        grid.setflags(write=False)
    return thetas, zs


def kl_curve(
    s: Scheme,
    bc: BoundaryCondition,
    n_init: int = 256,
    max_depth: int = MAX_REFINE_DEPTH,
) -> KLCurve:
    """Sample Delta on the unit circle with adaptive bisection refinement.

    The coefficients are real, so D(conj z) = conj D(z): only theta in [0, pi]
    is traced, from the n_init equispaced thetas below pi and pi itself, with
    z = -1 exact and D taken real at z = 1 and -1.  The samples strictly
    between 0 and pi are mirrored to 2 pi - theta with conj D and the same
    depth.  The grid is kept read-only per n_init, and its sigma(z) rows per Scheme
    instance in ``s.grid_sigmas[n_init]``.  Bisection of an arc stops once the
    winding predicate accepts the segment or the arc has been halved
    ``max_depth`` times; the curve is ``certified`` when that last predicate
    pass flagged no segment.  A sample above MAX_MODULUS, or not finite, is
    beyond what the predicate can judge; a sample within ORIGIN_RESOLUTION of
    the origin puts 0 numerically on the curve: both its segments stay flagged
    in every round (PROXIMITY_FLOOR is larger).  So each round checks first
    for the scale, then for the origin, and raises RefinementExhausted with
    that sample's theta and |Delta|; verdict layers report that as marginal.
    """
    if n_init < MIN_INIT_SAMPLES:
        raise ValueError(f"n_init must be >= {MIN_INIT_SAMPLES}")
    if s.r < 1:
        raise ValueError("curve requires r >= 1")
    calB = build_calB(bc.B, s)
    thetas, zs = _initial_grid(n_init)
    if n_init not in s.grid_sigmas:
        s.grid_sigmas[n_init] = _stable_sigmas(s, zs)
    values = _delta_batch(calB, zs, s.grid_sigmas[n_init])
    values[[0, -1]] = values[[0, -1]].real
    depths = np.zeros(len(zs), dtype=int)

    while True:
        mods = np.abs(values)
        far = np.flatnonzero(~(mods <= MAX_MODULUS))
        if len(far):
            raise RefinementExhausted(
                f"|D| = {mods[far[0]]:.3g} not below {MAX_MODULUS:.3g} "
                f"at theta = {thetas[far[0]]:.17g}"
            )
        near = int(np.argmin(mods))
        if mods[near] < ORIGIN_RESOLUTION:
            raise RefinementExhausted(
                f"|D| = {mods[near]:.3g} below {ORIGIN_RESOLUTION} "
                f"at theta = {thetas[near]:.17g}"
            )
        # segment i runs from sample i to sample i + 1
        flags = needs_refinement(values[:-1], values[1:])
        child = np.maximum(depths[:-1], depths[1:]) + 1
        split = np.flatnonzero(flags & (child <= max_depth))
        if not len(split):
            break
        mids = 0.5 * (thetas[split] + thetas[split + 1])
        mid_zs = np.exp(1j * mids)
        new_values = _delta_batch(calB, mid_zs, _stable_sigmas(s, mid_zs))
        thetas = np.insert(thetas, split + 1, mids)
        values = np.insert(values, split + 1, new_values)
        depths = np.insert(depths, split + 1, child[split])
    lower = slice(-2, 0, -1)
    return KLCurve(
        np.concatenate((thetas, 2.0 * np.pi - thetas[lower])),
        np.concatenate((values, values[lower].conj())),
        np.concatenate((depths, depths[lower])),
        certified=not flags.any(),
    )


def write_curve_csv(curve: KLCurve, path: str) -> None:
    """CSV export: header theta,re,im,depth; 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("theta,re,im,depth\n")
        for t, v, d in zip(curve.thetas, curve.values, curve.depths):
            fh.write(f"{t:.17g},{v.real:.17g},{v.imag:.17g},{d}\n")


def read_curve_csv(path: str) -> KLCurve:
    thetas, values, depths = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "theta,re,im,depth":
            raise ValueError(f"unexpected curve CSV header: {header!r}")
        for line in fh:
            t, re, im, d = line.strip().split(",")
            thetas.append(float(t))
            values.append(complex(float(re), float(im)))
            depths.append(int(d))
    if len(values) < 2:
        raise ValueError(f"curve CSV needs at least 2 samples, got {len(values)}")
    values = np.array(values)
    flags = needs_refinement(values, np.roll(values, -1))
    return KLCurve(np.array(thetas), values, np.array(depths), not np.any(flags))
