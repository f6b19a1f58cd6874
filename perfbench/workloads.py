"""Seeded inputs for the klstab workloads, and the checks on their verdicts.

A workload is a fixed list of operations (a "pass") generated from the seed.
Each operation is either one ``check`` call or one single-lambda ``sweep`` row
(the unit a (lambda, sigma) map is built from).  The runner repeats the pass
until its time is up, so every pass of a run does identical work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

import klstab
import klstab.verdict

SCHEMES = {"upwind": 1, "o3": 2, "lw5": 3}  # template name -> r
STATUSES = ("stable", "unstable", "marginal", "invalid_precondition")

# Criterion-7 map ranges, lambda = 1 excluded: the integer-CFL rows below are
# added on their own, with fewer cells, because each of their cells costs
# about 30 ordinary ones.
MAP_GRIDS = (("o3", 3), ("lw5", 5))
# (lambda rows, sigma cells per row).  o3 cells are cheaper than every lw5 cell
# and hold three quarters of the map, so the median cell latency falls inside
# the o3 rows rather than on the gap between the two schemes.
MAP_SIZES = {"o3": (12, 16), "lw5": (8, 8)}
MAP_LAMBDA_RANGE = (0.05, 1.0)
MAP_SIGMA_RANGE = (-0.49, 0.49)

INTEGER_CFL_SIGMAS = 3  # cells per lambda = 1 row

# A pass takes seconds, so that a run repeats it several times and reports
# the median pass.
PROBE_CHECKS = 1000  # with the 3 extrapolation checks, 10 samples above the p99


@dataclass(frozen=True)
class Op:
    """One timed operation: a ``check`` or a one-lambda ``sweep`` row."""

    kind: str  # "check" or "sweep"
    scheme: str
    boundary: tuple  # ("R", d, k_d) or ("B", rows)
    lams: tuple[float, ...]
    sigmas: tuple[float, ...]

    @property
    def cells(self) -> int:
        return len(self.lams) * len(self.sigmas)

    def describe(self) -> dict:
        out = {"kind": self.kind, "scheme": self.scheme, "lambda": list(self.lams)}
        if self.boundary[0] == "R":
            out["boundary"] = f"R{self.boundary[1]},{self.boundary[2]}"
            out["sigma"] = list(self.sigmas)
        else:
            out["B"] = [list(row) for row in self.boundary[1]]
        return out


def _boundary_spec(op: Op, sigma: float):
    if op.boundary[0] == "R":
        return klstab.ReconstructionSpec(op.boundary[1], op.boundary[2], sigma)
    return np.array(op.boundary[1], dtype=float)


def execute(op: Op) -> list:
    """Run the operation through the public API; returns its verdicts, row-major.

    ``check`` is looked up in klstab.verdict, where ``sweep`` finds it too, so
    one traced wrapper sees every verdict.
    """
    tmpl = klstab.template(op.scheme)
    if op.kind == "check":
        return [
            klstab.verdict.check(tmpl, _boundary_spec(op, op.sigmas[0]), op.lams[0])
        ]
    grid = klstab.verdict.sweep(
        tmpl, lambda sigma: _boundary_spec(op, sigma), op.lams, op.sigmas
    )
    return [v for row in grid.results for v in row]


def summary(verdict) -> list:
    """The part of a verdict that must not change: (status, winding, zeros)."""
    return [verdict.status, verdict.winding, verdict.unstable_zeros]


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal sub-intervals, in shuffled order.

    Stratifying keeps the spread of costs alike from seed to seed, so the
    run-to-run spread of medians and tails comes from the program, not from
    which corner of the input space a seed happened to favour.
    """
    step = (hi - lo) / n
    vals = [lo + (i + rng.random()) * step for i in range(n)]
    rng.shuffle(vals)
    return vals


def _grid_axis(rng, seed, n, lo, hi, endpoint):
    """Evenly spaced axis for seed 0; other seeds jitter each value in its cell."""
    base = np.linspace(lo, hi, n + (0 if endpoint else 1))[:n]
    if seed == 0:
        return [float(x) for x in base]
    step = (hi - lo) / (n - 1 if endpoint else n)
    out = []
    for x in base:
        y = float(x) + (rng.random() - 0.5) * 0.9 * step
        out.append(min(max(y, lo), hi if endpoint else hi - 1e-9))
    return out


def map_ops(seed: int) -> list[Op]:
    """Sweep rows of the o3 R3,0 and lw5 R5,0 maps, then the integer-CFL rows.

    At lambda = 1 both schemes are a pure shift: the root kappa = 1/z sits on
    the circle at every sample, so every point leaves the batched fast path
    for the scalar selection and a Rouche re-solve.  o3 at lambda = 2 is the
    same shift by two cells.
    """
    rng = random.Random(f"map-{seed}")
    ops = []
    for scheme, d in MAP_GRIDS:
        n_lam, n_sig = MAP_SIZES[scheme]
        lams = _grid_axis(rng, seed, n_lam, *MAP_LAMBDA_RANGE, endpoint=False)
        sigmas = tuple(_grid_axis(rng, seed, n_sig, *MAP_SIGMA_RANGE, endpoint=True))
        ops += [Op("sweep", scheme, ("R", d, 0), (lam,), sigmas) for lam in lams]
    for scheme, d in MAP_GRIDS:
        sig = tuple(sorted(_strata(rng, INTEGER_CFL_SIGMAS, *MAP_SIGMA_RANGE)))
        ops.append(Op("sweep", scheme, ("R", d, 0), (1.0,), sig))
    ops.append(Op("sweep", "o3", ("R", 3, 0), (2.0,), (rng.uniform(*MAP_SIGMA_RANGE),)))
    return ops


def _random_reconstruction(rng: random.Random, r: int) -> tuple:
    d = rng.randint(2, 6)
    k_d = rng.randint(0, d - 2)
    return ("R", d, k_d)


def _random_matrix(rng: random.Random, r: int, p: int) -> tuple:
    m = rng.randint(r + p, r + p + 3)
    rows = tuple(
        tuple(round(rng.uniform(-2.0, 2.0), 6) for _ in range(m)) for _ in range(r)
    )
    return ("B", rows)


def probe_ops(seed: int) -> list[Op]:
    """Independent checks: 10% at lambda in (1, 2], 20% of the rest on random B.

    Three pure-extrapolation checks (k_d = -1) close the pass.  D vanishes on
    the circle at z = 1, so refinement doubles its points up to depth 20 and
    each ends marginal.  upwind R3,-1 is the seconds-long family; its cost
    grows with lambda (about 0.8 s at 0.1, 2 s at 0.4, 5.5 s at 0.9), so
    lambda stays in a narrow band, as it does for the R2,-1 checks, to keep
    the pass comparable from seed to seed.  o3 R3,-1 (8-13 s a check) would
    leave room for too few passes in a run.
    """
    rng = random.Random(f"probe-{seed}")
    n_high = PROBE_CHECKS // 10
    lows = _strata(rng, PROBE_CHECKS - n_high, 0.05, 1.0)
    highs = [2.0 - x for x in _strata(rng, n_high, 0.0, 1.0)]  # (1, 2]
    sigmas = _strata(rng, PROBE_CHECKS, -0.5, 0.5)
    names = list(SCHEMES)
    ops = []
    for i in range(PROBE_CHECKS):
        scheme = names[i % 3]
        r = SCHEMES[scheme]
        p = 0 if scheme == "upwind" else r - 1
        lam = highs.pop() if i % 10 == 9 else lows.pop()
        if i % 5 == 0:
            boundary = _random_matrix(rng, r, p)
            sigma = 0.0
        else:
            boundary = _random_reconstruction(rng, r)
            sigma = sigmas[i]
        ops.append(Op("check", scheme, boundary, (lam,), (sigma,)))
    ops.append(Op("check", "upwind", ("R", 3, -1), (rng.uniform(0.35, 0.45),),
                  (rng.uniform(-0.49, 0.49),)))
    for scheme in ("o3", "lw5"):
        ops.append(Op("check", scheme, ("R", 2, -1), (rng.uniform(0.35, 0.65),),
                      (rng.uniform(-0.49, 0.49),)))
    return ops


# A cheap verdict, run untimed before measuring and timed, in a fresh process,
# as part of set-up.
WARMUP = Op("check", "o3", ("R", 3, 0), (0.5,), (0.1,))

WORKLOADS = {"map": map_ops, "probe": probe_ops}


def is_known_defect(op: Op, caught: list) -> bool:
    """o3 at lambda = 2 leaks 'overflow encountered in divide' RuntimeWarnings.

    This is the one failure the benchmark expects at its defining commit; any
    other raise or warning is a new defect.
    """
    return (
        op.scheme == "o3"
        and op.lams == (2.0,)
        and bool(caught)
        and all(
            issubclass(w.category, RuntimeWarning) and "overflow" in str(w.message)
            for w in caught
        )
    )


def invariant_errors(workload: str, op: Op, verdicts: list) -> list[str]:
    """Checks that hold for every seed, where no reference verdict exists."""
    errors = []
    r = SCHEMES[op.scheme]
    if len(verdicts) != op.cells:
        errors.append(f"{len(verdicts)} verdicts for {op.cells} cells")
    for v in verdicts:
        if v.status not in STATUSES:
            errors.append(f"unknown status {v.status!r}")
        elif v.status in ("stable", "unstable"):
            # r - Ind counts zeros outside the disk; D is not a degree-r
            # polynomial in z, so the count may exceed r but never drop below 0
            if v.unstable_zeros != r - v.winding or v.unstable_zeros < 0:
                errors.append(f"zeros {v.unstable_zeros} vs r - winding, r={r}")
            if (v.unstable_zeros == 0) != (v.status == "stable"):
                errors.append(f"status {v.status} with {v.unstable_zeros} zeros")
        extrapolation = op.boundary[0] == "R" and op.boundary[2] == -1
        if extrapolation and v.status != "marginal":
            errors.append(f"pure extrapolation gave {v.status}, not marginal")
        if workload == "probe" and op.lams[0] > 1.0 and op.lams[0] != 2.0:
            if v.status != "invalid_precondition":
                errors.append(f"lambda {op.lams[0]} > 1 gave {v.status}")
        if op.kind == "sweep" and v.status == "invalid_precondition":
            errors.append("map cell failed its preconditions")
    return errors
