"""Differential record of klstab's outputs for one checkout, and a comparison of two.

    python3 tools/differential.py record <src-dir> <out.json>
    python3 tools/differential.py compare <a.json> <b.json>

``record`` imports klstab from <src-dir> and, with every warning raised as an
error, runs COUNT seeded ``verdict._check`` inputs: upwind, o3 and lw5 in
turn; lambda in [0.05, 1), exactly 1, or in (1, 2]; reconstruction boundaries
R<d>,<k_d> or random ghost matrices B.  Then come seven fixed lists:
EXTRAPOLATION, the three pure-extrapolation checks (upwind R3,-1, o3 and lw5
R2,-1), whose curves touch the origin at z = 1 and end marginal; ODD_SAMPLES,
o3 at lambda = 1 and lw5, traced from 255 initial samples, an odd count, at
which z = -1 is not one of the equispaced thetas and is sampled besides them;
OVERFLOW, ghost matrices whose entries are not finite
(invalid_precondition) or so large that the curve's values are beyond the
refinement predicate (marginal), kept as strings, because a JSON NaN never
equals itself; DEGENERATE, lw5 R5,0 at lambda 2 and 3 and o3 R3,0 at
lambda 2, sigma 0.1, where coefficients at the ends of P_z vanish exactly
(a_p, and a_{-3} for lw5 at lambda 2): roots at infinity and at 0 that the
root finder splits off; PREBUILT, whose boundary reaches ``_check`` as a
``BoundaryCondition`` built on the scheme at the lambda it is checked at (o3
R3,0, lw5 R5,0 and an upwind 1 x 2 ghost matrix); ROUCHE, checks with
several Rouche counts or a multiple root on the circle: lw5 R5,0 and R3,1
at lambda 0.95, 0.98 and 0.995, naive_average R2,0 at lambda 0.5, with double
roots kappa = +-1 at z = +-1, and the scheme line ``1 2 0.125 0.625 0.375
-0.125``, whose P_1 = (1 - kappa)^3 / 8 has a triple root; and NEAR_INTEGER,
o3 R3,0 and lw5 R5,0 at lambda 0.999, 0.9999, 1.0001, 1.001 and 2.0001,
sigma 0.1, whose Rouche counts take the smallest and the largest nudges.  An
input's ``scheme`` is a template name or such a line.  An input traces N_INIT
initial samples unless it names its own ``n_init``.  It then runs the sweeps
of MAPS: o3 R3,0 12x12, lw5 R5,0 8x6, an lw5 R5,0 8x8 from lambda 0.02,
whose first row refines several cells on one shared scheme, and an o3 R3,0
4x4 over lambda 0.9..1.2, whose integer-CFL row and two Cauchy-invalid rows
each read one Cauchy report that all the row's cells share.  The JSON it
writes holds, per input, the status, winding, zeros, every diagnostic and
the traced curve (thetas, values, depths); per map, its CSV text and,
row-major, each cell's status, winding, zeros and diagnostics, recorded as a
check's are.  A check that raises is recorded with status ``raised
<ExceptionType>`` and the message as its error.  Last come the
ROOTS batches: ``find_roots_many`` on P_z of upwind, o3, lw5 and
naive_average at each of ROOT_LAMBDAS, over the z of the initial grid times
each of ROOT_RADII (on the circle, inside it and outside it).  Each batch is
recorded as its roots' real and imaginary parts, or as the error it raised.

``compare`` prints how many values differ in each field (a map cell's fields
prefixed ``cell``), the largest relative difference of the curve values and of
each numeric diagnostic, whether the map CSVs are byte-identical, and how
many roots differ bit for bit.  It exits 1 on any verdict (status, winding,
zeros, of a check or a map cell), sample-set (curve presence, thetas, depths),
CSV or root difference, and when the two records were made from different
inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import warnings
from collections import Counter

import numpy as np

SEED = 0
COUNT = 360
N_INIT = 256
STENCILS = {"upwind": (1, 0), "o3": (2, 1), "lw5": (3, 2)}  # name -> (r, p)
EXTRAPOLATION = [
    {"scheme": "upwind", "lam": 0.4, "recon": [3, -1, 0.2]},
    {"scheme": "o3", "lam": 0.5, "recon": [2, -1, 0.2]},
    {"scheme": "lw5", "lam": 0.5, "recon": [2, -1, 0.2]},
]
ODD_SAMPLES = [
    {"scheme": "o3", "lam": 1.0, "recon": [3, 0, -0.3], "n_init": 255},
    {"scheme": "lw5", "lam": 0.6, "recon": [5, 0, 0.2], "n_init": 255},
]
OVERFLOW = [
    {"scheme": "upwind", "lam": 0.5, "B": [["nan", "0.5"]]},
    {"scheme": "upwind", "lam": 0.5, "B": [["inf", "0.5"]]},
    {"scheme": "upwind", "lam": 0.5, "B": [["1e160", "1e160"]]},
    {"scheme": "o3", "lam": 0.5, "B": [["1e200", "0", "0"], ["0", "1e200", "0"]]},
    {"scheme": "o3", "lam": 0.5, "B": [["1e200"] * 3] * 2},
    {"scheme": "lw5", "lam": 0.5, "B": [["1e160"] * 5] * 3},
    {"scheme": "lw5", "lam": 0.5, "B": [["1e300"] * 5] * 3},
]
DEGENERATE = [
    {"scheme": "lw5", "lam": 2.0, "recon": [5, 0, 0.1]},
    {"scheme": "lw5", "lam": 3.0, "recon": [5, 0, 0.1]},
    {"scheme": "o3", "lam": 2.0, "recon": [3, 0, 0.1]},
]
PREBUILT = [
    {"scheme": "o3", "lam": 0.5, "recon": [3, 0, -0.4], "prebuilt": True},
    {"scheme": "lw5", "lam": 0.6, "recon": [5, 0, 0.1], "prebuilt": True},
    {"scheme": "upwind", "lam": 0.7, "B": [[0.3, 0.2]], "prebuilt": True},
]
ROUCHE = [
    {"scheme": "lw5", "lam": lam, "recon": [d, k_d, 0.1]}
    for lam in (0.95, 0.98, 0.995)
    for d, k_d in ((5, 0), (3, 1))
] + [
    {"scheme": "naive_average", "lam": 0.5, "recon": [2, 0, 0.1]},
    {"scheme": "1 2 0.125 0.625 0.375 -0.125", "lam": 0.5, "recon": [2, 0, 0.1]},
]
NEAR_INTEGER = [
    {"scheme": name, "lam": lam, "recon": [d, 0, 0.1]}
    for name, d in (("o3", 3), ("lw5", 5))
    for lam in (0.999, 0.9999, 1.0001, 1.001, 2.0001)
]
# name -> (scheme, d, k_d, lambda linspace, sigma linspace)
MAPS = {
    "o3 R3,0 12x12": ("o3", 3, 0, (0.05, 1.0, 12), (-0.49, 0.49, 12)),
    "lw5 R5,0 8x6": ("lw5", 5, 0, (0.05, 1.0, 8), (-0.49, 0.49, 6)),
    "lw5 R5,0 8x8 from 0.02": ("lw5", 5, 0, (0.02, 1.0, 8), (-0.49, 0.49, 8)),
    "o3 R3,0 4x4 over 0.9..1.2": ("o3", 3, 0, (0.9, 1.2, 4), (-0.49, 0.49, 4)),
}
ROOT_SCHEMES = ("upwind", "o3", "lw5", "naive_average")
ROOT_LAMBDAS = (0.3, 0.75, 0.95, 1.0, 2.0)
ROOT_RADII = (1.0, 0.5, 2.0)
VERDICT = ("status", "winding", "zeros")
CELL = "cell "  # prefix of a map cell's fields in the counts
# Fields whose difference, like any map CSV's, makes ``compare`` fail.
FATAL = VERDICT + tuple(CELL + f for f in VERDICT) + (
    "curve presence", "curve thetas", "curve depths", "roots",
)


def check_inputs(count: int) -> list[dict]:
    """``count`` seeded check inputs, JSON-ready; schemes cycle upwind, o3, lw5."""
    rng = np.random.default_rng(SEED)
    names = list(STENCILS)
    out = []
    for i in range(count):
        name = names[i % len(names)]
        u = rng.uniform()
        if u < 0.1:
            lam = 1.0
        elif u < 0.2:
            lam = 2.0 - float(rng.uniform())  # (1, 2]
        else:
            lam = float(rng.uniform(0.05, 1.0))
        inp = {"scheme": name, "lam": lam}
        if rng.uniform() < 0.25:
            r, p = STENCILS[name]
            m = r + p + int(rng.integers(0, 4))
            inp["B"] = rng.uniform(-2.0, 2.0, size=(r, m)).tolist()
        else:
            d = int(rng.integers(2, 7))
            k_d = int(rng.integers(0, d - 1))
            inp["recon"] = [d, k_d, float(rng.uniform(-0.5, 0.5))]
        out.append(inp)
    return out


def verdict_fields(verdict) -> dict:
    """Status, winding, zeros and diagnostics of one verdict, JSON-ready."""
    return {
        "status": verdict.status,
        "winding": verdict.winding,
        "zeros": verdict.unstable_zeros,
        "diagnostics": verdict.diagnostics,
    }


def run_check(inp: dict) -> dict:
    """The verdict, diagnostics and curve of one input, as JSON-ready values."""
    from klstab.boundary import ReconstructionSpec
    from klstab.scheme import TEMPLATES, SchemeTemplate, parse_scheme_line, template
    from klstab.verdict import _build_boundary, _check

    if "recon" in inp:
        spec = ReconstructionSpec(*inp["recon"])
    else:
        spec = np.array(inp["B"], dtype=float)
    name = inp["scheme"]
    if name in TEMPLATES:
        tmpl = template(name)
    else:  # a scheme line, ``r p a_{-r} ... a_p``
        tmpl = SchemeTemplate(name, functools.partial(parse_scheme_line, name))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if inp.get("prebuilt"):
                spec = _build_boundary(spec, tmpl(inp["lam"]))
            n_init = inp.get("n_init", N_INIT)
            verdict, curve = _check(tmpl, spec, inp["lam"], n_init)
    except Exception as exc:  # a raise or a warning is an output to compare
        return {
            "status": f"raised {type(exc).__name__}",
            "winding": None,
            "zeros": None,
            "diagnostics": {"error": str(exc)},
            "curve": None,
        }
    return verdict_fields(verdict) | {
        "curve": None
        if curve is None
        else {
            "thetas": curve.thetas.tolist(),
            "re": curve.values.real.tolist(),
            "im": curve.values.imag.tolist(),
            "depths": curve.depths.tolist(),
        },
    }


def record_maps() -> tuple[dict[str, str], dict[str, list[dict]]]:
    """CSV text of each sweep in MAPS, and its cells' verdict fields, row-major."""
    from klstab.boundary import ReconstructionSpec
    from klstab.scheme import template
    from klstab.verdict import sweep, write_map_csv

    csvs, cells = {}, {}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = os.path.join(tmp, "map.csv")
        for key, (name, d, k_d, lams, sigmas) in MAPS.items():
            grid = sweep(
                template(name),
                lambda sigma: ReconstructionSpec(d, k_d, sigma),
                np.linspace(*lams),
                np.linspace(*sigmas),
            )
            write_map_csv(grid, path)
            with open(path, encoding="utf-8") as fh:
                csvs[key] = fh.read()
            cells[key] = [verdict_fields(v) for row in grid.results for v in row]
    return csvs, cells


def root_inputs() -> list[dict]:
    """The ROOTS batches, one per scheme, lambda and each of ROOT_RADII."""
    return [
        {"scheme": name, "lam": lam, "radius": radius}
        for name in ROOT_SCHEMES
        for lam in ROOT_LAMBDAS
        for radius in ROOT_RADII
    ]


def record_roots(inp: dict) -> dict:
    """The roots of one ROOTS batch, or the error it raised, JSON-ready."""
    from klstab.kldet import _initial_grid
    from klstab.poly import find_roots_many
    from klstab.scheme import characteristic_polynomial, template

    _, zs = _initial_grid(N_INIT)
    s = template(inp["scheme"])(inp["lam"])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = characteristic_polynomial(s, inp["radius"] * zs)
            roots = find_roots_many(rows)
    except Exception as exc:  # a raise or a warning is an output to compare
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"re": roots.real.tolist(), "im": roots.imag.tolist()}


def record() -> dict:
    fixed = (
        EXTRAPOLATION + ODD_SAMPLES + OVERFLOW + DEGENERATE + PREBUILT + ROUCHE
        + NEAR_INTEGER
    )
    inputs = check_inputs(COUNT) + fixed
    checks = [run_check(inp) for inp in inputs]
    csvs, cells = record_maps()
    batches = root_inputs()
    return {
        "inputs": inputs,
        "checks": checks,
        "maps": csvs,
        "map_cells": cells,
        "root_inputs": batches,
        "roots": [record_roots(inp) for inp in batches],
    }


def _root_differences(ra: dict, rb: dict) -> int:
    """How many roots of one ROOTS batch differ bit for bit; a batch that
    raised on one side only, or raised otherwise, counts as all its roots."""
    if "error" in ra or "error" in rb:
        if ra == rb:
            return 0
        solved = [r for r in (ra, rb) if "re" in r]
        return np.size(solved[0]["re"]) if solved else 1
    bits = [np.array([r["re"], r["im"]]).view(np.uint64) for r in (ra, rb)]
    if bits[0].shape != bits[1].shape:
        return max(b[0].size for b in bits)
    return int(np.count_nonzero((bits[0] != bits[1]).any(axis=0)))


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _count_verdict(ca, cb, prefix, counts, rel, mirrored) -> None:
    """Count the verdict fields and diagnostics of one check or map cell."""
    for field in VERDICT:
        counts[prefix + field] += ca[field] != cb[field]
    da, db = ca["diagnostics"], cb["diagnostics"]
    for key in sorted(set(da) | set(db)):
        va, vb = da.get(key), db.get(key)
        name = f"{prefix}diagnostic {key}"
        counts[name] += va != vb
        if isinstance(va, float) and isinstance(vb, float):
            rel[name] = max(rel.get(name, 0.0), _rel(va, vb))
            if va != vb and math.isclose(va, 2.0 * math.pi - vb, abs_tol=1e-12):
                mirrored[name] += 1


def differences(a: dict, b: dict) -> tuple[Counter, dict[str, float], Counter]:
    """Per field: how many values differ, and the largest relative difference.

    The third result counts, per numeric diagnostic, the differences where one
    value is 2 pi minus the other (a mirrored ``cauchy_xi_worst``).  Curve
    values are compared sample by sample as |va - vb| / max(|va|, |vb|), and
    only where both sample sets are equal.  Map cells are counted as checks
    are, under their own field names, and ROOTS batches as the number of
    roots that differ bit for bit.
    """
    if a["inputs"] != b["inputs"] or a.get("root_inputs") != b.get("root_inputs"):
        raise ValueError("the records were made from different inputs")
    counts: Counter = Counter()
    mirrored: Counter = Counter()
    rel: dict[str, float] = {}
    for ca, cb in zip(a["checks"], b["checks"]):
        _count_verdict(ca, cb, "", counts, rel, mirrored)
        qa, qb = ca["curve"], cb["curve"]
        counts["curve presence"] += (qa is None) != (qb is None)
        if qa is None or qb is None:
            continue
        counts["curve thetas"] += qa["thetas"] != qb["thetas"]
        counts["curve depths"] += qa["depths"] != qb["depths"]
        if qa["thetas"] != qb["thetas"]:
            continue
        va = np.array(qa["re"]) + 1j * np.array(qa["im"])
        vb = np.array(qb["re"]) + 1j * np.array(qb["im"])
        counts["curve values"] += not np.array_equal(va, vb)
        scale = np.maximum(np.abs(va), np.abs(vb))
        diff = np.abs(va - vb) / np.where(scale > 0, scale, 1.0)
        rel["curve values"] = max(rel.get("curve values", 0.0), float(np.max(diff)))
    for key in sorted(set(a["maps"]) | set(b["maps"])):
        counts[f"map {key}"] += a["maps"].get(key) != b["maps"].get(key)
        for ca, cb in zip(a["map_cells"].get(key, ()), b["map_cells"].get(key, ())):
            _count_verdict(ca, cb, CELL, counts, rel, mirrored)
    for ra, rb in zip(a.get("roots", ()), b.get("roots", ())):
        counts["roots"] += _root_differences(ra, rb)
    return counts, rel, mirrored


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines, and whether a verdict, sample set or map CSV differs."""
    counts, rel, mirrored = differences(a, b)
    curves = [sum(c["curve"] is not None for c in r["checks"]) for r in (a, b)]
    lines = [f"checks: {len(a['checks'])}; curves traced: {curves[0]} / {curves[1]}"]
    for key in sorted(counts, key=lambda k: (k.startswith("map "), k)):
        if key.startswith("map "):
            lines.append(f"{key}: {'DIFFERS' if counts[key] else 'byte-identical'}")
            continue
        line = f"{key}: {counts[key]} differ"
        if mirrored[key]:
            line += f" ({mirrored[key]} mirrored to 2 pi - x)"
        if key in rel:
            line += f", max rel {rel[key]:.2g}"
        lines.append(line)
    failed = any(n for k, n in counts.items() if k in FATAL or k.startswith("map "))
    return lines, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="differential", description=__doc__.split("\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record one checkout's outputs")
    rec.add_argument("src_dir", help="directory that holds the klstab package")
    rec.add_argument("out", help="JSON file to write")
    cmp = sub.add_parser("compare", help="compare two records")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "record":
        src = os.path.abspath(args.src_dir)
        sys.path.insert(0, src)
        import klstab

        if not os.path.abspath(klstab.__file__).startswith(src + os.sep):
            print(f"error: klstab imported from {klstab.__file__}", file=sys.stderr)
            return 1
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record(), fh)
        return 0

    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    try:
        lines, failed = compare(a, b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
