"""Command-line entry point: check, curve, sweep, simulate.

Scheme specs are template names (upwind, naive_average, o3, lw5) or @file with
the one-line custom format ``r p a_{-r} ... a_p``.  Boundary specs are
``R<d>,<k_d>`` (sigma supplied separately so sweeps can vary it) or @file in
the boundary text format, used as written: ``--sigma`` does not change it.
``--lambda`` and ``--sigma`` accept a scalar or a ``start:end:count`` range
(sweep only); check, curve and sweep refuse a lambda below
``verdict.LAMBDA_MIN`` as the library's check does.  Exit status is 0 whenever
the computation ran, whatever the stability outcome; nonzero only on errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from .boundary import ReconstructionSpec, parse_boundary_text
from .crosscheck import simulate
from .errors import KLStabError
from .kldet import write_curve_csv
from .scheme import SchemeTemplate, TEMPLATES, custom_template, template
from .verdict import _build_boundary, _check, sweep, write_map_csv, write_map_svg

_RECON_RE = re.compile(r"^[Rr](\d+),(-?\d+)$")


def _parse_values(text: str, what: str) -> list[float]:
    """A scalar, or start:end:count parsed to an inclusive linspace."""
    if ":" not in text:
        return [float(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what} range must be start:end:count, got {text!r}")
    start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or not 0 < end - start < np.inf:
        raise ValueError(f"{what} range needs count >= 1 and 0 < end - start < inf")
    # only the last product can round past the largest float; linspace sets it to end
    with np.errstate(over="ignore"):
        return list(np.linspace(start, end, count))


def _scheme_template(spec: str) -> SchemeTemplate:
    if spec.startswith("@"):
        return custom_template(spec[1:])
    if spec.lower() in TEMPLATES:
        return template(spec)
    raise ValueError(f"unknown scheme {spec!r} (not a template, not @file)")


def _boundary_family(spec: str):
    """sigma -> boundary description; an @file boundary ignores sigma."""
    m = _RECON_RE.match(spec)
    if m:
        d, k_d = int(m.group(1)), int(m.group(2))
        return lambda sigma: ReconstructionSpec(d=d, k_d=k_d, sigma=sigma)
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            parsed = parse_boundary_text(fh.read())
        return lambda sigma: parsed
    raise ValueError(f"boundary spec must be R<d>,<k_d> or @file, got {spec!r}")


def _single(values: list[float], what: str) -> float:
    if len(values) != 1:
        raise ValueError(f"{what} must be a single value for this command")
    return values[0]


def run(args: argparse.Namespace) -> int:
    tmpl = _scheme_template(args.scheme)
    family = _boundary_family(args.boundary)
    lams = _parse_values(args.lam, "lambda")
    sigmas = _parse_values(args.sigma, "sigma")

    if args.command == "check":
        lam = _single(lams, "lambda")
        sigma = _single(sigmas, "sigma")
        verdict, curve = _check(tmpl, family(sigma), lam, args.samples)
        if args.curve_out and verdict.certified:
            write_curve_csv(curve, args.curve_out)
        w = "na" if verdict.winding is None else verdict.winding
        z = "na" if verdict.unstable_zeros is None else verdict.unstable_zeros
        print(f"status={verdict.status} winding={w} zeros={z}")
        return 0

    if args.command == "curve":
        lam = _single(lams, "lambda")
        sigma = _single(sigmas, "sigma")
        if not args.out:
            raise ValueError("curve requires --out")
        verdict, curve = _check(tmpl, family(sigma), lam, args.samples)
        if curve is None:
            raise ValueError(verdict.error)
        write_curve_csv(curve, args.out)
        print(f"wrote {args.out} samples={len(curve)}")
        return 0

    if args.command == "sweep":
        if not args.out:
            raise ValueError("sweep requires --out")
        grid = sweep(tmpl, family, lams, sigmas, n_init=args.samples)
        write_map_csv(grid, args.out)
        svg = os.path.splitext(args.out)[0] + ".svg"
        write_map_svg(grid, svg)
        print(f"wrote {args.out} and {svg} cells={len(lams) * len(sigmas)}")
        return 0

    # simulate
    lam = _single(lams, "lambda")
    sigma = _single(sigmas, "sigma")
    scheme = tmpl(lam)
    bc = _build_boundary(family(sigma), scheme)
    f = np.zeros(args.grid_size)
    g = np.zeros((max(args.steps, 0), scheme.r))
    g[:1, -1] = 1.0  # an impulse at step 0; simulate refuses N < 1
    run_out = simulate(scheme, bc, f, g, args.steps)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("n,j,u\n")
            for n in range(run_out.completed_steps + 1):
                for j in range(run_out.J):
                    fh.write(f"{n},{j},{run_out.history[n, j]:.17g}\n")
    print(
        f"steps={run_out.completed_steps} final_norm={run_out.norm_trace[-1]:.6e} "
        f"blew_up={run_out.blew_up}"
    )
    return 0


def _add_parsers(sub) -> None:
    """One parser per command, each with only the flags that command reads."""
    parsers = {}
    for name in ("check", "curve", "sweep", "simulate"):
        p = parsers[name] = sub.add_parser(name)
        p.add_argument("--scheme", required=True, help="template name or @file")
        p.add_argument("--boundary", required=True, help="R<d>,<k_d> or @file")
        p.add_argument("--sigma", default="0.0", help="boundary offset")
        p.add_argument("--lambda", dest="lam", required=True, help="CFL number")
    for name in ("check", "curve", "sweep"):
        parsers[name].add_argument(
            "--samples", type=int, default=256, help="initial curve resolution"
        )
    for name in ("curve", "sweep", "simulate"):
        parsers[name].add_argument("--out", default=None)
    parsers["check"].add_argument("--curve-out", dest="curve_out", default=None)
    parsers["simulate"].add_argument(
        "--grid-size", dest="grid_size", type=int, default=400
    )
    parsers["simulate"].add_argument("--steps", type=int, default=1000)


_VALUE_FLAGS = {"--sigma", "--lambda"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join flag/value pairs whose value starts with '-' (negative numbers, ranges)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt is not None and nxt.startswith("-"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="klstab",
        description="Boundary stability of explicit one-step schemes by winding numbers",
    )
    _add_parsers(parser.add_subparsers(dest="command", required=True))
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        return run(args)
    except (KLStabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
