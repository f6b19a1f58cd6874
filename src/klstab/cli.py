"""Command-line entry point: check, curve, sweep, simulate.

Scheme specs are template names (upwind, naive_average, o3, lw5) or @file with
the one-line custom format ``r p a_{-r} ... a_p``.  Boundary specs are
``R<d>,<k_d>`` (sigma supplied separately so sweeps can vary it) or @file in
the boundary text format.  ``--lambda`` and ``--sigma`` accept a scalar or a
``start:end:count`` range (sweep only).  Exit status is 0 whenever the
computation ran, whatever the stability outcome; nonzero only on errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from .boundary import ReconstructionSpec, parse_boundary_text
from .crosscheck import simulate
from .errors import KLStabError
from .kldet import kl_curve, write_curve_csv
from .scheme import SchemeTemplate, TEMPLATES, custom_template, template
from .verdict import (
    DEFAULT_LAMBDA_MIN,
    _build_boundary,
    check,
    filter_lambda_grid,
    sweep,
    write_map_csv,
    write_map_svg,
)

_RECON_RE = re.compile(r"^[Rr](\d+),(-?\d+)$")


@dataclass(frozen=True)
class RunConfig:
    command: str
    scheme_spec: str
    boundary_spec: str
    lam: str
    sigma: str
    samples: int
    out: str | None
    curve_out: str | None
    tol_unit: float
    lambda_min: float
    grid_size: int
    steps: int


def _parse_values(text: str, what: str) -> list[float]:
    """A scalar, or start:end:count parsed to an inclusive linspace."""
    if ":" not in text:
        return [float(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what} range must be start:end:count, got {text!r}")
    start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or start >= end:
        raise ValueError(f"{what} range needs count >= 1 and start < end")
    return list(np.linspace(start, end, count))


def _scheme_template(spec: str) -> SchemeTemplate:
    if spec.startswith("@"):
        return custom_template(spec[1:])
    if spec.lower() in TEMPLATES:
        return template(spec)
    if os.path.exists(spec):
        return custom_template(spec)
    raise ValueError(f"unknown scheme {spec!r} (not a template, not a file)")


def _boundary_family(spec: str):
    """Returns sigma -> boundary description (ReconstructionSpec or matrix)."""
    m = _RECON_RE.match(spec)
    if m:
        d, k_d = int(m.group(1)), int(m.group(2))
        return lambda sigma: ReconstructionSpec(d=d, k_d=k_d, sigma=sigma)
    if spec.startswith("@"):
        path = spec[1:]
        with open(path, "r", encoding="utf-8") as fh:
            parsed = parse_boundary_text(fh.read())
        if isinstance(parsed, ReconstructionSpec):
            return lambda sigma: replace(parsed, sigma=sigma)
        return lambda sigma: parsed
    raise ValueError(f"boundary spec must be R<d>,<k_d> or @file, got {spec!r}")


def _single(values: list[float], what: str) -> float:
    if len(values) != 1:
        raise ValueError(f"{what} must be a single value for this command")
    return values[0]


def run(config: RunConfig) -> int:
    tmpl = _scheme_template(config.scheme_spec)
    family = _boundary_family(config.boundary_spec)
    lams = _parse_values(config.lam, "lambda")
    sigmas = _parse_values(config.sigma, "sigma")

    if config.command == "check":
        lam = _single(lams, "lambda")
        sigma = _single(sigmas, "sigma")
        verdict = check(
            tmpl, family(sigma), lam, n_init=config.samples, tol_unit=config.tol_unit
        )
        if config.curve_out and verdict.certified:
            scheme = tmpl(lam)
            curve = kl_curve(
                scheme,
                _build_boundary(family(sigma), scheme),
                n_init=config.samples,
                tol_unit=config.tol_unit,
            )
            write_curve_csv(curve, config.curve_out)
        w = "na" if verdict.winding is None else verdict.winding
        z = "na" if verdict.unstable_zeros is None else verdict.unstable_zeros
        print(f"status={verdict.status} winding={w} zeros={z}")
        return 0

    if config.command == "curve":
        lam = _single(lams, "lambda")
        sigma = _single(sigmas, "sigma")
        out = config.out or config.curve_out
        if not out:
            raise ValueError("curve requires --out")
        scheme = tmpl(lam)
        curve = kl_curve(
            scheme,
            _build_boundary(family(sigma), scheme),
            n_init=config.samples,
            tol_unit=config.tol_unit,
        )
        write_curve_csv(curve, out)
        print(f"wrote {out} samples={len(curve)}")
        return 0

    if config.command == "sweep":
        if not config.out:
            raise ValueError("sweep requires --out")
        kept = filter_lambda_grid(lams, config.lambda_min)
        dropped = len(lams) - len(kept)
        if dropped:
            print(
                f"dropped {dropped} lambda values below {config.lambda_min}",
                file=sys.stderr,
            )
        grid = sweep(
            tmpl, family, kept, sigmas, n_init=config.samples, tol_unit=config.tol_unit
        )
        write_map_csv(grid, config.out)
        svg = os.path.splitext(config.out)[0] + ".svg"
        write_map_svg(grid, svg)
        print(f"wrote {config.out} and {svg} cells={len(kept) * len(sigmas)}")
        return 0

    if config.command == "simulate":
        lam = _single(lams, "lambda")
        sigma = _single(sigmas, "sigma")
        scheme = tmpl(lam)
        bc = _build_boundary(family(sigma), scheme)
        f = np.zeros(config.grid_size)
        g = np.zeros((config.steps, scheme.r))
        g[0, -1] = 1.0
        run_out = simulate(scheme, bc, f, g, config.steps)
        if config.out:
            with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("n,j,u\n")
                for n in range(run_out.completed_steps + 1):
                    for j in range(run_out.J):
                        fh.write(f"{n},{j},{run_out.history[n, j]:.17g}\n")
        print(
            f"steps={run_out.completed_steps} final_norm={run_out.norm_trace[-1]:.6e} "
            f"blew_up={run_out.blew_up}"
        )
        return 0

    raise ValueError(f"unknown command {config.command!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", required=True, help="template name or @file")
    p.add_argument("--boundary", required=True, help="R<d>,<k_d> or @file")
    p.add_argument("--sigma", "--sigma-range", dest="sigma", default="0.0")
    p.add_argument("--lambda", "--lambda-range", dest="lam", required=True)
    p.add_argument("--samples", type=int, default=256, help="initial curve resolution")
    p.add_argument("--out", default=None)
    p.add_argument("--curve-out", dest="curve_out", default=None)
    p.add_argument("--tol-unit", dest="tol_unit", type=float, default=1e-9)
    p.add_argument(
        "--lambda-min", dest="lambda_min", type=float, default=DEFAULT_LAMBDA_MIN
    )
    p.add_argument("--grid-size", dest="grid_size", type=int, default=400)
    p.add_argument("--steps", type=int, default=1000)


_VALUE_FLAGS = {"--sigma", "--sigma-range", "--lambda", "--lambda-range"}


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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "curve", "sweep", "simulate"):
        _add_common(sub.add_parser(name))
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    config = RunConfig(
        command=args.command,
        scheme_spec=args.scheme,
        boundary_spec=args.boundary,
        lam=args.lam,
        sigma=args.sigma,
        samples=args.samples,
        out=args.out,
        curve_out=args.curve_out,
        tol_unit=args.tol_unit,
        lambda_min=args.lambda_min,
        grid_size=args.grid_size,
        steps=args.steps,
    )
    try:
        return run(config)
    except (KLStabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
