#!/usr/bin/env python3
"""klstab benchmark: one workload, one seed, one timed run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload map --seed 0 --seconds 60 --trace 0

Workloads are ``map`` and ``probe`` (see workloads.py).  The run imports klstab from ``src/`` of the checkout, repeats
the workload's seeded pass of operations until ``--seconds`` are used up (at
least once), checks every verdict, and prints human-readable lines followed by
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics derived from spans recorded around each layer boundary; it exits with
status 3, printing no result, when the trace misses a layer.

Every run writes ``perfbench/out/<workload>-seed<n>-trace<t>.json`` (inputs,
verdicts, environment, metrics); traced runs also write the spans of their
first traced pass as ``...-spans.tsv.gz``.  ``--write-reference`` records the seed-0 verdicts that
later runs of seed 0 are checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
WARMUP_S = 1.0  # untimed repeats of the warm-up verdict before measuring

# Fresh-process set-up: import klstab, then one warm-up verdict.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import klstab, workloads
workloads.execute(workloads.WARMUP)
print(repr(time.perf_counter() - t0))
"""


def import_klstab():
    """klstab from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "klstab", "__init__.py")):
        sys.exit(f"perfbench: no klstab sources under {SRC}")
    sys.path.insert(0, SRC)
    import klstab

    if os.path.dirname(os.path.dirname(os.path.abspath(klstab.__file__))) != SRC:
        sys.exit(f"perfbench: imported klstab from {klstab.__file__}, not {SRC}")


def environment(klstab_threads_seen) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        # Unset means OpenBLAS starts one thread per core; a "serial" run then
        # burns more CPU than wall time.
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "KLSTAB_THREADS": "unset",
        "KLSTAB_THREADS_removed": klstab_threads_seen,
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: a measured sample with q% of samples at or below."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


class PassResult:
    """Timings, verdicts and failures of one pass over the workload's operations."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.times: list[float] = []
        self.verdicts: list = []  # per op: list of verdicts, or None if it raised
        self.errors: list = []  # per op: exception text or None
        self.warnings: list = []  # per op: messages of recorded warnings


def run_pass(W, ops, tracer=None) -> PassResult:
    res = PassResult()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for op in ops:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                if tracer is None:
                    verdicts = W.execute(op)
                else:
                    verdicts = tracer.run_op(lambda: W.execute(op))
                error = None
            except Exception as exc:  # counted as a failed operation
                verdicts, error = None, f"{type(exc).__name__}: {exc}"
            res.times.append(time.perf_counter() - start)
        res.verdicts.append(verdicts)
        res.errors.append(error)
        res.warnings.append(caught)
    res.wall = time.perf_counter() - wall0
    res.cpu = time.process_time() - cpu0
    return res


def run_timed(run_one, seconds: float) -> list:
    """Call ``run_one`` while the next call is expected to end within ``seconds``.

    It always runs at least once; it returns the list of its results, each
    carrying the ``wall`` seconds it took.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_one())
        typical = statistics.median(r.wall for r in results)
        if time.perf_counter() - start + typical > seconds:
            return results


def map_csv_digests(W, ops, verdicts, seed: int, trace: int) -> dict:
    """sha256 of write_map_csv bytes for each scheme's lambda < 1 grid of this pass."""
    import klstab

    digests = {}
    for scheme, _ in W.MAP_GRIDS:
        idx = [i for i, op in enumerate(ops)
               if op.scheme == scheme and op.lams[0] < 1.0]
        rows = [verdicts[i] for i in idx]
        if any(r is None for r in rows):
            digests[scheme] = None
            continue
        grid = klstab.SweepGrid(
            lambda_values=tuple(ops[i].lams[0] for i in idx),
            sigma_values=ops[idx[0]].sigmas,
            results=rows,
            r=klstab.template(scheme)(max(ops[i].lams[0] for i in idx)).r,
        )
        path = os.path.join(OUT, f"map-{scheme}-seed{seed}-trace{trace}.csv")
        klstab.write_map_csv(grid, path)
        with open(path, "rb") as fh:
            digests[scheme] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def assess(W, workload, ops, passes, reference, digests) -> dict:
    """Failure counts and correctness over all passes.

    A cell fails when its operation raised or warned, or its verdict differs
    from the reference (seed 0) or breaks an invariant (other seeds).
    """
    problems, known, failed, attempted = [], [], 0, 0
    first = [
        None if v is None else [W.summary(x) for x in v] for v in passes[0].verdicts
    ]
    for k, res in enumerate(passes):
        for i, op in enumerate(ops):
            attempted += op.cells
            verdicts, error, caught = res.verdicts[i], res.errors[i], res.warnings[i]
            if error is not None:
                failed += op.cells
                problems.append(f"op {i} raised {error}")
                continue
            bad = 0
            if caught:
                bad = op.cells
                text = f"op {i} warned: {sorted({str(w.message) for w in caught})}"
                (known if W.is_known_defect(op, caught) else problems).append(text)
            got = [W.summary(v) for v in verdicts]
            if reference is not None:
                want = reference["verdicts"][i]
                diff = sum(g != w for g, w in zip(got, want))
                if diff:
                    problems.append(f"op {i}: {diff} verdicts differ from reference")
                bad = max(bad, diff)
            for err in W.invariant_errors(workload, op, verdicts):
                problems.append(f"op {i}: {err}")
                bad = op.cells
            if k and got != first[i]:
                problems.append(f"op {i}: pass {k} verdicts differ from pass 0")
                bad = op.cells
            failed += bad
    if reference is not None and digests != reference.get("map_csv_sha256", {}):
        problems.append(f"map CSV digests {digests} differ from reference")
        failed = max(failed, sum(op.cells for op in ops))
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "correct": not problems,
        "problems": problems[:50],
        "known_defects_seen": sorted(set(known))[:10],
    }


def setup_seconds() -> list[float]:
    code = SETUP_CODE.format(src=SRC, here=HERE)
    env = {k: v for k, v in os.environ.items() if k != "KLSTAB_THREADS"}
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def pass_figures(ops, res: PassResult) -> dict:
    """Throughput and latency percentiles of one pass."""
    samples = []
    for op, t in zip(ops, res.times):
        samples += [t / op.cells * 1e3] * op.cells  # a sweep row charges each cell
    return {
        "cells_per_s": sum(op.cells for op in ops) / sum(res.times),
        "check_ms.p50": percentile(samples, 50),
        "check_ms.p99": percentile(samples, 99),
    }


def end_to_end(ops, passes, setup) -> dict:
    """Per-pass figures as medians over the run's passes, plus set-up and RSS."""
    figures = [pass_figures(ops, p) for p in passes]
    metrics = {name: statistics.median(f[name] for f in figures)
               for name in figures[0]}
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return metrics


class PassPair:
    """An untraced pass followed by a traced pass of the same operations."""

    def __init__(self, plain: PassResult, traced: PassResult, layers: dict):
        self.plain, self.traced, self.layers = plain, traced, layers
        self.wall = plain.wall + traced.wall


def traced(W, tracing, workload, seed, ops, seconds):
    """Alternate untraced and traced passes; returns metrics, traced passes, errors.

    The untraced passes give the base of the overhead ratio and the CPU time;
    alternating keeps both sides in the same stretch of machine load.
    """
    tracer = tracing.Tracer()
    errors = []

    def run_pair():
        plain = run_pass(W, ops)
        mark = len(tracer)
        tracer.install()
        try:
            res = run_pass(W, ops, tracer)
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer, mark, len(tracer))
        errors.extend(tracing.completeness_errors(workload, layers, res.wall))
        if mark:
            tracer.truncate(mark)  # keep the spans of the first traced pass only
        return PassPair(plain, res, layers)

    pairs = run_timed(run_pair, seconds)
    tracer.write(os.path.join(OUT, f"{workload}-seed{seed}-spans.tsv.gz"))
    metrics = {
        name: statistics.median(p.layers[name] for p in pairs)
        for name in pairs[0].layers
    }
    plain = [p.plain for p in pairs]
    passes = [p.traced for p in pairs]
    metrics["process.cpu_s"] = statistics.median(p.cpu for p in plain)
    metrics["trace.overhead_ratio"] = statistics.median(
        p.traced.wall / p.plain.wall for p in pairs
    )
    return metrics, passes, sorted(set(errors))


def with_units(metrics: dict, declared: list) -> dict:
    """Attach each metric's declared unit; the names must match BENCHMARK.json."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        sys.exit(f"perfbench: measured {sorted(metrics)} but declared {sorted(names)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record seed-0 verdicts into perfbench/reference/")
    args = ap.parse_args(argv)

    klstab_threads_seen = os.environ.pop("KLSTAB_THREADS", None)
    import_klstab()
    sys.path.insert(1, HERE)
    import workloads as W

    os.makedirs(OUT, exist_ok=True)
    seed = DEFAULT_SEED if args.write_reference else args.seed
    ops = W.WORKLOADS[args.workload](seed)
    described = [op.describe() for op in ops]
    ref_path = os.path.join(REFERENCE, f"{args.workload}.json")
    reference = None
    if seed == DEFAULT_SEED and not args.write_reference:
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh)
        if reference["ops"] != json.loads(json.dumps(described)):
            sys.exit("perfbench: seed-0 inputs differ from the recorded reference")

    # Untimed: lazy imports, first-call costs, and a processor brought up to speed.
    warm_until = time.perf_counter() + WARMUP_S
    while True:
        W.execute(W.WARMUP)
        if time.perf_counter() > warm_until:
            break
    env = environment(klstab_threads_seen)

    if args.write_reference:
        res = run_pass(W, ops)
        digests = (map_csv_digests(W, ops, res.verdicts, seed, 0)
                   if args.workload == "map" else {})
        check = assess(W, args.workload, ops, [res], None, digests)
        if not check["correct"]:
            sys.exit("perfbench: not recording a reference from a run with "
                     f"problems: {check['problems'][:5]}")
        verdicts = [[W.summary(x) for x in v] for v in res.verdicts]
        os.makedirs(REFERENCE, exist_ok=True)
        with open(ref_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": seed, "ops": described,
                       "verdicts": verdicts, "map_csv_sha256": digests}, fh)
            fh.write("\n")
        print(f"wrote {ref_path}")
        return 0

    if args.trace:
        import tracing

        values, passes, trace_errors = traced(W, tracing, args.workload, seed,
                                              ops, args.seconds)
        metrics = with_units(values, bench["per_layer"])
    else:
        setup = setup_seconds()
        passes = run_timed(lambda: run_pass(W, ops), args.seconds)
        metrics = with_units(end_to_end(ops, passes, setup), bench["end_to_end"])
        trace_errors = []

    digests = (map_csv_digests(W, ops, passes[0].verdicts, seed, args.trace)
               if args.workload == "map" else {})
    verdict = assess(W, args.workload, ops, passes, reference, digests)
    wall = sum(p.wall for p in passes)
    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "passes": len(passes), "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "pass_figures": [] if args.trace else [pass_figures(ops, p) for p in passes],
        "metrics": metrics, **verdict, "map_csv_sha256": digests,
        "trace_errors": trace_errors, "ops": described,
        "verdicts": [None if v is None else [W.summary(x) for x in v]
                     for v in passes[0].verdicts],
    }
    path = os.path.join(OUT, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={seed} trace={args.trace} "
          f"passes={len(passes)} ops={len(ops) * len(passes)} "
          f"cells={verdict['attempted']} wall_s={wall:.3f} "
          f"cpu_s={sum(p.cpu for p in passes):.3f}")
    print(f"failed={verdict['failed']} failed_ratio={verdict['failed_ratio']:.6g} "
          f"correct={verdict['correct']}")
    if not args.trace:
        print(f"samples: cells_per_s and check_ms are medians over {len(passes)} "
              f"passes of {sum(op.cells for op in ops)} cells; setup_s is the "
              f"median of {SETUP_REPEATS} fresh processes")
    for text in verdict["known_defects_seen"]:
        print(f"known defect: {text[:200]}")
    for text in verdict["problems"][:10]:
        print(f"PROBLEM: {text[:300]}")
    counts = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    for name, m in metrics.items():
        n = counts.get(name, len(passes))
        print(f"{name} {m['value']:.6g} {m['unit']} (n={n})")
    print(f"result file {os.path.relpath(path, ROOT)}")
    if trace_errors:
        for text in trace_errors:
            print(f"TRACE INCOMPLETE: {text}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
