"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Sign convention for the boundary offset: the physical boundary sits at
x = sigma*dx, and positive sigma lies to the right of grid point 0 (README,
``klstab.boundary``).  Criterion 2 pins this convention: Y_MINUS_GOLDEN[0, 0] =
-12/5 = ((-1.9)^2 - (-2.9)^2)/2 is the cell average of (y - 0.4) over cell -2.

Under that convention the o3 R3,0 verdict pair of criterion 1 (stable at
lambda = 0.4, unstable at lambda = 0.9) belongs to sigma = -0.4, so criterion 1
evaluates it there.  At sigma = +0.4, lambda = 0.4 the scheme is genuinely
unstable: the determinant vanishes at z = 2.45938115881...
(test_verdict.py::test_o3_positive_offset_has_exterior_zero), the truncated
operator's dominant eigenvalue equals that zero
(test_crosscheck.py::test_spectral_radius_matches_determinant_zero), and time
marching blows up, whereas at sigma = -0.4 marching a boundary impulse stays
bounded at lambda = 0.4 and blows up at lambda = 0.9.  Criterion 1 also asserts
the sigma = +0.4 instability, so a flip of the convention cannot pass unnoticed.
Criterion 9 is soft per its own wording ("logged not gating").
"""

import time

import numpy as np
import pytest

from conftest import (
    B_GOLDEN,
    Y_MINUS_GOLDEN,
    Y_PLUS_GOLDEN,
    o3_Btilde_golden,
    o3_calB_golden,
    recon_bc,
)
from klstab.boundary import (
    BoundaryCondition,
    ReconstructionSpec,
    build_calB,
    reconstruction_B,
    reconstruction_matrices,
)
from klstab.crosscheck import assemble_quasi_toeplitz, spectral_radius
from klstab.errors import MultipleRoot
from klstab.kldet import delta, delta_reference, reduce_Btilde
from klstab.poly import find_roots
from klstab.scheme import characteristic_polynomial, hersh_split, template
from klstab.verdict import check, sweep
from klstab.winding import winding_number

ORACLE_CONFIGS = [
    ("o3", 3, 0),
    ("o3", 3, 1),
    ("o3", 4, 0),
    ("lw5", 5, 0),
    ("lw5", 6, 1),
]


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_o3_golden_verdicts():
    spec = ReconstructionSpec(3, 0, -0.4)
    t0 = time.perf_counter()
    stable = check(template("o3"), spec, 0.4)
    t_stable = time.perf_counter() - t0
    t0 = time.perf_counter()
    unstable = check(template("o3"), spec, 0.9)
    t_unstable = time.perf_counter() - t0
    mirrored = check(template("o3"), ReconstructionSpec(3, 0, 0.4), 0.4)

    fast = t_stable < 1.0 and t_unstable < 1.0
    ok = (
        fast
        and (stable.status, stable.winding, stable.unstable_zeros) == ("stable", 2, 0)
        and (unstable.status, unstable.unstable_zeros) == ("unstable", 1)
        and (mirrored.status, mirrored.unstable_zeros) == ("unstable", 1)
    )
    detail = (
        f"R3,0 sigma=-0.4: lambda=0.4 -> {stable.status}/w={stable.winding}"
        f"/z={stable.unstable_zeros} ({t_stable * 1e3:.0f} ms), "
        f"lambda=0.9 -> {unstable.status}/z={unstable.unstable_zeros} "
        f"({t_unstable * 1e3:.0f} ms); expected stable(w2,z0) / unstable(z1); "
        f"sigma=+0.4 lambda=0.4 -> {mirrored.status}/z={mirrored.unstable_zeros} "
        "(expected unstable(z1))"
    )
    report(1, ok, detail)
    assert ok, (
        "the verdict pair belongs to sigma=-0.4 and sigma=+0.4 is unstable at "
        "lambda=0.4 under the convention criterion 2 pins (see this module's "
        "docstring, test_o3_positive_offset_has_exterior_zero and "
        "test_spectral_radius_matches_determinant_zero): " + detail
    )


def test_criterion_2_boundary_golden_matrices():
    y_minus, y_plus = reconstruction_matrices(ReconstructionSpec(3, 0, 0.4), r=2)
    b = reconstruction_B(ReconstructionSpec(3, 0, 0.4), r=2, m=2)
    errs = [
        np.max(np.abs(y_minus - Y_MINUS_GOLDEN) / np.abs(Y_MINUS_GOLDEN)),
        np.max(np.abs(y_plus - Y_PLUS_GOLDEN) / np.abs(Y_PLUS_GOLDEN)),
        np.max(np.abs(b - B_GOLDEN) / np.abs(B_GOLDEN)),
    ]
    for lam in np.linspace(0.05, 1.0, 20):
        s = template("o3")(float(lam))
        bc = BoundaryCondition.from_reconstruction(ReconstructionSpec(3, 0, 0.4), s)
        golden = o3_calB_golden(float(lam))
        calB = build_calB(bc.B, s)
        errs.append(np.max(np.abs(calB - golden) / (np.abs(golden) + 1e-30)))
    worst = float(np.max(errs))
    ok = worst <= 1e-12
    report(2, ok, f"Y-, Y+, B and calB golden entries, worst relative error {worst:.2e}")
    assert ok


def test_criterion_3_Btilde_golden_formula():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        lam = float(rng.uniform(0.05, 1.0))
        s0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = template("o3")(lam)
        bc = BoundaryCondition.from_reconstruction(ReconstructionSpec(3, 0, 0.4), s)
        bt = reduce_Btilde(build_calB(bc.B, s), [s0, s1])
        golden = o3_Btilde_golden(lam, s0, s1)
        worst = max(worst, float(np.max(np.abs(bt - golden) / (1 + np.abs(golden)))))
    ok = worst <= 1e-10
    report(3, ok, f"20 random (lambda, s0, s1), worst relative error {worst:.2e}")
    assert ok


def test_criterion_4_reference_determinant_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    total = 0
    for name, d, k_d in ORACLE_CONFIGS:
        tmpl = template(name)
        lam = 0.4 if name == "o3" else 0.5
        s = tmpl(lam)
        bc = BoundaryCondition.from_reconstruction(ReconstructionSpec(d, k_d, 0.4), s)
        done = 0
        while done < 100:
            z = float(rng.uniform(1.01, 10.0)) * np.exp(
                1j * float(rng.uniform(0, 2 * np.pi))
            )
            try:
                ref = delta_reference(s, bc, z)
            except MultipleRoot:
                continue
            val = delta(s, bc, z)
            worst = max(worst, abs(val - ref) / (1 + abs(val)))
            done += 1
            total += 1
    ok = worst <= 1e-8
    report(4, ok, f"{total} random exterior z across 5 boundary setups, worst {worst:.2e}")
    assert ok


def test_criterion_5_hersh_at_scale():
    rng = np.random.default_rng(11)
    count = 0
    for name in ("o3", "lw5"):
        tmpl = template(name)
        for lam in rng.uniform(0.05, 1.0, size=20):
            s = tmpl(float(lam))
            radii = rng.uniform(1.01, 100.0, size=200)
            angles = rng.uniform(0.0, 2 * np.pi, size=200)
            for z in radii * np.exp(1j * angles):
                rs = find_roots(characteristic_polynomial(s, z))
                inside, outside = hersh_split(s, z, rs)
                deficit = s.r + s.p - len(rs)
                assert len(inside) == s.r and len(outside) + deficit == s.p
                count += 1
    report(5, True, f"{count} root splits all returned exactly (r, p)")


def test_criterion_6_winding_exactness():
    for r in range(1, 9):
        for n in (4 * r, 64 * r):
            thetas = np.linspace(0, 2 * np.pi, n, endpoint=False)
            idx = winding_number(np.exp(1j * r * thetas)).index
            assert idx == r, (r, n, idx)
    rng = np.random.default_rng(13)
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 4096, endpoint=False))
    done = 0
    while done < 50:
        deg = int(rng.integers(1, 7))
        roots = rng.uniform(0.1, 2.0, size=deg) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, size=deg)
        )
        if np.any(np.abs(np.abs(roots) - 1.0) < 0.05):
            continue
        samples = np.ones_like(z)
        for root in roots:
            samples = samples * (z - root)
        assert winding_number(samples).index == int(np.sum(np.abs(roots) < 1.0))
        done += 1
    report(6, True, "z^r exact for r in 1..8; argument principle exact on 50 polynomials")


def test_criterion_7_sweep_performance_and_consistency():
    lams = list(np.linspace(0.05, 1.0, 40))
    sigs = list(np.linspace(-0.49, 0.49, 40))
    t0 = time.perf_counter()
    grid = sweep(template("o3"), lambda s: ReconstructionSpec(3, 0, s), lams, sigs)
    elapsed = time.perf_counter() - t0
    rng = np.random.default_rng(17)
    agree = True
    for _ in range(20):
        i = int(rng.integers(0, 40))
        j = int(rng.integers(0, 40))
        single = check(template("o3"), ReconstructionSpec(3, 0, sigs[j]), lams[i])
        cell = grid.results[i][j]
        agree = agree and (
            (cell.status, cell.winding, cell.unstable_zeros)
            == (single.status, single.winding, single.unstable_zeros)
        )
    ok = elapsed < 120.0 and agree
    report(
        7,
        ok,
        f"40x40 map in {elapsed:.1f} s (< 120 s), 20 random cells match "
        f"independent checks: {agree}",
    )
    assert ok


def test_criterion_8_corner_probes_resolution_stable():
    mismatches = []
    for name, d, k_d in ORACLE_CONFIGS:
        tmpl = template(name)
        for lam in (0.15, 0.95):
            for sig in (-0.35, 0.35):
                spec = ReconstructionSpec(d, k_d, sig)
                base = check(tmpl, spec, lam)
                doubled = check(tmpl, spec, lam, n_init=512, max_depth=40)
                if (base.status, base.unstable_zeros) != (
                    doubled.status,
                    doubled.unstable_zeros,
                ):
                    mismatches.append((name, d, k_d, lam, sig))
    ok = not mismatches
    report(
        8,
        ok,
        f"20 corner probes across 5 maps, zeros invariant under doubling "
        f"resolution and depth; mismatches: {mismatches}",
    )
    assert ok


def test_criterion_9_quasi_toeplitz_diagnostic_soft():
    # soft criterion: logged, not gating (per its own wording)
    tmpl = template("o3")
    rho = {}
    for lam in (0.4, 0.9):
        bc = recon_bc(tmpl, lam, 3, 0, -0.4)
        rho[lam] = spectral_radius(assemble_quasi_toeplitz(tmpl(lam), bc, 100))
    ok = rho[0.4] <= 1 + 1e-6 and rho[0.9] > 1
    report(
        9,
        ok,
        f"sigma=-0.4 J=100: rho(0.4)={rho[0.4]:.6f} (expected <= 1+1e-6), "
        f"rho(0.9)={rho[0.9]:.6f} (expected > 1); soft criterion, logged not "
        "gating",
    )
