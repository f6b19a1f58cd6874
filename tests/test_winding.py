import math

import numpy as np
import pytest

from conftest import recon_bc
from klstab.errors import OriginOnCurve
from klstab.kldet import kl_curve
from klstab.scheme import template
from klstab.winding import needs_refinement, winding_number


def circle_samples(turns: int, n: int) -> np.ndarray:
    return np.exp(1j * turns * np.linspace(0, 2 * np.pi, n, endpoint=False))


def test_unit_circle():
    res = winding_number(circle_samples(1, 64))
    assert res.index == 1
    assert res.certified
    assert res.min_distance == pytest.approx(1.0)


def test_doubled_circle():
    assert winding_number(circle_samples(2, 128)).index == 2


def test_polynomial_image_curve():
    z = circle_samples(1, 256)
    samples = (z - 0.5) * (z - 2.0)
    assert winding_number(samples).index == 1


def test_z_power_r_exact_at_four_r_samples():
    for r in range(1, 9):
        res = winding_number(circle_samples(r, 4 * r))
        assert res.index == r


def test_start_point_rotation_invariance(rng):
    samples = (circle_samples(1, 200) - 0.3) * (circle_samples(1, 200) - 1.7)
    base = winding_number(samples).index
    for _ in range(5):
        k = int(rng.integers(1, 200))
        assert winding_number(np.roll(samples, k)).index == base


def test_scalar_multiplication_invariance(rng):
    samples = circle_samples(3, 240)
    base = winding_number(samples).index
    for _ in range(5):
        c = complex(rng.standard_normal(), rng.standard_normal())
        if abs(c) < 0.1:
            c += 1.0
        assert winding_number(c * samples).index == base


def test_conjugation_negates_index():
    samples = circle_samples(2, 128)
    assert winding_number(np.conj(samples)).index == -2


def test_argument_principle_random_polynomials(rng):
    z = circle_samples(1, 4096)
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
        expected = int(np.sum(np.abs(roots) < 1.0))
        assert winding_number(samples).index == expected
        done += 1


def test_origin_sample_rejected():
    with pytest.raises(OriginOnCurve):
        winding_number([1.0, 0.0, -1.0])


def test_segment_through_origin_rejected():
    with pytest.raises(OriginOnCurve):
        winding_number([1.0 + 0j, -1.0 + 0j, -1j])


def test_needs_refinement_quarter_turn_inclusive():
    assert not needs_refinement(1.0, 1j)


def test_needs_refinement_antipodal():
    assert needs_refinement(1.0, -1.0)


def test_needs_refinement_small_far_segment():
    assert not needs_refinement(1 + 0.01j, 1 - 0.01j)


def test_needs_refinement_zero_endpoint():
    assert needs_refinement(0.0, 1.0)
    assert needs_refinement(1.0, 0.0)


def test_needs_refinement_coincident_endpoints():
    # a point segment (zero direction vector) is judged by its distance to 0
    assert not needs_refinement(2 - 1j, 2 - 1j)
    assert needs_refinement(1e-13, 1e-13)
    assert needs_refinement(0.0, 0.0)


# (a, b, expected flag): the scalar cases above, run inside one array
PREDICATE_CASES = [
    (1.0, 1j, False),
    (1.0, -1.0, True),
    (1 + 0.01j, 1 - 0.01j, False),
    (0.0, 1.0, True),
    (1.0, 0.0, True),
    (2 - 1j, 2 - 1j, False),
    (1e-13, 1e-13, True),
    (0.0, 0.0, True),
]


def test_needs_refinement_array_matches_cases():
    a = np.array([c[0] for c in PREDICATE_CASES], dtype=complex)
    b = np.array([c[1] for c in PREDICATE_CASES], dtype=complex)
    flags = needs_refinement(a, b)
    assert flags.shape == a.shape
    assert flags.tolist() == [c[2] for c in PREDICATE_CASES]
    assert all(type(needs_refinement(x, y)) is bool for x, y, _ in PREDICATE_CASES)


def reference_needs_refinement(a: complex, b: complex) -> bool:
    """Loop form of the predicate, one segment at a time in Python floats."""
    if abs(a) == 0.0 or abs(b) == 0.0:
        return True
    cross = a.real * b.imag - a.imag * b.real
    dot = a.real * b.real + a.imag * b.imag
    if abs(math.atan2(cross, dot)) > math.pi / 2.0:
        return True
    dx, dy = b.real - a.real, b.imag - a.imag
    denom = dx * dx + dy * dy
    t = 0.0
    if denom != 0.0:
        t = min(1.0, max(0.0, -(a.real * dx + a.imag * dy) / denom))
    dist = abs(complex(a.real + t * dx, a.imag + t * dy))
    return dist < max(1e-12, 0.1 * min(abs(a), abs(b)))


def reference_winding(pts) -> tuple[int, bool]:
    """Loop form of the quadrant count: (index, certified)."""

    def quadrant(v):
        if v.real > 0 and v.imag >= 0:
            return 0
        if v.real <= 0 and v.imag > 0:
            return 1
        if v.real < 0 and v.imag <= 0:
            return 2
        return 3

    total, certified = 0, True
    for a, b in zip(pts, pts[1:] + pts[:1]):
        certified &= not reference_needs_refinement(a, b)
        d = (quadrant(b) - quadrant(a)) % 4
        if d == 2:
            total += 2 if a.real * b.imag - a.imag * b.real > 0 else -2
        else:
            total += {0: 0, 1: 1, 3: -1}[d]
    return total // 4, certified


def test_array_forms_match_loop_reference(rng):
    # random segments over all angles and scales, plus exact quarter turns
    a = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    turn = np.exp(1j * rng.uniform(-np.pi, np.pi, 4000))
    b = a * rng.uniform(1e-3, 3.0, 4000) * turn
    b[:200] = a[:200] * 1j
    b[200:400] = a[200:400]
    pairs = [(complex(x), complex(y)) for x, y in zip(a, b)]
    expected = [reference_needs_refinement(x, y) for x, y in pairs]
    assert needs_refinement(a, b).tolist() == expected
    # random closed polygons, coarse enough that some are not certified
    for _ in range(50):
        n = int(rng.integers(3, 40))
        pts = list(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        res = winding_number(pts)
        assert (res.index, res.certified) == reference_winding(pts)


def test_needs_refinement_array_equals_scalar_on_o3_curve():
    tmpl = template("o3")
    values = kl_curve(tmpl(0.05), recon_bc(tmpl, 0.05, 3, 0, -0.49), n_init=64).values
    # the refined curve, and a coarse copy of it where segments do get flagged
    for pts in (values, values[::8]):
        following = np.roll(pts, -1)
        flags = needs_refinement(pts, following).tolist()
        pairs = [(complex(a), complex(b)) for a, b in zip(pts, following)]
        assert flags == [needs_refinement(a, b) for a, b in pairs]
        assert flags == [reference_needs_refinement(a, b) for a, b in pairs]
    assert any(flags)


def test_certified_flag_reflects_predicate():
    coarse = circle_samples(1, 3)  # 120-degree jumps
    res = winding_number(coarse)
    assert not res.certified
    fine = circle_samples(1, 64)
    assert winding_number(fine).certified
