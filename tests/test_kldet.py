import contextlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import klstab.kldet
from conftest import brute_roots, mp_delta, mp_roots, o3_Btilde_golden, recon_bc
from klstab.boundary import BoundaryCondition, ReconstructionSpec, build_calB
from klstab.errors import (
    CauchyViolation,
    MultipleRoot,
    RefinementExhausted,
    SelectionFailure,
    ShapeMismatch,
)
from klstab.kldet import (
    CLUSTER_TOL,
    EPSILON_CAP,
    basis_matrices,
    delta,
    delta_reference,
    kl_curve,
    read_curve_csv,
    reduce_Btilde,
    select_stable_roots,
    sigmas_from_roots,
    write_curve_csv,
)
from klstab.poly import find_roots, min_modulus_on_circle
from klstab.scheme import (
    TOL_UNIT,
    Scheme,
    characteristic_polynomial,
    hersh_split,
    parse_scheme_line,
    template,
)
from klstab.verdict import STATUS_MARGINAL, check
from klstab.winding import winding_number


TRIPLE_ROOT_LINE = "1 2 0.125 0.625 0.375 -0.125"  # P_1 = (1 - kappa)^3 / 8


def shift_scheme():
    return Scheme(r=1, p=0, coeffs={-1: 1.0, 0: 0.0}, lam=1.0)


def roots_at(s, z):
    return find_roots(characteristic_polynomial(s, z))


def radii_at(s, z, roots):
    row = characteristic_polynomial(s, z)[None]
    return klstab.kldet._inclusion_radii(s, z, row, roots[None])[0]


def hull_radii(s, z, roots):
    """The radii _select hands the Rouche count: each inclusion disk grown to
    hold its whole component, so that each holds one root of P_z."""
    return klstab.kldet._disk_components(roots, radii_at(s, z, roots))[1]


def disk_components(s, z, roots):
    reach, _ = klstab.kldet._disk_components(roots, radii_at(s, z, roots))
    return [np.flatnonzero(row) for row in np.unique(reach, axis=0)]


def component_sizes(s, z, roots):
    return sorted(len(c) for c in disk_components(s, z, roots))


def counting_rouche():
    """Patch _roots_from_inside in kldet to record (z, cluster size) per count."""
    count = klstab.kldet._roots_from_inside
    seen = []

    def counting(s, z, roots, radii, cluster_idx):
        seen.append((z, len(cluster_idx)))
        return count(s, z, roots, radii, cluster_idx)

    return mock.patch.object(klstab.kldet, "_roots_from_inside", counting), seen


def zero_boundary(s: Scheme, m: int) -> BoundaryCondition:
    # ghosts that cancel the interior block: calB is 0 up to rounding
    A = np.concatenate((s.stencil, np.zeros((s.r, m - s.r - s.p))), axis=1)
    return BoundaryCondition(-np.linalg.solve(A[:, : s.r], A[:, s.r :]))


def test_select_shift_scheme_on_circle():
    s = shift_scheme()
    z = np.exp(0.7j)
    chosen = select_stable_roots(s, z, roots_at(s, z))
    assert len(chosen) == 1
    assert chosen[0] == pytest.approx(1 / z, abs=1e-12)


def test_select_o3_at_z_one_resolves_unit_root():
    s = template("o3")(0.4)
    chosen = select_stable_roots(s, 1.0 + 0j, roots_at(s, 1.0))
    assert len(chosen) == 2
    mods = sorted(abs(x) for x in chosen)
    assert mods[1] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", ["o3", "lw5"])
@pytest.mark.parametrize("order", [1, -1])
def test_select_provenance_follows_its_root(name, order):
    # at z = 1 the consistent root kappa = 1 is continued from inside and the
    # rest are strictly inside, whatever order the roots arrive in
    s = template(name)(0.5)
    roots = roots_at(s, 1.0)
    chosen = select_stable_roots(s, 1.0 + 0j, roots[::order])
    assert np.array_equal(chosen, select_stable_roots(s, 1.0 + 0j, roots[::-order]))
    on_circle = [abs(abs(x) - 1.0) <= 1e-9 for x in chosen]
    assert sum(on_circle) == 1
    assert all(abs(x) < 1.0 - 1e-9 for x, on in zip(chosen, on_circle) if not on)


def test_select_o3_exterior_matches_brute_force():
    s = template("o3")(0.4)
    chosen = select_stable_roots(s, 2.0 + 0j, roots_at(s, 2.0))
    oracle = brute_roots(characteristic_polynomial(s, 2.0))
    inside = sorted(
        (x for x in oracle if abs(x) < 1), key=lambda x: (x.real, x.imag)
    )
    assert np.allclose(chosen, inside, atol=1e-9)
    # elementary symmetric functions of the chosen roots
    sigmas = sigmas_from_roots(chosen)
    assert sigmas[0] == pytest.approx(inside[0] * inside[1], abs=1e-9)
    assert sigmas[1] == pytest.approx(-(inside[0] + inside[1]), abs=1e-9)


@pytest.mark.parametrize("z", [1.0, -1.0])
def test_select_resolves_a_double_root_on_the_circle(z):
    # naive_average at lambda 0.5: P_z = (kappa - z)^2 / 2 at z = +-1, which
    # the root finder splits into two overlapping inclusion disks, one
    # component that meets the circle; one Rouche count takes one of its roots
    s = template("naive_average")(0.5)
    roots = np.asarray(roots_at(s, z))
    assert component_sizes(s, z, roots) == [2]
    patch, counted = counting_rouche()
    with patch:
        chosen = select_stable_roots(s, z, roots)
    assert counted == [(z, 2)]
    assert len(chosen) == 1
    assert abs(chosen[0] - z) <= 1e-8


def test_a_split_triple_root_is_one_disk_component_and_one_rouche_count():
    # rounding splits the triple root at z = 1 by about 1.7e-5, much more
    # than CLUSTER_TOL; its three inclusion disks still overlap, so one
    # Rouche count over all three takes the one root continued from inside
    s = parse_scheme_line(TRIPLE_ROOT_LINE)
    roots = roots_at(s, 1.0)
    spread = np.abs(roots[:, None] - roots[None, :]).max()
    assert 10 * CLUSTER_TOL < spread < 1e-4
    assert component_sizes(s, 1.0, roots) == [3]
    patch, counted = counting_rouche()
    with patch:
        chosen = select_stable_roots(s, 1.0, roots)
    assert counted == [(1.0, 3)]
    assert len(chosen) == 1 and abs(chosen[0] - 1.0) <= 1e-4


def _inside_by_component(s, z, roots):
    """Per disk component of the roots at z, the number of roots of P_z at
    (1 + 1e-8) z, solved in mpmath, that lie inside the unit disk; each
    mpmath root belongs to the component of its nearest root at z."""
    components = disk_components(s, z, roots)
    owner = np.empty(len(roots), dtype=int)
    for k, idx in enumerate(components):
        owner[idx] = k
    counts = [0] * len(components)
    for x in mp_roots(s, mp.mpc(z) * (1 + mp.mpf("1e-8"))):
        nearest = int(np.argmin(np.abs(roots - complex(x))))
        assert abs(roots[nearest] - complex(x)) < 1e-2 * max(1.0, abs(complex(x)))
        counts[owner[nearest]] += abs(x) < 1
    return components, counts


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["upwind", "o3", "lw5", "naive_average", TRIPLE_ROOT_LINE]),
    st.floats(0.01, 1.0),
    st.floats(1.0, 1.01),
    st.floats(0.0, 2.0 * math.pi),
)
@example(TRIPLE_ROOT_LINE, 0.5, 1.0, 0.0)
@example("naive_average", 0.5, 1.0, 0.0)
@example("naive_average", 0.5, 1.0, math.pi)
@example("o3", 1.0, 1.0, 0.3)
@example("lw5", 0.98, 1.0, 0.0)
@example("upwind", 0.8540973657885962, 1.0, 1e-7)
def test_selection_is_the_inside_roots_just_outside_the_circle(
    name, lam, modulus, theta
):
    # the selection at z continues the roots inside at (1 + 1e-8) z: each
    # disk component gives as many roots as mpmath finds inside there.  The
    # upwind example puts kappa 9e-16 inside the circle, just past its disk
    s = parse_scheme_line(name, lam) if " " in name else template(name)(lam)
    z = modulus * complex(math.cos(theta), math.sin(theta))
    roots = roots_at(s, z)
    chosen = select_stable_roots(s, z, roots)
    components, inside = _inside_by_component(s, z, roots)
    taken = [sum(np.any(chosen == x) for x in roots[idx]) for idx in components]
    assert taken == inside and sum(inside) == s.r


def counts_and_cold_counts():
    """Patch _roots_from_inside in kldet to record, per Rouche count, the
    one-row solves it made, its count, and the count of a cold solve of the
    same P_z' in the same counting circle, both read off the calls it makes."""
    solve, radii = klstab.kldet.find_roots_many, klstab.kldet._inclusion_radii
    bound, count = klstab.kldet.min_modulus_on_circle, klstab.kldet._roots_from_inside
    seen = []

    def counted(s, z, roots, hull, cluster_idx):
        calls = {"solves": 0}

        def counting_solve(rows):
            calls["solves"] += 1
            return solve(rows)

        def circle(lead, roots, radii, center, radius):
            calls["circle"] = center, radius
            return bound(lead, roots, radii, center, radius)

        def at_z_out(s, zs, rows, moved):
            calls["row"] = rows
            return radii(s, zs, rows, moved)

        with mock.patch.multiple(
            klstab.kldet,
            find_roots_many=counting_solve,
            min_modulus_on_circle=circle,
            _inclusion_radii=at_z_out,
        ):
            n = count(s, z, roots, hull, cluster_idx)
        (center, eps), cold = calls["circle"], solve(calls["row"])[0]
        inside = (np.abs(cold - center) < eps) & (np.abs(cold) < 1.0)
        seen.append((calls["solves"], n, int(inside.sum())))
        return n

    return mock.patch.object(klstab.kldet, "_roots_from_inside", counted), seen


def _band_roots(s, zs) -> int:
    """Roots of P_z over zs within TOL_UNIT of the circle: the fixed band in
    which every root took a Rouche count before the inclusion disks."""
    roots = klstab.kldet.find_roots_many(characteristic_polynomial(s, zs))
    return int(np.sum(np.abs(np.abs(roots) - 1.0) <= TOL_UNIT))


@pytest.mark.parametrize(
    "name, lam, band",
    [
        ("o3", 1.0, 129),
        ("o3", 2.0, 258),
        ("lw5", 1.0, 129),
        ("lw5", 2.0, 258),
        ("lw5", 0.95, 4),
        ("lw5", 0.98, 5),
        ("lw5", 0.995, 7),
    ],
)
def test_rouche_count_started_from_the_roots_at_z_is_the_cold_count(name, lam, band):
    # each Rouche count is of a lone root, so it takes one Newton step from
    # the roots at z and no solve, and counts as a cold solve of P_z' does.
    # At integer lambda every band root's disk meets the circle; near it,
    # only kappa = 1 at z = 1 does
    s = template(name)(lam)
    _, zs = klstab.kldet._initial_grid(256)
    assert _band_roots(s, zs) == band
    patch, seen = counts_and_cold_counts()
    with patch:
        klstab.kldet._stable_sigmas(s, zs)
    assert len(seen) == (band if lam in (1.0, 2.0) else 1)
    assert all(solves == 0 and n == cold for solves, n, cold in seen)


def test_rouche_count_of_a_split_multiple_root_is_the_cold_count():
    # naive_average's double roots at z = +-1 and the triple root of
    # (1 - kappa)^3 / 8 at z = 1: a multi-root cluster's P_z' is solved cold
    patch, seen = counts_and_cold_counts()
    s = template("naive_average")(0.5)
    triple = Scheme(r=1, p=2, coeffs={-1: 0.125, 0: 0.625, 1: 0.375, 2: -0.125})
    roots = roots_at(triple, 1.0)
    assert np.max(np.abs(roots - 1.0)) <= 1e-4
    radii = hull_radii(triple, 1.0, roots)
    with patch:
        for z in (1.0, -1.0):
            assert len(select_stable_roots(s, z, roots_at(s, z))) == 1
        count = klstab.kldet._roots_from_inside(triple, 1.0, roots, radii, [0, 1, 2])
    assert count == 1 and seen == [(1, 1, 1)] * 3


def test_a_count_beyond_the_reach_of_rouche_is_refused():
    # upwind at lambda 3 has its one root kappa = 3 / (z + 2) = -1 on the
    # circle at z = -5.  eta is set for |z| near 1; at |z| = 5 the root of
    # P_z' at z' = -5.68 leaves the counting circle, which Rouche would not
    # allow, so no count is certified
    s = template("upwind")(3.0)
    roots = roots_at(s, -5.0)
    assert np.array_equal(roots, [-1.0])
    with pytest.raises(SelectionFailure, match="cannot certify a count"):
        select_stable_roots(s, -5.0, roots)


def test_a_lone_root_where_a_0_is_z_is_counted_by_a_cold_solve():
    # a_{-1} = 0 and a_0 = -1: at z = -1 the column a_0 - z of P_z is 0, so
    # its roots 0, 0, -1 hold one zero more than P_z' has.  The lone root -1
    # is counted from a cold solve of P_z', not moved by a Newton step; the
    # zeros at z = -1 are inside too, one more than r
    s = Scheme(r=1, p=2, coeffs={-1: 0.0, 0: -1.0, 1: 1.0, 2: 1.0})
    roots = roots_at(s, -1.0)
    assert np.count_nonzero(roots) == 1
    patch, seen = counts_and_cold_counts()
    with patch, pytest.raises(CauchyViolation):
        select_stable_roots(s, -1.0, roots)
    assert seen == [(1, 1, 1)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["upwind", "o3", "lw5", "naive_average", TRIPLE_ROOT_LINE]),
    st.one_of(st.floats(0.01, 2.0), st.sampled_from([1.0, 2.0])),
    st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi])),
)
@example("o3", 1.0, 0.3)
@example("lw5", 2.0, 2.0)
@example("o3", 0.999, 0.0)
@example("lw5", 1.0001, 0.0)
@example("naive_average", 0.5, math.pi)
@example(TRIPLE_ROOT_LINE, 0.5, 0.0)
@example("upwind", 2.0, math.pi)
def test_every_rouche_count_is_the_cold_count(name, lam, theta):
    # at any z of the upper circle, each Rouche count, a lone root's by one
    # Newton step or a cluster's by a cold solve, equals the count that a
    # cold solve of the same P_z' gives.  Most random z take no count; z = 1
    # always takes one (kappa = 1), and every z at integer lambda
    s = parse_scheme_line(name, lam) if " " in name else template(name)(lam)
    z = -1.0 if theta == math.pi else complex(math.cos(theta), math.sin(theta))
    patch, seen = counts_and_cold_counts()
    # Hersh fails at some lambda, and upwind's P_{-1} at lambda 2 is 2
    with patch, contextlib.suppress(CauchyViolation, ValueError):
        select_stable_roots(s, z, roots_at(s, z))
    assert all(n == cold for _, n, cold in seen), seen


@pytest.mark.parametrize(
    "name, members, circle",
    [("o3", 1, "counting"), ("o3", 1, "unit"), ("naive_average", 2, "unit")],
    ids=["lone-counting", "lone-unit", "cluster"],
)
def test_rouche_count_refuses_a_disk_at_z_out_that_meets_a_circle(
    monkeypatch, name, members, circle
):
    # at z = 1, lambda 0.5: o3 counts its lone root kappa = 1 after a Newton
    # step, naive_average its split double root after a cold solve.  One disk
    # at z' grown to meet the counting circle, or one inside it grown to meet
    # the unit circle, and the count is not certified.  o3's disk grown to
    # the counting circle is of 0.123, outside it, and its kappa = 1 grown to
    # the unit circle stays inside the counting circle.  naive_average's
    # roots at z' lie 0.07 from the center of a counting circle of 0.1, so a
    # disk grown to the unit circle meets both
    s = template(name)(0.5)
    roots = roots_at(s, 1.0)
    radii = radii_at(s, 1.0, roots)
    patch, counted = counting_rouche()
    with patch:
        assert len(select_stable_roots(s, 1.0, roots, radii)) == s.r
    assert counted == [(1.0, members)]
    inclusion, bound = klstab.kldet._inclusion_radii, klstab.kldet.min_modulus_on_circle
    at = {}

    def recording(lead, roots, radii, center, radius):
        at.update(center=center, eps=radius)
        return bound(lead, roots, radii, center, radius)

    def crafted(s, z_out, rows, moved):
        rad, x = inclusion(s, z_out, rows, moved), moved[0]
        dist = np.abs(x - at["center"])
        inside = dist < at["eps"]
        if circle == "counting":
            i = np.argmin(np.where(inside, np.inf, dist)) if not inside.all() else 0
            rad[0, i] = 1.01 * abs(dist[i] - at["eps"])
        else:
            i = np.flatnonzero(inside)[0]
            rad[0, i] = 1.01 * abs(abs(x[i]) - 1.0)
        at["only unit"] = (np.abs(dist - at["eps"]) > rad[0]).all()
        return rad

    monkeypatch.setattr(klstab.kldet, "min_modulus_on_circle", recording)
    monkeypatch.setattr(klstab.kldet, "_inclusion_radii", crafted)
    with pytest.raises(SelectionFailure, match="cannot certify a count"):
        select_stable_roots(s, 1.0, roots, radii)
    assert at["only unit"] == (circle == "unit" and members == 1)


def sampled_min_modulus(s, z, center, radius) -> float:
    """min |P_z| at 4096 equispaced points of |kappa - center| = radius."""
    pts = center + radius * np.exp(2j * np.pi * np.arange(4096) / 4096)
    row = characteristic_polynomial(s, z)
    return float(np.abs(np.polynomial.polynomial.polyval(pts, row)).min())


def leading_coefficient(s, z) -> complex:
    return np.trim_zeros(characteristic_polynomial(s, z), "b")[-1]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["upwind", "o3", "lw5", "naive_average", TRIPLE_ROOT_LINE]),
    st.floats(0.01, 2.0),
    st.floats(0.0, math.pi),
    st.integers(0, 7),
    st.floats(0.0, EPSILON_CAP, exclude_min=True),
)
@example(TRIPLE_ROOT_LINE, 0.5, 0.0, 0, EPSILON_CAP)
@example("upwind", 0.015625, 1.0, 0, 0.0625)
@example(TRIPLE_ROOT_LINE, 0.5, 1e-3, 1, 0.05)
@example("naive_average", 0.5, 0.0, 0, EPSILON_CAP)
@example("naive_average", 0.5, math.pi, 1, 1e-6)
@example("o3", 1.0, 0.3, 2, EPSILON_CAP)
def test_rouche_bound_is_at_most_the_sampled_minimum(name, lam, theta, which, eps):
    # the disks' bound of min |P_z| on a circle about one of its roots never
    # exceeds the minimum over 4096 points of that circle, at any z of the
    # upper unit circle, with the disks grown to their components as _select
    # grows them: the triple root and naive_average's double roots overlap.
    # In the upwind example, a circle about its one root, the bound holds
    # only because it also sheds its own rounding: it is within 1 ulp there
    s = parse_scheme_line(name, lam) if " " in name else template(name)(lam)
    z = complex(math.cos(theta), math.sin(theta))
    roots = roots_at(s, z)
    center = roots[which % len(roots)]
    lead = leading_coefficient(s, z)
    bound = min_modulus_on_circle(lead, roots, hull_radii(s, z, roots), center, eps)
    assert bound <= sampled_min_modulus(s, z, center, eps)


@pytest.mark.parametrize("lam", [0.5, 0.95, 0.98, 1.0, 2.0])
@pytest.mark.parametrize("name, d", [("o3", 3), ("lw5", 5)])
def test_rouche_bound_is_within_three_percent_of_the_sampled_minimum(
    monkeypatch, name, d, lam
):
    # at every Rouche count kl_curve makes, the bound that sets eta is at most
    # the 4096-point minimum of |P_z| on the counting circle and at least 0.97
    # of it: no sampled minimum is needed, and the nudge is about as large
    count, bound = klstab.kldet._roots_from_inside, klstab.kldet.min_modulus_on_circle
    at, seen = [], []

    def counting(s, z, roots, radii, cluster_idx):
        at.append((s, z))
        return count(s, z, roots, radii, cluster_idx)

    def recording(lead, roots, radii, center, radius):
        seen.append((*at[-1], center, radius, bound(lead, roots, radii, center, radius)))
        return seen[-1][-1]

    monkeypatch.setattr(klstab.kldet, "_roots_from_inside", counting)
    monkeypatch.setattr(klstab.kldet, "min_modulus_on_circle", recording)
    tmpl = template(name)
    kl_curve(tmpl(lam), recon_bc(tmpl, lam, d, 0, 0.1))
    assert len(seen) == len(at) >= 1
    for s, z, center, radius, b in seen:
        fine = sampled_min_modulus(s, z, center, radius)
        assert 0.97 * fine <= b <= fine, (z, b / fine)


@pytest.mark.parametrize(
    "which, radius", [(2, 0.15), (1, 0.8)], ids=["member-leaves", "other-reaches"]
)
def test_select_refuses_a_count_its_disks_cannot_certify(which, radius):
    # o3 at lambda 0.5, z = 1: the roots are -8.12, 0.123 and 1, and the count
    # about kappa = 1 runs on the circle of radius EPSILON_CAP.  A disk of 0.15
    # about kappa = 1 leaves that circle; one of 0.8 about 0.123, inside the
    # unit circle and apart from kappa = 1's disk, reaches it (eta 0)
    s = template("o3")(0.5)
    roots = roots_at(s, 1.0)
    assert abs(roots[2] - 1.0) < 1e-12 and abs(roots[1] - 1.0) > 0.85
    radii = radii_at(s, 1.0, roots)
    assert len(select_stable_roots(s, 1.0, roots, radii)) == s.r
    radii[which] = radius
    assert np.array_equal(klstab.kldet._disk_components(roots, radii)[0], np.eye(3))
    with pytest.raises(SelectionFailure, match="cannot certify a count"):
        select_stable_roots(s, 1.0, roots, radii)


def _counting_selections():
    """Patch select_stable_roots in kldet to record each z it is called at."""
    select = klstab.kldet.select_stable_roots
    seen = []

    def counting(s, z, roots, radii=None):
        seen.append(z)
        return select(s, z, roots, radii)

    return mock.patch.object(klstab.kldet, "select_stable_roots", counting), seen


def _needs_rouche(s, z, roots) -> bool:
    """_select takes a Rouche count: an inclusion disk meets the circle."""
    return not np.all(np.abs(np.abs(roots) - 1.0) > radii_at(s, z, roots))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["upwind", "o3", "lw5", "naive_average"]),
    st.floats(0.01, 1.0),
    st.lists(st.floats(0.0, math.pi), max_size=8),
)
@example("upwind", 1.0, [])
@example("o3", 1.0, [0.1])
@example("lw5", 1.0, [])
@example("naive_average", 1.0, [])
def test_batch_decides_each_point_as_select_stable_roots(name, lam, thetas):
    # every row of _stable_sigmas is the per-point selection's sigma(z), bit
    # for bit, and only a point that takes a Rouche count is selected alone
    s = template(name)(lam)
    _, grid = klstab.kldet._initial_grid(256)
    zs = np.concatenate((grid, np.exp(1j * np.array(thetas))))
    patch, seen = _counting_selections()
    with patch:
        sig = klstab.kldet._stable_sigmas(s, zs)
    roots = klstab.kldet.find_roots_many(characteristic_polynomial(s, zs))
    needy = set()
    for i, z in enumerate(zs):
        expected = np.array(sigmas_from_roots(select_stable_roots(s, z, roots[i])))
        assert sig[i].tobytes() == expected.tobytes(), z
        if _needs_rouche(s, z, roots[i]):
            needy.add(z)
    assert set(seen) == needy


@pytest.mark.parametrize("lam, band", [(0.5, 2), (0.95, 4), (0.98, 5), (0.995, 7)])
def test_grid_selects_alone_only_the_points_that_take_a_rouche_count(lam, band):
    # lw5's initial grid (R5,0's, or any boundary's): of its points with a
    # root in the TOL_UNIT band only z = 1, where kappa = 1 is exact, has a
    # disk that meets the circle and takes a Rouche count; the others are
    # decided in the batch
    _, zs = klstab.kldet._initial_grid(256)
    assert _band_roots(template("lw5")(lam), zs) == band
    patch, seen = _counting_selections()
    rouche_patch, counted = counting_rouche()
    with patch, rouche_patch:
        klstab.kldet._stable_sigmas(template("lw5")(lam), zs)
    assert seen == [zs[0]] and counted == [(zs[0], 1)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["upwind", "o3", "lw5"]),
    st.floats(0.01, 1.0),
    st.floats(math.log(1.01), math.log(100.0)),
    st.floats(0.0, 2.0 * math.pi),
)
@example("upwind", 1.0, 0.5, 1.0)
@example("o3", 1.0, 0.5, 1.0)
@example("lw5", 1.0, 0.5, 1.0)
def test_select_off_the_circle_is_the_hersh_split(name, lam, log_modulus, theta):
    # off the circle band the selection takes exactly the roots inside
    s = template(name)(lam)
    z = math.exp(log_modulus) * complex(math.cos(theta), math.sin(theta))
    found = find_roots(characteristic_polynomial(s, z))
    inside, _ = hersh_split(s, z, found)
    expected = np.array(sorted(inside, key=lambda x: (x.real, x.imag)))
    chosen = select_stable_roots(s, z, found)
    assert chosen.dtype == expected.dtype
    assert chosen.tobytes() == expected.tobytes()


def test_select_rejects_interior_z():
    with pytest.raises(ValueError):
        s = template("o3")(0.4)
        select_stable_roots(s, 0.5 + 0j, roots_at(s, 0.5))


def test_delta_rejects_interior_z():
    tmpl = template("o3")
    with pytest.raises(ValueError) as info:
        delta(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, 0.0), 0.5)
    assert str(info.value) == "|z| = 0.5 below the unit circle band"


@pytest.mark.parametrize("z", [np.inf, complex(np.nan, 0.0)])
def test_delta_refuses_a_z_that_is_not_finite(z):
    tmpl = template("o3")
    with pytest.raises(ValueError) as info:
        delta(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, 0.0), z)
    assert str(info.value) == "polynomial coefficients must be finite"


@pytest.mark.parametrize("modulus", [1.0, 1.02])
def test_select_flags_cauchy_violation(modulus):
    # at an over-CFL scheme the exterior root count breaks inside the symbol
    # curve, on the circle as well as off it
    s = template("o3")(1.5)
    z = modulus * np.exp(1.473j)
    with pytest.raises(CauchyViolation) as info:
        select_stable_roots(s, z, roots_at(s, z))
    assert "np.float64" not in str(info.value)


def test_select_picks_from_the_given_roots():
    # every chosen root is an element of the caller's array, not a re-solve
    s = template("o3")(0.4)
    for z in (2.0 + 0j, 1.5 * np.exp(0.8j), 1.0 + 0j, np.exp(2.1j)):
        given = brute_roots(characteristic_polynomial(s, z))
        chosen = select_stable_roots(s, z, given)
        assert len(chosen) == s.r
        assert all(np.any(given == x) for x in chosen)


def test_kl_curve_solves_each_fallback_point_once(monkeypatch):
    # o3 at lambda = 1: every sample leaves the fast path and takes one
    # Rouche count, one min_modulus_on_circle call, of a lone root, which
    # moves by a Newton step and takes no one-row solve.  The 127 samples
    # below the real axis are conjugates of those above: 129 counts
    counts = {"one_row_solves": 0, "rouche": 0}
    solve = klstab.kldet.find_roots_many
    rouche = klstab.kldet.min_modulus_on_circle

    def counting_solve(rows):
        counts["one_row_solves"] += len(rows) == 1
        return solve(rows)

    def counting_rouche(*args):
        counts["rouche"] += 1
        return rouche(*args)

    monkeypatch.setattr(klstab.kldet, "find_roots_many", counting_solve)
    monkeypatch.setattr(klstab.kldet, "min_modulus_on_circle", counting_rouche)
    tmpl = template("o3")
    kl_curve(tmpl(1.0), recon_bc(tmpl, 1.0, 3, 0, -0.4))
    assert counts == {"one_row_solves": 0, "rouche": 129}


@pytest.mark.parametrize(
    "n_init, solved", [(64, 33), (255, 129), (256, 129)], ids=["64", "255", "256"]
)
def test_kl_curve_solves_each_conjugate_pair_once(monkeypatch, n_init, solved):
    # only theta in [0, pi] is solved: the equispaced thetas below pi, then pi;
    # the lower half of the curve is their mirror
    batches = []
    solve = klstab.kldet.find_roots_many

    def counting_solve(rows):
        batches.append(len(rows))
        return solve(rows)

    monkeypatch.setattr(klstab.kldet, "find_roots_many", counting_solve)
    tmpl = template("o3")
    s = tmpl(0.6)
    curve = kl_curve(s, recon_bc(tmpl, 0.6, 3, 0, -0.4), n_init=n_init)
    assert batches[0] == solved
    assert s.grid_sigmas[n_init].shape == (solved, s.r)
    assert len(curve) == 2 * solved - 2


def test_initial_grid_is_read_only():
    # kl_curve keeps each initial grid for every later curve of its n_init
    tmpl = template("o3")
    curve = kl_curve(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, -0.4), n_init=64)
    thetas, zs = klstab.kldet._initial_grid(64)
    assert np.array_equal(curve.thetas[:33], thetas) and len(zs) == 33
    assert thetas[-1] == np.pi and zs[-1] == -1.0
    for grid in (thetas, zs):
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.0


@pytest.mark.parametrize(
    "name, d, sigma, lam, n_init",
    [
        ("o3", 3, -0.49, 0.05, 64),
        ("lw5", 5, -0.49, 0.05, 64),
        ("o3", 3, -0.4, 0.6, 256),
        ("lw5", 5, 0.2, 0.6, 255),
    ],
)
def test_kl_curve_mirrors_its_upper_half(name, d, sigma, lam, n_init, tmp_path):
    # D(conj z) = conj D(z): the samples above pi are the reversed, conjugated
    # samples strictly between 0 and pi, bit for bit, and D is real at z = +-1
    tmpl = template(name)
    curve = kl_curve(tmpl(lam), recon_bc(tmpl, lam, d, 0, sigma), n_init=n_init)
    top = int(np.flatnonzero(curve.thetas == np.pi)[0])
    assert len(curve) == 2 * top
    upper, lower = slice(1, top), slice(len(curve) - 1, top, -1)
    assert np.array_equal(curve.values[lower], curve.values[upper].conj())
    assert np.array_equal(curve.thetas[lower], 2.0 * np.pi - curve.thetas[upper])
    assert np.array_equal(curve.depths[lower], curve.depths[upper])
    assert curve.values[0].imag == 0.0 and curve.values[top].imag == 0.0
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, str(path))
    assert read_curve_csv(str(path)).certified == curve.certified


def test_grid_sigmas_are_kept_per_n_init():
    # one scheme traced at two initial resolutions must give the curves of
    # fresh schemes at each; a memo not keyed by n_init would mix the grids
    tmpl = template("o3")
    bc = recon_bc(tmpl, 0.6, 3, 0, -0.4)
    shared = tmpl(0.6)
    for n_init in (64, 256):
        got = kl_curve(shared, bc, n_init=n_init)
        want = kl_curve(tmpl(0.6), bc, n_init=n_init)
        assert np.array_equal(got.thetas, want.thetas)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.depths, want.depths)
    assert sorted(shared.grid_sigmas) == [64, 256]


def test_sigma_expansion_matches_numpy():
    roots = [0.3 + 0.1j, -0.2 + 0.4j, 0.05 - 0.3j]
    sig = sigmas_from_roots(roots)
    ref = np.poly(roots)[::-1]  # ascending, monic
    assert np.allclose(sig, ref[:-1], atol=1e-14)


def test_reduce_Btilde_identity_when_m_equals_r(rng):
    calB = rng.standard_normal((2, 2))
    out = reduce_Btilde(calB, [0.3, -0.7])
    assert np.allclose(out, calB)


def test_reduce_Btilde_golden_o3(rng):
    spec = ReconstructionSpec(3, 0, 0.4)
    for _ in range(8):
        lam = float(rng.uniform(0.05, 1.0))
        s0 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        s1 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        s = template("o3")(lam)
        bc = BoundaryCondition.from_reconstruction(spec, s)
        bt = reduce_Btilde(build_calB(bc.B, s), [s0, s1])
        golden = o3_Btilde_golden(lam, s0, s1)
        assert np.max(np.abs(bt - golden) / (1 + np.abs(golden))) <= 1e-10


def test_reduce_Btilde_recurrence_oracle(rng):
    # Btilde (U0, U1)^T must equal calB (U0..U3)^T for recurrence-extended sequences
    calB = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    sig = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    bt = reduce_Btilde(calB, sig)
    for _ in range(50):
        u = list(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        while len(u) < 4:
            u.append(-sig[0] * u[-2] - sig[1] * u[-1])
        lhs = bt @ np.array(u[:2])
        rhs = calB @ np.array(u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))


def test_reduce_Btilde_shape_guards():
    with pytest.raises(ShapeMismatch):
        reduce_Btilde(np.zeros((2, 4)), [1.0])
    with pytest.raises(ShapeMismatch):
        reduce_Btilde(np.zeros((2, 1)), [1.0, 2.0])


def test_delta_zero_boundary_is_z_power_r():
    s = template("o3")(0.4)
    bc = zero_boundary(s, 3)
    for z in (2.0 + 0j, 1.5 + 0.5j, np.exp(0.9j)):
        assert delta(s, bc, z) == pytest.approx(z**2, rel=1e-12)


@pytest.mark.parametrize(
    "name,d,k_d,lam",
    [
        ("o3", 3, 0, 0.4),
        ("o3", 3, 1, 0.7),
        ("o3", 4, 0, 0.55),
        ("lw5", 5, 0, 0.5),
        ("lw5", 6, 1, 0.5),
    ],
)
def test_delta_matches_reference_ratio(name, d, k_d, lam, rng):
    tmpl = template(name)
    s = tmpl(lam)
    bc = BoundaryCondition.from_reconstruction(ReconstructionSpec(d, k_d, 0.4), s)
    done = 0
    while done < 25:
        z = float(rng.uniform(1.01, 10.0)) * np.exp(1j * float(rng.uniform(0, 2 * np.pi)))
        try:
            ref = delta_reference(s, bc, z)
        except MultipleRoot:
            continue
        mine = delta(s, bc, z)
        assert abs(mine - ref) <= 1e-8 * (1 + abs(mine))
        done += 1


@pytest.mark.parametrize(
    "name,d,lam",
    [("o3", 3, 0.5), ("o3", 3, 1.0), ("o3", 3, 2.0), ("lw5", 5, 0.5), ("lw5", 5, 1.0)],
)
def test_delta_matches_mpmath_oracle(name, d, lam):
    # integer lambda makes the scheme a shift: P_z has exact roots at 0 (a
    # double one for lw5 at lambda = 1) and at infinity
    s = template(name)(lam)
    bc = recon_bc(template(name), lam, d, 0, 0.1)
    for theta in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False) + 0.1:
        z = 1.05 * np.exp(1j * theta)
        ref = mp_delta(s, bc, z)
        assert abs(delta(s, bc, z) - ref) <= 1e-9 * abs(ref)


def test_symmetric_function_consistency(rng):
    # reduce_Btilde(calB, sigmas(z)) equals calB K K[:r]^{-1} pointwise
    s = template("o3")(0.45)
    bc = recon_bc(template("o3"), 0.45, 3, 0, 0.4)
    for _ in range(20):
        z = float(rng.uniform(1.05, 5.0)) * np.exp(1j * float(rng.uniform(0, 2 * np.pi)))
        chosen = select_stable_roots(s, z, roots_at(s, z))
        K = basis_matrices(chosen, rows=bc.m)
        calB = build_calB(bc.B, s)
        expected = calB @ K @ np.linalg.inv(K[: s.r])
        bt = reduce_Btilde(calB, sigmas_from_roots(chosen))
        assert np.max(np.abs(bt - expected)) <= 1e-8 * (1 + np.max(np.abs(expected)))


def test_basis_matrices_distinct_roots():
    K = basis_matrices([0.2, 0.5], rows=3)
    assert np.allclose(K, [[1, 1], [0.2, 0.5], [0.04, 0.25]])
    with pytest.raises(ShapeMismatch):
        basis_matrices([0.2, 0.5], rows=1)


def test_basis_matrices_single_root():
    assert np.allclose(basis_matrices([0.5], rows=2), [[1], [0.5]])


def test_basis_matrices_double_root_columns():
    # a double root has no power basis; mp_delta's confluent columns cover it
    kappa = 0.4 + 0.1j
    with pytest.raises(MultipleRoot):
        basis_matrices([kappa, kappa], rows=4)


def test_kl_curve_zero_boundary_winds_r_times():
    s = template("o3")(0.4)
    curve = kl_curve(s, zero_boundary(s, 3), n_init=64)
    expected = np.exp(2j * curve.thetas)
    assert np.max(np.abs(curve.values - expected)) <= 1e-9
    assert winding_number(curve.values).index == 2


def test_kl_curve_golden_windings():
    # three-way cross-validated: winding, truncated spectrum, and time marching
    tmpl = template("o3")
    stable = kl_curve(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, -0.4), n_init=128)
    assert winding_number(stable.values).index == 2
    unstable = kl_curve(tmpl(0.9), recon_bc(tmpl, 0.9, 3, 0, -0.4), n_init=128)
    assert winding_number(unstable.values).index == 1


def test_kl_curve_thetas_strictly_increasing():
    tmpl = template("o3")
    curve = kl_curve(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, -0.4), n_init=64)
    assert np.all(np.diff(curve.thetas) > 0)
    assert curve.thetas[0] >= 0.0 and curve.thetas[-1] < 2 * np.pi


# Sample sets recorded before the refinement loop became array operations:
# samples per bisection depth, and the positions and depths of the refined
# samples in the final curve.  Together with the initial grid these fix every
# theta, so the loop must reproduce exactly the same sample set.
@pytest.mark.parametrize(
    "name,d,sigma,lam,n_init,per_depth,refined",
    [
        ("o3", 3, -0.4, 0.4, 256, [256], []),
        ("lw5", 5, -0.4, 0.5, 256, [256], []),
        ("o3", 3, -0.49, 0.05, 64, [64, 2], [(1, 1), (65, 1)]),
        (
            "lw5",
            5,
            -0.49,
            0.05,
            64,
            [64, 2, 4],
            [(1, 2), (2, 1), (3, 2), (67, 2), (68, 1), (69, 2)],
        ),
    ],
)
def test_kl_curve_sample_set_pinned(name, d, sigma, lam, n_init, per_depth, refined):
    tmpl = template(name)
    curve = kl_curve(tmpl(lam), recon_bc(tmpl, lam, d, 0, sigma), n_init=n_init)
    assert len(curve) == sum(per_depth)
    assert int(np.max(curve.depths)) == len(per_depth) - 1
    assert np.bincount(curve.depths).tolist() == per_depth
    positions = np.flatnonzero(curve.depths)
    assert list(zip(positions.tolist(), curve.depths[positions].tolist())) == refined
    verdict = check(tmpl, ReconstructionSpec(d, 0, sigma), lam, n_init=n_init)
    assert verdict.diagnostics["curve_samples"] == sum(per_depth)
    assert verdict.diagnostics["max_refine_depth"] == len(per_depth) - 1


@pytest.mark.parametrize(
    "name,d,lam,sigma",
    [
        ("upwind", 3, 0.4, 0.2),
        ("o3", 2, 0.5, 0.2),
        ("o3", 3, 0.5, 0.2),
        ("lw5", 2, 0.5, 0.2),
        ("lw5", 5, 0.5, 0.1),
    ],
)
def test_pure_extrapolation_ends_before_refining(name, d, lam, sigma, monkeypatch):
    # with k_d = -1 the constant mode kappa = 1 meets the boundary condition at
    # z = 1, so the initial sample at theta = 0 reads |D| below
    # ORIGIN_RESOLUTION and no refinement round can certify the curve
    tmpl = template(name)
    calls = []
    predicate = klstab.kldet.needs_refinement

    def counting_predicate(*args):
        calls.append(args)
        return predicate(*args)

    monkeypatch.setattr(klstab.kldet, "needs_refinement", counting_predicate)
    with pytest.raises(RefinementExhausted, match=r"at theta = 0$"):
        kl_curve(tmpl(lam), recon_bc(tmpl, lam, d, -1, sigma))
    assert calls == []
    verdict = check(tmpl, ReconstructionSpec(d, -1, sigma), lam)
    assert verdict.status == STATUS_MARGINAL
    assert verdict.diagnostics["error"].endswith("at theta = 0")


def test_kl_curve_continuity_bound():
    tmpl = template("lw5")
    curve = kl_curve(tmpl(0.5), recon_bc(tmpl, 0.5, 5, 0, -0.4), n_init=128)
    v = curve.values
    w = np.roll(v, -1)
    jumps = np.abs(w - v)
    bound = 0.5 * (1 + np.minimum(np.abs(v), np.abs(w)))
    assert np.all(jumps <= bound)


def test_delta_conjugate_symmetry(rng):
    s = template("o3")(0.6)
    bc = recon_bc(template("o3"), 0.6, 3, 0, 0.2)
    for _ in range(10):
        z = float(rng.uniform(1.0, 3.0)) * np.exp(1j * float(rng.uniform(0, np.pi)))
        a = delta(s, bc, z)
        b = delta(s, bc, np.conj(z))
        assert abs(b - np.conj(a)) <= 1e-9 * (1 + abs(a))


@pytest.mark.parametrize("name, d", [("upwind", 2), ("o3", 3), ("lw5", 5)])
@pytest.mark.parametrize("lam", [0.3, 0.7, 1.0])
def test_delta_conjugate_symmetry_real_B(name, d, lam, rng):
    # real scheme and real B: P_{conj z} has the conjugate roots of P_z, so
    # D(conj z) = conj D(z), on the circle and outside it
    s = template(name)(lam)
    bcs = [BoundaryCondition.from_reconstruction(ReconstructionSpec(d, 0, -0.3), s)]
    for width in range(s.r + s.p, s.r + s.p + 4):
        bcs.append(BoundaryCondition.from_matrix(rng.uniform(-2, 2, (s.r, width)), s))
    for bc in bcs:
        for modulus in (1.0, 1.0, *rng.uniform(1.0, 3.0, size=3)):
            z = modulus * np.exp(1j * rng.uniform(0.0, np.pi))
            a = delta(s, bc, z)
            assert abs(delta(s, bc, np.conj(z)) - np.conj(a)) <= 1e-12 * abs(a)


def test_threads_sharing_a_scheme_trace_the_same_curves():
    # threads that trace curves on one Scheme share its grid_sigmas; each
    # stores a whole array, so a race can only solve the grid twice
    tmpl = template("o3")
    sigmas = np.linspace(-0.45, 0.45, 8)
    bcs = [recon_bc(tmpl, 0.6, 3, 0, sig) for sig in sigmas]
    expected = [kl_curve(tmpl(0.6), bc) for bc in bcs]
    shared = tmpl(0.6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(kl_curve, shared, bc) for bc in bcs]
            curves = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(curves, expected):
        assert np.array_equal(got.thetas, want.thetas)
        assert np.array_equal(got.values, want.values)


def test_curve_csv_round_trip(tmp_path):
    tmpl = template("o3")
    curve = kl_curve(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, -0.4), n_init=64)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, str(path))
    back = read_curve_csv(str(path))
    assert np.array_equal(back.thetas, curve.thetas)
    assert np.array_equal(back.values, curve.values)
    assert np.array_equal(back.depths, curve.depths)
    assert winding_number(back.values).index == winding_number(curve.values).index


@pytest.mark.parametrize("rows", [[], ["0,1,0,0"]])
def test_read_curve_csv_needs_two_samples(rows, tmp_path):
    # winding_number refuses a curve of fewer samples, so the reader does too
    path = tmp_path / "curve.csv"
    path.write_text("\n".join(["theta,re,im,depth", *rows]) + "\n")
    with pytest.raises(ValueError, match="at least 2 samples"):
        read_curve_csv(str(path))


@pytest.mark.parametrize("header", ["theta,re,im", "re,im,theta,depth"])
def test_read_curve_csv_refuses_a_wrong_header(header, tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text(header + "\n0,1,0,0\n1,0,1,0\n")
    with pytest.raises(ValueError) as info:
        read_curve_csv(str(path))
    assert str(info.value) == f"unexpected curve CSV header: {header!r}"


def test_kl_curve_certifies_its_last_round(tmp_path):
    # this case refines past its initial grid; with no refinement allowed its
    # last round still flags segments
    tmpl = template("o3")
    bc = recon_bc(tmpl, 0.05, 3, 0, -0.49)
    coarse = kl_curve(tmpl(0.05), bc, n_init=64, max_depth=0)
    fine = kl_curve(tmpl(0.05), bc, n_init=64)
    assert not coarse.certified
    assert fine.certified and np.max(fine.depths) > 0
    for curve in (coarse, fine):
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, str(path))
        assert read_curve_csv(str(path)).certified == curve.certified


def test_kl_curve_requires_minimum_resolution():
    tmpl = template("o3")
    with pytest.raises(ValueError):
        kl_curve(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, -0.4), n_init=32)
