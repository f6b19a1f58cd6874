import warnings

import numpy as np
import pytest

from klstab.boundary import ReconstructionSpec
from klstab.errors import EmptyGrid
from klstab.kldet import delta
from klstab.scheme import template
from klstab.verdict import (
    STATUS_INVALID,
    STATUS_MARGINAL,
    STATUS_STABLE,
    STATUS_UNSTABLE,
    check,
    filter_lambda_grid,
    sweep,
    write_map_csv,
    write_map_svg,
)
from conftest import recon_bc


def test_o3_stable_point():
    v = check(template("o3"), ReconstructionSpec(3, 0, -0.4), 0.4)
    assert v.status == STATUS_STABLE
    assert v.winding == 2
    assert v.unstable_zeros == 0
    assert v.certified


def test_o3_unstable_point():
    v = check(template("o3"), ReconstructionSpec(3, 0, -0.4), 0.9)
    assert v.status == STATUS_UNSTABLE
    assert v.winding == 1
    assert v.unstable_zeros == 1


def test_o3_positive_offset_has_exterior_zero():
    # unstable verdict cross-validated by an explicit determinant zero outside
    v = check(template("o3"), ReconstructionSpec(3, 0, 0.4), 0.4)
    assert v.status == STATUS_UNSTABLE
    assert v.unstable_zeros == 1
    s = template("o3")(0.4)
    bc = recon_bc(template("o3"), 0.4, 3, 0, 0.4)
    z = 2.4593811588154986 + 0j
    assert abs(delta(s, bc, z)) <= 1e-9


def test_cauchy_failure_is_invalid_precondition():
    v = check(template("o3"), ReconstructionSpec(3, 0, -0.4), 1.5)
    assert v.status == STATUS_INVALID
    assert v.winding is None and v.unstable_zeros is None
    assert "Cauchy" in v.diagnostics["error"]
    assert v.diagnostics["cauchy_max_modulus"] > 1


@pytest.mark.parametrize("sigma", [-0.4, 0.0, 0.3])
def test_o3_at_lambda_two_checks_without_warning(sigma):
    # a_1 is 1.1e-16 at lambda = 2, so the root finder's initial radius ratio
    # overflows before it is clipped; the check must neither warn nor change
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(template("o3"), ReconstructionSpec(3, 0, sigma), 2.0)
    assert (v.status, v.winding, v.unstable_zeros) == (STATUS_UNSTABLE, 1, 1)


def test_nonpositive_lambda_is_invalid():
    v = check(template("o3"), ReconstructionSpec(3, 0, -0.4), 0.0)
    assert v.status == STATUS_INVALID


def test_marginal_when_curve_touches_origin():
    # the centered-average scheme with its own halfcell average boundary has a
    # determinant zero at z = 1, so the curve cannot be certified off the origin
    v = check(template("naive_average"), np.array([[0.5, 0.5]]), 0.5)
    assert v.status == STATUS_MARGINAL
    assert v.winding is None
    assert v.diagnostics["min_curve_distance"] < 1e-6


def test_check_is_pure():
    a = check(template("o3"), ReconstructionSpec(3, 0, -0.4), 0.4)
    b = check(template("o3"), ReconstructionSpec(3, 0, -0.4), 0.4)
    assert a == b


def test_matrix_boundary_spec_accepted():
    v = check(template("naive_average"), np.array([[0.25, 0.25]]), 0.5)
    assert v.status in (STATUS_STABLE, STATUS_UNSTABLE, STATUS_MARGINAL)


def test_sweep_single_stable_cell():
    grid = sweep(
        template("o3"),
        lambda s: ReconstructionSpec(3, 0, s),
        [0.4],
        [-0.4],
    )
    assert grid.results[0][0].status == STATUS_STABLE
    assert grid.r == 2


def test_sweep_empty_grid_rejected():
    with pytest.raises(EmptyGrid):
        sweep(template("o3"), lambda s: ReconstructionSpec(3, 0, s), [], [0.1])


def test_sweep_matches_individual_checks(rng):
    lams = sorted(rng.uniform(0.1, 1.0, size=4))
    sigs = sorted(rng.uniform(-0.45, 0.45, size=4))
    grid = sweep(template("o3"), lambda s: ReconstructionSpec(3, 0, s), lams, sigs)
    for _ in range(6):
        i = int(rng.integers(0, 4))
        j = int(rng.integers(0, 4))
        single = check(template("o3"), ReconstructionSpec(3, 0, sigs[j]), lams[i])
        cell = grid.results[i][j]
        assert (cell.status, cell.winding, cell.unstable_zeros) == (
            single.status,
            single.winding,
            single.unstable_zeros,
        )


def test_sweep_zeros_bounded_by_r():
    grid = sweep(
        template("o3"),
        lambda s: ReconstructionSpec(3, 0, s),
        list(np.linspace(0.1, 1.0, 5)),
        list(np.linspace(-0.4, 0.4, 5)),
    )
    for row in grid.results:
        for v in row:
            if v.certified:
                assert 0 <= v.unstable_zeros <= grid.r


def test_map_csv_deterministic(tmp_path):
    grid = sweep(
        template("o3"), lambda s: ReconstructionSpec(3, 0, s), [0.3, 0.9], [-0.3, 0.3]
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_map_csv(grid, str(p1))
    write_map_csv(grid, str(p2))
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    lines = data.decode().strip().splitlines()
    assert lines[0] == "lambda,sigma,winding,zeros,status"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "0.29999999999999999"
    assert first[4] in ("stable", "unstable", "marginal", "invalid_precondition")


def test_map_svg_structure(tmp_path):
    grid = sweep(
        template("o3"), lambda s: ReconstructionSpec(3, 0, s), [0.3, 0.9], [-0.3, 0.3]
    )
    path = tmp_path / "map.svg"
    write_map_svg(grid, str(path))
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<rect") == 1 + 4  # background + one per cell
    assert "lambda</text>" in text and "sigma</text>" in text


def test_lambda_grid_filter():
    assert filter_lambda_grid([0.001, 0.005, 0.02, 0.5]) == [0.02, 0.5]
    assert filter_lambda_grid([0.001], 0.01) == []
