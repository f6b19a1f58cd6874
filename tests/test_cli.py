import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import klstab.cli
import klstab.verdict
from conftest import recon_bc
from klstab.cli import main
from klstab.kldet import kl_curve, read_curve_csv, write_curve_csv
from klstab.boundary import ReconstructionSpec
from klstab.scheme import custom_template, template
from klstab.verdict import check
from klstab.winding import winding_number


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_stable_line(capsys):
    code, out, _ = run_cli(
        ["check", "--scheme", "o3", "--boundary", "R3,0",
         "--sigma", "-0.4", "--lambda", "0.4"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "status=stable winding=2 zeros=0"


def test_check_unstable_line(capsys):
    code, out, _ = run_cli(
        ["check", "--scheme", "o3", "--boundary", "R3,0",
         "--sigma", "-0.4", "--lambda", "0.9"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "status=unstable winding=1 zeros=1"


def test_check_small_samples_is_invalid_line(capsys):
    code, out, _ = run_cli(
        ["check", "--scheme", "o3", "--boundary", "R3,0",
         "--sigma", "-0.4", "--lambda", "0.4", "--samples", "10"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "status=invalid_precondition winding=na zeros=na"


def test_check_infinite_lambda_is_invalid_line(capsys):
    code, out, err = run_cli(
        ["check", "--scheme", "upwind", "--boundary", "R3,0", "--lambda", "inf"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "status=invalid_precondition winding=na zeros=na"
    assert err == ""


@pytest.mark.parametrize("scheme", ["o3", "lw5"])
@pytest.mark.parametrize("command", ["curve", "simulate"])
def test_overflowing_lambda_is_an_error_line(command, scheme, tmp_path, capsys):
    code, out, err = run_cli(
        [command, "--scheme", scheme, "--boundary", "R3,0", "--lambda", "1e200",
         "--out", str(tmp_path / "out.csv")],
        capsys,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "overflow" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_with_unbuildable_last_lambda(tmp_path, capsys):
    out_path = tmp_path / "map.csv"
    code, _, err = run_cli(
        ["sweep", "--scheme", "o3", "--boundary", "R3,0", "--lambda=0.5:1e200:2",
         "--samples", "64", "--out", str(out_path)],
        capsys,
    )
    assert code == 0 and err == ""
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[2].endswith(",,,invalid_precondition")


def test_check_refuses_a_lambda_below_the_floor(capsys):
    code, out, err = run_cli(
        ["check", "--scheme", "lw5", "--boundary", "R5,0", "--sigma", "-0.49",
         "--lambda", "5e-4"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out.strip() == "status=invalid_precondition winding=na zeros=na"


def test_curve_refuses_a_lambda_below_the_floor(tmp_path, capsys):
    code, out, err = run_cli(
        ["curve", "--scheme", "o3", "--boundary", "R3,0", "--lambda", "0.005",
         "--out", str(tmp_path / "curve.csv")],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err == "error: lambda 0.005 is below LAMBDA_MIN = 0.01\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sigma", [[], ["--sigma", "0.4"]])
def test_boundary_file_is_used_as_written(sigma, tmp_path, capsys):
    # the file's sigma, -0.4, is checked whatever --sigma says
    path = tmp_path / "b.txt"
    path.write_text("reconstruction 3 0 -0.4\n")
    code, out, _ = run_cli(
        ["check", "--scheme", "o3", "--boundary", f"@{path}", "--lambda", "0.4",
         *sigma],
        capsys,
    )
    assert code == 0
    assert out.strip() == "status=stable winding=2 zeros=0"


def test_sweep_reports_a_nan_lambda_in_its_cell(tmp_path, capsys):
    # nan reaches the template, which rejects it
    out_path = tmp_path / "map.csv"
    code, _, err = run_cli(
        ["sweep", "--scheme", "o3", "--boundary", "R3,0", "--lambda", "nan",
         "--samples", "64", "--out", str(out_path)],
        capsys,
    )
    assert (code, err) == (0, "")
    lines = out_path.read_text().strip().splitlines()
    assert lines[1:] == ["nan,0,,,invalid_precondition"]


@pytest.mark.parametrize(
    "lam",
    ["nan:1:3", "0.1:nan:3", "nan:nan:2", "0.5:inf:3", "-inf:1:3", "-1e308:1e308:3"],
)
def test_sweep_rejects_a_lambda_range_with_a_nan_end(lam, tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep", "--scheme", "o3", "--boundary", "R3,0", f"--lambda={lam}",
         "--samples", "64", "--out", str(tmp_path / "map.csv")],
        capsys,
    )
    assert code == 1
    assert err == "error: lambda range needs count >= 1 and 0 < end - start < inf\n"
    assert not (tmp_path / "map.csv").exists()


RANGE_ENDS = st.floats() | st.sampled_from([1e308, -1e308, 5e-324, -5e-324])


@settings(max_examples=500, deadline=None)
@given(RANGE_ENDS, RANGE_ENDS, st.integers(-2, 64))
@example(0.0, 1.7976931348623157e308, 19)
def test_range_parsing_never_warns(start, end, count):
    # a range is rejected by name, or parsed to count finite, nondecreasing
    # values from start to end; either way numpy does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = klstab.cli._parse_values(f"{start!r}:{end!r}:{count}", "lambda")
        except ValueError as err:
            assert str(err).startswith("lambda range ")
            return
    assert len(values) == count and all(map(math.isfinite, values))
    assert values[0] == start and (count == 1 or values[-1] == end)
    assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "0", "-1"])
def test_custom_scheme_lambda_not_finite_and_positive(lam, tmp_path, capsys):
    # the custom coefficients do not depend on lambda; the template rejects it
    spath = tmp_path / "naive.scm"
    spath.write_text("1 1 0.5 0.0 0.5\n")
    common = ["--scheme", f"@{spath}", "--boundary", "R3,0", "--lambda", lam]
    code, out, err = run_cli(["check", *common], capsys)
    assert (code, err) == (0, "")
    assert out.strip() == "status=invalid_precondition winding=na zeros=na"
    code, out, err = run_cli(
        ["simulate", *common, "--grid-size", "20", "--steps", "5"], capsys
    )
    assert (code, out) == (1, "")
    assert err == f"error: lambda must be finite and positive (got {float(lam)!r})\n"


def test_check_marginal_exit_zero(tmp_path, capsys):
    bpath = tmp_path / "naive.bnd"
    bpath.write_text("matrix 1 2\n0.5 0.5\n")
    code, out, _ = run_cli(
        ["check", "--scheme", "naive_average", "--boundary", f"@{bpath}",
         "--lambda", "0.5"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "status=marginal winding=na zeros=na"


def test_custom_scheme_file(tmp_path, capsys):
    spath = tmp_path / "upwind.scm"
    spath.write_text("1 0 0.5 0.5\n")
    code, out, _ = run_cli(
        ["check", "--scheme", f"@{spath}", "--boundary", "R2,0",
         "--sigma", "-0.3", "--lambda", "0.5"],
        capsys,
    )
    assert code == 0
    assert out.startswith("status=")


def test_curve_round_trip(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        ["curve", "--scheme", "o3", "--boundary", "R3,0", "--sigma", "-0.4",
         "--lambda", "0.4", "--samples", "128", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    curve = read_curve_csv(str(out_path))
    assert winding_number(curve.values).index == 2
    header = out_path.read_text().splitlines()[0]
    assert header == "theta,re,im,depth"


def test_curve_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["curve", "--scheme", "lw5", "--boundary", "R5,1", "--sigma", "0.1",
            "--lambda", "0.5", "--samples", "64"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_outputs(tmp_path, capsys):
    out_path = tmp_path / "map.csv"
    code, out, err = run_cli(
        ["sweep", "--scheme", "o3", "--boundary", "R3,0",
         "--lambda", "0.005:1:5", "--sigma", "-0.4:0.4:3",
         "--samples", "64", "--out", str(out_path)],
        capsys,
    )
    assert (code, err) == (0, "")
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "lambda,sigma,winding,zeros,status"
    assert len(lines) == 1 + 5 * 3
    # lambda = 0.005 is below LAMBDA_MIN: its row's cells are invalid
    assert all(ln.endswith(",,,invalid_precondition") for ln in lines[1:4])
    svg = tmp_path / "map.svg"
    assert svg.exists()
    assert svg.read_text().count("<rect") == 1 + 15


@pytest.mark.parametrize(
    "command, extra",
    [
        ("check", ["--steps", "5"]),
        ("check", ["--out", "x.csv"]),
        ("check", ["--tol-unit", "1e-6"]),
        ("curve", ["--lambda-min", "0.1"]),
        ("sweep", ["--grid-size", "3"]),
        ("simulate", ["--samples", "64"]),
        ("check", ["--sigma-range", "0.1"]),
        ("sweep", ["--lambda-min", "0.1"]),
    ],
)
def test_flag_not_read_by_command_is_rejected(command, extra, tmp_path, monkeypatch):
    # a flag the command does not read is an argparse error, not a silent no-op
    monkeypatch.chdir(tmp_path)
    out = ["--out", "o.csv"] if command in ("curve", "sweep") else []
    args = [command, "--scheme", "o3", "--boundary", "R3,0", "--sigma", "-0.4",
            "--lambda", "0.4", *out, *extra]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_sweep_requires_out(capsys):
    code, _, err = run_cli(
        ["sweep", "--scheme", "o3", "--boundary", "R3,0",
         "--lambda", "0.1:1:3", "--sigma", "-0.4:0.4:3"],
        capsys,
    )
    assert code == 1
    assert "requires --out" in err


def test_curve_requires_out(capsys):
    code, out, err = run_cli(
        ["curve", "--scheme", "o3", "--boundary", "R3,0", "--lambda", "0.4"], capsys
    )
    assert (code, out, err) == (1, "", "error: curve requires --out\n")


def test_sweep_aborts_on_a_sigma_the_boundary_refuses(tmp_path, capsys):
    # a check never aborts a sweep, but the boundary family raising does
    out_csv = tmp_path / "map.csv"
    code, out, err = run_cli(
        ["sweep", "--scheme", "o3", "--boundary", "R3,0", "--lambda", "0.5",
         "--sigma", "-0.6:0.4:3", "--out", str(out_csv)],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err == "error: sigma must lie in [-1/2, 1/2)\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("boundary", ["R144,-1", "R150,0", "R20000,0"])
def test_an_order_that_overflows_is_refused_by_check_and_simulate(boundary, capsys):
    args = ["--scheme", "o3", "--boundary", boundary, "--sigma", "0.1",
            "--lambda", "0.5"]
    code, out, err = run_cli(["check"] + args, capsys)
    assert (code, out, err) == (0, "status=invalid_precondition winding=na zeros=na\n", "")
    code, out, err = run_cli(["simulate"] + args + ["--grid-size", "20"], capsys)
    d = boundary[1:].split(",")[0]
    assert (code, out, err) == (1, "", f"error: order d = {d} overflows the cell averages\n")


def test_sweep_rejects_a_range_without_a_count(tmp_path, capsys):
    code, out, err = run_cli(
        ["sweep", "--scheme", "o3", "--boundary", "R3,0", "--lambda", "0:1",
         "--out", str(tmp_path / "map.csv")],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err == "error: lambda range must be start:end:count, got '0:1'\n"


@pytest.mark.parametrize(
    "steps, error",
    [("0", "error: N must be >= 1\n"), ("-1", "error: N must be >= 1\n")],
)
def test_simulate_refuses_a_step_count_below_one(steps, error, capsys):
    code, out, err = run_cli(
        ["simulate", "--scheme", "o3", "--boundary", "R3,0", "--lambda", "0.4",
         "--grid-size", "20", "--steps", steps],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err.startswith(error) and err.count("\n") == 1


def test_scheme_without_a_left_width_is_invalid(tmp_path, capsys):
    # r = 0: the scheme reads no ghost values, so there is no boundary to judge
    spath = tmp_path / "right.scm"
    spath.write_text("0 1 0.5 0.5\n")
    v = check(custom_template(str(spath)), ReconstructionSpec(2, 0, 0.0), 0.5)
    assert v.status == "invalid_precondition"
    assert v.error == "r = 0: no boundary modes, pipeline does not apply"
    code, out, err = run_cli(
        ["check", "--scheme", f"@{spath}", "--boundary", "R2,0", "--lambda", "0.5"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out == "status=invalid_precondition winding=na zeros=na\n"


def test_simulate_summary_and_dump(tmp_path, capsys):
    dump = tmp_path / "sim.csv"
    code, out, _ = run_cli(
        ["simulate", "--scheme", "o3", "--boundary", "R3,0", "--sigma", "-0.4",
         "--lambda", "0.4", "--grid-size", "60", "--steps", "40",
         "--out", str(dump)],
        capsys,
    )
    assert code == 0
    assert "blew_up=False" in out
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "n,j,u"
    assert len(lines) == 1 + 41 * 60


def test_bad_boundary_spec(capsys):
    code, _, err = run_cli(
        ["check", "--scheme", "o3", "--boundary", "Q3,0", "--lambda", "0.4"],
        capsys,
    )
    assert code == 1
    assert "boundary spec" in err


def test_bad_scheme_name(capsys):
    code, _, err = run_cli(
        ["check", "--scheme", "o9", "--boundary", "R3,0", "--lambda", "0.4"],
        capsys,
    )
    assert code == 1
    assert "unknown scheme" in err


def test_range_rejected_for_check(capsys):
    code, _, err = run_cli(
        ["check", "--scheme", "o3", "--boundary", "R3,0",
         "--lambda", "0.1:1:4"],
        capsys,
    )
    assert code == 1
    assert "single value" in err


def test_check_curve_out_writes_curve(tmp_path, capsys):
    cpath = tmp_path / "c.csv"
    code, out, _ = run_cli(
        ["check", "--scheme", "o3", "--boundary", "R3,0", "--sigma", "-0.4",
         "--lambda", "0.4", "--curve-out", str(cpath)],
        capsys,
    )
    assert code == 0
    curve = read_curve_csv(str(cpath))
    assert winding_number(curve.values).index == 2


def test_check_curve_out_traces_the_curve_once(tmp_path, capsys, monkeypatch):
    tmpl = template("o3")
    expected = tmp_path / "expected.csv"
    curve = kl_curve(tmpl(0.4), recon_bc(tmpl, 0.4, 3, 0, -0.4))
    write_curve_csv(curve, str(expected))

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return kl_curve(*args, **kwargs)

    # the CLI traces curves only through the verdict layer
    assert not hasattr(klstab.cli, "kl_curve")
    monkeypatch.setattr(klstab.verdict, "kl_curve", counting)
    cpath = tmp_path / "c.csv"
    code, out, _ = run_cli(
        ["check", "--scheme", "o3", "--boundary", "R3,0", "--sigma", "-0.4",
         "--lambda", "0.4", "--curve-out", str(cpath)],
        capsys,
    )
    assert code == 0
    assert out.strip() == "status=stable winding=2 zeros=0"
    assert len(calls) == 1
    assert cpath.read_bytes() == expected.read_bytes()


def test_curve_writes_the_curve_check_traced(tmp_path, capsys):
    args = ["--scheme", "o3", "--boundary", "R3,0", "--sigma", "-0.4",
            "--lambda", "0.4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["curve", *args, "--out", str(a)]) == 0
    assert main(["check", *args, "--curve-out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_curve_applies_the_check_preconditions(tmp_path, capsys):
    # upwind at lambda 1.5 is not Cauchy-stable; no curve is traced
    code, out, err = run_cli(
        ["curve", "--scheme", "upwind", "--boundary", "R3,0", "--lambda", "1.5",
         "--out", str(tmp_path / "c.csv")],
        capsys,
    )
    assert code == 1 and out == ""
    assert err.strip() == "error: Cauchy-stability violated"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["check", "curve", "simulate"])
def test_non_finite_ghost_matrix_is_an_error_line(command, entry, tmp_path, capsys):
    bpath = tmp_path / "b.bnd"
    bpath.write_text(f"matrix 1 2\n{entry} 0.5\n")
    out_flag = "--curve-out" if command == "check" else "--out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            [command, "--scheme", "upwind", "--boundary", f"@{bpath}",
             "--lambda", "0.5", out_flag, str(tmp_path / "out.csv")],
            capsys,
        )
    assert code == 1 and out == ""
    assert err.strip() == "error: matrix entries must be finite"
    assert sorted(tmp_path.iterdir()) == [bpath]
