import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import klstab.kldet
import klstab.scheme
import klstab.verdict
import klstab.winding
from klstab.boundary import BoundaryCondition, ReconstructionSpec
from klstab.errors import EmptyGrid
from klstab.kldet import delta, kl_curve
from klstab.scheme import (
    Scheme,
    SchemeTemplate,
    custom_template,
    parse_scheme_line,
    template,
)
from klstab.verdict import (
    LAMBDA_MIN,
    STATUS_INVALID,
    STATUS_MARGINAL,
    STATUS_STABLE,
    STATUS_UNSTABLE,
    check,
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
    # o3 at lambda = 2 is the shift U_{j-2}: a_{-1}, a_0 and a_1 are exactly 0,
    # so P_z loses its top column to a root at infinity; no warning, no change
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(template("o3"), ReconstructionSpec(3, 0, sigma), 2.0)
    assert (v.status, v.winding, v.unstable_zeros) == (STATUS_UNSTABLE, 1, 1)


def test_tiny_leading_coefficient_checks_without_warning():
    # a_1 = -1e-20 and a_{-1} = 0 make a radius ratio of the monic P_z overflow
    # in the root finder's initial guesses before the clip caps it
    line = "2 1 1.0 0.0 1e-20 -1e-20"
    tmpl = SchemeTemplate("custom", lambda lam: parse_scheme_line(line, lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(tmpl, ReconstructionSpec(3, 0, 0.1), 0.5)
    assert (v.status, v.winding, v.unstable_zeros) == (STATUS_UNSTABLE, 1, 1)


@pytest.mark.parametrize("name", ["upwind", "o3", "lw5"])
@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 1e200])
def test_unrepresentable_lambda_is_invalid_without_warning(name, lam):
    # nan and inf give non-finite coefficients; 1e200 overflows the o3 and lw5
    # polynomials in lambda and leaves upwind's coefficients summing to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(template(name), ReconstructionSpec(3, 0, -0.4), lam)
    assert v.status == STATUS_INVALID
    assert v.diagnostics["error"].startswith("scheme construction failed: ")


def test_complex_scheme_is_invalid_precondition():
    # sigma(conj z) = conj sigma(z) needs real coefficients; these sum to
    # exactly 1, so only the realness check can reject them
    def build(lam):
        return Scheme(r=1, p=0, coeffs={-1: lam + 0.1j, 0: 1.0 - lam - 0.1j}, lam=lam)

    v = check(SchemeTemplate("complex", build), ReconstructionSpec(3, 0, -0.4), 0.5)
    assert v.status == STATUS_INVALID
    assert v.diagnostics["error"].startswith(
        "scheme construction failed: coefficients must be real"
    )


@pytest.mark.parametrize(
    "name,spec,lam,status,diagnostics",
    [
        (
            "o3",
            (3, 0, -0.4),
            1.5,
            STATUS_INVALID,
            {
                "lambda": 1.5,
                "cauchy_max_modulus": pytest.approx(1.088662044160293, rel=1e-12),
                "cauchy_xi_worst": pytest.approx(1.911340061705509, rel=1e-12),
                "error": "Cauchy-stability violated",
            },
        ),
        (
            "upwind",
            (3, -1, 0.2),
            0.4,
            STATUS_MARGINAL,
            {
                "lambda": 0.4,
                "cauchy_max_modulus": 1.0,
                "cauchy_xi_worst": 0.0,
                "error": "|D| = 0 below 1e-13 at theta = 0",
            },
        ),
        (
            "o3",
            (3, 0, -0.4),
            0.4,
            STATUS_STABLE,
            {
                "lambda": 0.4,
                "cauchy_max_modulus": 1.0,
                "cauchy_xi_worst": 0.0,
                "curve_samples": 256,
                "max_refine_depth": 0,
                "min_curve_distance": pytest.approx(0.49922905296240744, rel=1e-9),
            },
        ),
    ],
)
def test_verdict_is_slotted_and_diagnostics_keep_their_keys(
    name, spec, lam, status, diagnostics
):
    v = check(template(name), ReconstructionSpec(*spec), lam)
    assert not hasattr(v, "__dict__")
    assert v.status == status
    assert v.diagnostics == diagnostics
    assert list(v.diagnostics) == list(diagnostics)


BAD_LAMBDAS = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]
LAMBDAS = st.one_of(
    st.floats(LAMBDA_MIN, 2.0),
    st.floats(0.0, LAMBDA_MIN, exclude_min=True, exclude_max=True),
    st.sampled_from(BAD_LAMBDAS),
)


@st.composite
def check_inputs(draw):
    """A template, a lambda, and a boundary spec, ghost matrix or prebuilt boundary.

    Templates are the built-ins and a Cauchy-stable custom upwind with fixed
    coefficients; lambda is in (0, 2] or one of BAD_LAMBDAS.  Ghost
    matrices are mostly r x m, also of rank 0 or 1 or with a wrong row count;
    a prebuilt boundary is built at a lambda drawn on its own.
    """
    name = draw(st.sampled_from(["upwind", "naive_average", "o3", "lw5", "custom"]))
    if name == "custom":
        c = draw(st.floats(0.0, 1.0, exclude_min=True))
        line = f"1 0 {c!r} {1.0 - c!r}"
        tmpl = SchemeTemplate("custom", lambda lam: parse_scheme_line(line, lam))
    else:
        tmpl = template(name)
    lam = draw(LAMBDAS)
    kind = draw(st.sampled_from(["spec", "matrix", "prebuilt"]))
    if kind == "spec":
        # orders up to 200: from R144,-1 on the cell averages overflow a double
        d = draw(st.one_of(st.integers(2, 6), st.integers(2, 200)))
        k_d = draw(st.integers(-1, d - 2))
        sigma = draw(
            st.one_of(
                st.floats(-0.5, 0.5, exclude_max=True),
                st.sampled_from([-0.5, np.nextafter(0.5, 0)]),
            )
        )
        return tmpl, ReconstructionSpec(d, k_d, sigma), lam
    s = tmpl(0.5)  # stencil widths do not depend on lambda
    width = draw(st.integers(s.r + s.p, s.r + s.p + 3))
    if kind == "prebuilt":
        B = draw(arrays(float, (s.r, width), elements=st.floats(-2.0, 2.0)))
        other = tmpl(draw(st.floats(0.01, 2.0)))
        return tmpl, BoundaryCondition.from_matrix(B, other), lam
    rows = draw(st.sampled_from([s.r, s.r, s.r, s.r - 1, s.r + 1]))
    shape = draw(st.sampled_from([(rows, width), (rows, width), (width,), ()]))
    # mostly moderate entries, also huge ones and values that are not finite
    entries = st.one_of(
        st.floats(-2.0, 2.0),
        st.floats(-1e300, 1e300),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    B = draw(arrays(float, shape, elements=entries))
    return tmpl, B, lam


@settings(max_examples=60, deadline=None)
@given(check_inputs())
def test_check_never_raises_or_warns(inputs):
    tmpl, spec, lam = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(tmpl, spec, lam)
    assert v.status in (STATUS_STABLE, STATUS_UNSTABLE, STATUS_MARGINAL, STATUS_INVALID)
    if not 0 < lam < np.inf:
        assert v.status == STATUS_INVALID
    elif lam < LAMBDA_MIN:
        assert v.status == STATUS_INVALID
        assert v.error == f"lambda {lam!r} is below LAMBDA_MIN = {LAMBDA_MIN}"
    if v.certified:
        assert v.unstable_zeros == tmpl(lam).r - v.winding >= 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["upwind", "naive_average", "o3", "lw5"]), LAMBDAS, st.data())
def test_prebuilt_boundary_checks_as_its_ghost_matrix(name, lam, data):
    # a BoundaryCondition holds no lambda: built on the scheme at any other
    # lambda, it reads what its ghost matrix reads
    tmpl = template(name)
    s = tmpl(0.5)  # stencil widths do not depend on lambda
    width = data.draw(st.integers(s.r + s.p, s.r + s.p + 3))
    B = data.draw(arrays(float, (s.r, width), elements=st.floats(-2.0, 2.0)))
    other = tmpl(data.draw(st.floats(0.01, 2.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prebuilt = check(tmpl, BoundaryCondition.from_matrix(B, other), lam)
        assert prebuilt == check(tmpl, B, lam)


HUGE = [1e308, -1e308, 1.7e308, -1.7e308]
SUBNORMAL = [5e-324, -5e-324, 1e-310, -1e-310, 1e-320, -1e-320]


@st.composite
def custom_lines(draw):
    """A custom scheme line ``r p a_{-r} ... a_p`` that sums to 1 in floats.

    Coefficients are moderate, huge, subnormal or zero; one of them is then
    set so that the line sums to 1, or to a value that is not finite when the
    others' sum overflows.
    """
    r, p = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    coeff = st.one_of(
        st.floats(-2.0, 2.0),
        st.sampled_from(HUGE),
        st.sampled_from(SUBNORMAL),
        st.just(0.0),
    )
    vals = draw(st.lists(coeff, min_size=r + p + 1, max_size=r + p + 1))
    i = draw(st.integers(0, r + p))
    vals[i] = 1.0 - sum(vals[:i] + vals[i + 1 :])
    return " ".join([str(r), str(p)] + [repr(v) for v in vals])


@settings(max_examples=100, deadline=None)
@given(
    custom_lines(),
    st.sampled_from([(2, 0), (3, 0), (3, -1), (4, 1), (5, 0)]),
    st.floats(-0.5, 0.5, exclude_max=True),
)
@example("1 1 1e308 -1e308 1", (2, 0), 0.1)
@example("3 1 1e8 -1.7e308 -0.0 1.7e308 1.0", (2, 0), 0.1)
@example("1 1 1e-310 1 -1e-310", (2, 0), 0.1)
@example("1 1 1.0 1e-320 -5e-324", (2, 0), 0.1)
@example("1 1 0.5 0.5 -3.6679572961244075e-156", (3, 0), 0.0)
def test_custom_scheme_check_never_raises_or_warns(line, boundary, sigma):
    tmpl = SchemeTemplate("custom", lambda lam: parse_scheme_line(line, lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(tmpl, ReconstructionSpec(*boundary, sigma), 0.5)
    assert v.status in (STATUS_STABLE, STATUS_UNSTABLE, STATUS_MARGINAL, STATUS_INVALID)


@pytest.mark.parametrize(
    "line, error",
    [
        # the FFT of the coefficients overflows, or meets inf - inf
        ("1 1 1e308 -1e308 1", "Cauchy-stability violated"),
        ("3 1 1e8 -1.7e308 -0.0 1.7e308 1.0", "Cauchy-stability violated"),
        # a_p leads P_z, and dividing by it overflows
        ("1 1 1e-310 1 -1e-310", "NonConvergence: dividing by leading coefficient "
         "-1.000e-310+0.000e+00j overflows"),
        ("1 1 1.0 1e-320 -5e-324", "NonConvergence: dividing by leading coefficient "
         "-4.941e-324+0.000e+00j overflows"),
    ],
)
def test_extreme_custom_coefficients_are_invalid_without_warning(line, error):
    tmpl = SchemeTemplate("custom", lambda lam: parse_scheme_line(line, lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(tmpl, ReconstructionSpec(2, 0, 0.1), 0.5)
    assert (v.status, v.error) == (STATUS_INVALID, error)
    if error.startswith("Cauchy"):
        assert v.cauchy_max_modulus == np.inf


@pytest.mark.parametrize(
    "line, consistent",
    [
        ("1 1 0.3 0.5 0.2000000000005", "1 1 0.3 0.5 0.2"),
        ("2 1 -0.05 0.4 0.5 0.15000000000002", "2 1 -0.05 0.4 0.5 0.15"),
        # P_1 has a double root at kappa = 1, split by the defect
        ("1 1 0.25 0.5 0.2500000000001", "1 1 0.25 0.5 0.25"),
    ],
)
@pytest.mark.parametrize("spec", [(3, 0, 0.1), (2, 0, -0.3)])
def test_a_consistency_defect_within_tolerance_keeps_the_consistent_verdict(
    line, consistent, spec
):
    # the coefficients sum to 1 + 5e-13, 2e-14 and 1e-13, which construction
    # accepts; kappa = 1 at z = 1 moves off the circle by about as much, and
    # is still continued from inside, as for the scheme that sums to 1
    verdicts = [
        check(SchemeTemplate("custom", lambda lam, l=l: parse_scheme_line(l, lam)),
              ReconstructionSpec(*spec), 0.5)
        for l in (line, consistent)
    ]
    assert verdicts[0].certified
    assert [(v.status, v.winding) for v in verdicts] == [
        (verdicts[1].status, verdicts[1].winding)
    ] * 2


@settings(max_examples=25, deadline=None)
@given(check_inputs())
def test_certified_verdict_holds_at_doubled_resolution(inputs):
    # a marginal verdict may certify at a finer resolution, which is what
    # marginal means; a certified one must not move
    tmpl, spec, lam = inputs
    coarse = check(tmpl, spec, lam)
    if not coarse.certified:
        return
    fine = check(tmpl, spec, lam, n_init=512, max_depth=40)
    assert (fine.status, fine.winding, fine.unstable_zeros) == (
        coarse.status,
        coarse.winding,
        coarse.unstable_zeros,
    )


def test_nonpositive_lambda_is_invalid():
    v = check(template("o3"), ReconstructionSpec(3, 0, -0.4), 0.0)
    assert v.status == STATUS_INVALID


@pytest.mark.parametrize("lam", BAD_LAMBDAS)
@pytest.mark.parametrize("kind", ["naive_average", "custom"])
def test_lambda_not_finite_and_positive_is_invalid_in_check_and_sweep(
    kind, lam, tmp_path
):
    # naive_average and custom schemes have coefficients that do not depend
    # on lambda, so only the template's own test can reject it
    if kind == "custom":
        path = tmp_path / "naive.scm"
        path.write_text("1 1 0.5 0.0 0.5\n")
        tmpl = custom_template(str(path))
    else:
        tmpl = template(kind)
    error = "scheme construction failed: lambda must be finite and positive"
    error += f" (got {lam!r})"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(tmpl, ReconstructionSpec(3, 0, 0.1), lam)
        grid = sweep(tmpl, lambda s: ReconstructionSpec(3, 0, s), [lam], [0.1])
    cell = grid.results[0][0]
    assert (v.status, v.error) == (cell.status, cell.error) == (STATUS_INVALID, error)
    assert grid.r == 0


@pytest.mark.parametrize("lam", [5e-324, 5e-4, np.nextafter(LAMBDA_MIN, 0)])
@pytest.mark.parametrize("kind", ["lw5", "naive_average", "custom"])
def test_lambda_below_the_floor_is_invalid_in_check_and_sweep(kind, lam, tmp_path):
    # the template accepts these; check refuses them before the Cauchy check,
    # naming a numpy lambda as a float
    if kind == "custom":
        path = tmp_path / "upwind.scm"
        path.write_text("1 0 0.5 0.5\n")
        tmpl = custom_template(str(path))
    else:
        tmpl = template(kind)
    error = f"lambda {float(lam)!r} is below LAMBDA_MIN = {LAMBDA_MIN}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(tmpl, ReconstructionSpec(3, 0, 0.1), lam)
        grid = sweep(tmpl, lambda s: ReconstructionSpec(3, 0, s), [lam], [-0.1, 0.1])
    assert (v.status, v.error) == (STATUS_INVALID, error)
    assert v.cauchy_max_modulus is None
    assert all(cell == v for cell in grid.results[0][1:])
    assert grid.results[0][0].error == error


def test_lw5_below_the_floor_is_refused_not_misjudged():
    # the 256-sample curve reads this point unstable with 2 zeros, and
    # n_init = 512, max_depth = 40 reads it stable
    v = check(template("lw5"), ReconstructionSpec(5, 0, -0.49), 5e-4)
    assert v.status == STATUS_INVALID
    assert v.error == "lambda 0.0005 is below LAMBDA_MIN = 0.01"
    assert check(template("lw5"), ReconstructionSpec(5, 0, -0.49), LAMBDA_MIN).certified


def test_prebuilt_boundary_must_fit_its_scheme():
    # a boundary is its ghost matrix: one built at another lambda checks as
    # its spec, and one built for another template does not fit
    o3, spec = template("o3"), ReconstructionSpec(3, 0, -0.4)
    at_half = BoundaryCondition.from_reconstruction(spec, o3(0.5))
    v = check(o3, at_half, 0.9)
    assert v == check(o3, spec, 0.9)
    assert (v.status, v.unstable_zeros) == (STATUS_UNSTABLE, 1)
    upwind_bc = BoundaryCondition.from_reconstruction(spec, template("upwind")(0.5))
    v = check(o3, upwind_bc, 0.5)
    assert v.status == STATUS_INVALID
    assert v.error.startswith("ShapeMismatch: B must be r x m with r=2")
    for lam in (0.4, 0.9):
        fits = BoundaryCondition.from_reconstruction(spec, o3(lam))
        assert check(o3, fits, lam) == check(o3, spec, lam)


@pytest.mark.parametrize(
    "name, B",
    [
        ("upwind", [0.5, 0.5]),
        ("upwind", np.array(0.5)),
        ("o3", np.zeros(3)),
        ("o3", None),
    ],
)
def test_ghost_matrix_of_rank_below_two_is_invalid(name, B):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(template(name), B, 0.5)
    assert v.status == STATUS_INVALID
    assert v.error.startswith("ShapeMismatch: B must be r x m")


def test_small_n_init_is_invalid_in_check_and_sweep():
    v = check(template("o3"), ReconstructionSpec(3, 0, -0.4), 0.4, n_init=10)
    assert v.status == STATUS_INVALID
    assert v.diagnostics["error"] == "n_init must be >= 64"
    grid = sweep(
        template("o3"),
        lambda s: ReconstructionSpec(3, 0, s),
        [0.4],
        [-0.4, 0.2],
        n_init=10,
    )
    assert [v.status for v in grid.results[0]] == [STATUS_INVALID, STATUS_INVALID]


@pytest.mark.parametrize("n_init", [256.0, 300.5, "256"])
def test_non_integral_n_init_is_invalid_in_check_and_sweep(n_init):
    v = check(template("o3"), ReconstructionSpec(3, 0, 0.1), 0.5, n_init=n_init)
    assert v.status == STATUS_INVALID
    assert v.error == f"n_init must be an integer (got {n_init!r})"
    grid = sweep(
        template("o3"), lambda s: ReconstructionSpec(3, 0, s), [0.5], [0.1], n_init=n_init
    )
    assert grid.results[0] == [v]


def test_numpy_integer_n_init_is_accepted():
    spec = ReconstructionSpec(3, 0, 0.1)
    v = check(template("o3"), spec, 0.5, n_init=np.int64(128))
    assert v.certified and v == check(template("o3"), spec, 0.5, n_init=128)


def test_marginal_when_curve_touches_origin():
    # the centered-average scheme with its own halfcell average boundary has a
    # determinant zero at z = 1, so the curve cannot be certified off the origin
    v = check(template("naive_average"), np.array([[0.5, 0.5]]), 0.5)
    assert v.status == STATUS_MARGINAL
    assert v.winding is None
    assert v.diagnostics["min_curve_distance"] < 1e-6


def test_check_runs_the_predicate_once(monkeypatch):
    # o3 R3,0 at sigma -0.4, lambda 0.4 needs no refinement: the round that
    # finds nothing to split certifies the curve, and nothing else re-runs it
    calls = []
    predicate = klstab.winding.needs_refinement

    def counting(*args):
        calls.append(args)
        return predicate(*args)

    monkeypatch.setattr(klstab.kldet, "needs_refinement", counting)
    monkeypatch.setattr(klstab.winding, "needs_refinement", counting)
    v = check(template("o3"), ReconstructionSpec(3, 0, -0.4), 0.4)
    assert v.status == STATUS_STABLE and v.max_refine_depth == 0
    assert len(calls) == 1


def test_uncertified_curve_is_marginal_without_a_count(monkeypatch):
    # one round of 64 samples leaves flagged segments: the curve is not
    # certified, so it is not counted, and its distance is still reported
    counted = []
    count = klstab.verdict.winding_number

    def counting(values):
        counted.append(values)
        return count(values)

    monkeypatch.setattr(klstab.verdict, "winding_number", counting)
    spec = ReconstructionSpec(3, 0, -0.49)
    v = check(template("o3"), spec, 0.05, n_init=64, max_depth=0)
    assert v.status == STATUS_MARGINAL and v.winding is None
    assert v.error == "curve not certifiable away from the origin"
    curve = klstab.verdict._check(template("o3"), spec, 0.05, 64, 0)[1]
    assert not curve.certified
    mods = np.hypot(curve.values.real, curve.values.imag)
    assert v.min_curve_distance == float(np.min(mods))
    assert counted == []


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_ghost_matrix_is_invalid(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(template("upwind"), np.array([[entry, 0.5]]), 0.5)
    assert v.status == STATUS_INVALID
    assert v.error == "ValueError: ghost matrix B and its calB must be finite"


@pytest.mark.parametrize(
    "name, B",
    [
        ("upwind", [[1e160, 1e160]]),
        ("upwind", [[0.5, 1e300]]),
        ("o3", np.full((2, 3), 1e200)),
        ("o3", np.eye(2, 3) * 1e200),
        ("lw5", np.full((3, 5), 1e160)),
        ("lw5", np.eye(3, 5) * 1e160),
        ("lw5", np.full((3, 5), -1e300)),
    ],
)
def test_overflowing_curve_is_marginal(name, B):
    # samples too large for the refinement predicate's products end the curve;
    # the scale is named, also where det of equal huge rows rounds to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check(template(name), np.array(B), 0.5)
    assert v.status == STATUS_MARGINAL and not v.certified
    assert " not below 3.35e+153 at theta = " in v.error


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


def test_sweep_descending_grid_rejected():
    with pytest.raises(ValueError, match="grid values must be ascending"):
        sweep(template("o3"), lambda s: ReconstructionSpec(3, 0, s), [0.9, 0.3], [0.1])


def test_sweep_matches_individual_checks(rng):
    # a row's cells share its scheme's grid_sigmas; every verdict, diagnostics
    # included, must still equal the standalone check's bit for bit
    for name, d in (("o3", 3), ("lw5", 5)):
        lams = sorted(rng.uniform(0.1, 1.0, size=3)) + [1.0]
        sigs = sorted(rng.uniform(-0.45, 0.45, size=4))
        grid = sweep(template(name), lambda s: ReconstructionSpec(d, 0, s), lams, sigs)
        for i, lam in enumerate(lams):
            for j, sig in enumerate(sigs):
                single = check(template(name), ReconstructionSpec(d, 0, sig), lam)
                assert grid.results[i][j] == single, (name, lam, sig)


def test_sweep_row_solves_the_scheme_side_once(monkeypatch):
    # o3 at lambda = 1: all 256 samples take the Rouche fallback; the 129 of
    # them on or above the real axis are solved, and the row's three cells
    # share them instead of solving 768
    calls = []
    rouche = klstab.kldet.min_modulus_on_circle

    def counting_rouche(*args):
        calls.append(args)
        return rouche(*args)

    monkeypatch.setattr(klstab.kldet, "min_modulus_on_circle", counting_rouche)
    grid = sweep(
        template("o3"), lambda s: ReconstructionSpec(3, 0, s), [1.0], [-0.4, 0.0, 0.3]
    )
    assert all(v.certified for v in grid.results[0])
    assert len(calls) == 129


def test_sweep_row_shares_one_cauchy_report(monkeypatch):
    # the row's scheme keeps its report: one FFT for 8 cells, while check
    # still asks is_cauchy_stable once per cell
    ffts, reports = [], []
    fft, cauchy = klstab.scheme.np.fft.fft, klstab.verdict.is_cauchy_stable

    def counting_fft(*args):
        ffts.append(args)
        return fft(*args)

    def counting_cauchy(s):
        reports.append(cauchy(s))
        return reports[-1]

    monkeypatch.setattr(klstab.scheme.np.fft, "fft", counting_fft)
    monkeypatch.setattr(klstab.verdict, "is_cauchy_stable", counting_cauchy)
    sigs = np.linspace(-0.45, 0.45, 8)
    grid = sweep(template("o3"), lambda s: ReconstructionSpec(3, 0, s), [0.5], sigs)
    row = grid.results[0]
    assert len(ffts) == 1 and len(reports) == 8
    assert all(v.cauchy_max_modulus is row[0].cauchy_max_modulus for v in row)
    assert all(v.cauchy_xi_worst is row[0].cauchy_xi_worst for v in row)


def test_refining_sweep_row_matches_standalone_checks():
    # lw5 at lambda = 0.02: several cells of the row refine, so their
    # midpoints are solved on the row's shared scheme
    sigs = np.linspace(-0.49, 0.49, 8)
    tmpl = template("lw5")
    grid = sweep(tmpl, lambda s: ReconstructionSpec(5, 0, s), [0.02], sigs)
    row = grid.results[0]
    assert sum(v.max_refine_depth > 0 for v in row) >= 2
    assert row == [check(tmpl, ReconstructionSpec(5, 0, s), 0.02) for s in sigs]
    shared = tmpl(0.02)
    for sig in sigs:
        got = kl_curve(shared, recon_bc(tmpl, 0.02, 5, 0, sig))
        want = kl_curve(tmpl(0.02), recon_bc(tmpl, 0.02, 5, 0, sig))
        assert np.array_equal(got.thetas, want.thetas)
        assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize(
    "lams, r", [([0.5, float("inf")], 2), ([0.5, 1e200], 2), ([float("inf")], 0)]
)
def test_sweep_survives_an_unbuildable_last_lambda(lams, r):
    # the cells of a lambda whose scheme cannot be built are invalid, and r
    # comes from a row that did build (0 when none did)
    grid = sweep(template("o3"), lambda s: ReconstructionSpec(3, 0, s), lams, [0.0])
    assert grid.results[-1][0].status == STATUS_INVALID
    assert grid.r == r


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


def test_map_svg_colours_a_marginal_cell(tmp_path):
    # pure extrapolation puts the curve through the origin at z = 1
    family = lambda s: ReconstructionSpec(3, -1, s)  # noqa: E731
    grid = sweep(template("upwind"), family, [0.4], [0.2])
    assert grid.results[0][0].status == STATUS_MARGINAL
    path = tmp_path / "map.svg"
    write_map_svg(grid, str(path))
    assert 'fill="#7d1111"' in path.read_text()
