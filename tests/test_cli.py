import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from adtorsion import __version__, cli, laurent, locus
from adtorsion.cli import format_sweep_csv, main
from adtorsion.locus import auto_theta_range, find_critical_points, sweep_rows, theta_grid
from adtorsion import catalog
from adtorsion.foxcalc import fox_derivative
from adtorsion.laurent import LaurentMatrix, LaurentPoly
from adtorsion.reps import (
    RepresentationError,
    riley_polynomial,
    su2_root_count_thresholds,
    su2_root_counts,
    su2_solutions,
)
from adtorsion.torsion import RegularityError, Tolerances, compute_torsion, torsion_polynomial

from test_torsion import as_poly, schubert_knot


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_riley_poly_knot(capsys):
    code, out, _ = run_cli(capsys, "riley-poly", "--knot", "5_2")
    assert code == 0
    assert "sigma form" in out
    assert "(-2*sigma + 3)*u^2" in out


def test_riley_poly_word_and_json(capsys):
    code, out, _ = run_cli(capsys, "riley-poly", "--word", "x y", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["u_degree"] == 1
    assert data["sigma_form"] == "(1)*u + (-sigma + 1)"
    code, out, _ = run_cli(capsys, "riley-poly", "--word", "")
    assert code == 0
    assert "no nonabelian representations" in out


def test_riley_poly_needs_source(capsys):
    code, _, err = run_cli(capsys, "riley-poly")
    assert code == 1
    assert "error" in err


def test_torsion_json_payload(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--knot", "5_2", "--theta", str(math.pi), "--root", "2")
    assert code == 0
    data = json.loads(out)
    assert abs(abs(data["value"][0]) - 1.3864358493901103) < 1e-6
    assert data["diagnostics"]["simple_zero"] is True
    assert data["diagnostics"]["denominator_ok"] is True


def test_torsion_input_errors(capsys):
    code, _, err = run_cli(capsys, "torsion", "--knot", "5_2", "--theta", "0.3", "--root", "0")
    assert code == 1
    assert "no SU(2) solutions" in err
    code, _, err = run_cli(capsys, "torsion", "--knot", "5_2", "--theta", str(math.pi), "--root", "7")
    assert code == 1
    assert "out of range" in err
    code, _, err = run_cli(capsys, "torsion", "--knot", "9_99", "--theta", "3.0")
    assert code == 1
    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 1


def test_tai_payload(capsys):
    code, out, _ = run_cli(capsys, "tai", "--knot", "trefoil", "--theta", "2.2", "--root", "0")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"numerator", "denominator"}
    assert data["denominator"]["offset"] == 0


# `torsion` and `tai` on 5_2 as the CLI printed them, every number to the
# last bit: the value, both routes and every diagnostic
FIVE_TWO_PAYLOADS = {
    ("2.5", 0): {
        "torsion": {
            "value": [10.333805806232805, -2.1431216247653125e-12],
            "formula_value": [10.333805806232805, -2.1431216247653117e-12],
            "limit_value": [10.333805806232805, -2.1431216247653125e-12],
            "diagnostics": {
                "scale": 7.216374340362719,
                "delta1_at_1": 1.1963492123931796e-12,
                "delta1_prime_at_1": 2.9491726725201428e-12,
                "reduced_at_1": 37.2253367043961,
                "division_remainders": [1.1963492123931796e-12, 2.948286226118608e-12],
                "simple_zero": True,
                "trace_x1_sq": [-1.6022872310938672, 1.1102230246251565e-16],
                "denominator_ok": True,
                "irreducible": True,
                "lambda_regular_proxy": True,
                "tai_at_1": 0.00010337197886999634,
                "naive_limit": [10.337197877560309, -0.0004417604961945193],
                "consistency_ok": True,
            },
        },
        "tai": {
            "numerator": {
                "offset": 0,
                "coeffs": [
                    [-3.2418593388392694, 3.0948825684969416e-13],
                    [-2.5607582745016773, 1.5072965166389564e-12],
                    [2.1944304431603796, -5.326878811890961e-13],
                    [7.216374340362719, -2.1842892327940578e-12],
                    [2.194430443156199, -7.782986850883532e-13],
                    [-2.5607582745022444, 1.617549857707611e-12],
                    [-3.241859338837293, 2.2007573730082102e-13],
                ],
            },
            "denominator": {
                "offset": 0,
                "coeffs": [
                    [-1.0, 0.0],
                    [-0.6022872310938672, 2.2077493661350635e-17],
                    [0.6022872310938672, -2.2077493661350635e-17],
                    [1.0, 0.0],
                ],
            },
        },
    },
    ("2.5", 1): {
        "torsion": {
            "value": [11.824289089628964, -5.54136047114602e-15],
            "formula_value": [11.824289089628962, -5.5413604711460205e-15],
            "limit_value": [11.824289089628964, -5.54136047114602e-15],
            "diagnostics": {
                "scale": 9.24775252530223,
                "delta1_at_1": 1.7622956091305793e-14,
                "delta1_prime_at_1": 6.17530975586693e-14,
                "reduced_at_1": 42.594485604332945,
                "division_remainders": [1.7622956091305793e-14, 6.619233271195129e-14],
                "simple_zero": True,
                "trace_x1_sq": [-1.6022872310938672, 1.1102230246251565e-16],
                "denominator_ok": True,
                "irreducible": True,
                "lambda_regular_proxy": True,
                "tai_at_1": 0.00011824385999754872,
                "naive_limit": [11.824385999679372, -4.225460193054092e-05],
                "consistency_ok": True,
            },
        },
        "tai": {
            "numerator": {
                "offset": 0,
                "coeffs": [
                    [-3.095626045445714, -4.048402917771669e-16],
                    [-4.401866992705416, 3.4311375079849598e-15],
                    [2.873616775500012, 5.266755444658707e-15],
                    [9.24775252530223, 2.216785171927044e-15],
                    [2.873616775500015, 6.2939505735004026e-15],
                    [-4.40186699270541, 9.332909744238095e-16],
                    [-3.0956260454457087, -2.5159594851913158e-15],
                ],
            },
            "denominator": {
                "offset": 0,
                "coeffs": [
                    [-1.0, 0.0],
                    [-0.6022872310938672, 2.2077493661350635e-17],
                    [0.6022872310938672, -2.2077493661350635e-17],
                    [1.0, 0.0],
                ],
            },
        },
    },
    ("3.141592653589793", 0): {
        "torsion": {
            "value": [10.884706924616857, 8.534773032399222e-13],
            "formula_value": [10.884706924616859, 8.534773032399224e-13],
            "limit_value": [10.884706924616857, 8.534773032399222e-13],
            "diagnostics": {
                "scale": 9.32974879252402,
                "delta1_at_1": 2.7133850721838826e-12,
                "delta1_prime_at_1": 7.63539775818788e-12,
                "reduced_at_1": 43.53882769846743,
                "division_remainders": [2.7133850721838826e-12, 7.633637872460616e-12],
                "simple_zero": True,
                "trace_x1_sq": [-2.0, 0.0],
                "denominator_ok": True,
                "irreducible": True,
                "lambda_regular_proxy": True,
                "tai_at_1": 0.00010891599729758175,
                "naive_limit": [10.891599729758175, 2.59318704226964e-08],
                "consistency_ok": True,
            },
        },
        "tai": {
            "numerator": {
                "offset": 0,
                "coeffs": [
                    [-3.109916264176551, -9.489234794760441e-14],
                    [-4.664874396262111, 2.1625441675289137e-13],
                    [3.1099162641753626, 1.941511790342551e-13],
                    [9.32974879252402, -1.9701416325248277e-14],
                    [3.1099162641748253, -7.26157355744223e-14],
                    [-4.664874396262016, -4.6935941905280624e-14],
                    [-3.109916264176243, -1.762601540345906e-13],
                ],
            },
            "denominator": {
                "offset": 0,
                "coeffs": [
                    [-1.0, 0.0],
                    [-1.0, 0.0],
                    [1.0, 0.0],
                    [1.0, 0.0],
                ],
            },
        },
    },
    ("3.141592653589793", 1): {
        "torsion": {
            "value": [22.728857226022583, 1.3555743108881854e-13],
            "formula_value": [22.728857226022573, 1.3555743108881854e-13],
            "limit_value": [22.728857226022583, 1.3555743108881854e-13],
            "diagnostics": {
                "scale": 19.481877622304765,
                "delta1_at_1": 2.566835632933362e-13,
                "delta1_prime_at_1": 7.634473856737977e-13,
                "reduced_at_1": 90.91542890409033,
                "division_remainders": [2.566835632933362e-13, 7.77080783080344e-13],
                "simple_zero": True,
                "trace_x1_sq": [-2.0, 0.0],
                "denominator_ok": True,
                "irreducible": True,
                "lambda_regular_proxy": True,
                "tai_at_1": 0.00022729721736138145,
                "naive_limit": [22.729721736138142, 5.433443944023567e-09],
                "consistency_ok": True,
            },
        },
        "tai": {
            "numerator": {
                "offset": 0,
                "coeffs": [
                    [-6.493959207434977, 1.4496340635819896e-14],
                    [-9.74093881115244, 2.272662757859885e-14],
                    [6.493959207434898, 1.8048735242041985e-14],
                    [19.481877622304765, 3.1706105066209423e-15],
                    [6.493959207434906, -1.8072808725705176e-14],
                    [-9.740938811152434, -2.8837827959539987e-14],
                    [-6.493959207434973, -1.1531677277836537e-14],
                ],
            },
            "denominator": {
                "offset": 0,
                "coeffs": [
                    [-1.0, 0.0],
                    [-1.0, 0.0],
                    [1.0, 0.0],
                    [1.0, 0.0],
                ],
            },
        },
    },
}


# the compute_torsion payloads of every root of b(41,11) at theta = pi,
# evaluated as one stack, one JSON object per line in root order
B41_11_STACK = "b(41,11) stack"
B41_11_PAYLOADS = pathlib.Path(__file__).with_name("b41_11_pi_payloads.json")


@pytest.mark.parametrize("theta, root", [*FIVE_TWO_PAYLOADS, ("3.141592653589793", B41_11_STACK)])
def test_torsion_and_tai_payloads_keep_every_bit(capsys, theta, root):
    # json.dumps writes each float by repr, so equal text means equal bits
    if root == B41_11_STACK:
        p = schubert_knot(41, 11)
        roots = su2_solutions(riley_polynomial(p.bridge_word), float(theta)).roots
        rep = locus.rep_at(p, np.full(len(roots), float(theta)), roots, Tolerances())
        payloads = [result.to_json() for result in compute_torsion(rep, Tolerances())]
        assert len(payloads) == 20
        assert json.dumps(payloads) == json.dumps(json.loads(B41_11_PAYLOADS.read_text()))
        return
    for command, expected in FIVE_TWO_PAYLOADS[(theta, root)].items():
        argv = (command, "--knot", "5_2", "--theta", theta, "--root", str(root))
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.dumps(json.loads(out)) == json.dumps(expected)


def test_sweep_csv_deterministic(capsys):
    args = ("sweep", "--knot", "5_2", "--theta-lo", "2.8", "--theta-hi", "3.2", "--samples", "4")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0].startswith("# adtorsion")
    assert lines[1] == "theta,sigma,u,torsion_re,torsion_im,tai_simple_zero,trace_mu"
    assert len(lines) == 2 + 4 * 3  # three branches over the whole range


def test_sweep_two_samples_endpoints_only(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--knot", "trefoil", "--theta-lo", "1.5", "--theta-hi", "2.5",
        "--samples", "2",
    )
    assert code == 0
    rows = [l for l in out.strip().splitlines() if not l.startswith(("#", "theta"))]
    thetas = {r.split(",")[0] for r in rows}
    assert thetas == {"1.5", "2.5"}


def test_sweep_json_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code, _, _ = run_cli(
        capsys, "sweep", "--knot", "trefoil", "--theta-lo", "1.5", "--theta-hi", "2.5",
        "--samples", "3", "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["config"]["samples"] == 3
    assert len(data["rows"]) == 3
    for row in data["rows"]:
        assert abs(row["torsion_im"]) < 1e-8
        assert row["tai_simple_zero"] is True


def test_sweep_rejects_bad_config(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--knot", "5_2", "--theta-lo", "3.0", "--theta-hi", "2.0",
        "--samples", "4",
    )
    assert code == 1
    assert "theta" in err


def test_sweep_input_checks(capsys):
    # one sample and an unknown output format: the grid rejects the first
    # for every caller, argparse the second
    with pytest.raises(ValueError, match="^samples must be >= 2$"):
        theta_grid(1.0, 2.0, 1)
    with pytest.raises(ValueError, match="^samples must be >= 2$"):
        sweep_rows(catalog.knot("5_2"), 1.0, 2.0, 1)
    code, out, err = run_cli(
        capsys, "sweep", "--knot", "5_2", "--theta-lo", "1.0", "--theta-hi", "2.0",
        "--samples", "1", "--format", "yaml",
    )
    assert code == 1
    assert out == ""
    assert "invalid choice: 'yaml'" in err


def test_sweep_torsion_column_real(capsys):
    p = catalog.knot("5_2")
    rows = sweep_rows(p, 2.5, 3.7, 9)
    assert all(abs(r["torsion_im"]) <= 1e-8 for r in rows)
    text = format_sweep_csv(rows)
    assert text.count("\n") == len(rows) + 2


def test_sweep_csv_cells():
    # NaN of either sign, infinities and -0.0 print as ".12g" writes them
    rows = [
        {"theta": math.nan, "sigma": math.inf, "u": -0.0, "torsion_re": -math.inf,
         "torsion_im": -math.nan, "tai_simple_zero": True, "trace_mu": 1 / 3},
        {"theta": 2.5, "sigma": -1.0, "u": 1e-20, "torsion_re": 12.0, "torsion_im": 0.0,
         "tai_simple_zero": False, "trace_mu": -0.0},
    ]
    assert format_sweep_csv(rows) == (
        f"# adtorsion {__version__}\n"
        "theta,sigma,u,torsion_re,torsion_im,tai_simple_zero,trace_mu\n"
        "nan,inf,-0,-inf,nan,true,0.333333333333\n"
        "2.5,-1,1e-20,12,0,false,-0\n"
    )


def test_sweep_crosses_root_count_threshold(capsys):
    # theta* = acos(sigma*/2) ~ 2.4072: one root before, three after
    code, out, _ = run_cli(
        capsys, "sweep", "--knot", "5_2", "--theta-lo", "2.2", "--theta-hi", "2.6",
        "--samples", "5",
    )
    assert code == 0
    per_theta = {}
    for line in out.strip().splitlines():
        if line.startswith(("#", "theta")):
            continue
        theta = float(line.split(",")[0])
        per_theta[theta] = per_theta.get(theta, 0) + 1
    counts = [per_theta[t] for t in sorted(per_theta)]
    assert counts[0] == 1 and counts[-1] == 3
    assert sorted(set(counts)) == [1, 3]


def test_critical_five_two(capsys):
    code, out, _ = run_cli(
        capsys, "critical", "--knot", "5_2", "--theta-lo", "2.7", "--theta-hi", "3.58",
        "--samples", "17", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["dihedral_count"] == 3
    for pt in data["points"]:
        assert abs(pt["theta"] - math.pi) < 1e-6
        assert pt["is_dihedral"]


def test_critical_trefoil_text(capsys):
    code, out, _ = run_cli(
        capsys, "critical", "--knot", "trefoil", "--theta-lo", "2.0", "--theta-hi", "4.3",
        "--samples", "9",
    )
    assert code == 0
    assert "dihedral count: 1" in out
    assert "(|Delta(-1)| - 1)/2 = 1" in out


def test_auto_theta_range():
    phi = riley_polynomial(catalog.knot("trefoil").bridge_word)
    lo, hi = auto_theta_range(phi)
    assert math.pi / 3 - 0.1 < lo < math.pi / 3 + 0.25
    assert 5 * math.pi / 3 - 0.25 < hi < 5 * math.pi / 3 + 0.1


def test_presentation_file_source(tmp_path, capsys):
    path = tmp_path / "knot.txt"
    path.write_text("twobridge w: x y\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "riley-poly", "--presentation", str(path))
    assert code == 0
    assert "(-sigma + 1)" in out


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "RESULT: PASS" in out
    assert "FAIL" not in out.replace("RESULT: PASS", "")
    assert "global sign" in out


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0


def test_commands_reject_non_two_bridge_presentation(tmp_path, capsys):
    path = tmp_path / "wirtinger.txt"
    path.write_text("gens: x y\nrel: x y x y^-1 x^-1 y^-1\n", encoding="utf-8")
    point = ("--theta", "2.5")
    window = ("--theta-lo", "2.0", "--theta-hi", "3.0")
    for command, extra in (("tai", point), ("torsion", point), ("critical", ()), ("sweep", window)):
        code, _, err = run_cli(capsys, command, "--presentation", str(path), *extra)
        assert code == 1
        assert err == f"error: {command} needs a two-bridge presentation\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("riley-poly", "--knot", "5_2", "--tol-relation", "-1"),
        ("tai", "--knot", "5_2", "--theta", "2.5", "--tol-multiplicity", "0"),
        ("torsion", "--knot", "5_2", "--theta", "2.5", "--tol-relation", "-1"),
        ("sweep", "--knot", "5_2", "--theta-lo", "2.6", "--theta-hi", "3.7", "--tol-cleanup", "0"),
        ("critical", "--knot", "5_2", "--tol-cleanup", "0"),
        ("verify", "--tol-consistency", "-1"),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_reject_non_positive_tolerances(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: tolerances must be positive\n")


def test_tolerances_must_be_positive():
    for bad in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError, match="^tolerances must be positive$"):
            Tolerances(consistency=bad)
    assert Tolerances(relation=1e-12).relation == 1e-12


def test_cleanup_tolerance_must_be_below_one(capsys):
    # a relative cleanup of 1 or more zeroes every coefficient of Delta_1
    for bad in (1.0, 2.0, math.inf):
        with pytest.raises(ValueError, match="^cleanup tolerance must be below 1$"):
            Tolerances(cleanup=bad)
    assert Tolerances(cleanup=math.nextafter(1.0, 0.0)).cleanup < 1.0
    for argv in (
        ("torsion", "--knot", "5_2", "--theta", "2.5", "--tol-cleanup", "2", "--format", "json"),
        ("sweep", "--knot", "5_2", "--theta-lo", "2.6", "--theta-hi", "3.7", "--tol-cleanup", "1.0"),
    ):
        assert run_cli(capsys, *argv) == (1, "", "error: cleanup tolerance must be below 1\n")


@pytest.mark.parametrize(
    "window, message",
    [
        (("--theta-lo", "2.7"), "need 0 < theta-lo < theta-hi < 2*pi"),
        (("--theta-hi", "3.5"), "need 0 < theta-lo < theta-hi < 2*pi"),
        (("--theta-lo", "3.5", "--theta-hi", "2.7"), "need 0 < theta-lo < theta-hi < 2*pi"),
        (("--samples", "1"), "samples must be >= 2"),
        (("--samples", "0"), "samples must be >= 2"),
        (("--samples", "-3"), "samples must be >= 2"),
        (
            ("--theta-lo", "3.5", "--theta-hi", "2.7", "--samples", "1"),
            "need 0 < theta-lo < theta-hi < 2*pi; samples must be >= 2",
        ),
    ],
)
def test_critical_rejects_a_bad_window_like_the_sweep(capsys, window, message):
    code, out, err = run_cli(capsys, "critical", "--knot", "5_2", *window)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    if "--theta-lo" in window and "--theta-hi" in window:
        assert run_cli(capsys, "sweep", "--knot", "5_2", *window) == (code, out, err)


def _five_two_auto_window():
    p = catalog.knot("5_2")
    lo, hi = auto_theta_range(riley_polynomial(p.bridge_word))
    return p, lo, hi


@pytest.mark.parametrize("error", [RegularityError, RepresentationError])
def test_critical_search_drops_failed_bisection(monkeypatch, error):
    # the refinement of each sign change fails
    def fail(torsion, brackets):
        return [error(f"lost at theta={end_a[0]:.6f}") for end_a, _ in brackets]

    monkeypatch.setattr(locus, "_refine_derivative_zeros", fail)
    p, lo, hi = _five_two_auto_window()
    report = find_critical_points(p, lo, hi, 33, Tolerances())
    dropped = [n for n in report.notes if n.startswith("dropped sign change in theta [")]
    # the whole 5_2 window has two sign changes away from pi, each now a
    # note; the dihedral points at pi need no refinement
    assert len(dropped) == 2
    for note in dropped:
        assert ": lost at theta=" in note
    assert report.dihedral_count == 3
    assert all(pt.is_dihedral for pt in report.points)


def test_critical_search_completes_across_a_branch_jump(monkeypatch):
    # b(13,9): at the first trial theta of the first refinement whose ends
    # have more than one root, su2_solutions sees only a root far from the
    # branch.  One root is a count neither end of the bracket has, so that
    # sign change is dropped with a note naming the count, and the rest of
    # the search still reports
    p = schubert_knot(13, 9)
    phi = riley_polynomial(p.bridge_word)
    lo, hi = auto_theta_range(phi)
    first_trial = []
    solve, solutions = locus._bracketed_zero, locus.su2_solutions

    def solve_spy(a, fa, b, fb, **kwargs):
        steps, slope = solve(a, fa, b, fb, **kwargs), None
        try:
            while True:
                theta = steps.send(slope)
                if not first_trial and len(solutions(phi, a).roots) > 1:
                    first_trial.append(theta)
                slope = yield theta
        except StopIteration as stop:
            return stop.value

    def far_root_at_first_trial(phi, theta, *args, **kwargs):
        if not isinstance(theta, float):  # a batch of thetas: each one as if alone
            return [far_root_at_first_trial(phi, t, *args, **kwargs) for t in theta]
        sols = solutions(phi, theta, *args, **kwargs)
        # the wide-step derivative evaluates the trial theta at theta +- 2e-3
        if first_trial and theta in (first_trial[0] + 2e-3, first_trial[0] - 2e-3):
            return dataclasses.replace(sols, roots=(10.0,), near_multiple=(False,))
        return sols

    monkeypatch.setattr(locus, "_bracketed_zero", solve_spy)
    monkeypatch.setattr(locus, "su2_solutions", far_root_at_first_trial)
    report = find_critical_points(p, lo, hi, 33, Tolerances())
    dropped = [n for n in report.notes if n.startswith("dropped sign change")]
    assert [n.partition(": ")[2] for n in dropped] == [
        f"root count 1 at theta={first_trial[0] + 2e-3:.6f} matches no bracket end"
    ]
    assert 0 < report.dihedral_count <= 6
    for pt in report.points:
        assert all(math.isfinite(x) for x in (pt.theta, pt.u, pt.torsion.real, pt.torsion.imag))


@pytest.mark.parametrize("p, q", [(9, 5), (11, 7), (13, 9), (15, 7), (15, 11), (15, 13)])
def test_critical_search_finds_every_dihedral_point(p, q):
    # b(11,7) lost its theta = pi point to "not a simple zero", and b(13,9)
    # one to a branch jump, while Delta_1 came from a cofactor expansion;
    # on the flat u = -3 branch of b(9,5) a bisection of the wide-step
    # derivative stopped at theta = 3.1415915, too far from pi to count.
    # The three b(15,q) lost theta = pi to a bisection theta near pi whose
    # root failed the relator check by a residual just above 1e-9; the
    # dihedral points are now taken at pi itself
    knot = schubert_knot(p, q)
    lo, hi = auto_theta_range(riley_polynomial(knot.bridge_word))
    report = find_critical_points(knot, lo, hi, 33, Tolerances())
    assert report.dihedral_count == (p - 1) // 2
    assert not [n for n in report.notes if n.startswith("dropped")]
    for pt in report.points:
        assert pt.theta == math.pi if pt.is_dihedral else abs(pt.theta - math.pi) > 1e-3


@pytest.mark.parametrize("p, q", [(11, 3), (13, 3)])
def test_critical_search_pairs_equal_root_counts_by_rank(monkeypatch, p, q):
    # nearest-u pairing joined root 1 of 3 at theta = 4.226731 to root 0 of
    # 3 at 4.335245 on b(11,3), and root 2 of 4 to root 1 of 4 twice on
    # b(13,3); the sign changes on those hops were artefacts.  At an equal
    # root count a branch now keeps its rank, so the ends of every refined
    # bracket that share a count share the rank, and nothing is dropped
    ends = []
    refine = locus._refine_derivative_zeros

    def spy(torsion, brackets):
        ends.extend((end_a[1], end_b[1]) for end_a, end_b in brackets)
        return refine(torsion, brackets)

    monkeypatch.setattr(locus, "_refine_derivative_zeros", spy)
    knot = schubert_knot(p, q)
    lo, hi = auto_theta_range(riley_polynomial(knot.bridge_word))
    report = find_critical_points(knot, lo, hi, 33, Tolerances())
    assert report.dihedral_count == (p - 1) // 2
    assert not [n for n in report.notes if n.startswith(("dropped", "discarded"))]
    assert ends
    for ranks_a, ranks_b in ends:
        for count in ranks_a.keys() & ranks_b.keys():
            assert ranks_a[count] == ranks_b[count]


def test_critical_search_evaluation_budget(monkeypatch):
    # one torsion per theta +- fd_step per branch sample, and about ten
    # wide-step derivatives per sign change; a bisection that built a
    # torsion at each midpoint only for its root made 697.  The search is a
    # fixed number of stacks: the grid's differences, the end slopes, one
    # per Brent round of all sign changes, and the reported points
    calls, points = [], []
    torsion_polynomial = locus.torsion_polynomial

    def counted(*args, **kwargs):
        result = torsion_polynomial(*args, **kwargs)
        calls.append(None)
        points.extend(result if isinstance(result, list) else [result])
        return result

    monkeypatch.setattr(locus, "torsion_polynomial", counted)
    p = catalog.knot("5_2")
    lo, hi = auto_theta_range(riley_polynomial(p.bridge_word))
    report = find_critical_points(p, lo, hi, 33, Tolerances())
    assert report.dihedral_count == 3
    assert len(points) <= 250
    assert len(calls) <= 11


def test_critical_search_notes_a_branch_whose_samples_all_failed(monkeypatch):
    # every torsion evaluation on the branch near u = -3.8, the lowest of the
    # three roots, raises: the branch is noted with its failure count and
    # first reason, not as a flat branch.  The fault sits where every
    # evaluation takes its root, single or stacked
    root = locus._BranchTorsion.root

    def fail_low_branch(self, theta, ranks):
        if ranks.get(3) == 0:
            raise RegularityError(f"not a simple zero at theta={theta:.6f}")
        return root(self, theta, ranks)

    monkeypatch.setattr(locus._BranchTorsion, "root", fail_low_branch)
    report = find_critical_points(catalog.knot("5_2"), 2.7, 3.58, 17, Tolerances())
    failed = [n for n in report.notes if "derivative samples failed" in n]
    assert failed == [
        "17 of 17 derivative samples failed on the branch over [2.7000, 3.5800], "
        "the first with: not a simple zero at theta=2.700100"
    ]
    assert not [n for n in report.notes if "constant" in n]
    assert report.dihedral_count == 2
    assert all(pt.u > -3.3 for pt in report.points)


def test_critical_search_drops_a_sign_change_the_wide_step_misses(monkeypatch):
    # the refinement's wide-step derivative has one sign at both ends of
    # every sign change the FD_STEP samples found
    derivatives = locus._BranchTorsion.derivatives

    def one_signed_wide_step(self, samples, h=locus.FD_STEP):
        results = derivatives(self, samples, h)
        if h == locus.FD_STEP:
            return results
        return [r if isinstance(r, Exception) else (abs(r[0]), r[1]) for r in results]

    monkeypatch.setattr(locus._BranchTorsion, "derivatives", one_signed_wide_step)
    p, lo, hi = _five_two_auto_window()
    report = find_critical_points(p, lo, hi, 33, Tolerances())
    dropped = [n for n in report.notes if n.startswith("dropped sign change in theta [")]
    assert len(dropped) == 2
    for note in dropped:
        assert ": the derivative with step 0.002 has one sign at both ends (" in note
    assert report.dihedral_count == 3
    assert all(pt.is_dihedral for pt in report.points)


def _brent(f, a, fa, b, fb, xtol):
    """Drive the Brent generator over one bracket with f."""
    steps = locus._bracketed_zero(a, fa, b, fb, xtol=xtol)
    try:
        theta = next(steps)
        while True:
            theta = steps.send(f(theta))
    except StopIteration as stop:
        return stop.value


def test_bracketed_zero_converges_on_a_cubic():
    calls = []

    def cubic(x):
        calls.append(x)
        return x**3 - 2.0 * x - 5.0

    root = 2.0945514815423265
    x = _brent(cubic, 2.0, cubic(2.0), 3.0, cubic(3.0), xtol=1e-11)
    assert abs(x - root) <= 1e-11
    # bisection needs 37 halvings of [2, 3] to get below 1e-11
    assert len(calls) - 2 <= 10


def test_bracketed_zero_returns_an_exact_zero_at_an_end():
    def f(x):
        raise AssertionError("no evaluation needed")

    assert _brent(f, 1.0, 0.0, 2.0, 3.0, xtol=1e-11) == 1.0
    assert _brent(f, 1.0, -3.0, 2.0, 0.0, xtol=1e-11) == 2.0
    with pytest.raises(ValueError):
        _brent(f, 1.0, 2.0, 2.0, 3.0, xtol=1e-11)


def test_bracketed_zero_keeps_a_sign_bracket_under_noise():
    # +-1e-9 deterministic noise on a line through 0.7: the noisy function may
    # change sign anywhere within ~1e-9 of the root, and the result must sit
    # between two evaluated points of opposite sign less than xtol apart
    seen = {}

    def noisy(x):
        y = (x - 0.7) + 1e-9 * (1.0 if int(x * 1e13) % 2 else -1.0)
        seen[x] = y
        return y

    a, b = 0.0, 1.5
    x = _brent(noisy, a, noisy(a), b, noisy(b), xtol=1e-11)
    assert abs(x - 0.7) <= 1e-9 + 1e-11
    partners = [
        t for t, y in seen.items() if 0.0 < abs(t - x) < 1e-11 and (y < 0) != (seen[x] < 0)
    ]
    assert partners or seen[x] == 0.0


@pytest.mark.parametrize("p, q, sign_changes", [(11, 5, 6), (15, 7, 4)])
def test_lockstep_refinement_matches_each_bracket_alone(monkeypatch, p, q, sign_changes):
    # all sign changes advance together, one stack per Brent round; each
    # theta* must have the bits of its bracket refined alone, with a
    # one-theta slope per step
    searched = []
    refine = locus._refine_derivative_zeros

    def spy(torsion, brackets):
        searched.append((torsion, brackets))
        return refine(torsion, brackets)

    monkeypatch.setattr(locus, "_refine_derivative_zeros", spy)
    knot = schubert_knot(p, q)
    phi = riley_polynomial(knot.bridge_word)
    lo, hi = auto_theta_range(phi)
    find_critical_points(knot, lo, hi, 33, Tolerances())
    [(torsion, brackets)] = searched
    assert len(brackets) == sign_changes
    alone = locus._BranchTorsion(knot, phi, Tolerances())
    for ((theta_a, ranks_a), (theta_b, ranks_b)), zero in zip(brackets, refine(torsion, brackets)):
        ranks = {**ranks_b, **ranks_a}

        def slope(theta):
            [(g, _)] = alone.derivatives([(theta, ranks)], 2e-3)
            return g

        theta_star = _brent(slope, theta_a, slope(theta_a), theta_b, slope(theta_b), xtol=1e-11)
        assert zero == (theta_star, ranks)


def test_a_point_off_the_variety_fails_alone_in_its_stack(monkeypatch):
    # when the stacked representation raises, every point is evaluated on
    # its own: the offending point carries the error and the others keep
    # the bits the stack gives them
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    samples = [(theta, {3: rank}) for theta in (2.9, 3.0, 3.3) for rank in range(3)]
    stacked = locus._BranchTorsion(p, phi, Tolerances()).values(samples)
    assert all(type(v) is float for v in stacked)
    rep_at = locus.rep_at

    def off_variety_at_3(p, theta, u, tol):
        if 3.0 in np.atleast_1d(theta):
            raise RepresentationError("relator residual too large at theta=3.0")
        return rep_at(p, theta, u, tol)

    monkeypatch.setattr(locus, "rep_at", off_variety_at_3)
    alone = locus._BranchTorsion(p, phi, Tolerances()).values(samples)
    for (theta, _), value, result in zip(samples, stacked, alone):
        if theta == 3.0:
            assert str(result) == "relator residual too large at theta=3.0"
        else:
            assert result == value


def test_critical_report_keeps_its_points_to_the_last_bit(tmp_path, capsys):
    # b(11,5): theta, u and torsion of every point as the search reported
    # them when it refined one sign change at a time and evaluated one
    # point per call
    word = " ".join(
        ("x" if i % 2 else "y") + ("^-1" if (i * 5 // 11) % 2 else "") for i in range(1, 11)
    )
    path = tmp_path / "b11_5.txt"
    path.write_text(f"twobridge w: {word}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "critical", "--presentation", str(path), "--format", "json")
    assert (code, err) == (0, "")
    points = [
        (repr(pt["theta"]), repr(pt["u"]), repr(pt["torsion"][0]), repr(pt["torsion"][1]))
        for pt in json.loads(out)["points"]
    ]
    assert points == [
        ("1.1663048319930482", "-1.0163007960744144", "22.7493651138514", "0.0"),
        ("5.116880475194851", "-1.0163007960576318", "22.749365113853706", "0.0"),
        ("2.094407226714995", "-2.000031499636428", "8.999999999338643", "0.0"),
        ("2.327310759985356", "-2.5218601398287603", "8.950647372776062", "0.0"),
        ("3.9558745472142127", "-2.5218601397902187", "8.950647372775926", "0.0"),
        ("4.188778080462948", "-2.0000314996406963", "8.999999999338606", "0.0"),
        ("3.141592653589793", "-3.9189859472289945", "36.87132442514197", "0.0"),
        ("3.141592653589793", "-3.3097214678905695", "9.289886883247044", "0.0"),
        ("3.141592653589793", "-2.28462967654657", "79.15428573061351", "0.0"),
        ("3.141592653589793", "-1.1691699739962274", "5.629301696456562", "0.0"),
        ("3.141592653589793", "-0.3174929343376358", "1.0552012643948192", "0.0"),
    ]


def test_auto_theta_range_is_the_window_of_the_whole_probe_grid():
    # the scan from each end stops at the first theta with a root; the
    # window must be the one every theta of the 600-theta grid gives, on
    # the 24 knots b(p, q) with odd p <= 15 and three long words
    n = 600
    thetas = [0.02 + (2 * math.pi - 0.04) * i / (n - 1) for i in range(n)]
    knots = [(p, q) for p in range(3, 16, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
    assert len(knots) == 24
    for p, q in knots + [(21, 5), (31, 7), (41, 11)]:
        phi = riley_polynomial(schubert_knot(p, q).bridge_word)
        found = [t for t, count in zip(thetas, su2_root_counts(phi, thetas)) if count]
        margin = locus.AUTO_THETA_MARGIN
        assert auto_theta_range(phi) == (found[0] + margin, found[-1] - margin), (p, q)


def test_main_calls_share_one_parser_and_no_flags(capsys):
    # the parser is built once per process; each call must print what a
    # call with a freshly built parser prints, so no flag or default of one
    # call reaches the next
    calls = [
        ("critical", "--knot", "trefoil", "--theta-lo", "2.0", "--theta-hi", "4.3", "--samples", "9",
         "--format", "json"),
        ("critical", "--knot", "trefoil", "--theta-lo", "2.0", "--theta-hi", "4.3"),
        ("sweep", "--knot", "5_2", "--theta-lo", "2.6", "--theta-hi", "3.7", "--samples", "5",
         "--drop", "y", "--format", "json"),
        ("sweep", "--knot", "5_2", "--theta-lo", "2.6", "--theta-hi", "3.7"),
        ("torsion", "--knot", "5_2", "--theta", "2.5", "--root", "1"),
        ("torsion", "--knot", "5_2", "--theta", "2.5"),
        ("riley-poly", "--knot", "5_2", "--tol-relation", "-1"),
        ("riley-poly", "--knot", "5_2"),
        ("tai", "--knot", "5_2"),
        ("--version",),
    ]
    back_to_back = [run_cli(capsys, *argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert back_to_back == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 0, 1, 0, 1, 0]


def test_simple_zero_remainder_on_the_edge_branch():
    # b(11,7) at theta = pi, on the branch nearest the window edge
    # u = 2cos(theta) - 2: the remainders of the division by (t - 1)^2 sit
    # well inside the simple-zero tolerance (1e-9 of the scale)
    p = schubert_knot(11, 7)
    sols = locus.su2_solutions(riley_polynomial(p.bridge_word), math.pi)
    u = min(sols.roots, key=lambda r: abs(r - (sols.sigma - 2.0)))
    tp = torsion_polynomial(locus.rep_at(p, math.pi, u, Tolerances()))
    assert max(tp.remainders) <= 1e-10 * as_poly(tp.delta).max_abs


@pytest.mark.parametrize(
    "knot, window, thresholds",
    [
        (
            "5_2",
            (0.7487422385445941, 5.534443068634992),
            [-1.484435331765868, 1.5000000008749894],
        ),
        (
            (15, 7),
            (0.5298659589940578, 5.753319348185529),
            [-1.8865648418890122, -1.2024578825382601, 0.03893294855903323, 1.7500000007812408],
        ),
        (
            (41, 11),
            (0.7070515186302062, 5.57613378854938),
            [
                -1.9854707830540081, -1.8684222660044902, -1.8669204010773526,
                -1.6166221079418133, -1.5973095205326646, -1.3537155899598776,
                -0.796394206750376, -0.7053200668338293, -0.39259506888837714,
                0.19806226513169847, 1.5549581351420891,
            ],
        ),
    ],
)
def test_probe_grids_keep_windows_and_thresholds(knot, window, thresholds):
    # to the last bit: the windows are the ones the per-point su2_solutions
    # probes gave before the probe grids were batched; the thresholds are
    # those of the Chebyshev root kernel, within 4.8e-13 of the companion
    # kernel's
    p = catalog.knot(knot) if isinstance(knot, str) else schubert_knot(*knot)
    phi = riley_polynomial(p.bridge_word)
    assert auto_theta_range(phi) == window
    assert su2_root_count_thresholds(phi) == thresholds


@pytest.mark.parametrize("p, q", [(17, 1), (21, 5), (31, 7), (41, 11)])
def test_sweep_over_the_auto_window_of_long_words_returns_rows(p, q):
    # 41 samples over the whole SU(2) window: every root lies on the variety
    # within the relator tolerance, so the sweep writes one row per root
    knot = schubert_knot(p, q)
    phi = riley_polynomial(knot.bridge_word)
    lo, hi = auto_theta_range(phi)
    rows = sweep_rows(knot, lo, hi, 41)
    solutions = su2_solutions(phi, theta_grid(lo, hi, 41))
    assert len(rows) == sum(len(s.roots) for s in solutions) > 0


def test_presentation_objects_computed_once_per_word():
    p = catalog.knot("5_2")
    riley_polynomial.cache_clear()
    fox_derivative.cache_clear()
    # the sweep drops y and the critical search drops x, so both derivatives are used
    sweep_rows(p, 2.6, 3.7, 9, drop=1)
    find_critical_points(p, 2.7, 3.58, 9, Tolerances())
    riley = riley_polynomial.cache_info()
    assert riley.misses == 1  # the bridge word
    assert riley.hits > 0
    fox = fox_derivative.cache_info()
    assert fox.misses == len(p.relators) * p.k  # one per (relator, generator)
    assert fox.hits > 0


def _python(*argv) -> subprocess.CompletedProcess:
    """A fresh interpreter with this source tree first on its path."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    done = _python("-m", "adtorsion", "--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("adtorsion ")


def test_library_imports_without_the_cli():
    done = _python(
        "-c",
        "import sys, adtorsion, adtorsion.locus, adtorsion.verify; "
        "print(sorted({'adtorsion.cli', 'argparse'} & set(sys.modules)))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "knot, drop",
    [("5_2", None), ("trefoil", None), ((13, 5), None), ((15, 7), None), ("5_2", 1)],
)
def test_sweep_stack_matches_single_points(knot, drop):
    # the sweep evaluates all its points as one stack; every row must be what
    # the one-point path gives for that point alone
    p = catalog.knot(knot) if isinstance(knot, str) else schubert_knot(*knot)
    tol = Tolerances()
    lo, hi = auto_theta_range(riley_polynomial(p.bridge_word))
    rows = sweep_rows(p, lo, hi, 13, tol, drop)
    assert len(rows) >= 13
    json.dumps({"rows": rows})
    for row in rows:
        assert all(type(row[k]) is float for k in row if k != "tai_simple_zero")
        assert type(row["tai_simple_zero"]) is bool
        roots = su2_solutions(riley_polynomial(p.bridge_word), row["theta"], tol.relation,
                              multiplicity_threshold=tol.multiplicity).roots
        u = min(roots, key=lambda r: abs(r - row["u"]))
        assert abs(u - row["u"]) <= 1e-12
        rep = locus.rep_at(p, row["theta"], u, tol)
        single = compute_torsion(rep, tol, drop=drop)
        value = complex(row["torsion_re"], row["torsion_im"])
        assert abs(value - single.value) <= 1e-9 * max(1.0, abs(single.value))
        assert row["tai_simple_zero"] is single.diagnostics["simple_zero"]
        assert abs(row["trace_mu"] - rep.trace_meridian.real) <= 1e-12


def test_sweep_builds_one_representation_and_one_determinant(monkeypatch):
    # one stacked build_rep, one FFT determinant and one double division by
    # (t - 1) for the whole sweep; the per-row sweep made one of each per row.
    # Delta_1 stays one array from the determinant to the readings: the sweep
    # builds no LaurentPoly, neither by its constructor nor by _raw
    calls = {"build_rep": 0, "determinant": 0, "divide_out_simple_roots": 0, "LaurentPoly": 0}
    build_rep, determinant = locus.build_rep, LaurentMatrix.determinant
    divide = laurent.divide_out_simple_roots
    poly_init, poly_raw = LaurentPoly.__init__, LaurentPoly._raw.__func__

    def counted_init(self, *args, **kwargs):
        calls["LaurentPoly"] += 1
        poly_init(self, *args, **kwargs)

    def counted_raw(cls, *args, **kwargs):
        calls["LaurentPoly"] += 1
        return poly_raw(cls, *args, **kwargs)

    def counted_build(*args, **kwargs):
        calls["build_rep"] += 1
        return build_rep(*args, **kwargs)

    def counted_determinant(*args, **kwargs):
        calls["determinant"] += 1
        return determinant(*args, **kwargs)

    def counted_divide(*args, **kwargs):
        calls["divide_out_simple_roots"] += 1
        return divide(*args, **kwargs)

    monkeypatch.setattr(locus, "build_rep", counted_build)
    monkeypatch.setattr(LaurentMatrix, "determinant", counted_determinant)
    monkeypatch.setattr(laurent, "divide_out_simple_roots", counted_divide)
    monkeypatch.setattr(LaurentPoly, "__init__", counted_init)
    monkeypatch.setattr(LaurentPoly, "_raw", classmethod(counted_raw))
    rows = sweep_rows(catalog.knot("5_2"), 0.8, 5.4, 31)
    assert len(rows) > 31
    assert calls == {"build_rep": 1, "determinant": 1, "divide_out_simple_roots": 1, "LaurentPoly": 0}
    # the counters see the constructions they count
    LaurentPoly(0, [1.0]).shift(1)
    assert calls["LaurentPoly"] == 2
