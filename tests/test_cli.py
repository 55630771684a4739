import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from adtorsion import __version__, cli, exact, laurent, locus, torsion, verify
from adtorsion.cli import format_sweep_csv, main
from adtorsion.locus import auto_theta_range, find_critical_points, sweep_rows, theta_grid
from adtorsion import catalog
from adtorsion.exact import torsion_function
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
from adtorsion.verify import closed_form_5_2

from test_reps import _brent, _critical_family
from test_torsion import _count_calls, as_poly, schubert_knot, schubert_word


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
            "value": [10.333805806234796, 3.60153264213764e-15],
            "formula_value": [10.3338058062348, 3.6015326421376406e-15],
            "limit_value": [10.333805806234796, 3.60153264213764e-15],
            "diagnostics": {
                "scale": 7.216374340364524,
                "delta1_at_1": 1.0480751279681101e-13,
                "delta1_prime_at_1": 3.349116204344026e-13,
                "reduced_at_1": 37.22533670440327,
                "division_remainders": [1.0480751279681101e-13, 3.3402362377587296e-13],
                "simple_zero": True,
                "trace_x1_sq": [-1.6022872310938674, 0.0],
                "denominator_ok": True,
                "irreducible": True,
                "lambda_regular_proxy": True,
                "tai_at_1": 0.00010334199743072903,
                "naive_limit": [10.33419974307271, 1.9932886902677898e-06],
                "consistency_ok": True,
                "route": "limit",
            },
        },
        "tai": {
            "numerator": {
                "offset": 0,
                "coeffs": [
                    [-3.2418593388391566, 5.635653352775206e-16],
                    [-2.56075827450244, 5.026305440691279e-16],
                    [2.194430443159287, -4.778051785093988e-16],
                    [7.216374340364524, -7.560358229345079e-17],
                    [2.1944304431592845, -2.984259585679831e-16],
                    [-2.560758274502444, -7.01304874907981e-16],
                    [-3.2418593388391597, -2.3103564155084793e-16],
                ],
            },
            "denominator": {
                "offset": 0,
                "coeffs": [
                    [-1.0, 0.0],
                    [-0.6022872310938674, 0.0],
                    [0.6022872310938674, 0.0],
                    [1.0, 0.0],
                ],
            },
        },
    },
    ("2.5", 1): {
        "torsion": {
            "value": [11.824289089628992, -1.1926484813307818e-14],
            "formula_value": [11.824289089628996, -1.1926484813307818e-14],
            "limit_value": [11.824289089628992, -1.1926484813307818e-14],
            "diagnostics": {
                "scale": 9.247752525302227,
                "delta1_at_1": 3.6923178202527846e-16,
                "delta1_prime_at_1": 1.7528376140842107e-14,
                "reduced_at_1": 42.594485604333045,
                "division_remainders": [3.6923178202527846e-16, 1.7072397372086404e-14],
                "simple_zero": True,
                "trace_x1_sq": [-1.6022872310938674, 0.0],
                "denominator_ok": True,
                "irreducible": True,
                "lambda_regular_proxy": True,
                "tai_at_1": 0.00011824408189819537,
                "naive_limit": [11.824408189819492, 1.024518804053135e-06],
                "consistency_ok": True,
                "route": "limit",
            },
        },
        "tai": {
            "numerator": {
                "offset": 0,
                "coeffs": [
                    [-3.0956260454457096, -1.3651896158283498e-15],
                    [-4.401866992705413, -2.3197285308427983e-15],
                    [2.873616775500011, -5.858647487560658e-16],
                    [9.247752525302227, 2.3418095941500005e-16],
                    [2.8736167755000093, 4.1866254480425927e-16],
                    [-4.401866992705415, 1.6793287162481916e-15],
                    [-3.0956260454457096, 1.5693788929344845e-15],
                ],
            },
            "denominator": {
                "offset": 0,
                "coeffs": [
                    [-1.0, 0.0],
                    [-0.6022872310938674, 0.0],
                    [0.6022872310938674, 0.0],
                    [1.0, 0.0],
                ],
            },
        },
    },
    ("3.141592653589793", 0): {
        "torsion": {
            "value": [10.884706924611576, 2.821014312997645e-15],
            "formula_value": [10.884706924611574, 2.8210143129976443e-15],
            "limit_value": [10.884706924611576, 2.821014312997645e-15],
            "diagnostics": {
                "scale": 9.329748792524256,
                "delta1_at_1": 3.8191672047105385e-14,
                "delta1_prime_at_1": 1.2090869373563628e-13,
                "reduced_at_1": 43.538827698446305,
                "division_remainders": [3.8191672047105385e-14, 1.2268336479294578e-13],
                "simple_zero": True,
                "trace_x1_sq": [-2.0, 0.0],
                "denominator_ok": True,
                "irreducible": True,
                "lambda_regular_proxy": True,
                "tai_at_1": 0.00010884720856686546,
                "naive_limit": [10.884720856686545, 1.3262152981315104e-10],
                "consistency_ok": True,
                "route": "limit",
            },
        },
        "tai": {
            "numerator": {
                "offset": 0,
                "coeffs": [
                    [-3.109916264174746, 4.599495387732791e-16],
                    [-4.664874396262121, 7.595532071829767e-16],
                    [3.109916264174757, 3.460031968304733e-16],
                    [9.329748792524256, -2.1874085658910737e-16],
                    [3.109916264174757, -6.746220182304663e-16],
                    [-4.66487439626212, -6.312080499672801e-16],
                    [-3.1099162641747444, -4.093501799987534e-17],
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
            "value": [22.728857226022306, -8.258576741000623e-15],
            "formula_value": [22.728857226022313, -8.258576741000624e-15],
            "limit_value": [22.728857226022306, -8.258576741000623e-15],
            "diagnostics": {
                "scale": 19.481877622304797,
                "delta1_at_1": 2.7533531010703882e-14,
                "delta1_prime_at_1": 9.513451261247642e-14,
                "reduced_at_1": 90.91542890408923,
                "division_remainders": [2.7533531010703882e-14, 9.337694527998124e-14],
                "simple_zero": True,
                "trace_x1_sq": [-2.0, 0.0],
                "denominator_ok": True,
                "irreducible": True,
                "lambda_regular_proxy": True,
                "tai_at_1": 0.00022729157748481533,
                "naive_limit": [22.72915774848153, -3.4181469164601723e-10],
                "consistency_ok": True,
                "route": "limit",
            },
        },
        "tai": {
            "numerator": {
                "offset": 0,
                "coeffs": [
                    [-6.493959207434936, -5.075305255429287e-16],
                    [-9.740938811152404, -1.329655323997314e-15],
                    [6.493959207434929, -2.6758382656851423e-15],
                    [19.481877622304797, -4.1253978733753245e-16],
                    [6.493959207434929, 2.8744968130509e-15],
                    [-9.740938811152407, 2.213044525857084e-15],
                    [-6.493959207434937, -1.6197743634506722e-16],
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
# their torsion in 50-digit arithmetic, (Delta_1''(1)/2) / (Tr rho(x^2) - 2)
# from the exact Fox matrix at each root of phi(-1, u) polished to 50 digits
B41_11_REFERENCE = (
    1042.7262586233257, -574.2521982958707, -371.4244367377917, 198.9075379112924,
    31.642031819771475, 499.47898587996224, 4.442889448111597, -83.62538497618466,
    105.8133815323985, 253.0322549159938, -86.00870511063239, 84.4147171414987,
    -114.09115235215202, -290.20423723636657, 267.35460223322383, 232.99020108183964,
    -165.72247401317418, -110.4759251473072, -105.08914615721558, 246.09079943927708,
)


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
        for payload, reference in zip(payloads, B41_11_REFERENCE):
            assert abs(complex(*payload["value"]) - reference) <= 1e-11 * abs(reference)
        return
    for command, expected in FIVE_TWO_PAYLOADS[(theta, root)].items():
        argv = (command, "--knot", "5_2", "--theta", theta, "--root", str(root))
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.dumps(json.loads(out)) == json.dumps(expected)
    # the pinned torsion against the closed form, whose global sign is -1
    sols = su2_solutions(riley_polynomial(catalog.knot("5_2").bridge_word), float(theta))
    closed = closed_form_5_2(sols.sigma, sols.roots[root])
    assert abs(complex(*FIVE_TWO_PAYLOADS[(theta, root)]["torsion"]["value"]) + closed) <= 1e-12 * abs(closed)


def test_family_knot_name_is_its_presentation_file(capsys, tmp_path):
    path = tmp_path / "b41_11.txt"
    path.write_text(f"twobridge w: {schubert_word(41, 11)}\n", encoding="utf-8")
    argv = ("--theta", "2.0", "--root", "3")
    by_name = run_cli(capsys, "torsion", "--knot", "b(41,11)", *argv)
    assert by_name[0] == 0
    assert run_cli(capsys, "torsion", "--presentation", str(path), *argv) == by_name


def test_critical_on_a_family_knot_name(capsys):
    code, out, err = run_cli(capsys, "critical", "--knot", "b(41,11)")
    assert (code, err) == (0, "")
    assert "dihedral count: 20\n" in out


@pytest.mark.parametrize("name", ["b(8,3)", "b(9,3)", "b(7,2)"])
def test_knot_names_outside_the_family_are_input_errors(capsys, name):
    code, out, err = run_cli(capsys, "torsion", "--knot", name, "--theta", "2.0")
    assert (code, out) == (1, "")
    assert err == f"error: {name} needs odd p >= 3 and odd q in (0, p) coprime to p\n"


def test_single_point_requests_keep_their_bits_in_any_order(capsys):
    # every root of b(41,11) at theta = pi, one request each in one process,
    # in index order and again in reverse order with every root memoized:
    # each payload is the pinned payload of that root in the one-stack
    # evaluation
    pinned = [json.dumps(payload) for payload in json.loads(B41_11_PAYLOADS.read_text())]
    su2_solutions.cache_clear()
    for root in [*range(20), *reversed(range(20))]:
        code, out, err = run_cli(capsys, "torsion", "--knot", "b(41,11)", "--theta", repr(math.pi),
                                 "--root", str(root))
        assert (code, err) == (0, "")
        assert json.dumps(json.loads(out)) == pinned[root]
    assert su2_solutions.cache_info().misses == 1


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
    assert "mirror T(theta) = T(2pi - theta), 70 knots" in out
    assert "SL(2,C) fibre trace of exact T, 16 knots (165 points)" in out


def test_fibre_row_fails_on_a_wrong_trace(monkeypatch):
    # the fibre row compares the numeric sum over each whole fibre with the
    # exact trace; a trace off by 1e-6 fails it
    knots = {"5_2": catalog.knot("5_2")}
    row = verify._fibre_row(knots, Tolerances())
    assert row.passed and 0.0 < row.max_error <= verify.FIBRE_TOL
    trace = exact.TorsionFunction.trace
    monkeypatch.setattr(exact.TorsionFunction, "trace", lambda self, sigma: trace(self, sigma) + 1e-6)
    assert not verify._fibre_row(knots, Tolerances()).passed


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
        return [error(f"lost at theta={theta_a:.6f}") for theta_a, *_ in brackets]

    monkeypatch.setattr(locus, "_refine_derivative_zeros", fail)
    p, lo, hi = _five_two_auto_window()
    report = find_critical_points(p, lo, hi, 33, Tolerances())
    dropped = [n for n in report.notes if n.startswith("dropped sign change in theta [")]
    # the half window of 5_2 has one sign change away from pi, now a note;
    # the dihedral points at pi need no refinement
    assert len(dropped) == 1
    for note in dropped:
        assert ": lost at theta=" in note
    assert report.dihedral_count == 3
    assert all(pt.is_dihedral for pt in report.points)


def test_critical_search_completes_across_a_branch_jump(monkeypatch):
    # b(13,9): at the first trial theta of the first refinement whose ends
    # have more than one root, su2_solutions sees only a root far from the
    # branch.  One root is not the count of the branch's interval, so that
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
        # the slope reads the branch's root at the trial theta itself
        if first_trial and theta == first_trial[0]:
            return dataclasses.replace(sols, roots=(10.0,), near_multiple=(False,))
        return sols

    monkeypatch.setattr(locus, "_bracketed_zero", solve_spy)
    monkeypatch.setattr(locus, "su2_solutions", far_root_at_first_trial)
    report = find_critical_points(p, lo, hi, 33, Tolerances())
    dropped = [n for n in report.notes if n.startswith("dropped sign change")]
    assert [n.partition(": ")[2] for n in dropped] == [
        f"root count 1 at theta={first_trial[0]:.6f} is not the branch's "
        f"{len(solutions(phi, first_trial[0]).roots)}"
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
def test_critical_search_brackets_stay_inside_one_threshold_interval(monkeypatch, p, q):
    # nearest-u pairing once joined root 1 of 3 at theta = 4.226731 to root
    # 0 of 3 at 4.335245 on b(11,3), and root 2 of 4 to root 1 of 4 twice on
    # b(13,3); the sign changes on those hops were artefacts.  A branch is
    # now a threshold interval and a rank, so every refined bracket, with
    # the reported point's FD_STEP on both sides, lies inside one interval of the half
    # window and has the branch's root count at both ends, where its slopes
    # differ in sign
    searched = []
    refine = locus._refine_derivative_zeros

    def spy(torsion, brackets):
        searched.extend(brackets)
        return refine(torsion, brackets)

    monkeypatch.setattr(locus, "_refine_derivative_zeros", spy)
    knot = schubert_knot(p, q)
    phi = riley_polynomial(knot.bridge_word)
    lo, hi = auto_theta_range(phi)
    report = find_critical_points(knot, lo, hi, 33, Tolerances())
    assert report.dihedral_count == (p - 1) // 2
    assert not [n for n in report.notes if n.startswith(("dropped", "discarded"))]
    assert searched
    cuts = [math.acos(sigma / 2.0) for sigma in report.thresholds]
    reach = locus.FD_STEP
    for theta_a, slope_a, theta_b, slope_b, (count, rank) in searched:
        assert theta_a < theta_b < math.pi and 0 <= rank < count
        assert slope_a * slope_b < 0.0
        assert not [c for c in cuts if theta_a - reach < c < theta_b + reach]
        assert [len(su2_solutions(phi, t).roots) for t in (theta_a, theta_b)] == [count, count]


def test_critical_search_evaluation_budget(monkeypatch):
    # the slopes come from the exact torsion function, so the only numeric
    # torsion stack is the reported points': each sign change and each
    # dihedral point at theta and theta +- FD_STEP.  A bisection that built
    # a torsion at each midpoint only for its root made 697, the search over
    # the whole window with nearest-u pairing 145, the search with a stack
    # of slopes at every bracket end 82 in 8 calls, and the WIDE_STEP
    # central difference 78 in 7 calls
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
    assert len(report.points) == 3 + 2  # one sign change, reported with its mirror
    assert len(points) == 12
    assert len(calls) == 1


def test_critical_search_notes_a_branch_whose_samples_all_failed(monkeypatch):
    # every torsion evaluation on the branch near u = -3.8, the lowest of the
    # three roots, raises: the branch is noted with its failure count and
    # first reason, not as a flat branch.  The fault sits where every
    # evaluation takes its root, single or stacked.  The window folds onto
    # [2.7, pi]: 8 grid points, their 8 mirrors and the grid point 3.14
    root = locus._BranchTorsion.root

    def fail_low_branch(self, theta, branch):
        if branch == (3, 0):
            raise RegularityError(f"not a simple zero at theta={theta:.6f}")
        return root(self, theta, branch)

    monkeypatch.setattr(locus._BranchTorsion, "root", fail_low_branch)
    report = find_critical_points(catalog.knot("5_2"), 2.7, 3.58, 17, Tolerances())
    failed = [n for n in report.notes if "derivative samples failed" in n]
    assert failed == [
        "17 of 17 derivative samples failed on root 0 of 3 over [2.7000, 3.1400], "
        "the first with: not a simple zero at theta=2.700000"
    ]
    assert not [n for n in report.notes if "constant" in n]
    assert report.dihedral_count == 2
    assert all(pt.u > -3.3 for pt in report.points)


@pytest.mark.parametrize("p, q", [(7, 3), (11, 5), (15, 7)])
def test_brent_starts_from_the_sampled_slopes(monkeypatch, p, q):
    # the samples and the refinement read one slope, the exact torsion
    # function's: each Brent search starts from the bit-equal slopes of its
    # two sampled ends, no slope is taken twice, so there is no stack of
    # slopes at the bracket ends, and no slope builds a numeric torsion
    taken, started, stacks = [], [], []
    derivatives, solve = locus._BranchTorsion.derivatives, locus._bracketed_zero
    torsion_polynomial = locus.torsion_polynomial

    def derivatives_spy(self, samples):
        results = derivatives(self, samples)
        taken.append(dict(zip(samples, results)))
        return results

    def stack_spy(*args, **kwargs):
        stacks.append(len(taken))
        return torsion_polynomial(*args, **kwargs)

    def solve_spy(a, fa, b, fb, **kwargs):
        started.append((a, fa, b, fb))
        return solve(a, fa, b, fb, **kwargs)

    monkeypatch.setattr(locus._BranchTorsion, "derivatives", derivatives_spy)
    monkeypatch.setattr(locus, "_bracketed_zero", solve_spy)
    monkeypatch.setattr(locus, "torsion_polynomial", stack_spy)
    knot = schubert_knot(p, q)
    lo, hi = auto_theta_range(riley_polynomial(knot.bridge_word))
    find_critical_points(knot, lo, hi, 33, Tolerances())
    assert started
    sampled = {(theta, r[0]) for (theta, _), r in taken[0].items() if not isinstance(r, Exception)}
    for a, fa, b, fb in started:
        assert (a, fa) in sampled and (b, fb) in sampled
    assert sum(map(len, taken)) == len(set().union(*taken))
    assert stacks == [len(taken)]  # the reported points, after every slope


@pytest.mark.parametrize("p, q, sign_changes", [(11, 5, 3), (15, 7, 2)])
def test_lockstep_refinement_matches_each_bracket_alone(monkeypatch, p, q, sign_changes):
    # all sign changes of the half window advance together, one stack per
    # Brent round; each theta* must have the bits of its bracket refined
    # alone, with a one-theta slope per step
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
    for (theta_a, _, theta_b, _, branch), zero in zip(brackets, refine(torsion, brackets)):

        def slope(theta):
            [(g, _)] = alone.derivatives([(theta, branch)])
            return g

        theta_star = _brent(slope, theta_a, slope(theta_a), theta_b, slope(theta_b), xtol=1e-11)
        assert zero == (theta_star, branch)


def test_a_point_off_the_variety_fails_alone_in_its_stack(monkeypatch):
    # when the stacked representation raises, every point is evaluated on
    # its own: the offending point carries the error and the others keep
    # the bits the stack gives them
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    samples = [(theta, (3, rank)) for theta in (2.9, 3.0, 3.3) for rank in range(3)]
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


@pytest.mark.parametrize("p, q", [(31, 17), (33, 25), (39, 19)])
def test_critical_reports_each_dihedral_point_once(p, q):
    # on these knots theta_grid's middle sample is one ulp off pi, and a
    # sign change whose bracket ends there is the dihedral point again
    knot = schubert_knot(p, q)
    lo, hi = auto_theta_range(riley_polynomial(knot.bridge_word))
    assert 0.0 < abs(theta_grid(lo, hi, 33)[16] - math.pi) < 1e-15
    report = find_critical_points(knot, lo, hi, 33, Tolerances())
    assert report.dihedral_count <= (p - 1) // 2
    assert all(pt.theta == math.pi for pt in report.points if pt.is_dihedral)


def test_critical_family_reports_mirror_pairs_and_every_dihedral_point():
    # the 24 knots b(p, q), odd p <= 15, that the critical benchmark
    # searches: (p - 1)/2 dihedral points at pi, and every point off pi
    # found on the half window comes with its mirror at 2 pi - theta, with
    # the same u and torsion.  No sample fails the count check of its branch
    for p, q in _critical_family():
        knot = schubert_knot(p, q)
        lo, hi = auto_theta_range(riley_polynomial(knot.bridge_word))
        report = find_critical_points(knot, lo, hi, 33, Tolerances())
        assert report.dihedral_count == (p - 1) // 2, (p, q)
        off_pi = [pt for pt in report.points if not pt.is_dihedral]
        assert len(off_pi) % 2 == 0, (p, q)
        for pt in off_pi:
            mirrors = [m for m in off_pi if abs(m.theta + pt.theta - 2.0 * math.pi) <= 1e-12]
            assert [(m.u, m.torsion) for m in mirrors] == [(pt.u, pt.torsion)], (p, q, pt)
        assert not [n for n in report.notes if "is not the branch's" in n], (p, q)


@pytest.mark.parametrize("p", range(3, 16, 2))
def test_flat_branch_notes_name_the_torus_knot_constants(p):
    # on b(p, 1) = T(2, p) the torsion is constant on every branch, one of
    # p^2 / (4 sin^2(pi k / p)): each threshold interval gets one note that
    # names the constant of each of its roots, and there is no sign change
    # to refine
    constants = [p * p / (4 * math.sin(math.pi * k / p) ** 2) for k in range(1, (p + 1) // 2)]
    knot = schubert_knot(p, 1)
    phi = riley_polynomial(knot.bridge_word)
    lo, hi = auto_theta_range(phi)
    report = find_critical_points(knot, lo, hi, 33, Tolerances())
    assert all(pt.is_dihedral for pt in report.points)
    flat = [n for n in report.notes if n.startswith("branch torsion is constant")]
    assert flat and len(flat) == len(report.notes)
    for note in flat:
        span, _, entries = note.partition("over [")[2].partition("]: ")
        ranks = []
        for entry in entries.split(", "):
            rank, _, value = entry.removeprefix("root ").partition(" at ")
            ranks.append(int(rank))
            assert min(abs(float(value) - c) / c for c in constants) <= 1e-9, note
        theta = float(span.partition(",")[0])
        assert ranks == list(range(len(su2_solutions(phi, theta).roots))), note


def test_critical_report_keeps_its_points_to_the_last_bit(tmp_path, capsys):
    # b(11,5): theta, u and torsion of every point as the search reports
    # them; each torsion is within 3e-14 relative of its value in 50-digit
    # arithmetic at the reported (theta, u), and the point near 2 pi / 3,
    # where T = 9, lies within 5e-14 of it.  Each point off pi is found at
    # theta* <= pi and reported again at 2 pi - theta* with the same u and
    # torsion
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
        ("1.1663030434639226", "-1.016297185022272", "22.74936511379164", "0.0"),
        ("5.116882263715664", "-1.016297185022272", "22.74936511379164", "0.0"),
        ("2.0943951023932392", "-2.0000000000001137", "8.999999999999773", "0.0"),
        ("4.188790204786347", "-2.0000000000001137", "8.999999999999773", "0.0"),
        ("2.327310924195621", "-2.5218604565681733", "8.950647372775824", "0.0"),
        ("3.955874382983965", "-2.5218604565681733", "8.950647372775824", "0.0"),
        ("3.141592653589793", "-3.9189859472289945", "36.87132442528644", "0.0"),
        ("3.141592653589793", "-3.3097214678905695", "9.289886883248016", "0.0"),
        ("3.141592653589793", "-2.28462967654657", "79.15428573061342", "0.0"),
        ("3.141592653589793", "-1.1691699739962274", "5.6293016964565465", "0.0"),
        ("3.141592653589793", "-0.3174929343376358", "1.0552012643948072", "0.0"),
    ]


def test_auto_theta_range_is_the_window_of_the_whole_probe_grid():
    # the scan from the low end stops at the first theta with a root and
    # takes its mirror grid point as the high end; the window must be the
    # one every theta of the 600-theta grid gives, on the 178 knots b(p, q)
    # with odd p <= 41, 5_2 and the trefoil: no theta outside it has a root
    # and both its grid ends do
    n = 600
    thetas = [0.02 + (2 * math.pi - 0.04) * i / (n - 1) for i in range(n)]
    knots = [(p, q) for p in range(3, 42, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
    assert len(knots) == 178
    margin = locus.AUTO_THETA_MARGIN
    for knot in knots + ["5_2", "trefoil"]:
        p = catalog.knot(knot) if isinstance(knot, str) else schubert_knot(*knot)
        phi = riley_polynomial(p.bridge_word)
        lo, hi = auto_theta_range(phi)
        i = next(k for k, theta in enumerate(thetas) if theta + margin == lo)
        assert hi == thetas[n - 1 - i] - margin, knot
        # the grid's first i + 1 and last i + 1 thetas
        counts = su2_root_counts(phi, thetas[:i + 1] + thetas[n - 1 - i:])
        assert counts[i] > 0 and counts[i + 1] > 0, knot
        assert not any(counts[:i] + counts[i + 2:]), knot


def test_main_calls_share_one_parser_and_no_flags(capsys):
    # the parser is built once per process; each call must print what a
    # call with a freshly built parser prints, so no flag or default of one
    # call reaches the next
    calls = [
        ("critical", "--knot", "trefoil", "--theta-lo", "2.0", "--theta-hi", "4.3", "--samples", "9",
         "--format", "json"),
        ("critical", "--knot", "trefoil", "--theta-lo", "2.0", "--theta-hi", "4.3"),
        ("sweep", "--knot", "5_2", "--theta-lo", "2.6", "--theta-hi", "3.7", "--samples", "5",
         "--format", "json"),
        ("sweep", "--knot", "5_2", "--theta-lo", "2.6", "--theta-hi", "3.7"),
        ("torsion", "--knot", "5_2", "--theta", "2.5", "--root", "1", "--drop", "y"),
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
            [-1.484435331765857, 1.5000000008749994],
        ),
        (
            (15, 7),
            (0.5298659589940578, 5.753319348185529),
            [-1.886564841889004, -1.202457882538248, 0.038932948559044174, 1.750000000781255],
        ),
        (
            (41, 11),
            (0.7070515186302062, 5.57613378854938),
            [
                -1.9854707830540137, -1.8684222660044838, -1.86692040107734,
                -1.616622107941816, -1.5973095205326633, -1.353715589959868,
                -0.7963942067503725, -0.7053200668338434, -0.3925950688883926,
                0.1980622651317023, 1.5549581351421,
            ],
        ),
    ],
)
def test_probe_grids_keep_windows_and_thresholds(knot, window, thresholds):
    # to the last bit: the windows are the ones the per-point su2_solutions
    # probes gave before the probe grids were batched; the thresholds are
    # the zeros of the event functions refined by Brent's method, within
    # 1.6e-14 of the bracket bisection's
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
    torsion_function.cache_clear()
    # the sweep's cross-check and each critical search take one numeric
    # torsion stack, all dropping the meridian x; the sweep and each search
    # read the exact torsion function once
    sweep_rows(p, 2.6, 3.7, 9)
    find_critical_points(p, 2.7, 3.58, 9, Tolerances())
    find_critical_points(p, 2.7, 3.58, 9, Tolerances())
    riley = riley_polynomial.cache_info()
    assert riley.misses == 1  # the bridge word
    assert riley.hits > 0
    fox = fox_derivative.cache_info()
    assert fox.misses == len(p.relators)  # one per relator: the derivative by y
    assert fox.hits > 0
    exact = torsion_function.cache_info()
    assert (exact.misses, exact.hits) == (1, 2)  # the bridge word, read by the sweep first


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


def _same_bits(a: float, b: float) -> bool:
    """a and b are the same float to the bit, any NaN matching any NaN;
    repr round-trips every other float and tells -0.0 from 0.0."""
    return repr(a) == repr(b)


@pytest.mark.parametrize(
    "knot, drop",
    [
        ("5_2", None), ("trefoil", None), ((13, 5), None), ((15, 7), None), ("5_2", 1),
        ((31, 7), None), ((41, 11), None),
    ],
)
def test_sweep_stack_matches_single_points(knot, drop):
    # the sweep evaluates the exact torsion function at all its points at
    # once; every row must be what that function gives the point alone, to
    # the bit, and the numeric torsion there (dropping the meridian, or
    # ``drop``) within 1e-9
    p = catalog.knot(knot) if isinstance(knot, str) else schubert_knot(*knot)
    tol = Tolerances()
    lo, hi = auto_theta_range(riley_polynomial(p.bridge_word))
    rows = sweep_rows(p, lo, hi, 13, tol)
    assert len(rows) >= 13
    json.dumps({"rows": rows})
    function = torsion_function(p.bridge_word)
    for row in rows:
        assert all(type(row[k]) is float for k in row if k != "tai_simple_zero")
        assert type(row["tai_simple_zero"]) is bool
        roots = su2_solutions(riley_polynomial(p.bridge_word), row["theta"], tol.relation,
                              multiplicity_threshold=tol.multiplicity).roots
        assert min(abs(r - row["u"]) for r in roots) <= 1e-12
        (alone,) = function([row["sigma"]], [row["u"]]).tolist()
        assert _same_bits(row["torsion_re"], alone)
        assert _same_bits(row["torsion_im"], 0.0)
        rep = locus.rep_at(p, row["theta"], row["u"], tol)
        single = compute_torsion(rep, tol, drop=drop)
        assert abs(row["torsion_re"] - single.value) <= 1e-9 * abs(single.value)
        assert row["tai_simple_zero"] is single.diagnostics["simple_zero"] is True
        assert _same_bits(row["trace_mu"], float(rep.trace_meridian.real))


def test_sweep_builds_one_representation_and_one_determinant(monkeypatch):
    # one stacked build_rep, one FFT determinant and one double division by
    # (t - 1) for the whole sweep; the per-row sweep made one of each per row.
    # Delta_1 stays one array from the determinant to the readings: the sweep
    # builds no LaurentPoly, neither by its constructor nor by _raw
    calls = {"build_rep": 0, "determinant": 0, "divide_out_simple_roots": 0, "LaurentPoly": 0}
    # nor does it build any result's diagnostics: a row reads the simple-zero
    # rule on the result's polynomial
    diagnostics = _count_calls(
        monkeypatch, [(torsion, "regularity_diagnostics"), (torsion, "naive_limit")]
    )
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
    # the rows come from the exact torsion function, looked up once; the one
    # representation is the cross-check's single point
    lookups = _count_calls(monkeypatch, [(exact, "torsion_function")])
    built = []
    monkeypatch.setattr(locus, "compute_torsion", lambda rep, *args: built.append(rep)
                        or compute_torsion(rep, *args))
    rows = sweep_rows(catalog.knot("5_2"), 0.8, 5.4, 31)
    assert len(rows) > 31
    assert calls == {"build_rep": 1, "determinant": 1, "divide_out_simple_roots": 1, "LaurentPoly": 0}
    assert diagnostics == {"regularity_diagnostics": 0, "naive_limit": 0}
    assert lookups == {"torsion_function": 1}
    assert [rep.stacked for rep in built] == [False]
    # the counters see the constructions they count
    LaurentPoly(0, [1.0]).shift(1)
    assert calls["LaurentPoly"] == 2


def test_diagnostics_are_derived_on_each_read(monkeypatch):
    # the critical search reads no diagnostics, so it builds none (the sweep
    # is counted with its determinants above); a result derives them anew
    # from its polynomial on every read
    calls = _count_calls(
        monkeypatch, [(torsion, "regularity_diagnostics"), (torsion, "naive_limit")]
    )
    p, tol = catalog.knot("5_2"), Tolerances()
    lo, hi = auto_theta_range(riley_polynomial(p.bridge_word))
    assert find_critical_points(p, lo, hi, 33, tol).dihedral_count == 3
    u = su2_solutions(riley_polynomial(p.bridge_word), 2.9).roots[1]
    result = compute_torsion(locus.rep_at(p, 2.9, u, tol), tol)
    assert result == compute_torsion(locus.rep_at(p, 2.9, u, tol), tol)
    assert calls == {"regularity_diagnostics": 0, "naive_limit": 0}
    first = result.diagnostics
    assert calls == {"regularity_diagnostics": 1, "naive_limit": 1}
    second = result.diagnostics
    assert calls == {"regularity_diagnostics": 2, "naive_limit": 2}
    assert first == second and first is not second
    assert first["simple_zero"] is torsion.simple_zero(result.polynomial) is True


# adtorsion sweep output, pinned byte for byte: 5_2 over its auto window
# with 61 samples as CSV and JSON, and b(41,11) over its auto window with
# 33 samples as CSV; recorded with numpy 2.4.6
@pytest.mark.parametrize(
    "fixture, knot, samples, extra",
    [
        ("sweep_5_2.csv", "5_2", 61, ()),
        ("sweep_5_2.json", "5_2", 61, ("--format", "json")),
        ("sweep_b41_11.csv", (41, 11), 33, ()),
    ],
)
def test_sweep_output_keeps_every_byte(capsys, tmp_path, fixture, knot, samples, extra):
    if isinstance(knot, str):
        source = ("--knot", knot)
        p = catalog.knot(knot)
    else:
        path = tmp_path / "knot.txt"
        path.write_text(f"twobridge w: {schubert_word(*knot)}\n", encoding="utf-8")
        source = ("--presentation", str(path))
        p = schubert_knot(*knot)
    lo, hi = auto_theta_range(riley_polynomial(p.bridge_word))
    argv = ("--theta-lo", repr(lo), "--theta-hi", repr(hi), "--samples", str(samples))
    code, out, err = run_cli(capsys, "sweep", *source, *argv, *extra)
    assert (code, err) == (0, "")
    assert out.encode() == pathlib.Path(__file__).with_name(fixture).read_bytes()
    # the torsion does not depend on the dropped generator, so the sweep
    # ignores --drop
    assert run_cli(capsys, "sweep", *source, *argv, *extra, "--drop", "y") == (0, out, "")

    # the oracles the fixtures were recorded against: minus the 5_2 closed
    # form, and the numeric torsion at every point
    rows = sweep_rows(p, lo, hi, samples)
    if knot == "5_2":
        for row in rows:
            target = -closed_form_5_2(row["sigma"], row["u"])
            assert abs(row["torsion_re"] - target) <= 1e-12 * abs(target)
    else:
        tol = Tolerances()
        results = compute_torsion(locus.rep_at(p, [r["theta"] for r in rows], [r["u"] for r in rows], tol), tol)
        for row, result in zip(rows, results):
            assert abs(row["torsion_re"] - result.value) <= 1e-9 * abs(result.value)


def test_sweep_cross_check_names_its_point(monkeypatch, capsys):
    # exact values off by 1e-5 relative fail the numeric cross-check at the
    # middle row, with both values, theta and u in the message
    function = torsion_function(catalog.knot("5_2").bridge_word)
    monkeypatch.setattr(exact, "torsion_function", lambda w: lambda sigma, u: function(sigma, u) * (1 + 1e-5))
    code, out, err = run_cli(capsys, "sweep", "--knot", "5_2", "--theta-lo", "2.6", "--theta-hi", "3.7",
                             "--samples", "5")
    assert (code, out) == (1, "")
    # the middle of the 15 rows: the second root at the middle theta
    theta = theta_grid(2.6, 3.7, 5)[2]
    u = su2_solutions(riley_polynomial(catalog.knot("5_2").bridge_word), theta).roots[1]
    assert err.startswith("error: exact torsion ")
    assert err.endswith(f" differ at theta={theta!r}, u={u!r}\n")


def test_sweep_rejects_a_root_off_the_variety(monkeypatch):
    # every row passes build_rep's phi check: a root nudged off phi = 0
    # fails the sweep with the error its point raises alone
    p, tol = catalog.knot("5_2"), Tolerances()
    solve = su2_solutions

    def nudged(phi, thetas, **kwargs):
        out = solve(phi, thetas, **kwargs)
        out[1] = dataclasses.replace(out[1], roots=(out[1].roots[0] + 1e-3, *out[1].roots[1:]))
        return out

    monkeypatch.setattr(locus, "su2_solutions", nudged)
    theta = theta_grid(2.6, 3.7, 5)[1]
    u = solve(riley_polynomial(p.bridge_word), theta).roots[0] + 1e-3
    with pytest.raises(RepresentationError, match="does not vanish") as alone:
        locus.rep_at(p, theta, u, tol)
    with pytest.raises(RepresentationError, match="does not vanish") as swept:
        sweep_rows(p, 2.6, 3.7, 5, tol)
    assert str(swept.value) == str(alone.value)


def test_sweep_without_roots_builds_no_torsion_function(monkeypatch):
    p = catalog.knot("5_2")
    assert not any(su2_solutions(riley_polynomial(p.bridge_word), theta_grid(0.1, 0.5, 9)))
    lookups = _count_calls(monkeypatch, [(exact, "torsion_function")])
    assert sweep_rows(p, 0.1, 0.5, 9) == []
    assert lookups == {"torsion_function": 0}
