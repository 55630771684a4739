import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from adtorsion import cli
from adtorsion.cli import (
    BranchTrackingError,
    SweepConfig,
    auto_theta_range,
    find_critical_points,
    format_sweep_csv,
    main,
    sweep_rows,
)
from adtorsion import catalog
from adtorsion.foxcalc import fox_derivative
from adtorsion.reps import RepresentationError, riley_polynomial, su2_root_count_thresholds
from adtorsion.torsion import RegularityError, Tolerances, torsion_polynomial

from test_torsion import schubert_knot


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


def test_sweep_config_problems():
    bad = SweepConfig("5_2", 1.0, 2.0, 1, Tolerances(), None, "yaml")
    problems = bad.problems()
    assert any("samples" in p for p in problems)
    assert any("format" in p for p in problems)


def test_sweep_torsion_column_real(capsys):
    p = catalog.knot("5_2")
    config = SweepConfig("5_2", 2.5, 3.7, 9)
    rows = sweep_rows(p, config)
    assert all(abs(r["torsion_im"]) <= 1e-8 for r in rows)
    text = format_sweep_csv(rows)
    assert text.count("\n") == len(rows) + 2


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


def test_branch_tracking_error_exits_1(monkeypatch, capsys):
    def lose_branch(*args, **kwargs):
        raise BranchTrackingError("branch jump 0.914 at theta=3.637154")

    monkeypatch.setattr(cli, "find_critical_points", lose_branch)
    code, out, err = run_cli(capsys, "critical", "--knot", "5_2")
    assert code == 1
    assert out == ""
    assert err == "error: branch jump 0.914 at theta=3.637154\n"


@pytest.mark.parametrize("error", [BranchTrackingError, RegularityError, RepresentationError])
def test_critical_search_drops_failed_bisection(monkeypatch, error):
    # the refinement of each sign change fails
    def fail(torsion, end_a, end_b):
        raise error(f"lost at theta={end_a[0]:.6f}")

    monkeypatch.setattr(cli, "_refine_derivative_zero", fail)
    report = find_critical_points(catalog.knot("5_2"), 2.7, 3.58, 17, Tolerances())
    dropped = [n for n in report.notes if n.startswith("dropped sign change in theta [")]
    # 5_2 has three dihedral sign changes on this window, each now a note
    assert len(dropped) == 3
    for note in dropped:
        assert ": lost at theta=" in note
    assert report.dihedral_count == 0


def test_critical_search_completes_across_a_branch_jump(monkeypatch):
    # b(13,9): at the first trial theta of the refinement su2_solutions sees
    # only a root far from the branch, so that sign change is dropped with a
    # branch-jump note and the rest of the search still reports
    p = schubert_knot(13, 9)
    lo, hi = auto_theta_range(riley_polynomial(p.bridge_word))
    first_trial = []
    solve, solutions = cli._bracketed_zero, cli.su2_solutions

    def solve_spy(f, *args, **kwargs):
        def f_spy(theta):
            if not first_trial:
                first_trial.append(theta)
            return f(theta)

        return solve(f_spy, *args, **kwargs)

    def far_root_at_first_trial(phi, theta, *args, **kwargs):
        sols = solutions(phi, theta, *args, **kwargs)
        if first_trial and theta == first_trial[0]:
            return dataclasses.replace(sols, roots=(10.0,), near_multiple=(False,))
        return sols

    monkeypatch.setattr(cli, "_bracketed_zero", solve_spy)
    monkeypatch.setattr(cli, "su2_solutions", far_root_at_first_trial)
    report = find_critical_points(p, lo, hi, 33, Tolerances())
    assert any("branch jump" in n and n.startswith("dropped sign change") for n in report.notes)
    assert 0 < report.dihedral_count <= 6
    for pt in report.points:
        assert all(math.isfinite(x) for x in (pt.theta, pt.u, pt.torsion.real, pt.torsion.imag))


@pytest.mark.parametrize("p, q", [(9, 5), (11, 7), (13, 9)])
def test_critical_search_finds_every_dihedral_point(p, q):
    # b(11,7) lost its theta = pi point to "not a simple zero", and b(13,9)
    # one to a branch jump, while Delta_1 came from a cofactor expansion;
    # on the flat u = -3 branch of b(9,5) a bisection of the wide-step
    # derivative stopped at theta = 3.1415915, too far from pi to count
    knot = schubert_knot(p, q)
    lo, hi = auto_theta_range(riley_polynomial(knot.bridge_word))
    report = find_critical_points(knot, lo, hi, 33, Tolerances())
    assert report.dihedral_count == (p - 1) // 2
    assert not [n for n in report.notes if n.startswith("dropped")]


@pytest.mark.parametrize("q", [7, 13])
def test_critical_search_on_b15_drops_only_the_residual_sign_change(q):
    # the one point still missing is the sign change around pi, whose root
    # fails the relator check by a residual just above 1e-9
    knot = schubert_knot(15, q)
    lo, hi = auto_theta_range(riley_polynomial(knot.bridge_word))
    report = find_critical_points(knot, lo, hi, 33, Tolerances())
    assert report.dihedral_count == 6
    dropped = [n for n in report.notes if n.startswith("dropped")]
    assert len(dropped) == 1
    assert dropped[0].startswith(
        "dropped sign change in theta [2.978360, 3.304826]: relator residual"
    )


def test_critical_search_evaluation_budget(monkeypatch):
    # one torsion per theta +- fd_step per branch sample, and about ten
    # wide-step derivatives per sign change; a bisection that built a
    # torsion at each midpoint only for its root made 697
    calls = []
    torsion_polynomial = cli.torsion_polynomial

    def counted(*args, **kwargs):
        calls.append(None)
        return torsion_polynomial(*args, **kwargs)

    monkeypatch.setattr(cli, "torsion_polynomial", counted)
    p = catalog.knot("5_2")
    lo, hi = auto_theta_range(riley_polynomial(p.bridge_word))
    report = find_critical_points(p, lo, hi, 33, Tolerances())
    assert report.dihedral_count == 3
    assert len(calls) <= 250


def test_critical_search_notes_a_branch_whose_samples_all_failed(monkeypatch):
    # every torsion evaluation on the branch near u = -3.8 raises: the branch
    # is noted with its failure count and first reason, not as a flat branch
    value = cli._BranchTorsion.value

    def fail_low_branch(self, theta, u_guess):
        if u_guess < -3.3:
            raise RegularityError(f"not a simple zero at theta={theta:.6f}")
        return value(self, theta, u_guess)

    monkeypatch.setattr(cli._BranchTorsion, "value", fail_low_branch)
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
    # every sign change the fd_step samples found
    derivative = cli._BranchTorsion.derivative

    def one_signed_wide_step(self, theta, u_guess, h=None):
        g, mean = derivative(self, theta, u_guess, h)
        return (g if h is None else abs(g)), mean

    monkeypatch.setattr(cli._BranchTorsion, "derivative", one_signed_wide_step)
    report = find_critical_points(catalog.knot("5_2"), 2.7, 3.58, 17, Tolerances())
    dropped = [n for n in report.notes if n.startswith("dropped sign change in theta [")]
    assert len(dropped) == 3
    for note in dropped:
        assert ": the derivative with step 0.002 has one sign at both ends (" in note
    assert report.dihedral_count == 0


def test_bracketed_zero_converges_on_a_cubic():
    calls = []

    def cubic(x):
        calls.append(x)
        return x**3 - 2.0 * x - 5.0

    root = 2.0945514815423265
    x = cli._bracketed_zero(cubic, 2.0, cubic(2.0), 3.0, cubic(3.0), xtol=1e-11)
    assert abs(x - root) <= 1e-11
    # bisection needs 37 halvings of [2, 3] to get below 1e-11
    assert len(calls) - 2 <= 10


def test_bracketed_zero_returns_an_exact_zero_at_an_end():
    def f(x):
        raise AssertionError("no evaluation needed")

    assert cli._bracketed_zero(f, 1.0, 0.0, 2.0, 3.0, xtol=1e-11) == 1.0
    assert cli._bracketed_zero(f, 1.0, -3.0, 2.0, 0.0, xtol=1e-11) == 2.0
    with pytest.raises(ValueError):
        cli._bracketed_zero(f, 1.0, 2.0, 2.0, 3.0, xtol=1e-11)


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
    x = cli._bracketed_zero(noisy, a, noisy(a), b, noisy(b), xtol=1e-11)
    assert abs(x - 0.7) <= 1e-9 + 1e-11
    partners = [
        t for t, y in seen.items() if 0.0 < abs(t - x) < 1e-11 and (y < 0) != (seen[x] < 0)
    ]
    assert partners or seen[x] == 0.0


def test_simple_zero_remainder_on_the_edge_branch():
    # b(11,7) at theta = pi, on the branch nearest the window edge
    # u = 2cos(theta) - 2: the remainders of the division by (t - 1)^2 sit
    # well inside the simple-zero tolerance (1e-9 of the scale)
    p = schubert_knot(11, 7)
    sols = cli.su2_solutions(riley_polynomial(p.bridge_word), math.pi)
    u = min(sols.roots, key=lambda r: abs(r - (sols.sigma - 2.0)))
    tp = torsion_polynomial(cli.rep_at(p, math.pi, u, Tolerances()))
    assert max(tp.remainders) <= 1e-10 * tp.delta.max_abs


@pytest.mark.parametrize(
    "knot, window, thresholds",
    [
        (
            "5_2",
            (0.7487422385445941, 5.534443068634992),
            [-1.484435331765883, 1.500000000874974],
        ),
        (
            (15, 7),
            (0.5298659589940578, 5.753319348185529),
            [-1.8865648418894923, -1.2024578825383911, 0.03893294855904777, 1.7500000007812548],
        ),
    ],
)
def test_probe_grids_keep_windows_and_thresholds(knot, window, thresholds):
    # the values the per-point su2_solutions probes gave before the probe
    # grids were batched, to the last bit
    p = catalog.knot(knot) if isinstance(knot, str) else schubert_knot(*knot)
    phi = riley_polynomial(p.bridge_word)
    assert auto_theta_range(phi) == window
    assert su2_root_count_thresholds(phi) == thresholds


def test_presentation_objects_computed_once_per_word():
    p = catalog.knot("5_2")
    riley_polynomial.cache_clear()
    fox_derivative.cache_clear()
    # the sweep drops y and the critical search drops x, so both derivatives are used
    sweep_rows(p, SweepConfig("5_2", 2.6, 3.7, 9, drop=1))
    find_critical_points(p, 2.7, 3.58, 9, Tolerances())
    riley = riley_polynomial.cache_info()
    assert riley.misses == 1  # the bridge word
    assert riley.hits > 0
    fox = fox_derivative.cache_info()
    assert fox.misses == len(p.relators) * p.k  # one per (relator, generator)
    assert fox.hits > 0


def test_python_dash_m_runs_the_cli():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-m", "adtorsion", "--version"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("adtorsion ")
