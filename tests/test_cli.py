import json
import math

import pytest

from adtorsion.cli import (
    SweepConfig,
    auto_theta_range,
    find_critical_points,
    format_sweep_csv,
    main,
    sweep_rows,
)
from adtorsion import catalog
from adtorsion.reps import riley_polynomial
from adtorsion.torsion import Tolerances


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
