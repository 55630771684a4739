"""Command-line front end: argument parsing and output for catalog lookups,
single-point torsion values, character-variety sweeps, critical-point
detection, and the verification suite.

Exit codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import __version__, catalog
from .locus import _two_bridge_phi, find_critical_points, rep_at, sweep_rows
from .presentation import Presentation, PresentationError, load_presentation_file
from .reps import Rep, RepresentationError, riley_polynomial, su2_solutions
from .torsion import (
    RegularityError,
    compute_torsion,
    dihedral_class_count,
    twisted_alexander_invariant,
)
from .verify import run_verification
from .words import WordError, parse_word


#: the sweep's CSV columns, and one row of them: "%.12g" writes nan for a
#: NaN of either sign, and inf and -0 as they are
_CSV_HEADER = "theta,sigma,u,torsion_re,torsion_im,tai_simple_zero,trace_mu"
_CSV_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g,%s,%.12g\n"


def format_sweep_csv(rows: list[dict]) -> str:
    return f"# adtorsion {__version__}\n{_CSV_HEADER}\n" + "".join([
        _CSV_ROW % (r["theta"], r["sigma"], r["u"], r["torsion_re"], r["torsion_im"],
                    "true" if r["tai_simple_zero"] else "false", r["trace_mu"])
        for r in rows
    ])


def _resolve_presentation(args) -> Presentation:
    if args.presentation:
        return load_presentation_file(args.presentation)
    if args.knot:
        return catalog.knot(args.knot)
    raise PresentationError("specify --knot or --presentation")


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rep_from_args(args, p: Presentation) -> Rep:
    phi = _two_bridge_phi(p, args.command)
    sols = su2_solutions(phi, args.theta)
    if not sols.roots:
        raise RepresentationError(f"no SU(2) solutions at theta={args.theta}")
    if not (0 <= args.root < len(sols.roots)):
        raise RepresentationError(
            f"root index {args.root} out of range: {len(sols.roots)} solutions at theta={args.theta}"
        )
    return rep_at(p, args.theta, sols.roots[args.root])


def cmd_riley_poly(args) -> int:
    if args.word is not None:
        phi = riley_polynomial(parse_word(args.word, ("x", "y")))
    else:
        phi = _two_bridge_phi(_resolve_presentation(args), "riley-poly")
    if args.format == "json":
        _emit(json.dumps(phi.to_json(), indent=2) + "\n", args)
        return 0
    if phi.is_zero or phi.u_degree == 0:
        _emit("1 (no nonabelian representations)\n", args)
        return 0
    sigma = phi.sigma_form_str()
    lines = [f"phi(s, u) = {phi.to_str()}"]
    if sigma is not None:
        lines.append(f"sigma form: {sigma}   (sigma = s + 1/s)")
    _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_tai(args) -> int:
    p = _resolve_presentation(args)
    tai = twisted_alexander_invariant(_rep_from_args(args, p))
    _emit(json.dumps(tai.to_json(), indent=2) + "\n", args)
    return 0


def cmd_torsion(args) -> int:
    p = _resolve_presentation(args)
    result = compute_torsion(_rep_from_args(args, p))
    if not result.diagnostics["lambda_regular_proxy"]:
        print("warning: regularity proxy failed; diagnostics follow", file=sys.stderr)
    _emit(json.dumps(result.to_json(), indent=2) + "\n", args)
    return 0


def cmd_sweep(args) -> int:
    rows = sweep_rows(_resolve_presentation(args), args.theta_lo, args.theta_hi, args.samples)
    if args.format == "json":
        payload = {
            "version": __version__,
            "config": {
                "source": args.knot or args.presentation,
                "theta_lo": args.theta_lo,
                "theta_hi": args.theta_hi,
                "samples": args.samples,
            },
            "rows": rows,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args)
    else:
        _emit(format_sweep_csv(rows), args)
    return 0


def cmd_critical(args) -> int:
    p = _resolve_presentation(args)
    report = find_critical_points(p, args.theta_lo, args.theta_hi, args.samples)
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2) + "\n", args)
        return 0
    lo, hi = report.window
    lines = [f"critical points in theta range [{lo:.6f}, {hi:.6f}]:"]
    for pt in report.points:
        lines.append(
            f"  theta*={pt.theta:.9f}  u*={pt.u:.9f}  torsion={pt.torsion.real:.9g}"
            f"  |dT/dtheta|={pt.derivative_estimate:.3e}  dihedral={'yes' if pt.is_dihedral else 'no'}"
        )
    lines.append(f"dihedral count: {report.dihedral_count}")
    expected = dihedral_class_count(p)
    lines.append(f"(|Delta(-1)| - 1)/2 = {expected}")
    for note in report.notes:
        lines.append(f"note: {note}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_verify(args) -> int:
    # commas inside b(p,q) do not separate names
    names = re.split(r",(?![^(]*\))", args.knots) if args.knots else list(catalog.knot_names())
    rows, exit_code = run_verification(names)
    width = max(len(r.name) for r in rows) + 2
    lines = [f"verification suite ({', '.join(names)})"]
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  [{r.detail}]" if r.detail else ""
        lines.append(
            f"  {r.name:<{width}} max_err={r.max_error: 3.3e}  tol={r.tolerance:.1e}  {status}{extra}"
        )
    lines.append("RESULT: " + ("PASS" if exit_code == 0 else "FAIL"))
    _emit("\n".join(lines) + "\n", args)
    return exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged and starts every call from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="adtorsion",
        description="Twisted Alexander invariants and adjoint Reidemeister torsion "
        "of knot exteriors from group presentations and SL(2,C)/SU(2) representations.",
    )
    parser.add_argument("--version", action="version", version=f"adtorsion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text, source=True, formats=True):
        """A subcommand with the flags for the knot's source (all but
        verify), the output format (all but tai, torsion and verify) and the
        output path."""
        sp = sub.add_parser(name, help=text)
        if source:
            sp.add_argument("--knot", help="catalog knot name (5_2, trefoil) or b(p,q)")
            sp.add_argument("--presentation", help="presentation file path")
        if formats:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="write output to this path instead of stdout")
        sp.set_defaults(func=func)
        return sp

    sp = command("riley-poly", cmd_riley_poly, "print the obstruction polynomial of a two-bridge word")
    sp.add_argument("--word", help="two-bridge word over generators x y")

    for name, func, text in (
        ("tai", cmd_tai, "print the twisted Alexander invariant (numerator/denominator)"),
        ("torsion", cmd_torsion, "torsion value and diagnostics at one SU(2) point"),
    ):
        sp = command(name, func, text, formats=False)
        sp.add_argument("--theta", type=float, required=True)
        sp.add_argument("--root", type=int, default=0, help="index into the sorted SU(2) roots")

    sp = command("sweep", cmd_sweep, "torsion along the SU(2) character variety")
    sp.add_argument("--theta-lo", type=float, required=True)
    sp.add_argument("--theta-hi", type=float, required=True)
    sp.add_argument("--samples", type=int, default=25)

    sp = command("critical", cmd_critical, "critical points of the torsion along branches")
    sp.add_argument("--theta-lo", type=float)
    sp.add_argument("--theta-hi", type=float)
    sp.add_argument("--samples", type=int, default=33)

    sp = command("verify", cmd_verify, "run the cross-check suite", source=False, formats=False)
    sp.add_argument("--knots", help="comma-separated knot names, catalog or b(p,q) (default: the "
                    "catalog)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (
        PresentationError,
        RepresentationError,
        WordError,
        RegularityError,
        KeyError,
        ValueError,
        OSError,
    ) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
