"""Command-line front end: argument parsing and output for catalog lookups,
single-point torsion values, character-variety sweeps, critical-point
detection, and the verification suite.

Exit codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import string
import sys

from . import __version__, catalog
from .locus import _two_bridge_phi, auto_theta_range, find_critical_points, rep_at, sweep_rows
from .presentation import Presentation, PresentationError, load_presentation_file
from .reps import Rep, RepresentationError, riley_polynomial, su2_solutions
from .torsion import (
    RegularityError,
    Tolerances,
    compute_torsion,
    dihedral_class_count,
    twisted_alexander_invariant,
)
from .verify import run_verification
from .words import WordError, parse_word


#: one sweep row of CSV; the header lists the template's fields in order.
#: ".12g" writes nan for a NaN of either sign, and inf and -0 as they are
_CSV_ROW = (
    "{theta:.12g},{sigma:.12g},{u:.12g},{torsion_re:.12g},{torsion_im:.12g},"
    "{tai_simple_zero},{trace_mu:.12g}"
)
_CSV_HEADER = ",".join(field for _, field, _, _ in string.Formatter().parse(_CSV_ROW))


def format_sweep_csv(rows: list[dict]) -> str:
    lines = [f"# adtorsion {__version__}", _CSV_HEADER]
    for r in rows:
        tai = "true" if r["tai_simple_zero"] else "false"
        lines.append(_CSV_ROW.format_map({**r, "tai_simple_zero": tai}))
    return "\n".join(lines) + "\n"


def _tolerances_from(args) -> Tolerances:
    return Tolerances(
        relation=args.tol_relation,
        consistency=args.tol_consistency,
        cleanup=args.tol_cleanup,
        multiplicity=args.tol_multiplicity,
    )


def _resolve_presentation(args) -> Presentation:
    if getattr(args, "presentation", None):
        return load_presentation_file(args.presentation)
    if getattr(args, "knot", None):
        return catalog.knot(args.knot)
    raise PresentationError("specify --knot or --presentation")


def _drop_index(args, p: Presentation) -> int | None:
    if getattr(args, "drop", None) is None:
        return None
    try:
        return list(p.generators).index(args.drop)
    except ValueError:
        raise PresentationError(f"unknown generator {args.drop!r} for --drop") from None


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rep_from_args(args, p: Presentation, tol: Tolerances) -> Rep:
    phi = _two_bridge_phi(p, args.command)
    sols = su2_solutions(phi, args.theta, multiplicity_threshold=tol.multiplicity)
    if not sols.roots:
        raise RepresentationError(f"no SU(2) solutions at theta={args.theta}")
    if not (0 <= args.root < len(sols.roots)):
        raise RepresentationError(
            f"root index {args.root} out of range: {len(sols.roots)} solutions at theta={args.theta}"
        )
    return rep_at(p, args.theta, sols.roots[args.root], tol)


def cmd_riley_poly(args, tol: Tolerances) -> int:
    if getattr(args, "word", None) is not None:
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


def cmd_tai(args, tol: Tolerances) -> int:
    p = _resolve_presentation(args)
    rep = _rep_from_args(args, p, tol)
    tai = twisted_alexander_invariant(rep, drop=_drop_index(args, p), cleanup=tol.cleanup)
    _emit(json.dumps(tai.to_json(), indent=2) + "\n", args)
    return 0


def cmd_torsion(args, tol: Tolerances) -> int:
    p = _resolve_presentation(args)
    rep = _rep_from_args(args, p, tol)
    result = compute_torsion(rep, tol, drop=_drop_index(args, p))
    if not result.diagnostics["lambda_regular_proxy"]:
        print("warning: regularity proxy failed; diagnostics follow", file=sys.stderr)
    _emit(json.dumps(result.to_json(), indent=2) + "\n", args)
    return 0


def cmd_sweep(args, tol: Tolerances) -> int:
    rows = sweep_rows(_resolve_presentation(args), args.theta_lo, args.theta_hi, args.samples, tol)
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


def cmd_critical(args, tol: Tolerances) -> int:
    p = _resolve_presentation(args)
    phi = _two_bridge_phi(p, "critical")
    if args.theta_lo is None and args.theta_hi is None:
        lo, hi = auto_theta_range(phi)
    else:
        # a missing end fails the window check like a bad one
        lo, hi = (math.nan if t is None else t for t in (args.theta_lo, args.theta_hi))
    report = find_critical_points(p, lo, hi, args.samples, tol)
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2) + "\n", args)
        return 0
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


def cmd_verify(args, tol: Tolerances) -> int:
    names = args.knots.split(",") if args.knots else list(catalog.knot_names())
    rows, exit_code = run_verification(names, tol)
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
    defaults = Tolerances()

    def common(sp, theta_root=False):
        sp.add_argument("--knot", help="catalog knot name (5_2, trefoil) or b(p,q)")
        sp.add_argument("--presentation", help="presentation file path")
        sp.add_argument("--drop", help="generator name to drop from the block matrix; read by "
                        "tai and torsion only (the torsion does not depend on it)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="write output to this path instead of stdout")
        sp.add_argument("--tol-relation", type=float, default=defaults.relation)
        sp.add_argument("--tol-consistency", type=float, default=defaults.consistency)
        sp.add_argument("--tol-cleanup", type=float, default=defaults.cleanup)
        sp.add_argument("--tol-multiplicity", type=float, default=defaults.multiplicity)
        if theta_root:
            sp.add_argument("--theta", type=float, required=True)
            sp.add_argument("--root", type=int, default=0, help="index into the sorted SU(2) roots")

    sp = sub.add_parser("riley-poly", help="print the obstruction polynomial of a two-bridge word")
    common(sp)
    sp.add_argument("--word", help="two-bridge word over generators x y")
    sp.set_defaults(func=cmd_riley_poly)

    sp = sub.add_parser("tai", help="print the twisted Alexander invariant (numerator/denominator)")
    common(sp, theta_root=True)
    sp.set_defaults(func=cmd_tai)

    sp = sub.add_parser("torsion", help="torsion value and diagnostics at one SU(2) point")
    common(sp, theta_root=True)
    sp.set_defaults(func=cmd_torsion)

    sp = sub.add_parser("sweep", help="torsion along the SU(2) character variety")
    common(sp)
    sp.add_argument("--theta-lo", type=float, required=True)
    sp.add_argument("--theta-hi", type=float, required=True)
    sp.add_argument("--samples", type=int, default=25)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("critical", help="critical points of the torsion along branches")
    common(sp)
    sp.add_argument("--theta-lo", type=float)
    sp.add_argument("--theta-hi", type=float)
    sp.add_argument("--samples", type=int, default=33)
    sp.set_defaults(func=cmd_critical)

    sp = sub.add_parser("verify", help="run the cross-check suite")
    common(sp)
    sp.add_argument("--knots", help="comma-separated catalog names (default: all)")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args, _tolerances_from(args))
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
