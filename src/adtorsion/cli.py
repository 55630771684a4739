"""Command-line front end: catalog lookups, single-point torsion values,
character-variety sweeps, critical-point detection, and a verification suite.

Exit codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import __version__, catalog
from .foxcalc import fundamental_identity_holds
from .laurent import LaurentMatrix, LaurentPoly, unit_aligned_distance
from .presentation import (
    Presentation,
    PresentationError,
    load_presentation_file,
    validate,
)
from .reps import (
    Rep,
    RepresentationError,
    RileyPoly,
    adjoint_of_matrix,
    build_rep,
    near_transition,
    riley_assignment,
    riley_polynomial,
    su2_root_count_thresholds,
    su2_root_counts,
    su2_solutions,
)
from .torsion import (
    RegularityError,
    Tolerances,
    compute_torsion,
    dihedral_class_count,
    torsion_polynomial,
    torsion_via_formula,
    torsion_via_limit,
    twisted_alexander_invariant,
    untwisted_alexander,
)
from .words import Word, WordError, parse_word


class BranchTrackingError(RuntimeError):
    """Root continuation lost the branch (typically across a root merge)."""


class BracketError(ArithmeticError):
    """The refinement derivative has one sign at both ends of a sign change."""


# what one branch evaluation can raise; a critical search drops the sample or
# the sign change and notes why, and keeps going
_BRANCH_ERRORS = (BranchTrackingError, RegularityError, RepresentationError)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class SweepConfig:
    source: str
    theta_lo: float
    theta_hi: float
    samples: int
    tolerances: Tolerances = field(default_factory=Tolerances)
    drop: int | None = None
    output_format: str = "csv"

    def problems(self) -> list[str]:
        out = []
        if not (0.0 < self.theta_lo < self.theta_hi < 2.0 * math.pi):
            out.append("need 0 < theta-lo < theta-hi < 2*pi")
        if self.samples < 2:
            out.append("samples must be >= 2")
        t = self.tolerances
        if min(t.relation, t.consistency, t.cleanup, t.multiplicity) <= 0.0:
            out.append("tolerances must be positive")
        if self.output_format not in ("csv", "json"):
            out.append(f"unknown output format {self.output_format!r}")
        return out


@dataclass(frozen=True)
class CriticalPoint:
    theta: float
    u: float
    torsion: complex
    derivative_estimate: float
    is_dihedral: bool


@dataclass
class CriticalReport:
    points: list[CriticalPoint]
    notes: list[str]
    thresholds: list[float]

    @property
    def dihedral_count(self) -> int:
        return sum(1 for pt in self.points if pt.is_dihedral)

    def to_json(self) -> dict:
        return {
            "points": [
                {
                    "theta": pt.theta,
                    "u": pt.u,
                    "torsion": [pt.torsion.real, pt.torsion.imag],
                    "derivative_estimate": pt.derivative_estimate,
                    "is_dihedral": pt.is_dihedral,
                }
                for pt in self.points
            ],
            "notes": self.notes,
            "sigma_thresholds": self.thresholds,
            "dihedral_count": self.dihedral_count,
        }


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------


def rep_at(p: Presentation, theta: float, u: float, tol: Tolerances) -> Rep:
    """SU(2)-conjugate representation at s = e^{i theta} with the continuous
    square-root branch e^{i theta / 2}."""
    s = cmath.exp(1j * theta)
    return build_rep(p, s, u, sqrt_s=cmath.exp(0.5j * theta), tol=tol.relation)


def _two_bridge_phi(p: Presentation, task: str) -> RileyPoly:
    """Riley polynomial of a two-bridge presentation; PresentationError
    naming ``task`` for any other presentation."""
    if p.bridge_word is None:
        raise PresentationError(f"{task} needs a two-bridge presentation")
    return riley_polynomial(p.bridge_word)


def theta_grid(lo: float, hi: float, samples: int) -> list[float]:
    if samples == 1:
        return [lo]
    return [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]


def sweep_rows(p: Presentation, config: SweepConfig) -> list[dict]:
    phi = _two_bridge_phi(p, "sweep")
    tol = config.tolerances
    rows: list[dict] = []
    for theta in theta_grid(config.theta_lo, config.theta_hi, config.samples):
        sols = su2_solutions(
            phi, theta, tol.relation, multiplicity_threshold=tol.multiplicity
        )
        for u in sols.roots:
            rep = rep_at(p, theta, u, tol)
            result = compute_torsion(rep, tol, drop=config.drop)
            rows.append(
                {
                    "theta": theta,
                    "sigma": sols.sigma,
                    "u": u,
                    "torsion_re": result.value.real,
                    "torsion_im": result.value.imag,
                    "tai_simple_zero": bool(result.diagnostics["simple_zero"]),
                    "trace_mu": rep.trace_meridian.real,
                }
            )
    return rows


_CSV_COLUMNS = ("theta", "sigma", "u", "torsion_re", "torsion_im", "tai_simple_zero", "trace_mu")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.12g}"
    return str(value)


def format_sweep_csv(rows: list[dict]) -> str:
    lines = [f"# adtorsion {__version__}", ",".join(_CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _follow_branch(
    roots: tuple[float, ...], theta: float, u_guess: float, max_jump: float = 0.3
) -> float:
    """The root at this theta nearest to u_guess, continuing its branch."""
    if not roots:
        raise BranchTrackingError(f"no roots at theta={theta:.6f}")
    u = min(roots, key=lambda r: abs(r - u_guess))
    if abs(u - u_guess) > max_jump:
        raise BranchTrackingError(
            f"branch jump {abs(u - u_guess):.3f} at theta={theta:.6f}"
        )
    return u


class _BranchTorsion:
    """Torsion along the root branches of one presentation.

    A critical search evaluates all its branches at the same theta +- h, so
    the SU(2) roots at each theta are computed once and shared by every
    branch of the search.
    """

    def __init__(self, p: Presentation, phi: RileyPoly, tol: Tolerances):
        self.p, self.phi, self.tol = p, phi, tol
        self._roots: dict[float, tuple[float, ...]] = {}

    def roots(self, theta: float) -> tuple[float, ...]:
        roots = self._roots.get(theta)
        if roots is None:
            roots = self._roots[theta] = su2_solutions(
                self.phi, theta, self.tol.relation, multiplicity_threshold=self.tol.multiplicity
            ).roots
        return roots

    def value(self, theta: float, u_guess: float) -> tuple[float, float]:
        """Torsion value and continued root nearest to u_guess at this theta."""
        u = _follow_branch(self.roots(theta), theta, u_guess)
        tp = torsion_polynomial(rep_at(self.p, theta, u, self.tol), tol=self.tol)
        return torsion_via_limit(tp).real, u

    def derivative(
        self, theta: float, u_guess: float, h: float | None = None
    ) -> tuple[float, float]:
        """Central difference with step h (default fd_step) and the mean of
        the two torsion values it used."""
        if h is None:
            h = self.tol.fd_step
        plus, _ = self.value(theta + h, u_guess)
        minus, _ = self.value(theta - h, u_guess)
        return (plus - minus) / (2.0 * h), 0.5 * (plus + minus)


def find_critical_points(
    p: Presentation,
    theta_lo: float,
    theta_hi: float,
    samples: int,
    tol: Tolerances = Tolerances(),
) -> CriticalReport:
    """Locate zeros of d(torsion)/d(theta) per root branch.

    Central finite differences on a theta grid; each sign change is refined
    by Brent's method on a wide-step difference (``_refine_derivative_zero``)
    and each zero is annotated with the binary-dihedral test
    |Tr rho(mu)| = |2 cos(theta/2)| <= 1e-6.
    """
    phi = _two_bridge_phi(p, "critical")
    notes: list[str] = []
    grid = theta_grid(theta_lo, theta_hi, samples)
    # roots move at |du/dtheta| = O(1) along a branch, so the pairing radius
    # must scale with the grid spacing
    spacing = (theta_hi - theta_lo) / max(1, samples - 1)
    max_jump = max(0.35, 3.0 * spacing)

    # branch tracking: nearest-u continuation, birth/death noted
    branches: list[list[tuple[float, float]]] = []
    active: list[int] = []
    prev_count = None
    for theta in grid:
        sols = su2_solutions(phi, theta, tol.relation, multiplicity_threshold=tol.multiplicity)
        roots = list(sols.roots)
        if sols.any_near_multiple:
            notes.append(f"near-multiple roots at theta={theta:.6f}; branch pairing ambiguous")
        if prev_count is not None and len(roots) != prev_count:
            notes.append(f"root count changed {prev_count} -> {len(roots)} at theta={theta:.6f}")
        prev_count = len(roots)

        new_active: list[int] = []
        used = set()
        for u in roots:
            best = None
            for idx in active:
                if idx in used:
                    continue
                last_u = branches[idx][-1][1]
                if best is None or abs(u - last_u) < abs(u - branches[best][-1][1]):
                    best = idx
            if best is not None and abs(u - branches[best][-1][1]) <= max_jump:
                used.add(best)
                branches[best].append((theta, u))
                new_active.append(best)
            else:
                branches.append([(theta, u)])
                new_active.append(len(branches) - 1)
        active = new_active

    torsion = _BranchTorsion(p, phi, tol)
    points: list[CriticalPoint] = []
    for branch in branches:
        if len(branch) < 3:
            continue
        theta_lo_b, theta_hi_b = branch[0][0], branch[-1][0]
        derivs: list[float | None] = []
        values: list[float] = []
        failures: list[Exception] = []
        for theta, u in branch:
            try:
                g, v = torsion.derivative(theta, u)
            except _BRANCH_ERRORS as exc:
                derivs.append(None)
                failures.append(exc)
                continue
            derivs.append(g)
            values.append(v)
        span = f"[{theta_lo_b:.4f}, {theta_hi_b:.4f}]"
        if failures:
            notes.append(
                f"{len(failures)} of {len(branch)} derivative samples failed on the "
                f"branch over {span}, the first with: {failures[0]}"
            )
        if not values:
            continue

        # derivative values below the evaluation-noise floor carry no sign
        # information; a branch that is flat everywhere has constant torsion,
        # so every point is critical and the dihedral one is reported
        floor = 1e-11 * max([1.0] + [abs(v) for v in values]) / tol.fd_step
        usable = [
            i for i, g in enumerate(derivs) if g is not None and abs(g) > floor
        ]
        if not usable:
            notes.append(f"branch torsion is constant at the numerical noise floor over {span}")
            if theta_lo_b <= math.pi <= theta_hi_b:
                u_guess = min(branch, key=lambda tu: abs(tu[0] - math.pi))[1]
                try:
                    points.append(_critical_point(torsion, math.pi, u_guess))
                except _BRANCH_ERRORS as exc:
                    notes.append(f"dropped the flat-branch point over {span}: {exc}")
            continue
        for i1, i2 in zip(usable, usable[1:]):
            ga, gb = derivs[i1], derivs[i2]
            if ga * gb < 0.0:
                theta_a, theta_b = branch[i1][0], branch[i2][0]
                try:
                    theta_star, u_star = _refine_derivative_zero(
                        torsion, branch[i1], branch[i2]
                    )
                    pt = _critical_point(torsion, theta_star, u_star)
                except (*_BRANCH_ERRORS, BracketError) as exc:
                    notes.append(
                        f"dropped sign change in theta [{theta_a:.6f}, {theta_b:.6f}]: {exc}"
                    )
                    continue
                # report invariant: the derivative estimate at a reported
                # point must sit below the critical threshold
                if pt.derivative_estimate <= 1e-3 * max(1.0, abs(pt.torsion)):
                    points.append(pt)
                else:
                    notes.append(
                        f"discarded sign change near theta={theta_star:.6f}: "
                        f"derivative estimate {pt.derivative_estimate:.2e} too large"
                    )

    thresholds = su2_root_count_thresholds(phi)
    return CriticalReport(points=points, notes=notes, thresholds=thresholds)


def _refine_derivative_zero(
    torsion: _BranchTorsion, end_a: tuple[float, float], end_b: tuple[float, float]
) -> tuple[float, float]:
    """(theta, u) of the derivative zero between two branch samples (theta, u)
    whose derivatives differ in sign.

    A wider step is used for the refinement: the central difference of a
    smooth function has a zero crossing at the critical point to first order
    for ANY step, while the evaluation-noise floor of its sign scales like
    1/step.  The reported derivative estimate still uses tol.fd_step.  Each
    trial theta continues the root from the nearest theta already evaluated.
    """
    h = max(torsion.tol.fd_step, 2e-3)
    branch = dict((end_a, end_b))

    def slope(theta: float) -> float:
        if theta not in branch:
            nearest = min(branch, key=lambda t: abs(t - theta))
            branch[theta] = _follow_branch(torsion.roots(theta), theta, branch[nearest])
        return torsion.derivative(theta, branch[theta], h)[0]

    (theta_a, _), (theta_b, _) = end_a, end_b
    ga, gb = slope(theta_a), slope(theta_b)
    if ga * gb > 0.0:
        raise BracketError(
            f"the derivative with step {h:g} has one sign at both ends "
            f"({ga:.3e}, {gb:.3e})"
        )
    theta_star = _bracketed_zero(slope, theta_a, ga, theta_b, gb, xtol=1e-11)
    return theta_star, branch[theta_star]


def _bracketed_zero(
    f: Callable[[float], float], a: float, fa: float, b: float, fb: float, xtol: float
) -> float:
    """Zero of f between a and b, where fa = f(a) and fb = f(b) do not share
    a sign, by Brent's method (Brent 1973, *Algorithms for Minimization
    without Derivatives*, ch. 4).

    Every step stays inside the current sign bracket: an inverse quadratic
    or secant step when it shrinks the bracket fast enough, else bisection.
    Returns the bracket end with the smaller |f| once f is exactly 0 there
    or the bracket is narrower than xtol.
    """
    if fa * fb > 0.0:
        raise ValueError(f"f has one sign at both ends ({fa:.3e}, {fb:.3e})")
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            # keep c on the other side of the zero from b
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if fb == 0.0 or abs(c - b) < xtol:
            return b
        m = 0.5 * (c - b)
        tol1 = 2.0 * sys.float_info.epsilon * abs(b) + 0.25 * xtol
        bisect = abs(e) < tol1 or abs(fa) <= abs(fb)
        if not bisect:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * m * q - abs(tol1 * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                bisect = True
        if bisect:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)


def _critical_point(torsion: _BranchTorsion, theta_star: float, u_guess: float) -> CriticalPoint:
    value, u = torsion.value(theta_star, u_guess)
    deriv = abs(torsion.derivative(theta_star, u)[0])
    trace_mu = abs(2.0 * math.cos(theta_star / 2.0))
    return CriticalPoint(
        theta=theta_star,
        u=u,
        torsion=complex(value),
        derivative_estimate=deriv,
        is_dihedral=trace_mu <= 1e-6,
    )


def auto_theta_range(phi: RileyPoly, margin: float = 0.02) -> tuple[float, float]:
    """Widest theta window on which SU(2) roots exist, probed on a grid."""
    n = 600
    thetas = [0.02 + (2 * math.pi - 0.04) * i / (n - 1) for i in range(n)]
    found = [t for t, count in zip(thetas, su2_root_counts(phi, thetas)) if count]
    if not found or found[-1] - found[0] < 4 * margin:
        raise RepresentationError("no SU(2) representations found on the probe grid")
    return found[0] + margin, found[-1] - margin


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    name: str
    max_error: float
    tolerance: float
    passed: bool
    detail: str = ""


def _random_su2(rng: random.Random) -> np.ndarray:
    a, b, c, d = (rng.gauss(0.0, 1.0) for _ in range(4))
    norm = math.sqrt(a * a + b * b + c * c + d * d)
    a, b, c, d = a / norm, b / norm, c / norm, d / norm
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]], dtype=complex)


def _random_reduced_word(rng: random.Random, max_len: int, num_gens: int) -> Word:
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        letters.append((rng.randrange(num_gens), rng.choice((1, -1))))
    return Word(letters)


def closed_form_5_2(sigma: float, u: float) -> float:
    """Known closed-form torsion of the 5_2 knot on the SU(2) locus."""
    return -(5 * sigma + 3) * u * u + (5 * sigma * sigma - 7 * sigma + 1) * u + 1 - 10 * sigma


def _sample_reps(p: Presentation, thetas: list[float], tol: Tolerances, exclude_band=None):
    phi = riley_polynomial(p.bridge_word)
    out = []
    for theta in thetas:
        sols = su2_solutions(phi, theta, tol.relation)
        if exclude_band is not None and near_transition(sols.sigma, exclude_band, 1e-3):
            continue
        for u in sols.roots:
            out.append((theta, sols.sigma, u, rep_at(p, theta, u, tol)))
    return out


def run_verification(knot_names: list[str], tol: Tolerances) -> tuple[list[CheckRow], int]:
    rng = random.Random(20260808)
    rows: list[CheckRow] = []

    presentations = {name: catalog.knot(name) for name in knot_names}

    # catalog integrity: validate + classical Alexander against phi(s, 0)
    worst = 0.0
    ok = True
    for name, p in presentations.items():
        report = validate(p)
        phi = riley_polynomial(p.bridge_word)
        alex = untwisted_alexander(p)
        match = phi.coefficient(0).equal_up_to_unit(alex)
        if not (report.ok and match):
            ok = False
            worst = 1.0
    rows.append(CheckRow("catalog validate + Alexander oracle", worst, 0.0, ok))

    # Fox fundamental identity, exact
    failures = 0
    for _ in range(200):
        w = _random_reduced_word(rng, 25, 3)
        if not fundamental_identity_holds(w):
            failures += 1
    rows.append(CheckRow("Fox fundamental identity (200 random)", float(failures), 0.0, failures == 0))

    # boundary-factor identity det Phi(x-1) = (t-1)(t^2 - sigma t + 1)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.05, 2 * math.pi - 0.05)
        s = cmath.exp(1j * theta)
        u = complex(rng.uniform(-4.0, 0.0), rng.uniform(-1.0, 1.0))
        x, _ = riley_assignment(s, u)
        ad = adjoint_of_matrix(x / cmath.exp(0.5j * theta))
        entries = [
            [
                LaurentPoly.from_dict({1: ad[i, j], 0: -1.0 if i == j else 0.0})
                for j in range(3)
            ]
            for i in range(3)
        ]
        det = LaurentMatrix.from_entries(entries).determinant()
        sigma = s + 1 / s
        expected = LaurentPoly(0, [-1.0, sigma + 1.0, -(sigma + 1.0), 1.0])
        lo = min(det.lo, expected.lo)
        hi = max(det.hi, expected.hi)
        diff = max(abs(det.coefficient(e) - expected.coefficient(e)) for e in range(lo, hi + 1))
        worst = max(worst, diff)
    rows.append(CheckRow("boundary factor identity (100 random)", worst, 1e-12, worst <= 1e-12))

    # limit/derivative consistency, Wada invariance, conjugation, sign twist
    consistency_worst = 0.0
    wada_worst = 0.0
    conj_worst = 0.0
    twist_worst = 0.0
    thresholds_of: dict[str, list[float]] = {}
    for name, p in presentations.items():
        phi = riley_polynomial(p.bridge_word)
        thresholds = thresholds_of[name] = su2_root_count_thresholds(phi)
        lo, hi = auto_theta_range(phi)
        thetas = theta_grid(lo + 0.05, min(hi, math.pi), 8)
        samples = _sample_reps(p, thetas, tol, exclude_band=thresholds)
        for theta, sigma, u, rep in samples:
            tp = torsion_polynomial(rep, tol=tol)
            tf = torsion_via_formula(tp)
            tl = torsion_via_limit(tp)
            consistency_worst = max(
                consistency_worst, abs(tf - tl) / max(1.0, abs(tl))
            )
        # Wada: cross-multiplied numerators/denominators agree up to +-t^m
        theta, sigma, u, rep = samples[len(samples) // 2]
        tai0 = twisted_alexander_invariant(rep, drop=0)
        tai1 = twisted_alexander_invariant(rep, drop=1)
        wada_worst = max(
            wada_worst,
            unit_aligned_distance(
                tai0.numerator * tai1.denominator, tai1.numerator * tai0.denominator
            ),
        )
        base = torsion_via_limit(torsion_polynomial(rep, tol=tol))
        for _ in range(3):
            conj = rep.conjugated(_random_su2(rng))
            tc = torsion_via_limit(torsion_polynomial(conj, tol=tol))
            conj_worst = max(conj_worst, abs(tc - base) / max(1.0, abs(base)))
        flipped = build_rep(p, rep.s, rep.u, sqrt_s=-rep.sqrt_s, tol=tol.relation)
        tflip = torsion_via_limit(torsion_polynomial(flipped, tol=tol))
        twist_worst = max(twist_worst, abs(tflip - base))
    rows.append(
        CheckRow("torsion: limit vs derivative formula", consistency_worst, tol.consistency,
                 consistency_worst <= tol.consistency)
    )
    rows.append(CheckRow("Wada column invariance", wada_worst, 1e-8, wada_worst <= 1e-8))
    rows.append(CheckRow("conjugation invariance", conj_worst, 1e-8, conj_worst <= 1e-8))
    rows.append(CheckRow("sign twist (-sqrt s) invariance", twist_worst, 1e-12, twist_worst <= 1e-12))

    # 5_2 closed form up to one global sign
    if "5_2" in presentations:
        p = presentations["5_2"]
        thetas = theta_grid(0.76, math.pi, 40)
        samples = _sample_reps(p, thetas, tol, exclude_band=thresholds_of["5_2"])
        signs = set()
        worst = 0.0
        for theta, sigma, u, rep in samples:
            value = torsion_via_formula(torsion_polynomial(rep, tol=tol)).real
            target = closed_form_5_2(sigma, u)
            signs.add(1 if value * target > 0 else -1)
            worst = max(worst, abs(abs(value) - abs(target)) / max(1.0, abs(target)))
        sign_ok = len(signs) == 1
        rows.append(
            CheckRow(
                f"5_2 closed form ({len(samples)} samples)",
                worst,
                tol.consistency,
                worst <= tol.consistency and sign_ok,
                detail=f"global sign {'+1' if signs == {1} else '-1' if signs == {-1} else 'inconsistent'}",
            )
        )

    # negative control: a point off the variety must be rejected
    p = presentations[knot_names[0]]
    phi = riley_polynomial(p.bridge_word)
    sols = su2_solutions(phi, math.pi, tol.relation)
    caught = False
    try:
        build_rep(p, cmath.exp(1j * math.pi), sols.roots[0] + 1e-3,
                  sqrt_s=cmath.exp(0.5j * math.pi), tol=tol.relation)
    except RepresentationError:
        caught = True
    rows.append(CheckRow("off-variety rejection (u + 1e-3)", 0.0 if caught else 1.0, 0.0, caught))

    exit_code = 0 if all(r.passed for r in rows) else 2
    return rows, exit_code


# ---------------------------------------------------------------------------
# argument parsing and commands
# ---------------------------------------------------------------------------


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
    sols = su2_solutions(phi, args.theta, tol.relation, multiplicity_threshold=tol.multiplicity)
    if not sols.roots:
        raise RepresentationError(f"no SU(2) solutions at theta={args.theta}")
    if not (0 <= args.root < len(sols.roots)):
        raise RepresentationError(
            f"root index {args.root} out of range: {len(sols.roots)} solutions at theta={args.theta}"
        )
    return rep_at(p, args.theta, sols.roots[args.root], tol)


def cmd_riley_poly(args) -> int:
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


def cmd_tai(args) -> int:
    p = _resolve_presentation(args)
    tol = _tolerances_from(args)
    rep = _rep_from_args(args, p, tol)
    tai = twisted_alexander_invariant(rep, drop=_drop_index(args, p), cleanup=tol.cleanup)
    _emit(json.dumps(tai.to_json(), indent=2) + "\n", args)
    return 0


def cmd_torsion(args) -> int:
    p = _resolve_presentation(args)
    tol = _tolerances_from(args)
    rep = _rep_from_args(args, p, tol)
    result = compute_torsion(rep, tol, drop=_drop_index(args, p))
    if not result.diagnostics["lambda_regular_proxy"]:
        print(
            "warning: regularity proxy failed; diagnostics follow",
            file=sys.stderr,
        )
    _emit(json.dumps(result.to_json(), indent=2) + "\n", args)
    return 0


def cmd_sweep(args) -> int:
    p = _resolve_presentation(args)
    tol = _tolerances_from(args)
    config = SweepConfig(
        source=args.knot or args.presentation,
        theta_lo=args.theta_lo,
        theta_hi=args.theta_hi,
        samples=args.samples,
        tolerances=tol,
        drop=_drop_index(args, p),
        output_format=args.format,
    )
    problems = config.problems()
    if problems:
        raise PresentationError("; ".join(problems))
    rows = sweep_rows(p, config)
    if config.output_format == "json":
        payload = {
            "version": __version__,
            "config": {
                "source": config.source,
                "theta_lo": config.theta_lo,
                "theta_hi": config.theta_hi,
                "samples": config.samples,
            },
            "rows": rows,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args)
    else:
        _emit(format_sweep_csv(rows), args)
    return 0


def cmd_critical(args) -> int:
    p = _resolve_presentation(args)
    tol = _tolerances_from(args)
    phi = _two_bridge_phi(p, "critical")
    if args.theta_lo is None or args.theta_hi is None:
        lo, hi = auto_theta_range(phi)
    else:
        lo, hi = args.theta_lo, args.theta_hi
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


def cmd_verify(args) -> int:
    tol = _tolerances_from(args)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adtorsion",
        description="Twisted Alexander invariants and adjoint Reidemeister torsion "
        "of knot exteriors from group presentations and SL(2,C)/SU(2) representations.",
    )
    parser.add_argument("--version", action="version", version=f"adtorsion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, theta_root=False):
        sp.add_argument("--knot", help="catalog knot name (e.g. 5_2, trefoil)")
        sp.add_argument("--presentation", help="presentation file path")
        sp.add_argument("--drop", help="generator name to drop from the block matrix")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="write output to this path instead of stdout")
        sp.add_argument("--tol-relation", type=float, default=1e-9)
        sp.add_argument("--tol-consistency", type=float, default=1e-6)
        sp.add_argument("--tol-cleanup", type=float, default=1e-12)
        sp.add_argument("--tol-multiplicity", type=float, default=1e-5)
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
        return args.func(args)
    except (
        PresentationError,
        RepresentationError,
        BranchTrackingError,
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
