"""Cross-check suite: exact identities, the two torsion routes against each
other, invariance under Wada's column choice, conjugation and the sign twist,
the 5_2 closed form, the torus-knot constants, the mirror symmetry
T(theta) = T(2 pi - theta), the exact torsion function against both routes,
the 5_2 closed form, the dihedral trace and the trace over whole SL(2,C)
fibres, and rejection of a point off the variety."""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import catalog
from .foxcalc import fundamental_identity_holds
from .laurent import LaurentMatrix, LaurentPoly, unit_aligned_distance
from .locus import auto_theta_range, rep_at, theta_grid
from .presentation import Presentation, validate
from .reps import (
    RepresentationError,
    adjoint_of_matrix,
    build_rep,
    near_transition,
    riley_assignment,
    riley_polynomial,
    su2_root_count_thresholds,
    su2_solutions,
)
from .torsion import (
    Tolerances,
    compute_torsion,
    torsion_polynomial,
    torsion_via_formula,
    torsion_via_limit,
    twisted_alexander_invariant,
    untwisted_alexander,
)
from .words import Word


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
    return Word([(rng.randrange(num_gens), rng.choice((1, -1))) for _ in range(rng.randrange(max_len + 1))])


def closed_form_5_2(sigma: float, u: float) -> float:
    """Known closed-form torsion of the 5_2 knot on the SU(2) locus."""
    return -(5 * sigma + 3) * u * u + (5 * sigma * sigma - 7 * sigma + 1) * u + 1 - 10 * sigma


#: the torus-knot row's bound on the relative error; the worst over p <= 41
#: at theta = pi, 2 and 1.3 is 4.58e-12 (b(37,1) at pi) in the unitary frame
TORUS_TOL = 1e-11

#: the mirror row's bound on |T(theta) - T(2 pi - theta)| / |T(theta)|; the
#: worst over its knots is 3.9e-12 (b(23,13) at theta = 2.5)
MIRROR_TOL = 1e-10

#: the mirror row checks every b(p, q) with odd p up to this
MIRROR_P_MAX = 25

#: the dihedral trace row checks every b(p, q) with odd p up to this
TRACE_P_MAX = 21

#: the fibre row checks every b(p, q) with odd p up to this, at these sigma
FIBRE_P_MAX = 11
FIBRE_SIGMAS = (Fraction(5, 2), Fraction(1), Fraction(-1, 2))

#: the fibre row's bound on |sum of T - Tr T(sigma)| / sum of |T|; the worst
#: over its knots is 2.2e-11 (b(11,1) at sigma = 5/2)
FIBRE_TOL = 1e-10


def _torus_row(tol: Tolerances) -> CheckRow:
    """b(p, 1) = T(2, p), odd p <= 41, at theta = pi, 2 and 1.3, one stack
    each: every SU(2) torsion is one of p^2 / (4 sin^2(pi k / p)),
    k = 1 .. (p - 1)/2 (Dubois's torus-knot formula in this normalization),
    and the roots at pi take each constant once."""
    errors, each_once = [], True
    for p in range(3, 42, 2):
        knot = catalog.two_bridge_pq(p, 1)
        constants = sorted(p * p / (4 * math.sin(math.pi * k / p) ** 2) for k in range(1, (p + 1) // 2))
        for theta in (math.pi, 2.0, 1.3):
            roots = su2_solutions(riley_polynomial(knot.bridge_word), theta).roots
            results = compute_torsion(rep_at(knot, np.full(len(roots), theta), roots, tol), tol)
            nearest = [min(constants, key=lambda c: abs(r.value - c)) for r in results]
            where = f"b({p},1) at theta={theta:.4f}"
            errors += [(abs(r.value - c) / c, where) for r, c in zip(results, nearest)]
            each_once &= theta != math.pi or sorted(nearest) == constants
    worst, where = max(errors, key=lambda e: e[0] if e[0] == e[0] else math.inf)  # NaN is worst
    return CheckRow(f"torus knots b(p,1), p <= 41 ({len(errors)} points)", worst, TORUS_TOL,
                    worst <= TORUS_TOL and each_once, detail=f"worst on {where}")


def _mirror_row(presentations: dict[str, Presentation], tol: Tolerances) -> CheckRow:
    """T(theta) = T(2 pi - theta) on every branch, the symmetry the critical
    search folds its window by.  At theta = 1.3, 2 and 2.5 the SU(2) roots
    at theta and at 2 pi - theta are solved and evaluated on their own, one
    stack per side through rep_at and compute_torsion, and compared by rank;
    on the given knots and every b(p, q) with odd p <= MIRROR_P_MAX."""
    knots = dict(presentations)
    knots.update(
        (f"b({p},{q})", catalog.two_bridge_pq(p, q))
        for p in range(3, MIRROR_P_MAX + 1, 2)
        for q in range(1, p, 2)
        if math.gcd(p, q) == 1
    )
    thetas = (1.3, 2.0, 2.5)
    errors, counts_match = [], True
    for name, knot in knots.items():
        phi = riley_polynomial(knot.bridge_word)
        sides = []
        for side in (thetas, [2.0 * math.pi - theta for theta in thetas]):
            solutions = su2_solutions(phi, list(side))
            points = [(sols.theta, u) for sols in solutions for u in sols.roots]
            values = [r.value for r in compute_torsion(
                rep_at(knot, [t for t, _ in points], [u for _, u in points], tol), tol
            )] if points else []
            sides.append(([len(sols) for sols in solutions], points, values))
        (counts, points, values), (mirror_counts, _, mirror_values) = sides
        counts_match &= counts == mirror_counts
        errors += [(abs(a - b) / (abs(a) or 1.0), f"{name} at theta={theta:.4f}")
                   for (theta, _), a, b in zip(points, values, mirror_values)]
    worst, where = max(errors, key=lambda e: e[0] if e[0] == e[0] else math.inf)  # NaN is worst
    return CheckRow(f"mirror T(theta) = T(2pi - theta), {len(knots)} knots ({len(errors)} points)",
                    worst, MIRROR_TOL, worst <= MIRROR_TOL and counts_match, detail=f"worst on {where}")


def _exact_rows(presentations: dict[str, Presentation], tol: Tolerances) -> list[CheckRow]:
    """The exact torsion function against the numeric torsion.

    - At the SU(2) roots of 8 thetas per catalog knot, one stack each, T
      from the exact function against the formula and the limit route.
    - On 5_2, T is minus the closed form, coefficient by coefficient: both
      have degree at most 2 in sigma and in u, so they agree exactly on the
      integer grid {0, 1, 2}^2.
    - At theta = pi the SU(2) roots are the d binary dihedral points, so the
      exact trace of T at sigma = -2 (Newton's identities) must be the sum
      of the numeric torsions there, on the catalog knots and every b(p, q)
      with odd p <= TRACE_P_MAX; on b(p, 1) it is p^2 (p^2 - 1) / 24, the
      sum of the torus constants."""
    from .exact import torsion_function  # on first use, like the critical search

    errors = []
    for name, p in presentations.items():
        phi, function = riley_polynomial(p.bridge_word), torsion_function(p.bridge_word)
        lo, hi = auto_theta_range(phi)
        solutions = su2_solutions(phi, theta_grid(lo + 0.05, min(hi, math.pi), 8))
        points = [(sols.sigma, sols.theta, u) for sols in solutions for u in sols.roots]
        sigma, theta, u = (list(column) for column in zip(*points))
        exact = function(sigma, u).tolist()
        for tp, value in zip(torsion_polynomial(rep_at(p, theta, u, tol), tol=tol), exact):
            for route in (torsion_via_formula(tp), torsion_via_limit(tp)):
                errors.append(abs(value - route) / abs(route))
    rows = [CheckRow(f"exact T vs both routes ({len(errors) // 2} points)", max(errors), 1e-9,
                     max(errors) <= 1e-9)]

    if "5_2" in presentations:
        coeffs = torsion_function(presentations["5_2"].bridge_word).coeffs
        worst = max(
            abs(sum(c * sigma**i * u**j for j, row in enumerate(coeffs) for i, c in enumerate(row))
                + closed_form_5_2(sigma, u))
            for sigma in range(3) for u in range(3)
        )
        rows.append(CheckRow("5_2 exact T = -closed form", float(worst), 0.0, worst == 0))

    # each knot with the trace it must have exactly, where one is known
    knots = {name: (knot, None) for name, knot in presentations.items()}
    knots.update((f"b({p},{q})", (catalog.two_bridge_pq(p, q), p * p * (p * p - 1) // 24 if q == 1 else None))
                 for p in range(3, TRACE_P_MAX + 1, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1)
    errors, torus_ok = [], True
    for name, (knot, torus) in knots.items():
        trace = torsion_function(knot.bridge_word).trace(-2)
        roots = su2_solutions(riley_polynomial(knot.bridge_word), math.pi).roots
        values = [r.value for r in compute_torsion(rep_at(knot, [math.pi] * len(roots), roots, tol), tol)]
        errors.append((abs(sum(values) - trace) / sum(map(abs, values)), name))
        torus_ok &= torus is None or trace == torus
    worst, where = max(errors, key=lambda e: e[0] if e[0] == e[0] else math.inf)  # NaN is worst
    rows.append(CheckRow(f"dihedral trace of exact T, {len(knots)} knots", worst, 1e-10,
                         worst <= 1e-10 and torus_ok, detail=f"worst on {where}"))
    rows.append(_fibre_row(presentations, tol))
    return rows


def _fibre_row(presentations: dict[str, Presentation], tol: Tolerances) -> CheckRow:
    """T in Z[sigma][u] / (phi) off the SU(2) locus: at each sigma of
    FIBRE_SIGMAS the numeric torsion summed over all d complex roots u of
    phi(sigma, u), one Riley-frame stack per fibre, is the exact trace
    Tr T(sigma), on the given knots and every b(p, q) with odd p <=
    FIBRE_P_MAX.  The roots are checked by their relator residuals, not by
    build_rep's relative phi test: at sigma = 1 the trefoil and b(9,1) have
    the reducible root u = 0, where phi's terms all vanish and the test has
    no scale."""
    from .exact import torsion_function

    knots = dict(presentations)
    knots.update((f"b({p},{q})", catalog.two_bridge_pq(p, q))
                 for p in range(3, FIBRE_P_MAX + 1, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1)
    errors, residual, count = [], 0.0, 0
    for name, knot in knots.items():
        function = torsion_function(knot.bridge_word)
        for sigma in FIBRE_SIGMAS:
            phi = [float(sum(c * sigma**i for i, c in enumerate(row))) for row in function.phi_coeffs]
            roots = np.roots(phi[::-1])
            s = (float(sigma) + cmath.sqrt(float(sigma) ** 2 - 4.0)) / 2.0
            rep = build_rep(knot, np.full(len(roots), s), roots, tol=tol.relation, check=False)
            residual = max(residual, float(np.max(rep.relator_residuals)))
            values = [r.value for r in compute_torsion(rep, tol)]
            count += len(values)
            errors.append((abs(sum(values) - function.trace(sigma)) / sum(map(abs, values)),
                           f"{name} at sigma={sigma}"))
    worst, where = max(errors, key=lambda e: e[0] if e[0] == e[0] else math.inf)  # NaN is worst
    return CheckRow(f"SL(2,C) fibre trace of exact T, {len(knots)} knots ({count} points)", worst,
                    FIBRE_TOL, worst <= FIBRE_TOL and residual <= tol.relation,
                    detail=f"worst on {where}, relator residual {residual:.1e}")


def _sample_reps(p: Presentation, thetas: list[float], tol: Tolerances, exclude_band=None):
    phi = riley_polynomial(p.bridge_word)
    out = []
    for theta in thetas:
        sols = su2_solutions(phi, theta)
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
    ok = all(
        validate(p).ok
        and riley_polynomial(p.bridge_word).coefficient(0).equal_up_to_unit(untwisted_alexander(p))
        for p in presentations.values()
    )
    rows.append(CheckRow("catalog validate + Alexander oracle", 0.0 if ok else 1.0, 0.0, ok))

    # Fox fundamental identity, exact
    failures = sum(not fundamental_identity_holds(_random_reduced_word(rng, 25, 3)) for _ in range(200))
    rows.append(CheckRow("Fox fundamental identity (200 random)", float(failures), 0.0, failures == 0))

    # boundary-factor identity det Phi(x-1) = (t-1)(t^2 - sigma t + 1)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.05, 2 * math.pi - 0.05)
        s = cmath.exp(1j * theta)
        u = complex(rng.uniform(-4.0, 0.0), rng.uniform(-1.0, 1.0))
        x, _ = riley_assignment(s, u)
        ad = adjoint_of_matrix(x / cmath.exp(0.5j * theta))
        entries = [[LaurentPoly.from_dict({1: ad[i, j], 0: -1.0 if i == j else 0.0}) for j in range(3)]
                   for i in range(3)]
        (row,) = LaurentMatrix.from_entries(entries).determinant()
        det = LaurentPoly._raw(0, row[::-1].tolist())
        sigma = s + 1 / s
        expected = LaurentPoly(0, [-1.0, sigma + 1.0, -(sigma + 1.0), 1.0])
        exponents = range(min(det.lo, expected.lo), max(det.hi, expected.hi) + 1)
        worst = max([worst] + [abs(det.coefficient(e) - expected.coefficient(e)) for e in exponents])
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
        # the sample is built in the unitary frame (rep_at), the flipped
        # point in the Riley frame: two frames and both square roots
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

    rows.append(_torus_row(tol))
    rows.append(_mirror_row(presentations, tol))
    rows += _exact_rows(presentations, tol)

    # negative control: a point off the variety must be rejected
    p = presentations[knot_names[0]]
    phi = riley_polynomial(p.bridge_word)
    sols = su2_solutions(phi, math.pi)
    caught = False
    try:
        build_rep(p, cmath.exp(1j * math.pi), sols.roots[0] + 1e-3,
                  sqrt_s=cmath.exp(0.5j * math.pi), tol=tol.relation)
    except RepresentationError:
        caught = True
    rows.append(CheckRow("off-variety rejection (u + 1e-3)", 0.0 if caught else 1.0, 0.0, caught))

    exit_code = 0 if all(r.passed for r in rows) else 2
    return rows, exit_code
