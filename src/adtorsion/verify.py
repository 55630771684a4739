"""Cross-check suite: exact identities, the two torsion routes against each
other, invariance under Wada's column choice, conjugation and the sign twist,
the 5_2 closed form, the torus-knot constants, the mirror symmetry
T(theta) = T(2 pi - theta), the exact torsion function against both routes,
its coefficients on 5_2, the dihedral trace and the trace over whole SL(2,C)
fibres, and rejection of a point off the variety."""

from __future__ import annotations

import cmath
import functools
import math
import random
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import catalog
from .foxcalc import fundamental_identity_holds
from .laurent import LaurentMatrix, LaurentPoly, unit_aligned_distance
from .locus import auto_theta_range, rep_at, theta_grid
from .modular import newton, rows_at
from .presentation import Presentation, validate
from .reps import (RELATION_TOL, RepresentationError, adjoint_of_matrix, build_rep, riley_assignment,
                   riley_polynomial, su2_solutions)
from .torsion import (CONSISTENCY_TOL, RegularityError, compute_torsion, torsion_polynomial,
                      torsion_via_formula, torsion_via_limit, twisted_alexander_invariant,
                      untwisted_alexander)
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
#: at theta = pi, 2 and 1.3 is 5.12e-12 (b(39,1) at pi)
TORUS_TOL = 1e-11

#: the mirror row's bound on |T(theta) - T(2 pi - theta)| / |T(theta)|; the
#: worst over its knots is 6.26e-12 (b(23,13) at theta = 2.5)
MIRROR_TOL = 1e-10

#: the mirror row checks every b(p, q) with odd p up to this
MIRROR_P_MAX = 25

#: the dihedral trace row checks every b(p, q) with odd p up to this
TRACE_P_MAX = 21

#: the fibre row checks every b(p, q) with odd p up to this, at these sigma
FIBRE_P_MAX = 11
FIBRE_SIGMAS = (Fraction(5, 2), Fraction(1), Fraction(-1, 2))

#: the fibre row's bound on |sum of T - Tr T(sigma)| / sum of |T|; with the
#: roots polished, the worst over its knots is 1.6e-12 (b(11,7) at sigma =
#: 5/2; 2.2e-11 on b(11,1) without), and every b(p, q) with p <= 23 passes
FIBRE_TOL = 1e-10


def _family(p_max: int) -> dict[str, tuple[int, int]]:
    """(p, q) by name for every b(p, q) with odd p up to p_max."""
    return {f"b({p},{q})": (p, q)
            for p in range(3, p_max + 1, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1}


def _row(name: str, errors: list[tuple[float, str]], tolerance: float, ok: bool = True,
         detail: str = "worst on {where}") -> CheckRow:
    """A row over (error, where) pairs, failed by its worst error above
    ``tolerance`` (NaN is worst) or by ``ok``.  ``detail`` is formatted with
    the worst point's ``where``; a failing row names it in any case."""
    worst, where = max(errors, key=lambda e: e[0] if e[0] == e[0] else math.inf)
    passed = worst <= tolerance and ok
    if not passed and "{where}" not in detail:
        detail = ", ".join(filter(None, (detail, "worst on {where}")))
    return CheckRow(name, worst, tolerance, passed, detail.format(where=where))


def _value(route, tp) -> tuple[complex, str]:
    """route(tp) and "", or NaN and why the route raised."""
    try:
        return route(tp), ""
    except RegularityError as exc:
        return complex("nan"), f" ({route.__name__}: {exc})"


class _Point(namedtuple("_Point", "at theta sigma u formula limit why")):
    """A point of a stack with both torsion routes: ``at`` names the knot
    and theta, ``why`` the reason of a route that raised and gave NaN, and
    ``where`` all three with u."""

    @property
    def where(self) -> str:
        return f"{self.at}, u={self.u:.4f}{self.why}"


def _su2_stack(name: str, p: Presentation, thetas: list[float]) -> list[_Point]:
    """The SU(2) roots at ``thetas`` as one stack through rep_at and
    torsion_polynomial, with both routes evaluated at every point: the one
    place verify finds SU(2) points and reads their routes."""
    stack = su2_solutions(riley_polynomial(p.bridge_word), thetas)
    points = [(theta, sigma, u) for theta, sigma, roots in zip(stack.thetas, stack.sigmas, stack.roots)
              for u in roots]
    tps = torsion_polynomial(rep_at(p, [t for t, _, _ in points], [u for _, _, u in points]))
    out = []
    for (theta, sigma, u), tp in zip(points, tps):
        (formula, why), (limit, why_not) = _value(torsion_via_formula, tp), _value(torsion_via_limit, tp)
        out.append(_Point(f"{name} at theta={theta:.4f}", theta, sigma, u, formula, limit, why + why_not))
    return out


def _torus_row(knot) -> CheckRow:
    """b(p, 1) = T(2, p), odd p <= 41, at theta = pi, 2 and 1.3, one stack
    per knot: every SU(2) torsion of the limit route is one of
    p^2 / (4 sin^2(pi k / p)), k = 1 .. (p - 1)/2 (Dubois's torus-knot
    formula in this normalization), and the roots at pi take each constant
    once.  ``knot`` builds a knot by name."""
    errors, each_once = [], True
    for p in range(3, 42, 2):
        name = f"b({p},1)"
        constants = sorted(p * p / (4 * math.sin(math.pi * k / p) ** 2) for k in range(1, (p + 1) // 2))
        points = _su2_stack(name, knot(name), [math.pi, 2.0, 1.3])
        nearest = [min(constants, key=lambda c: abs(pt.limit - c)) for pt in points]
        errors += [(abs(pt.limit - c) / c, pt.at + pt.why) for pt, c in zip(points, nearest)]
        each_once &= sorted(c for pt, c in zip(points, nearest) if pt.theta == math.pi) == constants
    return _row(f"torus knots b(p,1), p <= 41 ({len(errors)} points)", errors, TORUS_TOL, each_once)


def _mirror_row(names: list[str], knot) -> CheckRow:
    """T(theta) = T(2 pi - theta) on every branch, the symmetry the critical
    search folds its window by.  At theta = 1.3, 2 and 2.5 the SU(2) roots
    at theta and at 2 pi - theta are solved and evaluated on their own, one
    stack per side, and their limit routes compared by rank; on the named
    knots and every b(p, q) with odd p <= MIRROR_P_MAX."""
    names = list(dict.fromkeys([*names, *_family(MIRROR_P_MAX)]))
    thetas = [1.3, 2.0, 2.5]
    mirrored = [2.0 * math.pi - theta for theta in thetas]
    errors, counts_match = [], True
    for name in names:
        p = knot(name)
        points, mirror = _su2_stack(name, p, thetas), _su2_stack(name, p, mirrored)
        # as many roots at each theta as at its mirror
        ranks = [thetas.index(pt.theta) for pt in points]
        counts_match &= ranks == [mirrored.index(pt.theta) for pt in mirror]
        errors += [(abs(a.limit - b.limit) / (abs(a.limit) or 1.0), a.at + a.why + b.why)
                   for a, b in zip(points, mirror)]
    return _row(f"mirror T(theta) = T(2pi - theta), {len(names)} knots ({len(errors)} points)",
                errors, MIRROR_TOL, counts_match)


def _exact_rows(presentations: dict[str, Presentation], stacks: dict[str, list[_Point]],
                knot) -> list[CheckRow]:
    """The exact torsion function against the numeric torsion.

    - At every point of each named knot's stack, T from the exact function
      against the formula and the limit route.
    - On 5_2, T is minus the closed form, coefficient by coefficient: both
      have degree at most 2 in sigma and in u, so they agree exactly on the
      integer grid {0, 1, 2}^2.
    - At theta = pi the SU(2) roots are the d binary dihedral points, so the
      exact trace of T at sigma = -2 (Newton's identities) must be the sum
      of their limit routes, one stack per knot, on the named knots and
      every b(p, q) with odd p <= TRACE_P_MAX; on b(p, 1) it is
      p^2 (p^2 - 1) / 24, the sum of the torus constants.
    - The trace over whole SL(2,C) fibres (:func:`_fibre_row`)."""
    from .exact import torsion_function  # on first use, like the critical search

    errors = []
    for name, points in stacks.items():
        function = torsion_function(presentations[name].bridge_word)
        exact = function([pt.sigma for pt in points], [pt.u for pt in points]).tolist()
        errors += [(abs(value - route) / abs(route), pt.where)
                   for pt, value in zip(points, exact) for route in (pt.formula, pt.limit)]
    rows = [_row(f"exact T vs both routes ({len(errors) // 2} points)", errors, 1e-9, detail="")]

    if "5_2" in presentations:
        coeffs = torsion_function(presentations["5_2"].bridge_word).coeffs
        worst = max(
            abs(sum(c * u**j for j, c in enumerate(rows_at(coeffs, sigma))) + closed_form_5_2(sigma, u))
            for sigma in range(3) for u in range(3)
        )
        rows.append(CheckRow("5_2 exact T = -closed form", float(worst), 0.0, worst == 0))

    family = _family(TRACE_P_MAX)
    names = list(dict.fromkeys([*presentations, *family]))
    errors, torus_ok = [], True
    for name in names:
        p = knot(name)
        trace = torsion_function(p.bridge_word).trace(-2)
        points = _su2_stack(name, p, [math.pi])
        values = [pt.limit for pt in points]
        errors.append((abs(sum(values) - trace) / sum(map(abs, values)),
                       name + "".join(dict.fromkeys(pt.why for pt in points))))
        # the trace each b(p, 1) must have exactly
        n, q = family.get(name, (0, 0))
        torus_ok &= q != 1 or trace == n * n * (n * n - 1) // 24
    rows.append(_row(f"dihedral trace of exact T, {len(names)} knots", errors, 1e-10, torus_ok))
    rows.append(_fibre_row(list(presentations), knot))
    return rows


def _fibre_row(names: list[str], knot) -> CheckRow:
    """T in Z[sigma][u] / (phi) off the SU(2) locus: at each sigma of
    FIBRE_SIGMAS the numeric torsion summed over all d complex roots u of
    phi(sigma, u), one stack per fibre (the real roots in the SU(2) window
    take the unitary frame, the others Riley's), is the exact trace
    Tr T(sigma), on the named knots and every b(p, q) with odd p <=
    FIBRE_P_MAX.  The roots of numpy's companion matrix are polished by
    ``modular.newton`` on phi(sigma, u) times a common denominator, and checked
    by their relator residuals (at sigma = 1 the trefoil and b(9,1) have
    the reducible root u = 0).  A fibre whose build or torsion raises a
    RepresentationError (a singular image matrix) fails the row, which names
    the knot, sigma and the error, and the other fibres still run.  The
    SU(2) root finder's Chebyshev form is no start here: off [-2, 2] its top
    coefficient shrinks, and at sigma = 5/2 from p = 25 on it is trimmed,
    which drops a root."""
    from .exact import torsion_function

    names = list(dict.fromkeys([*names, *_family(FIBRE_P_MAX)]))
    errors, residual, count = [], 0.0, 0
    for name in names:
        p = knot(name)
        function = torsion_function(p.bridge_word)
        for sigma in FIBRE_SIGMAS:
            phi = rows_at(function.phi_coeffs, sigma)
            scale = math.lcm(*(c.denominator for c in phi))
            integers = [int(c * scale) for c in phi]
            roots = [newton(integers, complex(u)) for u in np.roots([float(c) for c in phi[::-1]])]
            s = (float(sigma) + cmath.sqrt(float(sigma) ** 2 - 4.0)) / 2.0
            try:
                rep = build_rep(p, np.full(len(roots), s), roots, check=False)
                values = [r.value for r in compute_torsion(rep)]
            except RepresentationError as exc:
                errors.append((math.nan, f"{name} at sigma={sigma} ({exc})"))
                continue
            residual = max(residual, float(np.max(rep.relator_residuals)))
            count += len(values)
            errors.append((abs(sum(values) - function.trace(sigma)) / sum(map(abs, values)),
                           f"{name} at sigma={sigma}"))
    return _row(f"SL(2,C) fibre trace of exact T, {len(names)} knots ({count} points)", errors, FIBRE_TOL,
                residual <= RELATION_TOL, detail=f"worst on {{where}}, relator residual {residual:.1e}")


def run_verification(knot_names: list[str]) -> tuple[list[CheckRow], int]:
    rng = random.Random(20260808)
    rows: list[CheckRow] = []

    # every knot of the run, named or of the family rows, is built once
    knot = functools.cache(catalog.knot)
    presentations = {name: knot(name) for name in knot_names}

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

    # one stack per knot of the SU(2) roots at 8 thetas across its window,
    # rebuilt as one point at its middle for Wada invariance (cross-multiplied
    # numerators and denominators agree up to +-t^m), conjugation and the
    # sign twist
    stacks, consistency, wada, conj, twist = {}, [], [], [], []
    for name, p in presentations.items():
        lo, hi = auto_theta_range(riley_polynomial(p.bridge_word))
        points = stacks[name] = _su2_stack(name, p, theta_grid(lo + 0.05, min(hi, math.pi), 8))
        consistency += [(abs(pt.formula - pt.limit) / max(1.0, abs(pt.limit)), pt.where) for pt in points]
        mid = points[len(points) // 2]
        rep = rep_at(p, mid.theta, mid.u)
        tai0, tai1 = (twisted_alexander_invariant(rep, drop=j) for j in (0, 1))
        wada.append((unit_aligned_distance(tai0.numerator * tai1.denominator,
                                           tai1.numerator * tai0.denominator), mid.where))
        for _ in range(3):
            tc, _ = _value(torsion_via_limit, torsion_polynomial(rep.conjugated(_random_su2(rng))))
            conj.append((abs(tc - mid.limit) / max(1.0, abs(mid.limit)), mid.where))
        # both builds take the unitary frame, where -sqrt_s gives exactly -x
        # and -y: Ad, and so the torsion, keep every bit, and the row reads 0
        flipped = build_rep(p, rep.s, rep.u, sqrt_s=-rep.sqrt_s)
        tflip, _ = _value(torsion_via_limit, torsion_polynomial(flipped))
        twist.append((abs(tflip - mid.limit), mid.where))
    rows.append(_row("torsion: limit vs derivative formula", consistency, CONSISTENCY_TOL, detail=""))
    rows.append(_row("Wada column invariance", wada, 1e-8, detail=""))
    rows.append(_row("conjugation invariance", conj, 1e-8, detail=""))
    rows.append(_row("sign twist (-sqrt s) invariance", twist, 1e-12, detail=""))

    # 5_2 closed form up to one global sign
    if "5_2" in presentations:
        errors, signs = [], set()
        for pt in _su2_stack("5_2", presentations["5_2"], theta_grid(0.76, math.pi, 40)):
            value, target = pt.formula.real, closed_form_5_2(pt.sigma, pt.u)
            signs.add(1 if value * target > 0 else -1)
            errors.append((abs(abs(value) - abs(target)) / max(1.0, abs(target)), pt.where))
        sign = "+1" if signs == {1} else "-1" if signs == {-1} else "inconsistent"
        rows.append(_row(f"5_2 closed form ({len(errors)} samples)", errors, CONSISTENCY_TOL,
                         len(signs) == 1, detail=f"global sign {sign}"))

    rows.append(_torus_row(knot))
    rows.append(_mirror_row(knot_names, knot))
    rows += _exact_rows(presentations, stacks, knot)

    # negative control: a point off the variety must be rejected
    p = presentations[knot_names[0]]
    phi = riley_polynomial(p.bridge_word)
    sols = su2_solutions(phi, math.pi)
    caught = False
    try:
        build_rep(p, cmath.exp(1j * math.pi), sols.roots[0] + 1e-3, sqrt_s=cmath.exp(0.5j * math.pi))
    except RepresentationError:
        caught = True
    rows.append(CheckRow("off-variety rejection (u + 1e-3)", 0.0 if caught else 1.0, 0.0, caught))

    exit_code = 0 if all(r.passed for r in rows) else 2
    return rows, exit_code
