"""Acceptance gate: each criterion pinned at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import cmath
import math
import random
import time

import numpy as np

from adtorsion import catalog
from adtorsion.foxcalc import fundamental_identity_holds
from adtorsion.laurent import IntLaurent
from adtorsion.laurent import (
    LaurentMatrix,
    LaurentPoly,
    unit_aligned_distance,
)
from adtorsion.reps import (
    RileyPoly,
    adjoint_of_matrix,
    build_rep,
    near_transition,
    riley_assignment,
    riley_polynomial,
    su2_root_count_thresholds,
    su2_solutions,
)
from adtorsion.torsion import (
    Tolerances,
    boundary_factor,
    dihedral_class_count,
    homology_torsion,
    torsion_polynomial,
    torsion_via_formula,
    torsion_via_limit,
    twisted_alexander_invariant,
)
from adtorsion.words import Word
from adtorsion.locus import _BranchTorsion, find_critical_points

from test_torsion import as_poly, divide_alone

TOL = Tolerances()
SIGMA_STAR = (3 - math.sqrt(13 + 16 * math.sqrt(2))) / 2


def _report(n: int, detail: str) -> None:
    print(f"\n[criterion {n}] PASS — {detail}")


def _su2_rep(p, theta, u):
    return build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta), tol=TOL.relation)


def _limit(rep):
    return torsion_via_limit(torsion_polynomial(rep, tol=TOL))


def _five_two_samples(minimum=60):
    """(theta, sigma, u, rep) spanning all three root-count regimes, with a
    1e-3 exclusion band around the double-root threshold."""
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    thresholds = su2_root_count_thresholds(phi)
    sigmas = [-2.0 + 0.5 * i / 11 for i in range(12)]    # three-root regime
    sigmas += [-1.45 + 2.9 * i / 29 for i in range(30)]  # one-root regime
    sigmas += [SIGMA_STAR - 2e-3, SIGMA_STAR + 2e-3]     # flank the threshold
    samples = []
    for sigma in sorted(sigmas):
        if near_transition(sigma, thresholds, band=1e-3):
            continue
        theta = math.acos(max(-1.0, min(1.0, sigma / 2.0)))
        sols = su2_solutions(phi, theta, TOL.relation)
        for u in sols.roots:
            samples.append((theta, sols.sigma, u, _su2_rep(p, theta, u)))
    assert len(samples) >= minimum
    counts = {s for _, s, _, _ in samples if s < SIGMA_STAR - 1e-3}
    assert counts and any(s > SIGMA_STAR + 1e-3 for _, s, _, _ in samples)
    return samples


def test_acceptance_1_riley_polynomial_exact():
    start = time.perf_counter()
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    # u^3 - (2sigma-3)u^2 + ((sigma^2-2) - 3sigma + 6)u - (2sigma-3), exactly
    quad = IntLaurent(-1, (-2, 3, -2))
    expected = RileyPoly(
        [quad, IntLaurent(-2, (1, -3, 6, -3, 1)), quad, IntLaurent.one()]
    )
    elapsed = time.perf_counter() - start
    assert phi == expected, "coefficients must match exactly (zero tolerance)"
    assert elapsed < 1.0
    _report(1, f"exact integer match, {elapsed * 1e3:.1f} ms")


def test_acceptance_2_five_two_closed_form():
    start = time.perf_counter()
    samples = _five_two_samples(60)
    ratios = []
    for theta, sigma, u, rep in samples:
        value = torsion_via_formula(torsion_polynomial(rep, tol=TOL)).real
        target = (
            -(5 * sigma + 3) * u * u
            + (5 * sigma * sigma - 7 * sigma + 1) * u
            + 1
            - 10 * sigma
        )
        ratios.append(value / target)
    elapsed = time.perf_counter() - start
    signs = {1 if r > 0 else -1 for r in ratios}
    assert len(signs) == 1, "sign must be global across all samples"
    worst = max(abs(abs(r) - 1.0) for r in ratios)
    assert worst <= 1e-6
    assert elapsed < 10.0
    _report(
        2,
        f"{len(samples)} samples, max rel err {worst:.2e}, "
        f"global sign {signs.pop():+d}, {elapsed:.2f} s",
    )


def test_acceptance_3_limit_equals_derivative():
    samples = _five_two_samples(60)
    trefoil = catalog.knot("trefoil")
    phi_t = riley_polynomial(trefoil.bridge_word)
    for theta in (1.3, 1.9, 2.6, math.pi, 3.9, 4.8):
        for u in su2_solutions(phi_t, theta, TOL.relation).roots:
            samples.append((theta, 2 * math.cos(theta), u, _su2_rep(trefoil, theta, u)))
    worst_consistency = 0.0
    for theta, sigma, u, rep in samples:
        tp = torsion_polynomial(rep, tol=TOL)
        tl = torsion_via_limit(tp)
        tf = torsion_via_formula(tp)
        worst_consistency = max(
            worst_consistency, abs(tl - tf) / max(1.0, abs(tl))
        )
        assert np.array_equal(tp.delta, homology_torsion(rep, cleanup=TOL.cleanup)[0])
        delta = as_poly(tp.delta)
        scale = delta.max_abs
        assert abs(delta.evaluate(1.0)) <= 1e-9 * scale
        assert abs(delta.derivative().evaluate(1.0)) <= 1e-9 * scale
        reduced, _ = divide_alone(delta, 2)
        assert abs(reduced.evaluate(1.0)) > 1e-6 * scale
    assert worst_consistency <= 1e-6
    _report(
        3,
        f"{len(samples)} samples incl. trefoil; |limit-formula| <= "
        f"{worst_consistency:.2e}; simple zero verified on all",
    )


def test_acceptance_4_denominator_identity():
    rng = random.Random(424242)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.02, 2 * math.pi - 0.02)
        s = cmath.exp(1j * theta)
        u = complex(rng.uniform(-4, 1), rng.uniform(-1, 1))
        x, _ = riley_assignment(s, u)
        ad = adjoint_of_matrix(x / cmath.exp(0.5j * theta))
        phi_x_minus_1 = LaurentMatrix.from_entries(
            [
                [LaurentPoly.from_dict({1: ad[i, j], 0: -1.0 if i == j else 0.0}) for j in range(3)]
                for i in range(3)
            ]
        )
        det = as_poly(phi_x_minus_1.determinant())
        sigma = s + 1 / s
        expected = LaurentPoly(0, [-1.0, sigma + 1.0, -(sigma + 1.0), 1.0])
        lo, hi = min(det.lo, expected.lo), max(det.hi, expected.hi)
        worst = max(
            worst,
            max(abs(det.coefficient(e) - expected.coefficient(e)) for e in range(lo, hi + 1)),
        )
    assert worst <= 1e-12
    _report(4, f"100 random (s,u) on |s|=1, max coefficient error {worst:.2e}")


def test_acceptance_5_root_count_regimes():
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    thresholds = su2_root_count_thresholds(phi)
    inner = [t for t in thresholds if -2.0 < t < 0.0]
    assert len(inner) == 1
    sigma_star = inner[0]
    assert abs(sigma_star - SIGMA_STAR) < 1e-6

    def count(sigma):
        return len(su2_solutions(phi, math.acos(sigma / 2.0), TOL.relation).roots)

    assert count(SIGMA_STAR - 0.01) == 3
    assert count(SIGMA_STAR - 0.3) == 3
    assert count(SIGMA_STAR + 0.01) == 1
    assert count(SIGMA_STAR + 0.5) == 1
    # the near-threshold flag is raised inside the 1e-3 band and not outside
    assert near_transition(SIGMA_STAR + 5e-4, thresholds, band=1e-3)
    assert near_transition(SIGMA_STAR - 5e-4, thresholds, band=1e-3)
    assert not near_transition(SIGMA_STAR + 5e-3, thresholds, band=1e-3)
    # at the threshold itself the double root trips the near-multiple signal
    assert su2_solutions(phi, math.acos(SIGMA_STAR / 2.0), TOL.relation).any_near_multiple
    _report(
        5,
        f"sigma* = {sigma_star:.6f} (radical {SIGMA_STAR:.6f}); counts 3|1 "
        "across the threshold; band flag verified",
    )


def test_acceptance_6_critical_points():
    details = []
    for name, expected_count, window in (
        ("5_2", 3, (2.7, 3.58)),
        ("trefoil", 1, (2.0, 4.3)),
    ):
        p = catalog.knot(name)
        phi = riley_polynomial(p.bridge_word)
        assert dihedral_class_count(p) == expected_count
        # finite-difference derivative at theta = pi on every branch
        sols = su2_solutions(phi, math.pi, TOL.relation)
        assert len(sols.roots) == expected_count
        for rank, u in enumerate(sols.roots):
            value, _ = (
                _limit(_su2_rep(p, math.pi, u)).real,
                u,
            )
            deriv = _BranchTorsion(p, phi, TOL).derivatives([(math.pi, {len(sols.roots): rank})])[0][0]
            scale = max(1.0, abs(value))
            assert abs(deriv) <= 1e-4 * scale, f"{name} u={u}"
            details.append(f"{name}:|dT/dtheta|={abs(deriv):.1e}")
        report = find_critical_points(p, window[0], window[1], 17, TOL)
        assert report.dihedral_count == expected_count
        for pt in report.points:
            assert pt.is_dihedral and abs(pt.theta - math.pi) < 1e-6
    _report(6, "dihedral counts 3 (5_2) and 1 (trefoil); " + ", ".join(details))


def test_acceptance_7_property_suites():
    # Fox fundamental identity: 1000 random words, exact
    rng = random.Random(7777)
    for _ in range(1000):
        letters = [(rng.randrange(4), rng.choice((1, -1))) for _ in range(rng.randrange(31))]
        assert fundamental_identity_holds(Word(letters))

    # Wada column invariance on catalog knots
    wada_worst = 0.0
    for name in catalog.knot_names():
        p = catalog.knot(name)
        phi = riley_polynomial(p.bridge_word)
        theta = 2.8
        u = su2_solutions(phi, theta, TOL.relation).roots[0]
        rep = _su2_rep(p, theta, u)
        tai = [twisted_alexander_invariant(rep, drop=j) for j in range(2)]
        wada_worst = max(
            wada_worst,
            unit_aligned_distance(
                tai[0].numerator * tai[1].denominator,
                tai[1].numerator * tai[0].denominator,
            ),
        )
    assert wada_worst <= 1e-8

    # conjugation invariance
    conj_worst = 0.0
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    theta = 3.0
    for u in su2_solutions(phi, theta, TOL.relation).roots:
        rep = _su2_rep(p, theta, u)
        base = _limit(rep)
        for _ in range(3):
            a, b, c, d = (rng.gauss(0, 1) for _ in range(4))
            n = math.sqrt(a * a + b * b + c * c + d * d)
            g = np.array(
                [[complex(a, b) / n, complex(c, d) / n], [complex(-c, d) / n, complex(a, -b) / n]]
            )
            conj_worst = max(
                conj_worst,
                abs(_limit(rep.conjugated(g)) - base) / max(1.0, abs(base)),
            )
    assert conj_worst <= 1e-8

    # +-sqrt(s) branch invariance, exact
    u = su2_solutions(phi, theta, TOL.relation).roots[1]
    rep = _su2_rep(p, theta, u)
    flipped = build_rep(p, rep.s, rep.u, sqrt_s=-rep.sqrt_s, tol=TOL.relation)
    assert _limit(flipped) == _limit(rep)
    branch_err = abs(_limit(flipped) - _limit(rep))

    # t^m-invariance of the derivative at a zero (exact up to 1e-12)
    tm_worst = 0.0
    delta = as_poly(homology_torsion(rep, cleanup=TOL.cleanup))
    base_q, _ = divide_alone(delta, 2)
    base_val = base_q.evaluate(1.0)
    for m in (-2, 1, 3):
        q, _ = divide_alone(delta.shift(m), 2)
        tm_worst = max(tm_worst, abs(q.evaluate(1.0) - base_val) / max(1.0, abs(base_val)))
    t_minus_1 = LaurentPoly(0, [-1.0, 1.0])
    for _ in range(50):
        f = LaurentPoly(rng.randint(-3, 3), [rng.uniform(-2, 2) for _ in range(rng.randint(1, 6))])
        pz = t_minus_1 * f
        d0 = pz.derivative().evaluate(1.0)
        for m in (-3, 2):
            tm_worst = max(
                tm_worst,
                abs(pz.shift(m).derivative().evaluate(1.0) - d0) / max(1.0, abs(d0)),
            )
    assert tm_worst <= 1e-12
    _report(
        7,
        f"Fox identity 1000/1000 exact; Wada {wada_worst:.1e}; conjugation "
        f"{conj_worst:.1e}; branch {branch_err:.1e}; t^m {tm_worst:.1e}",
    )
