"""Cross-check suite: exact identities, the two torsion routes against each
other, invariance under Wada's column choice, conjugation and the sign twist,
the 5_2 closed form, and rejection of a point off the variety."""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

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
        (row,) = LaurentMatrix.from_entries(entries).determinant()
        det = LaurentPoly._raw(0, row[::-1].tolist())
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
