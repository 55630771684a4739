import cmath
import bisect
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from adtorsion import catalog, reps
from adtorsion.laurent import IntLaurent
from adtorsion.locus import rep_at
from adtorsion.presentation import Presentation, PresentationError
from adtorsion.reps import (
    INTERVAL_SLACK,
    RELATION_TOL,
    THRESHOLD_SAMPLES,
    THRESHOLD_SIGMA_HI,
    THRESHOLD_SIGMA_LO,
    Rep,
    RepresentationError,
    RileyPoly,
    _UPoly,
    _bracketed_zero,
    adjoint_of_matrix,
    build_rep,
    near_transition,
    riley_assignment,
    riley_polynomial,
    su2_root_count_thresholds,
    su2_root_counts,
    su2_solutions,
)
from adtorsion.words import Word, parse_word

from adtorsion.torsion import (
    Tolerances,
    alexander_at_minus_one,
    compute_torsion,
    torsion_polynomial,
    untwisted_alexander,
)
from test_torsion import schubert_knot, schubert_word

SIGMA_STAR = (3 - math.sqrt(13 + 16 * math.sqrt(2))) / 2

# u^3 + 7u^2 + 14u + 7 at sigma = -2, root-found independently (numpy roots,
# cross-checked against Vieta: sum -7, product -7)
ROOTS_AT_PI = (-3.8019377358048383, -2.4450418679126288, -0.7530203962825331)


def _two_gen_word(text):
    return parse_word(text, ["x", "y"])


def five_two_cubic() -> RileyPoly:
    # u^3 - (2s - 3 + 2/s) u^2 + (s^2 - 3s + 6 - 3/s + 1/s^2) u - (2s - 3 + 2/s)
    quad = IntLaurent(-1, (-2, 3, -2))
    return RileyPoly(
        [
            quad,
            IntLaurent(-2, (1, -3, 6, -3, 1)),
            quad,
            IntLaurent.one(),
        ]
    )


def test_riley_assignment_at_origin():
    x, y = riley_assignment(1.0, 0.0)
    assert np.array_equal(x, np.array([[1, 1], [0, 1]], dtype=complex))
    assert np.array_equal(y, np.eye(2, dtype=complex))


def test_riley_assignment_dets():
    rng = random.Random(1)
    for _ in range(20):
        s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        x, y = riley_assignment(s, u)
        assert abs(np.linalg.det(x) - s) < 1e-12
        assert abs(np.linalg.det(y) - s) < 1e-12


def test_riley_assignment_trefoil_root_diagonal_y():
    # at u = s + 1/s - 1 = 0 (theta = pi/3) the y image is diagonal
    s = cmath.exp(1j * math.pi / 3)
    u = s + 1 / s - 1
    assert abs(u) < 1e-15
    _, y = riley_assignment(s, 0.0)
    assert y[1, 0] == 0 and y[0, 1] == 0


def test_riley_polynomial_five_two_exact():
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    assert phi == five_two_cubic()


def test_riley_polynomial_empty_word():
    phi = riley_polynomial(Word())
    assert phi.u_degree == 0
    assert phi.coefficient(0) == IntLaurent.one()


def test_riley_polynomial_trefoil():
    phi = riley_polynomial(_two_gen_word("x y"))
    # s*u - (s^2 - s + 1), up to unit: multiply X*Y symbolically and read
    # W_11 + (1-s) W_12 = s^2 - s u + 1 - s; the canonical form negates it
    expected = RileyPoly([-IntLaurent(0, (1, -1, 1)), IntLaurent.term(1, 1)])
    assert phi == expected
    assert phi.sigma_form_str() == "(1)*u + (-sigma + 1)"


def test_riley_polynomial_rejects_three_generators():
    with pytest.raises(RepresentationError):
        riley_polynomial(Word([(2, 1)]))


def test_riley_polynomial_matches_numeric_matrix_product():
    # brute-force oracle: multiply the numeric matrices along the word and
    # read off W_11 + (1-s) W_12.  The canonical representative differs from
    # the raw product by a unit +-s^k, which has modulus 1 on |s| = 1, so the
    # moduli must agree there.
    rng = random.Random(3)
    for _ in range(100):
        letters = [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(10))]
        w = Word(letters)
        phi = riley_polynomial(w)
        s = cmath.exp(1j * rng.uniform(0.1, 6.2))
        u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        x, y = riley_assignment(s, u)
        mats = {(0, 1): x, (0, -1): np.linalg.inv(x), (1, 1): y, (1, -1): np.linalg.inv(y)}
        acc = np.eye(2, dtype=complex)
        for letter in w.letters:
            acc = acc @ mats[letter]
        direct = acc[0, 0] + (1 - s) * acc[0, 1]
        residual, _ = phi.residual_and_scale(s, u)
        assert abs(residual - abs(direct)) <= 1e-9 * max(1.0, abs(direct))


def test_u_polynomials_trim_and_multiply():
    zero, one, s = IntLaurent.zero(), IntLaurent.one(), IntLaurent.term(1, 1)
    trimmed = _UPoly(3, [zero, zero, s, zero, s, zero])
    assert (trimmed.offset, trimmed.coeffs) == (5, (s, zero, s))
    assert trimmed.by_u_degree() == [zero] * 5 + [s, zero, s]
    assert _UPoly(0, [zero, zero]).is_zero and _UPoly().by_u_degree() == []
    # (1 + s u)(1/s - u) = 1/s + (-1 + 1) u - s u^2, by hand
    a = _UPoly(0, [one, s])
    b = _UPoly(0, [IntLaurent.term(1, -1), -one])
    assert (a * b).by_u_degree() == [IntLaurent.term(1, -1), zero, IntLaurent.term(-1, 1)]
    assert (a - a).is_zero


def test_two_bridge_family_exact_oracles():
    # every b(p, q) with odd p <= 41 and odd q in (0, p) coprime to p:
    # |Delta(-1)| = p, phi(s, 0) = Delta_K up to a unit +-s^k, u-degree
    # (p - 1)/2, and a monic sigma-form; two_bridge_pq builds the same word
    assert len(FAMILY) == 178
    for p, q in FAMILY:
        knot = schubert_knot(p, q)
        assert catalog.two_bridge_pq(p, q).bridge_word == knot.bridge_word
        assert catalog.knot(f"b({p},{q})").bridge_word == knot.bridge_word
        phi = riley_polynomial(knot.bridge_word)
        assert alexander_at_minus_one(knot) == p, (p, q)
        assert phi.coefficient(0).equal_up_to_unit(untwisted_alexander(knot)), (p, q)
        assert phi.u_degree == (p - 1) // 2, (p, q)
        form = phi.sigma_form()
        assert form is not None and form[-1] == [1], (p, q)


@pytest.mark.parametrize("p, q", [(8, 3), (9, 3), (7, 2), (1, 1), (7, 7), (7, -1), (7, 9)])
def test_two_bridge_pq_rejects_what_is_not_a_family_knot(p, q):
    with pytest.raises(PresentationError, match="odd p >= 3 and odd q in"):
        catalog.two_bridge_pq(p, q)


@pytest.mark.parametrize(
    "name, stand_in, oracle",
    [
        # another knot's word: b(5, 1) has determinant 5
        ("schubert_word", lambda p, q: schubert_word(5, 1), r"\|Delta\(-1\)\| = 5, expected 7"),
        # b(7, 1)'s Alexander polynomial has determinant 7 too, but is not
        # phi(s, 0) of b(7, 3)
        ("untwisted_alexander", lambda knot: untwisted_alexander(schubert_knot(7, 1)), "Alexander"),
        # phi(s, 0) kept, one u-degree too many
        ("riley_polynomial", lambda w: RileyPoly([*riley_polynomial(w).coeffs, IntLaurent.one()], w),
         "u-degree 4, expected 3"),
    ],
)
def test_two_bridge_pq_checks_its_oracles(monkeypatch, name, stand_in, oracle):
    monkeypatch.setattr(catalog, name, stand_in)
    with pytest.raises(RuntimeError, match=oracle):
        catalog.two_bridge_pq(7, 3)


FAMILY = [(p, q) for p in range(3, 42, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


@functools.lru_cache(maxsize=None)
def family_roots_at_pi():
    """(knot, phi, roots at theta = pi) for every b(p, q) of FAMILY."""
    out = []
    for p, q in FAMILY:
        knot = schubert_knot(p, q)
        phi = riley_polynomial(knot.bridge_word)
        out.append((knot, phi, su2_solutions(phi, math.pi).roots))
    return out


def test_family_has_every_binary_dihedral_root_at_pi():
    # (|Delta(-1)| - 1)/2 = (p - 1)/2 binary dihedral classes per knot, at
    # u = -4 sin^2(pi m / p) for m = 1 .. (p - 1)/2
    found = [len(roots) for _, _, roots in family_roots_at_pi()]
    assert found == [(p - 1) // 2 for p, _ in FAMILY]
    assert sum(found) == 2415
    for (_, _, roots), (p, q) in zip(family_roots_at_pi(), FAMILY):
        closed = sorted(-4.0 * math.sin(math.pi * m / p) ** 2 for m in range(1, (p + 1) // 2))
        assert max(abs(a - b) for a, b in zip(roots, closed)) <= 1e-12, (p, q)


def test_family_roots_at_pi_bracket_a_sign_change_of_the_exact_polynomial():
    # phi(-1, u) has integer coefficients: evaluated exactly in Fractions, it
    # changes sign within 1e-12 max(1, |u|) of every root
    for (knot, phi, roots), pq in zip(family_roots_at_pi(), FAMILY):
        ints = [c(-1) for c in phi.coeffs]
        assert all(v.imag == 0.0 and v.real == int(v.real) for v in ints), pq
        ints = [int(v.real) for v in ints]

        def sign(u):
            acc, x = 0, Fraction(u)
            for c in reversed(ints):
                acc = acc * x + c
            return (acc > 0) - (acc < 0)

        for u in roots:
            delta = 1e-12 * max(1.0, abs(u))
            assert sign(u - delta) * sign(u + delta) < 0, (pq, u)


def test_family_roots_at_pi_build_as_one_stack_per_knot():
    for knot, _, roots in family_roots_at_pi():
        theta = np.full(len(roots), math.pi)
        rep = build_rep(knot, np.exp(1j * theta), roots, np.exp(0.5j * theta))
        assert max(map(np.max, rep.relator_residuals)) <= RELATION_TOL


def test_family_limit_route_failures_at_pi():
    # one theta = pi stack per family knot: the limit route finds no simple
    # zero at 99 of the 2415 binary dihedral points (the formula route gives
    # their value), and at no more
    failed = 0
    for knot, _, roots in family_roots_at_pi():
        theta = np.full(len(roots), math.pi)
        rep = build_rep(knot, np.exp(1j * theta), roots, np.exp(0.5j * theta))
        failed += sum(result.limit_value is None for result in compute_torsion(rep, Tolerances()))
    assert failed <= 99


def test_family_limit_route_in_the_unitary_frame():
    # the family's SU(2) points as rep_at builds them, one stack per knot and
    # theta: the limit route finds a simple zero at all but 9 of the 2415
    # binary dihedral points and at every point at theta = 2 and 1.3, and
    # the torsion is real up to 1e-11 of max(1, |T|) everywhere
    tol = Tolerances()
    failed = {math.pi: 0, 2.0: 0, 1.3: 0}
    for knot, phi, _ in family_roots_at_pi():
        for theta, solutions in zip(failed, su2_solutions(phi, list(failed))):
            if not solutions.roots:
                continue
            rep = rep_at(knot, np.full(len(solutions), theta), solutions.roots, tol)
            for result in compute_torsion(rep, tol):
                failed[theta] += result.limit_value is None
                assert abs(result.value.imag) <= 1e-11 * max(1.0, abs(result.value))
    assert failed[math.pi] <= 9 and failed[2.0] == failed[1.3] == 0


@pytest.mark.parametrize("word", ["x y^-1", "x x y"])
def test_non_symmetric_word_is_not_real_at_any_theta(word):
    # phi(x y^-1) = u + 2 - s has coefficients with different centres;
    # phi(x x y) = (s + s^2) u - 1 + s^2 - s^3 has one centre, but its
    # constant coefficient is no palindrome.  No theta gives a real
    # polynomial, theta = pi (s = -1) included
    phi = riley_polynomial(_two_gen_word(word))
    assert phi.sigma_form() is None
    for theta in (math.pi, 2.0):
        with pytest.raises(ValueError, match="not real"):
            su2_solutions(phi, theta)
        with pytest.raises(ValueError, match="not real"):
            su2_root_counts(phi, [theta])


def test_residual_and_scale_are_the_term_by_term_sums():
    # one evaluation of each coefficient gives |phi| and the scale, bit for
    # bit as Horner's rule and the sum of term magnitudes give them
    for knot in (catalog.knot("5_2"), schubert_knot(41, 11)):
        phi = riley_polynomial(knot.bridge_word)
        points = [(sols.theta, u) for sols in su2_solutions(phi, [1.1, 2.3, math.pi, 4.0, 5.2])
                  for u in sols.roots]
        s = np.exp(1j * np.array([t for t, _ in points]))
        u = np.array([u for _, u in points], dtype=complex)
        value = 0j
        for c in reversed(phi.coeffs):
            value = value * u + c(s)
        total = 0.0
        for d, c in enumerate(phi.coeffs):
            total += abs(c(s)) * abs(u) ** d
        residual, scale = phi.residual_and_scale(s, u)
        assert len(points) >= 5
        assert np.array_equal(residual, abs(value))
        assert np.array_equal(scale, np.maximum(total, 1e-300))


def test_sigma_form_five_two():
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    assert phi.sigma_form() == [[3, -2], [4, -3, 1], [3, -2], [1]]
    s = phi.sigma_form_str()
    assert "(1)*u^3" in s and "(-2*sigma + 3)*u^2" in s and "(sigma^2 - 3*sigma + 4)*u" in s


def test_su2_solutions_at_pi():
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    sols = su2_solutions(phi, math.pi)
    assert len(sols.roots) == 3
    # independent oracle: numpy roots of the specialized cubic
    oracle = sorted(np.roots([1.0, 7.0, 14.0, 7.0]).real)
    for got, want, frozen in zip(sols.roots, oracle, ROOTS_AT_PI):
        assert abs(got - want) < 1e-9
        assert abs(got - frozen) < 1e-8
    assert not sols.any_near_multiple
    assert sols.sigma == -2.0


def test_su2_solution_regimes():
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    for sigma, count in (
        (SIGMA_STAR - 0.01, 3),
        (SIGMA_STAR + 0.01, 1),
        (-2.0, 3),
        (0.0, 1),
        (1.4, 1),
        (1.6, 0),
        (1.9, 0),
    ):
        theta = math.acos(sigma / 2.0)
        assert len(su2_solutions(phi, theta).roots) == count, f"sigma={sigma}"


def test_su2_near_multiple_flag_at_threshold():
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    sols = su2_solutions(phi, math.acos(SIGMA_STAR / 2.0))
    # the double root shows up as a flagged near-multiple pair (or collapses
    # into the window with its twin within the threshold)
    assert sols.any_near_multiple


def test_su2_solutions_argument_checks():
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    with pytest.raises(ValueError):
        su2_solutions(phi, 0.0)
    with pytest.raises(ValueError):
        su2_solutions(phi, 7.0)
    with pytest.raises(ValueError):
        su2_solutions(RileyPoly([]), 1.0)


def test_one_theta_is_memoized_with_the_bits_of_any_stack():
    # a hit is the very object the first call built as a stack of one, equal
    # to the last bit (repr writes every float exactly) to theta's row in a
    # stack of one and in a stack of 48; a second polynomial built from the
    # same word shares the entry, and a stacked call leaves the memo as it is
    phi = riley_polynomial(schubert_knot(41, 11).bridge_word)
    thetas = [1.9 + 0.01 * k for k in range(48)]
    theta = thetas[17]
    su2_solutions.cache_clear()
    first = su2_solutions(phi, theta)
    assert su2_solutions(phi, theta) is first
    assert su2_solutions(riley_polynomial.__wrapped__(phi.word), np.float64(theta)) is first
    info = su2_solutions.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    assert len(first.roots) > 1
    assert repr(first) == repr(su2_solutions(phi, [theta])[0])
    assert repr(first) == repr(su2_solutions(phi, thetas)[17])
    assert su2_solutions.cache_info() == info


def test_memo_keys_on_the_multiplicity_threshold():
    # two roots 0.071 apart, just below the 5_2 count threshold: flagged
    # under a threshold of 0.1, not under the default
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    theta = math.acos((SIGMA_STAR - 1e-3) / 2.0)
    su2_solutions.cache_clear()
    tight = su2_solutions(phi, theta)
    wide = su2_solutions(phi, theta, multiplicity_threshold=0.1)
    assert tight.roots == wide.roots
    assert not any(tight.near_multiple) and any(wide.near_multiple)
    assert su2_solutions.cache_info().currsize == 2
    assert su2_solutions(phi, theta) is tight


def test_memo_stores_no_error():
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    su2_solutions(phi, 2.0)
    size = su2_solutions.cache_info().currsize
    for theta in (0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi):
        with pytest.raises(ValueError, match="strictly between"):
            su2_solutions(phi, theta)
    assert su2_solutions.cache_info().currsize == size


def test_memo_is_bounded_like_the_riley_memo():
    assert su2_solutions.cache_info().maxsize == reps.RILEY_CACHE_SIZE


def test_every_root_index_of_one_theta_shares_one_solve(monkeypatch):
    # one solve for d requests, keyed without hashing every coefficient
    solved = []
    solve = reps._su2_roots

    def counted(source, thetas, *args):
        solved.append(len(thetas))
        return solve(source, thetas, *args)

    def unhashable(self):
        raise AssertionError("the memo key hashes the polynomial's coefficients")

    monkeypatch.setattr(reps, "_su2_roots", counted)
    phi = riley_polynomial(schubert_knot(13, 5).bridge_word)
    monkeypatch.setattr(RileyPoly, "__hash__", unhashable)
    su2_solutions.cache_clear()
    for _ in range(phi.u_degree):
        su2_solutions(phi, 2.45)
    assert solved == [1]


def test_su2_root_count_thresholds():
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    thresholds = su2_root_count_thresholds(phi)
    inner = [t for t in thresholds if -2.0 < t < 0.0]
    assert len(inner) == 1
    assert abs(inner[0] - SIGMA_STAR) < 1e-6
    # the single root leaves the window near sigma = 3/2
    assert any(abs(t - 1.5) < 1e-6 for t in thresholds)
    assert near_transition(SIGMA_STAR + 5e-4, thresholds)
    assert not near_transition(SIGMA_STAR + 5e-3, thresholds)


def _sigma_thetas(sigmas):
    return [max(1e-9, math.acos(max(-1.0, min(1.0, s / 2.0)))) for s in sigmas]


def _critical_family():
    """The 24 knots b(p, q) with odd p <= 15 that the critical benchmark searches."""
    knots = [(p, q) for p in range(3, 16, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
    assert len(knots) == 24
    return knots


def test_thresholds_match_the_count_changes_of_the_whole_grid():
    # the whole grid counted in one stack is the oracle of the two-level
    # scan: every change between neighbouring grid points holds exactly one
    # threshold, and every threshold lies in one change, on the 24 knots
    # b(p, q) with odd p <= 15 that the critical benchmark searches
    lo, hi, n = THRESHOLD_SIGMA_LO, THRESHOLD_SIGMA_HI, THRESHOLD_SAMPLES
    grid = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    thetas = _sigma_thetas(grid)
    for p, q in _critical_family():
        phi = riley_polynomial(schubert_knot(p, q).bridge_word)
        counts = su2_root_counts(phi, thetas)
        changes = [(a, b) for a, b, ca, cb in zip(grid, grid[1:], counts, counts[1:]) if ca != cb]
        thresholds = su2_root_count_thresholds(phi)
        assert changes, (p, q)
        for a, b in changes:
            assert sum(a <= t <= b for t in thresholds) == 1, (p, q, a, b)
        for t in thresholds:
            assert sum(a <= t <= b for a, b in changes) == 1, (p, q, t)


def test_thresholds_are_count_verified():
    # on the 178 knots b(p, q) with odd p <= 41, 5_2 and the trefoil, every
    # threshold t sits where the count leaves the one at the low end of its
    # grid bracket: the count at t - 1e-9 is that count, at t + 1e-9 it is
    # not.  Brent's method on the event function alone would put four of
    # them (b(25,3), b(25,17), b(37,11), b(37,21)) on a second count change
    # inside the same grid step, up to 1.4e-3 away.  Six grid steps, on
    # b(25,3), b(25,17), b(37,7), b(37,11), b(37,21) and b(37,27), hold two
    # changes: the second starts from the count just above the first.  The
    # count just above each threshold is the count just below the next, so
    # no change is missed
    lo, hi, n = THRESHOLD_SIGMA_LO, THRESHOLD_SIGMA_HI, THRESHOLD_SAMPLES
    grid = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    knots = [catalog.knot("5_2"), catalog.knot("trefoil")] + [
        schubert_knot(p, q)
        for p in range(3, 42, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1
    ]
    assert len(knots) == 180
    checked = 0
    for knot in knots:
        phi = riley_polynomial(knot.bridge_word)
        thresholds = su2_root_count_thresholds(phi)
        steps = [bisect.bisect_right(grid, t) - 1 for t in thresholds]
        sigmas = []
        for t, step in zip(thresholds, steps):
            sigmas += [grid[step], t - 1e-9, t + 1e-9]
        counts = su2_root_counts(phi, _sigma_thetas(sigmas))
        low_ends, below, above = counts[::3], counts[1::3], counts[2::3]
        for k, t in enumerate(thresholds):
            second = k > 0 and steps[k] == steps[k - 1]
            low_end = above[k - 1] if second else low_ends[k]
            assert low_end == below[k] != above[k], (knot.bridge_word, t, low_end, below[k], above[k])
            checked += 1
        assert above[:-1] == below[1:], knot.bridge_word
    assert checked == 1411


def test_thresholds_of_the_critical_family_keep_a_root_solve_budget(monkeypatch):
    # every threshold costs a few root stacks: the 24 searches' thresholds
    # solve 4 617 theta in all, where 9 rounds of 15 count probes per
    # threshold solved 14 424
    solved = []
    solve = reps._su2_roots

    def counted(phi, thetas, *args):
        solved.append(len(thetas))
        return solve(phi, thetas, *args)

    monkeypatch.setattr(reps, "_su2_roots", counted)
    for p, q in _critical_family():
        su2_root_count_thresholds(riley_polynomial(schubert_knot(p, q).bridge_word))
    assert sum(solved) <= 6000


def _brent(f, a, fa, b, fb, xtol):
    """Drive the Brent generator over one bracket with f."""
    steps = _bracketed_zero(a, fa, b, fb, xtol=xtol)
    try:
        theta = next(steps)
        while True:
            theta = steps.send(f(theta))
    except StopIteration as stop:
        return stop.value


def test_bracketed_zero_converges_on_a_cubic():
    calls = []

    def cubic(x):
        calls.append(x)
        return x**3 - 2.0 * x - 5.0

    root = 2.0945514815423265
    x = _brent(cubic, 2.0, cubic(2.0), 3.0, cubic(3.0), xtol=1e-11)
    assert abs(x - root) <= 1e-11
    # bisection needs 37 halvings of [2, 3] to get below 1e-11
    assert len(calls) - 2 <= 10


def test_bracketed_zero_returns_an_exact_zero_at_an_end():
    def f(x):
        raise AssertionError("no evaluation needed")

    assert _brent(f, 1.0, 0.0, 2.0, 3.0, xtol=1e-11) == 1.0
    assert _brent(f, 1.0, -3.0, 2.0, 0.0, xtol=1e-11) == 2.0
    with pytest.raises(ValueError):
        _brent(f, 1.0, 2.0, 2.0, 3.0, xtol=1e-11)


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
    x = _brent(noisy, a, noisy(a), b, noisy(b), xtol=1e-11)
    assert abs(x - 0.7) <= 1e-9 + 1e-11
    partners = [
        t for t, y in seen.items() if 0.0 < abs(t - x) < 1e-11 and (y < 0) != (seen[x] < 0)
    ]
    assert partners or seen[x] == 0.0



def test_batched_root_counts_match_su2_solutions():
    # every sigma value that the two grid levels of
    # su2_root_count_thresholds can count (its whole 2000-point grid; a call
    # counts only a subset of it) and every probe of auto_theta_range (600
    # thetas), on the 24 knots b(p, q) with odd p <= 15 that the critical
    # benchmark searches
    lo, hi = -2.0, 1.995
    sigmas = [lo + (hi - lo) * i / 1999 for i in range(2000)]
    thetas = [math.acos(max(-1.0, min(1.0, s / 2.0))) for s in sigmas]
    thetas += [0.02 + (2 * math.pi - 0.04) * i / 599 for i in range(600)]
    for p, q in _critical_family():
        phi = riley_polynomial(schubert_knot(p, q).bridge_word)
        expected = [len(su2_solutions(phi, theta).roots) for theta in thetas]
        assert su2_root_counts(phi, thetas) == expected, (p, q)


def test_batched_root_counts_argument_checks():
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    with pytest.raises(ValueError):
        su2_root_counts(phi, [1.0, 0.0])
    with pytest.raises(ValueError):
        su2_root_counts(phi, [7.0])
    with pytest.raises(ValueError):
        su2_root_counts(RileyPoly([]), [1.0])
    # a unit that is not a power of s leaves no common real phase
    skewed = RileyPoly([IntLaurent(0, (1,)), IntLaurent(0, (1, 1))])
    with pytest.raises(ValueError, match="not real"):
        su2_solutions(skewed, 1.0)
    with pytest.raises(ValueError, match="not real"):
        su2_root_counts(skewed, [0.5, 1.0])


def test_build_rep_residuals_on_variety():
    rng = random.Random(9)
    for name in catalog.knot_names():
        p = catalog.knot(name)
        phi = riley_polynomial(p.bridge_word)
        for _ in range(25):
            theta = rng.uniform(0.9, 2 * math.pi - 0.9)
            sols = su2_solutions(phi, theta)
            for u in sols.roots:
                rep = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))
                assert max(rep.relator_residuals) <= 1e-10
                assert all(abs(np.linalg.det(m) - 1.0) <= RELATION_TOL for m in rep.images)


def test_build_rep_trace_identities():
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    theta = 2.9
    s = cmath.exp(1j * theta)
    sq = cmath.exp(0.5j * theta)
    u = su2_solutions(phi, theta).roots[0]
    rep = build_rep(p, s, u, sq)
    assert abs(rep.trace_meridian - (sq + 1 / sq)) < 1e-12
    assert abs(torsion_polynomial(rep).trace_sq - (s + 1 / s)) < 1e-12


def test_build_rep_dihedral_trace_zero():
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    u = su2_solutions(phi, math.pi).roots[1]
    rep = build_rep(p, cmath.exp(1j * math.pi), u, sqrt_s=1j)
    assert abs(rep.trace_meridian) < 1e-12


def test_build_rep_rejections():
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    u = su2_solutions(phi, math.pi).roots[0]
    s = cmath.exp(1j * math.pi)
    with pytest.raises(RepresentationError, match="variety"):
        build_rep(p, s, u + 1e-3, sqrt_s=1j)
    with pytest.raises(RepresentationError, match="square root"):
        build_rep(p, s, u, sqrt_s=1.0)
    bare = Presentation(("x", "y"), p.relators)
    with pytest.raises(RepresentationError, match="bridge"):
        build_rep(bare, s, u, sqrt_s=1j)


def test_build_rep_off_variety_diagnostic_mode():
    # the abelian-parameter probe (s, u) = (1, 0) is off the variety; the
    # permissive path records the failure instead of raising
    p = catalog.knot("5_2")
    rep = build_rep(p, 1.0, 0.0, sqrt_s=1.0, check=False)
    assert max(rep.relator_residuals) > 0.5
    assert not rep.irreducible


def test_adjoint_matches_closed_form():
    # representation matrices of the adjoint in the basis (E, H, F)
    rng = random.Random(17)
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    for _ in range(20):
        theta = rng.uniform(0.9, 2 * math.pi - 0.9)
        sols = su2_solutions(phi, theta)
        if not sols.roots:
            continue
        u = rng.choice(sols.roots)
        s = cmath.exp(1j * theta)
        rep = build_rep(p, s, u, cmath.exp(0.5j * theta))
        adj = [rep.adjoint_prefixes(Word.gen(g))[1] for g in range(2)]
        expected_x = np.array(
            [[s, -2, -1 / s], [0, 1, 1 / s], [0, 0, 1 / s]], dtype=complex
        )
        expected_y = np.array(
            [[s, 0, 0], [s * u, 1, 0], [-s * u * u, -2 * u, 1 / s]], dtype=complex
        )
        assert np.max(np.abs(adj[0] - expected_x)) < 1e-12
        assert np.max(np.abs(adj[1] - expected_y)) < 1e-12
        for m in adj:
            assert abs(np.linalg.det(m) - 1.0) < 1e-10


def test_adjoint_identity():
    assert np.max(np.abs(adjoint_of_matrix(np.eye(2, dtype=complex)) - np.eye(3))) == 0.0


def test_adjoint_branch_independence_exact():
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    theta = 2.7
    u = su2_solutions(phi, theta).roots[0]
    s = cmath.exp(1j * theta)
    sq = cmath.exp(0.5j * theta)
    plus = build_rep(p, s, u, sq)
    minus = build_rep(p, s, u, -sq)
    # every prefix of the relator, the generators among them
    for w in p.relators + (Word.gen(0), Word.gen(1, -1)):
        assert np.array_equal(plus.adjoint_prefixes(w), minus.adjoint_prefixes(w))


def test_adjoint_multiplicativity_random_subwords():
    rng = random.Random(19)
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    theta = 2.8
    u = su2_solutions(phi, theta).roots[2]
    rep = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))
    generators = [adjoint_of_matrix(m) for m in rep.images + rep.inverses]
    for _ in range(50):
        w1 = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(8))])
        w2 = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(8))])
        lhs = rep.adjoint_prefixes(w1 * w2)[-1]
        rhs = rep.adjoint_prefixes(w1)[-1] @ rep.adjoint_prefixes(w2)[-1]
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        w = w1 * w2
        chain = rep.adjoint_prefixes(w)
        assert chain.shape == (len(w.letters) + 1, 3, 3)
        assert np.array_equal(chain[0], np.eye(3))
        product = np.eye(3, dtype=complex)
        for k, (g, e) in enumerate(w.letters, start=1):
            product = product @ generators[g if e == 1 else 2 + g]
            # Ad circ rho is multiplicative: the product of the generators'
            # adjoints, and to the bit the closed form of the 2x2 prefix
            assert np.max(np.abs(chain[k] - product)) < 1e-12
            assert np.array_equal(chain[k], adjoint_of_matrix(rep.of_word(Word(w.letters[:k]))))


def test_zero_set_matches_representations():
    # every enumerated root builds; off-curve points are rejected
    rng = random.Random(23)
    built = 0
    for name in catalog.knot_names():
        p = catalog.knot(name)
        phi = riley_polynomial(p.bridge_word)
        while built < 100 * (1 + (name == "trefoil")):
            theta = rng.uniform(0.75, 2 * math.pi - 0.75)
            sols = su2_solutions(phi, theta)
            if not sols.roots:
                continue
            u = rng.choice(sols.roots)
            rep = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))
            residual, scale = phi.residual_and_scale(rep.s, rep.u)
            assert residual <= 1e-8 * scale
            built += 1
            if rng.random() < 0.2:
                with pytest.raises(RepresentationError):
                    build_rep(p, cmath.exp(1j * theta), u + 2e-3, cmath.exp(0.5j * theta))


def test_rep_from_raw_matrices():
    p = catalog.knot("trefoil")
    phi = riley_polynomial(p.bridge_word)
    theta = 2.2
    u = su2_solutions(phi, theta).roots[0]
    rep = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))
    again = Rep(p, rep.images)
    assert max(again.relator_residuals) <= 1e-10
    assert again.irreducible
    with pytest.raises(RepresentationError):
        Rep(p, [np.eye(2), np.array([[1, 1], [0, 1]])])


@pytest.mark.parametrize("p, q", [(5, 3), (15, 7), (21, 5), (31, 7), (41, 11)])
def test_stacked_roots_are_the_single_theta_roots(p, q):
    # one root finder: a stack of thetas (one eigvals call per degree) gives
    # every theta the very roots it gets alone, and the counts are their
    # lengths; b(21,5) and larger are ill-conditioned, so any difference in
    # rounding would show
    phi = riley_polynomial(schubert_knot(p, q).bridge_word)
    rng = random.Random(p * 100 + q)
    thetas = [rng.uniform(0.05, 2 * math.pi - 0.05) for _ in range(40)] + [math.pi]
    single = [su2_solutions(phi, theta) for theta in thetas]
    assert su2_solutions(phi, thetas) == single
    assert su2_root_counts(phi, thetas) == [len(s.roots) for s in single]


def test_stacked_build_rep_matches_single_points():
    # in both frames
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    points = [(theta, u) for theta in (0.9, 2.3, math.pi, 4.1) for u in su2_solutions(phi, theta).roots]
    thetas = np.array([theta for theta, _ in points])
    for frame in ("riley", "su2"):
        stack = build_rep(p, np.exp(1j * thetas), [u for _, u in points], np.exp(0.5j * thetas), frame=frame)
        assert stack.stacked and stack.images[0].shape == (len(points), 2, 2)
        for i, (theta, u) in enumerate(points):
            single = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta), frame=frame)
            assert not single.stacked
            for a, b in zip(stack.images + stack.inverses, single.images + single.inverses):
                assert np.array_equal(a[i], b)
            r = p.relators[0]
            assert np.array_equal(stack.prefixes(r)[:, i], single.prefixes(r))
            assert np.array_equal(stack.adjoint_prefixes(r)[:, i], single.adjoint_prefixes(r))
            assert stack.relator_residuals[0][i] == single.relator_residuals[0]
            assert stack.trace_meridian[i] == single.trace_meridian
            assert stack.irreducible[i] == single.irreducible


def test_stack_raises_the_first_failing_points_error():
    # a stack fails like its first failing point fails on its own, naming
    # the first check that point fails
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    thetas = [2.3, 2.6, math.pi, 3.6, 4.0]
    s = [cmath.exp(1j * t) for t in thetas]
    sq = [cmath.exp(0.5j * t) for t in thetas]
    u = [su2_solutions(phi, t).roots[0] for t in thetas]
    u[2] += 1e-3  # off the variety
    u[4] += 2e-3
    with pytest.raises(RepresentationError) as alone:
        build_rep(p, s[2], u[2], sq[2])
    with pytest.raises(RepresentationError) as stacked:
        build_rep(p, np.array(s), np.array(u), np.array(sq))
    assert "does not vanish" in str(alone.value)
    assert str(stacked.value) == str(alone.value)
    sq[1] = 1.0  # an earlier point with the wrong square root fails first
    with pytest.raises(RepresentationError, match="^sqrt_s is not a square root of s$"):
        build_rep(p, np.array(s), np.array(u), np.array(sq))
    # without checks (the square root is always checked) the stack is built
    # and keeps the residuals
    sq[1] = cmath.exp(0.5j * thetas[1])
    rep = build_rep(p, np.array(s), np.array(u), np.array(sq), check=False)
    assert rep.relator_residuals[0][2] > 1e-6 >= rep.relator_residuals[0][0]


def _frames(knot, thetas, roots):
    """The Riley and the su2 frame of one stack of SU(2) points."""
    s, sq = np.exp(1j * thetas), np.exp(0.5j * thetas)
    return build_rep(knot, s, roots, sq), build_rep(knot, s, roots, sq, frame="su2")


def test_su2_frame_images_are_unit_quaternions_with_riley_traces():
    # unitary with determinant 1 within 1e-15, and conjugate to Riley's pair:
    # the traces of x, y and xy agree within 1e-14; on the catalog knots
    # across their windows and on every family knot at pi
    stacks = []
    for name in ("5_2", "trefoil"):
        p = catalog.knot(name)
        sols = su2_solutions(riley_polynomial(p.bridge_word), [0.9, 1.3, 2.0, 2.7, math.pi, 4.1, 5.5])
        points = [(s.theta, u) for s in sols for u in s.roots]
        stacks.append((p, np.array([t for t, _ in points]), [u for _, u in points]))
    stacks += [(knot, np.full(len(roots), math.pi), roots) for knot, _, roots in family_roots_at_pi()]
    for knot, thetas, roots in stacks:
        riley, su2 = _frames(knot, thetas, roots)
        assert su2.unitary and not riley.unitary
        for m in su2.images:
            assert m.shape == (len(roots), 2, 2)
            assert np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(2)).max() <= 1e-15
            assert np.abs(np.linalg.det(m) - 1.0).max() <= 1e-15
        for a, b in zip(riley.images + (riley.images[0] @ riley.images[1],),
                        su2.images + (su2.images[0] @ su2.images[1],)):
            assert np.abs(np.trace(a, axis1=-2, axis2=-1) - np.trace(b, axis1=-2, axis2=-1)).max() <= 1e-14


def test_su2_frame_sign_twist_is_exact():
    # -sqrt_s gives exactly -x and -y, so Ad keeps every bit
    p = catalog.knot("5_2")
    for theta in (0.9, 2.7, math.pi, 4.1):
        for u in su2_solutions(riley_polynomial(p.bridge_word), theta).roots:
            s, sq = cmath.exp(1j * theta), cmath.exp(0.5j * theta)
            plus = build_rep(p, s, u, sq, frame="su2")
            minus = build_rep(p, s, u, -sq, frame="su2")
            for a, b in zip(plus.images, minus.images):
                assert np.array_equal(b, -a)
            for w in p.relators:
                assert np.array_equal(plus.adjoint_prefixes(w), minus.adjoint_prefixes(w))


def test_su2_frame_builds_a_root_within_the_slack_and_rejects_points_off_su2():
    # su2_solutions keeps the trefoil's root u = 3.3e-16 at theta = pi/3,
    # just above the window [sigma - 2, 0]; it is the abelian point
    # Delta(s) = 0, so phi(s, u) fails its relative check in either frame.
    # Unchecked, the su2 frame builds it clamped to u = 0, where y = x
    p = catalog.knot("trefoil")
    theta = math.pi / 3
    (u,) = su2_solutions(riley_polynomial(p.bridge_word), theta).roots
    assert 0.0 < u <= INTERVAL_SLACK
    s, sq = cmath.exp(1j * theta), cmath.exp(0.5j * theta)
    for frame in ("riley", "su2"):
        with pytest.raises(RepresentationError, match="does not vanish"):
            build_rep(p, s, u, sq, frame=frame)
    rep = build_rep(p, s, u, sq, check=False, frame="su2")
    assert rep.u == u and np.array_equal(rep.images[0], rep.images[1])
    # and below the window: clamped to u = sigma - 2, where y = x^-1
    s, sq = cmath.exp(2j), cmath.exp(1j)
    rep = build_rep(p, s, 2 * s.real - 2 - INTERVAL_SLACK / 2, sq, check=False, frame="su2")
    assert np.abs(rep.images[1] - rep.inverses[0]).max() <= 1e-15
    # off SU(2): past the slack, |s| != 1, a complex u; checked even without
    # the variety checks
    s, sq = cmath.exp(1j * theta), cmath.exp(0.5j * theta)
    for point in ((s, 3 * INTERVAL_SLACK, sq), (4.0, 0.5, 2.0), (s, u + 1e-3j, sq)):
        with pytest.raises(RepresentationError, match="not an SU.2. point"):
            build_rep(p, *point, frame="su2", check=False)
    with pytest.raises(ValueError, match="frame"):
        build_rep(p, s, u, sq, frame="unitary")


def test_unitary_rep_needs_unit_quaternion_images():
    p = catalog.knot("5_2")
    theta = 2.7
    u = su2_solutions(riley_polynomial(p.bridge_word), theta).roots[0]
    su2 = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta), frame="su2")
    again = Rep(p, su2.images, unitary=True)
    assert np.array_equal(again.prefixes(p.relators[0]), su2.prefixes(p.relators[0]))
    riley = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))
    with pytest.raises(RepresentationError, match="not in SU.2."):
        Rep(p, riley.images, unitary=True)


def test_su2_prefix_chain_is_the_quaternion_row_product(monkeypatch):
    # no matmul: each prefix's first row (a, b) goes to
    # (a g - b conj(d), a d + b conj(g)) per letter (g, d), with the letter's
    # inverse (conj(g), -d), and an x letter (d = 0) gives the same bits as
    # one product; the chain agrees with the matrix products to rounding
    def no_matmul(*args, **kwargs):
        raise AssertionError("np.matmul called")

    knot = schubert_knot(41, 11)
    roots = np.array(su2_solutions(riley_polynomial(knot.bridge_word), 2.0).roots)
    thetas = np.full(len(roots), 2.0)
    riley, _ = _frames(knot, thetas, roots)
    words = [knot.relators[0], Word([(0, 1)] * 5 + [(1, -1), (0, -1), (1, 1)] * 3)]
    monkeypatch.setattr(np, "matmul", no_matmul)
    su2 = rep_at(knot, thetas, roots, Tolerances())
    single = rep_at(knot, 2.0, roots[3], Tolerances())
    chains = [su2.prefixes(w) for w in words]
    monkeypatch.undo()
    for w, chain in zip(words, chains):
        a, b = np.ones(len(roots), dtype=complex), np.zeros(len(roots), dtype=complex)
        for k, (g, e) in enumerate(w.letters, start=1):
            gamma, delta = su2.images[g][:, 0, 0], su2.images[g][:, 0, 1]
            if e == -1:
                gamma, delta = gamma.conj(), -delta
            a, b = a * gamma - b * delta.conj(), a * delta + b * gamma.conj()
            assert np.array_equal(chain[k, :, 0, 0], a) and np.array_equal(chain[k, :, 0, 1], b)
        assert np.array_equal(chain[:, :, 1, 0], -chain[:, :, 0, 1].conj())
        assert np.array_equal(chain[:, :, 1, 1], chain[:, :, 0, 0].conj())
        assert np.array_equal(single.prefixes(w), chain[:, 3])
        matrices = Rep(knot, su2.images, check=False).prefixes(w)
        assert np.abs(matrices - chain).max() <= 1e-13
    assert np.abs(riley.relator_residuals[0]).max() > np.abs(su2.relator_residuals[0]).max()
