import cmath
import math
import random

import numpy as np
import pytest

from adtorsion import catalog
from adtorsion.laurent import IntLaurent
from adtorsion.presentation import Presentation
from adtorsion.reps import (
    Rep,
    RepresentationError,
    RileyPoly,
    _UPoly,
    adjoint_images,
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

from adtorsion.torsion import alexander_at_minus_one, untwisted_alexander
from test_torsion import schubert_knot

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
    # (p - 1)/2, and a monic sigma-form
    family = [(p, q) for p in range(3, 42, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
    assert len(family) == 178
    for p, q in family:
        knot = schubert_knot(p, q)
        phi = riley_polynomial(knot.bridge_word)
        assert alexander_at_minus_one(knot) == p, (p, q)
        assert phi.coefficient(0).equal_up_to_unit(untwisted_alexander(knot)), (p, q)
        assert phi.u_degree == (p - 1) // 2, (p, q)
        form = phi.sigma_form()
        assert form is not None and form[-1] == [1], (p, q)


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


def test_batched_root_counts_match_su2_solutions():
    # every probe point of su2_root_count_thresholds (2000 sigma values) and
    # of auto_theta_range (600 thetas), on the 24 knots b(p, q) with odd
    # p <= 15 that the critical benchmark searches
    lo, hi = -2.0, 1.995
    sigmas = [lo + (hi - lo) * i / 1999 for i in range(2000)]
    thetas = [math.acos(max(-1.0, min(1.0, s / 2.0))) for s in sigmas]
    thetas += [0.02 + (2 * math.pi - 0.04) * i / 599 for i in range(600)]
    knots = [(p, q) for p in range(3, 16, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
    assert len(knots) == 24
    for p, q in knots:
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
                assert rep.special_linear
                assert rep.su2_params


def test_build_rep_trace_identities():
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    theta = 2.9
    s = cmath.exp(1j * theta)
    sq = cmath.exp(0.5j * theta)
    u = su2_solutions(phi, theta).roots[0]
    rep = build_rep(p, s, u, sq)
    assert abs(rep.trace_meridian - (sq + 1 / sq)) < 1e-12
    assert abs(rep.trace_meridian_sq - (s + 1 / s)) < 1e-12


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
        adj = adjoint_images(rep)
        expected_x = np.array(
            [[s, -2, -1 / s], [0, 1, 1 / s], [0, 0, 1 / s]], dtype=complex
        )
        expected_y = np.array(
            [[s, 0, 0], [s * u, 1, 0], [-s * u * u, -2 * u, 1 / s]], dtype=complex
        )
        assert np.max(np.abs(adj.matrices[0] - expected_x)) < 1e-12
        assert np.max(np.abs(adj.matrices[1] - expected_y)) < 1e-12
        for m in adj.matrices:
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
    plus = adjoint_images(build_rep(p, s, u, sq))
    minus = adjoint_images(build_rep(p, s, u, -sq))
    for a, b in zip(plus.matrices, minus.matrices):
        assert np.array_equal(a, b)


def test_adjoint_multiplicativity_random_subwords():
    rng = random.Random(19)
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    theta = 2.8
    u = su2_solutions(phi, theta).roots[2]
    rep = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))
    adj = adjoint_images(rep)
    for _ in range(50):
        w1 = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(8))])
        w2 = Word([(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(8))])
        lhs = adj.of_word(w1 * w2)
        rhs = adj.of_word(w1) @ adj.of_word(w2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9
        # Ad circ rho is multiplicative against the 2x2 route too
        assert np.max(np.abs(adj.of_word(w1) - adjoint_of_matrix(rep.of_word(w1)))) < 1e-9


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
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    points = [(theta, u) for theta in (0.9, 2.3, math.pi, 4.1) for u in su2_solutions(phi, theta).roots]
    thetas = np.array([theta for theta, _ in points])
    stack = build_rep(p, np.exp(1j * thetas), [u for _, u in points], np.exp(0.5j * thetas))
    assert stack.stacked and stack.images[0].shape == (len(points), 2, 2)
    for i, (theta, u) in enumerate(points):
        single = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))
        assert not single.stacked
        for a, b in zip(stack.images + stack.inverses, single.images + single.inverses):
            assert np.array_equal(a[i], b)
        for a, b in zip(stack.adjoint.matrices, single.adjoint.matrices):
            assert np.array_equal(a[i], b)
        assert stack.relator_residuals[0][i] == single.relator_residuals[0]
        assert stack.trace_meridian[i] == single.trace_meridian
        assert stack.irreducible[i] == single.irreducible
        assert stack.su2_params[i] == single.su2_params


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
