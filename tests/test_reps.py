import cmath
import bisect
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from adtorsion import catalog, locus, reps
from adtorsion.laurent import IntLaurent
from adtorsion.locus import auto_theta_range, find_critical_points, rep_at
from adtorsion.presentation import Presentation, PresentationError
from adtorsion.reps import (
    INTERVAL_SLACK,
    RELATION_TOL,
    Rep,
    RepresentationError,
    RileyPoly,
    _UPoly,
    adjoint_of_matrix,
    build_rep,
    riley_assignment,
    riley_polynomial,
    su2_root_count_thresholds,
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
from test_torsion import riley_rep, schubert_knot, schubert_word

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
        ("riley_polynomial", lambda w: RileyPoly([*riley_polynomial(w).coeffs, IntLaurent.one()]),
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


def _sign_at(coeffs, u: float) -> int:
    """The sign of sum coeffs[k] u^k, exact in Fractions."""
    acc, x = 0, Fraction(u)
    for c in reversed(coeffs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def test_family_roots_at_pi_bracket_a_sign_change_of_the_exact_polynomial():
    # phi(-1, u) has integer coefficients, and phi(sigma, u) integer
    # coefficients in sigma: evaluated exactly in Fractions, at theta = pi
    # and at the float sigma = 2 cos(theta) of three thetas off pi in each
    # knot's auto window, phi changes sign within 1e-12 max(1, |u|) of
    # every root
    off_pi = 0
    for (knot, phi, roots), pq in zip(family_roots_at_pi(), FAMILY):
        ints = [c(-1) for c in phi.coeffs]
        assert all(v.imag == 0.0 and v.real == int(v.real) for v in ints), pq
        at_sigma = [([int(v.real) for v in ints], roots)]
        lo, hi = auto_theta_range(phi)
        stack = su2_solutions(phi, [lo + (hi - lo) * k / 8 for k in (1, 2, 3)])
        for sigma, us in zip(stack.sigmas, stack.roots):
            sigma = Fraction(sigma)
            coeffs = [sum(c * sigma**i for i, c in enumerate(row)) for row in phi.sigma_form()]
            at_sigma.append((coeffs, us))
            off_pi += len(us)
        for coeffs, us in at_sigma:
            for u in us:
                delta = 1e-12 * max(1.0, abs(u))
                assert _sign_at(coeffs, u - delta) * _sign_at(coeffs, u + delta) < 0, (pq, u)
    assert off_pi > 0


def test_family_roots_at_pi_build_as_one_stack_per_knot():
    for knot, _, roots in family_roots_at_pi():
        theta = np.full(len(roots), math.pi)
        rep = build_rep(knot, np.exp(1j * theta), roots, np.exp(0.5j * theta))
        assert max(map(np.max, rep.relator_residuals)) <= RELATION_TOL


def test_family_limit_route_failures_at_pi():
    # one theta = pi stack per family knot, built by build_rep, which takes
    # the unitary frame at these SU(2) points: the limit route finds no
    # simple zero at 9 of the 2415 binary dihedral points (the formula route
    # gives their value), and at no more.  Riley's pair over sqrt(s) fails
    # at 99 of them
    failed = 0
    for knot, _, roots in family_roots_at_pi():
        theta = np.full(len(roots), math.pi)
        rep = build_rep(knot, np.exp(1j * theta), roots, np.exp(0.5j * theta))
        failed += sum(result.limit_value is None for result in compute_torsion(rep, Tolerances()))
    assert failed <= 9


def test_family_limit_route_in_the_unitary_frame():
    # the family's 3801 SU(2) points at theta = pi, 2 and 1.3 as rep_at
    # builds them, one stack per knot and theta: the limit route finds a
    # simple zero at all but 9 of the 2415 binary dihedral points and at
    # every point at theta = 2 and 1.3; the largest division remainder is
    # 3.54e-9 of max |Delta_1| and |Im T| at most 3.4e-12 of |T| (Riley's
    # pair over sqrt(s): 99/19/4 failures, 4.9e-7 and 2.4e-8)
    failed = {math.pi: 0, 2.0: 0, 1.3: 0}
    for knot, phi, _ in family_roots_at_pi():
        for theta, roots in zip(failed, su2_solutions(phi, list(failed)).roots):
            if not roots:
                continue
            rep = rep_at(knot, np.full(len(roots), theta), roots)
            for tp, result in zip(torsion_polynomial(rep), compute_torsion(rep)):
                failed[theta] += result.limit_value is None
                assert max(tp.remainders) <= 3.6e-9 * tp.scale
                assert abs(result.value.imag) <= 5e-12 * abs(result.value)
    assert failed[math.pi] <= 9 and failed[2.0] == failed[1.3] == 0


@pytest.mark.parametrize("p, q", [(41, 11), (37, 1)])
def test_default_build_is_real_on_long_words(p, q):
    # build_rep without a frame argument at every SU(2) root at theta = pi,
    # 2 and 1.3: the torsion is real within 1e-12 of |T| (Riley's pair over
    # sqrt(s) reads 4.8e-10 on b(41,11) and 2.6e-10 on b(37,1)), and the
    # relator residual is below Riley's
    knot = schubert_knot(p, q)
    stack = su2_solutions(riley_polynomial(knot.bridge_word), [math.pi, 2.0, 1.3])
    for at, roots in zip(stack.thetas, stack.roots):
        theta = np.full(len(roots), at)
        rep = build_rep(knot, np.exp(1j * theta), roots, np.exp(0.5j * theta))
        for result in compute_torsion(rep, Tolerances()):
            assert abs(result.value.imag) <= 1e-12 * abs(result.value), (at, result.value)
        riley = riley_rep(knot, np.exp(1j * theta), np.array(roots), np.exp(0.5j * theta))
        assert riley.relator_residuals[0].max() > rep.relator_residuals[0].max()


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
            su2_solutions(phi, [theta])


def test_residual_and_scale_are_the_term_by_term_sums():
    # one evaluation of each coefficient gives |phi| and the scale, bit for
    # bit as Horner's rule and the sum of term magnitudes, floored by the
    # largest |c_k(s)|, give them
    for knot in (catalog.knot("5_2"), schubert_knot(41, 11)):
        phi = riley_polynomial(knot.bridge_word)
        stack = su2_solutions(phi, [1.1, 2.3, math.pi, 4.0, 5.2])
        points = [(theta, u) for theta, roots in zip(stack.thetas, stack.roots) for u in roots]
        s = np.exp(1j * np.array([t for t, _ in points]))
        u = np.array([u for _, u in points], dtype=complex)
        value = 0j
        for c in reversed(phi.coeffs):
            value = value * u + c(s)
        total = 0.0
        for d, c in enumerate(phi.coeffs):
            total += abs(c(s)) * abs(u) ** d
        top = np.maximum.reduce([abs(c(s)) for c in phi.coeffs])
        residual, scale = phi.residual_and_scale(s, u)
        assert len(points) >= 5
        assert np.array_equal(residual, abs(value))
        assert np.array_equal(scale, np.maximum(np.maximum(total, top), 1e-300))


@pytest.mark.parametrize("name", ["trefoil", "b(9,1)"])
def test_phi_check_accepts_a_reducible_root(name):
    # at sigma = 1, s = e^{i pi / 3}, Delta(s) = 0 and u = 0 is a root of
    # phi(s, u) where every term vanishes: residual and term sum are the
    # same rounding, 2.5e-16 on the trefoil.  The largest |c_k(s)| gives
    # the scale, so the point builds, and u + 1e-3 is still off the variety
    knot = catalog.knot(name)
    phi = riley_polynomial(knot.bridge_word)
    s = cmath.exp(1j * math.pi / 3)
    residual, scale = phi.residual_and_scale(s, 0.0)
    assert residual <= 1e-15 and scale >= 1.0
    assert max(build_rep(knot, s, 0.0, tol=RELATION_TOL).relator_residuals) <= 1e-12
    with pytest.raises(RepresentationError, match="does not vanish"):
        build_rep(knot, s, 1e-3, tol=RELATION_TOL)


def test_riley_poly_from_coefficients_alone_finds_the_roots():
    # the root finder reads phi's coefficients, not the word it came from:
    # on b(41,11), at theta = 17 pi / 26, where cos(13 theta) = 0, a
    # polynomial rebuilt from the coefficients finds the same 8 roots
    phi = riley_polynomial(schubert_knot(41, 11).bridge_word)
    clone = RileyPoly(phi.coeffs)
    assert clone == phi and clone is not phi
    theta = 17 * math.pi / 26
    stack, clone_stack = (reps.su2_solutions(poly, [theta]) for poly in (phi, clone))
    assert stack.counts.tolist() == [8]
    assert stack.table.tobytes() == clone_stack.table.tobytes()
    assert clone_stack.near_multiple == stack.near_multiple


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
    # to the last bit to theta's row and near-multiple flag in a stack of one
    # and in a stack of 48; an equal polynomial rebuilt from the coefficients
    # shares the entry, and a stacked call leaves the memo as it is
    phi = riley_polynomial(schubert_knot(41, 11).bridge_word)
    thetas = [1.9 + 0.01 * k for k in range(48)]
    theta = thetas[17]
    su2_solutions.cache_clear()
    first = su2_solutions(phi, theta)
    assert su2_solutions(phi, theta) is first
    assert su2_solutions(RileyPoly(phi.coeffs), np.float64(theta)) is first
    info = su2_solutions.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    assert len(first.roots) > 1
    row = np.array(first.roots).tobytes()
    for stack, i in ((su2_solutions(phi, [theta]), 0), (su2_solutions(phi, thetas), 17)):
        assert (stack.thetas[i], stack.sigmas[i]) == (first.theta, first.sigma)
        assert stack.table[i, :stack.counts[i]].tobytes() == row and stack.roots[i] == first.roots
        assert stack.near_multiple[i] is first.any_near_multiple
    assert su2_solutions.cache_info() == info


def test_an_empty_theta_sequence_is_an_empty_stack(monkeypatch):
    # a critical search whose folded samples all sit within PI_SLACK of pi
    # has no sample: its one root stack holds pi alone, and it still reports
    # 5_2's 3 dihedral points
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    stack = su2_solutions(phi, [])
    assert isinstance(stack, reps.Su2Stack) and stack.table.shape == (0, phi.u_degree)
    assert stack.counts.tolist() == stack.thetas == stack.sigmas == stack.roots == stack.near_multiple == []
    stacks, solutions = [], locus.su2_solutions

    def recorded(phi, thetas, **kwargs):
        stacks.append(list(thetas))
        return solutions(phi, thetas, **kwargs)

    monkeypatch.setattr(locus, "su2_solutions", recorded)
    report = find_critical_points(p, math.pi - 1e-13, math.pi + 1e-13, 2)
    assert stacks == [[math.pi]] and report.dihedral_count == 3 and not report.notes


def test_memo_keys_on_the_multiplicity_threshold():
    # two roots 0.071 apart, just below the 5_2 count threshold: flagged
    # under a threshold of 0.1, not under the default
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    theta = math.acos((SIGMA_STAR - 1e-3) / 2.0)
    su2_solutions.cache_clear()
    tight = su2_solutions(phi, theta)
    wide = su2_solutions(phi, theta, multiplicity_threshold=0.1)
    assert tight.roots == wide.roots
    assert not tight.any_near_multiple and wide.any_near_multiple
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
    # one solve for d requests, keyed on phi's hash, computed once when phi
    # was built: no coefficient is hashed again
    solved = []
    solve = reps._su2_roots

    def counted(source, thetas, *args):
        solved.append(len(thetas))
        return solve(source, thetas, *args)

    def unhashable(self):
        raise AssertionError("the memo key hashes the polynomial's coefficients")

    monkeypatch.setattr(reps, "_su2_roots", counted)
    phi = riley_polynomial(schubert_knot(13, 5).bridge_word)
    monkeypatch.setattr(IntLaurent, "__hash__", unhashable)
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
    # the single root leaves the window where phi(sigma, 0) = 0, at 3/2
    # exactly: a root that is a float is found as itself
    assert 1.5 in thresholds


def _sigma_thetas(sigmas):
    return [max(1e-9, math.acos(max(-1.0, min(1.0, s / 2.0)))) for s in sigmas]


def _critical_family():
    """The 24 knots b(p, q) with odd p <= 15 that the critical benchmark searches."""
    knots = [(p, q) for p in range(3, 16, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]
    assert len(knots) == 24
    return knots


def test_thresholds_match_the_count_changes_of_the_whole_grid():
    # the root count on a 2000-point sigma grid, one stack per knot, is the
    # oracle: every change between neighbouring grid points holds a
    # breakpoint, and between two consecutive breakpoints the count is one,
    # on the 24 knots b(p, q) with odd p <= 15 that the critical benchmark
    # searches
    lo, hi, n = -2.0, 1.995, 2000
    grid = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    thetas = _sigma_thetas(grid)
    for p, q in _critical_family():
        phi = riley_polynomial(schubert_knot(p, q).bridge_word)
        counts = su2_solutions(phi, thetas).counts.tolist()
        changes = [(a, b) for a, b, ca, cb in zip(grid, grid[1:], counts, counts[1:]) if ca != cb]
        thresholds = su2_root_count_thresholds(phi)
        assert changes, (p, q)
        for a, b in changes:
            assert any(a <= t <= b for t in thresholds), (p, q, a, b)
        runs: dict[int, set[int]] = {}
        for sigma, count in zip(grid, counts):
            runs.setdefault(bisect.bisect(thresholds, sigma), set()).add(count)
        assert all(len(found) == 1 for found in runs.values()), (p, q, runs)


def test_thresholds_of_the_critical_family_keep_a_root_solve_budget(monkeypatch):
    # the breakpoints come from exact integer polynomials: the 24 searches'
    # breakpoints solve no root stack, where the numeric threshold search
    # solved 4 617 theta
    solved = []
    solve = reps._su2_roots

    def counted(phi, thetas, *args):
        solved.append(len(thetas))
        return solve(phi, thetas, *args)

    monkeypatch.setattr(reps, "_su2_roots", counted)
    for p, q in _critical_family():
        su2_root_count_thresholds(riley_polynomial(schubert_knot(p, q).bridge_word))
    assert sum(solved) == 0


@pytest.mark.parametrize("p, q, sigma", [(27, 5, 0.25), (27, 11, 0.25), (33, 5, 0.75), (33, 13, 0.75)])
def test_breakpoints_hold_the_crossings(p, q, sigma):
    # two root branches cross at a double root of disc_u phi inside the
    # window, where the root count does not change (u = -3/4 at sigma = 1/4,
    # u = -1/4 at sigma = 3/4); its square-free part changes sign there
    phi = riley_polynomial(schubert_knot(p, q).bridge_word)
    assert sigma in su2_root_count_thresholds(phi)
    counts = su2_solutions(phi, _sigma_thetas([sigma - 1e-3, sigma + 1e-3])).counts
    assert counts[0] == counts[1]


def test_batched_root_counts_argument_checks():
    # the sequence path of su2_solutions, whose lengths auto_theta_range counts
    phi = riley_polynomial(_two_gen_word("x^-1 y^-1 x y x^-1 y^-1"))
    with pytest.raises(ValueError):
        su2_solutions(phi, [1.0, 0.0])
    with pytest.raises(ValueError):
        su2_solutions(phi, [7.0])
    with pytest.raises(ValueError):
        su2_solutions(RileyPoly([]), [1.0])
    # a unit that is not a power of s leaves no common real phase
    skewed = RileyPoly([IntLaurent(0, (1,)), IntLaurent(0, (1, 1))])
    with pytest.raises(ValueError, match="not real"):
        su2_solutions(skewed, 1.0)
    with pytest.raises(ValueError, match="not real"):
        su2_solutions(skewed, [0.5, 1.0])


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
        rep = riley_rep(p, s, u, cmath.exp(0.5j * theta))
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


def _inverses(rep):
    """The inverse of every generator's image, read through the prefix chain."""
    return tuple(rep.of_word(Word.gen(j, -1)) for j in range(len(rep.images)))


def test_adjoint_multiplicativity_random_subwords():
    rng = random.Random(19)
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    theta = 2.8
    u = su2_solutions(phi, theta).roots[2]
    rep = build_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta))
    generators = [adjoint_of_matrix(m) for m in rep.images + _inverses(rep)]
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


# a theta per knot where roots crowd: on b(39,25) three within 0.07 of each
# other (sigma = -1.48), where the colleague matrix loses accuracy; on
# b(7,3) = 5_2 its count threshold, where a double root is flagged
# near-multiple, and a theta just below it, flagged under a threshold of 0.1
# only
_CLUSTERS = {
    (39, 25): [2.402364735126055],
    (7, 3): [math.acos(SIGMA_STAR / 2.0), math.acos((SIGMA_STAR - 1e-3) / 2.0)],
}


@pytest.mark.parametrize("p, q", [(5, 3), (7, 3), (15, 7), (21, 5), (31, 7), (41, 11), (39, 25)])
def test_stacked_roots_are_the_single_theta_roots(p, q):
    # one root finder: a stack of thetas (one eigvals call per degree) gives
    # every theta the very roots and near-multiple flag it gets alone, as its
    # row and count of the stack's table and its entry of near_multiple,
    # under the default multiplicity threshold and under 0.1;
    # b(21,5) and larger are ill-conditioned, so any difference in rounding
    # would show
    phi = riley_polynomial(schubert_knot(p, q).bridge_word)
    rng = random.Random(p * 100 + q)
    thetas = [rng.uniform(0.05, 2 * math.pi - 0.05) for _ in range(40)] + [math.pi] + _CLUSTERS.get((p, q), [])
    for threshold in (reps.MULTIPLICITY_THRESHOLD, 0.1):
        single = [su2_solutions(phi, theta, multiplicity_threshold=threshold) for theta in thetas]
        stack = su2_solutions(phi, thetas, multiplicity_threshold=threshold)
        assert isinstance(stack, reps.Su2Stack)
        assert (stack.thetas, stack.sigmas) == ([s.theta for s in single], [s.sigma for s in single])
        assert stack.table.shape == (len(thetas), phi.u_degree)
        assert stack.counts.tolist() == [len(sols.roots) for sols in single]
        assert stack.roots == [sols.roots for sols in single]
        assert stack.near_multiple == [sols.any_near_multiple for sols in single]
        for row, sols in zip(stack.table, single):
            n = len(sols.roots)
            assert row[:n].tobytes() == np.array(sols.roots, dtype=float).tobytes()
            assert np.isnan(row[n:]).all()
        if (p, q) == (7, 3):
            assert stack.near_multiple[-2:] == [True, threshold == 0.1]


def assert_stack_has_single_point_bits(p, s, u, sqrt_s):
    """Each point of build_rep's stack at (s, u, sqrt_s) has the bits it
    gets alone, in every per-point attribute and in the relator's chains;
    returns the stack."""
    stack = build_rep(p, np.array(s), np.array(u), np.array(sqrt_s))
    assert stack.stacked and stack.images[0].shape == (len(s), 2, 2)
    for i, point in enumerate(zip(s, u, sqrt_s)):
        single = build_rep(p, *point)
        assert not single.stacked
        for a, b in zip(stack.images + _inverses(stack), single.images + _inverses(single)):
            assert np.array_equal(a[i], b)
        r = p.relators[0]
        assert np.array_equal(stack.prefixes(r)[:, i], single.prefixes(r))
        assert np.array_equal(stack.adjoint_prefixes(r)[:, i], single.adjoint_prefixes(r))
        assert stack.relator_residuals[0][i] == single.relator_residuals[0]
        assert stack.trace_meridian[i] == single.trace_meridian
        assert stack.irreducible[i] == single.irreducible
    return stack


def test_stacked_build_rep_matches_single_points():
    p = catalog.knot("5_2")
    phi = riley_polynomial(p.bridge_word)
    points = [(theta, u) for theta in (0.9, 2.3, math.pi, 4.1) for u in su2_solutions(phi, theta).roots]
    assert_stack_has_single_point_bits(
        p, [cmath.exp(1j * t) for t, _ in points], [u for _, u in points], [cmath.exp(0.5j * t) for t, _ in points]
    )


def test_a_stack_mixing_su2_and_sl2c_points_gives_each_its_frame():
    # all 5 roots of phi(1, u) on b(11,5), one stack at s = e^{i pi/3}: one
    # is real and inside the window [-1, 0], four are complex.  Each
    # point gets its single-point bits; the real ones take the unitary frame
    # (unit quaternions) and the complex ones Riley's pair over sqrt(s), and
    # every point carries Riley's traces of x, y and xy
    p = schubert_knot(11, 5)
    phi = riley_polynomial(p.bridge_word)
    roots = np.roots([sum(row) for row in phi.sigma_form()][::-1])  # sigma = 1
    su2 = (np.abs(roots.imag) <= 1e-9) & (roots.real >= -1.0) & (roots.real <= 0.0)
    assert su2.tolist() == [False] * 4 + [True]
    u = [complex(r.real) if on else complex(r) for r, on in zip(roots, su2)]
    s, sq = [cmath.exp(1j * math.pi / 3)] * len(u), [cmath.exp(1j * math.pi / 6)] * len(u)
    stack = assert_stack_has_single_point_bits(p, s, u, sq)
    riley = riley_rep(p, np.array(s), np.array(u), np.array(sq))
    x, y = stack.images
    for m in stack.images:
        assert np.abs(m[su2] @ m[su2].conj().swapaxes(-1, -2) - np.eye(2)).max() <= 1e-15
        assert np.abs(m[~su2] @ m[~su2].conj().swapaxes(-1, -2) - np.eye(2)).max() > 0.1
    for a, b in zip(riley.images + (riley.images[0] @ riley.images[1],), (x, y, x @ y)):
        assert np.abs(np.trace(a, axis1=-2, axis2=-1) - np.trace(b, axis1=-2, axis2=-1)).max() <= 1e-14
    assert np.array_equal(x[~su2], riley.images[0][~su2]) and np.array_equal(y[~su2], riley.images[1][~su2])


def test_prefixes_and_inverses_are_exact_on_integer_matrices():
    # at s = +-1 Riley's pair and its inverses are integer matrices of
    # determinant +-1, and every prefix of b(41,11)'s 82-letter relator stays
    # below 2^53 at these points: each float product is exact, so every
    # prefix and every inverse equals the product in Python integers, at one
    # point and in a stack
    p = schubert_knot(41, 11)
    r = p.relators[0]
    assert len(r.letters) == 82
    points = [(1, -1), (1, 1), (-1, -1)]
    expected = []
    for s, u in points:
        x = np.array([[s, 1], [0, 1]], dtype=object)
        y = np.array([[s, 0], [-s * u, 1]], dtype=object)
        images = [(m, np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) * s) for m in (x, y)]
        chain = [np.eye(2, dtype=int).astype(object)]
        for g, e in r.letters:
            chain.append(chain[-1] @ images[g][e != 1])
        assert max(abs(v) for m in chain for v in m.ravel()) < 2**53
        expected.append(([inv for _, inv in images], chain))
    single = Rep(p, riley_assignment(1.0, -1.0), check=False)
    stack = Rep(p, riley_assignment(*(np.array(v, dtype=float) for v in zip(*points))), check=False)
    inverses, chain = expected[0]
    assert [m.tolist() for m in _inverses(single)] == [m.tolist() for m in inverses]
    assert single.prefixes(r).tolist() == [m.tolist() for m in chain]
    for k, (inverses, chain) in enumerate(expected):
        assert [m[k].tolist() for m in _inverses(stack)] == [m.tolist() for m in inverses]
        assert stack.prefixes(r)[:, k].tolist() == [m.tolist() for m in chain]
    with pytest.raises(RepresentationError, match="^singular image matrix$"):
        Rep(p, [np.zeros((3, 2, 2)), stack.images[1]], check=False)


def test_irreducible_is_false_at_a_reducible_point_alone_and_in_a_stack():
    # phi(s, 0) is Delta(s) up to a unit, so u = 0 at a root s of the
    # Alexander polynomial lies on phi = 0; there the images share an
    # eigenvector, and their commutator has trace 2.  b(9,1) at
    # s = e^{i pi/3}: Delta(s) = 0, and one more root of phi is irreducible
    p = schubert_knot(9, 1)
    s = cmath.exp(1j * math.pi / 3)
    (u, _) = su2_solutions(riley_polynomial(p.bridge_word), math.pi / 3).roots
    assert [build_rep(p, s, v).irreducible for v in (u, 0.0)] == [True, False]
    stack = build_rep(p, np.array([s, s]), np.array([u, 0.0]))
    assert stack.irreducible.tolist() == [True, False]
    assert build_rep(catalog.knot("trefoil"), s, 0.0).irreducible is False


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


@pytest.mark.parametrize("where, message", [
    ("s", "^sqrt_s is not a square root of s$"),
    ("u", "^phi\\(s, u\\) = nan does not vanish"),
    ("sqrt_s", "^sqrt_s is not a square root of s$"),
])
def test_build_rep_rejects_nan(where, message):
    # every check asks for a value within its bound, so a NaN fails the
    # first check it enters, at one point and inside a stack
    p = catalog.knot("5_2")
    thetas = [2.3, 2.6, 3.6]
    point = {
        "s": [cmath.exp(1j * t) for t in thetas],
        "u": [su2_solutions(riley_polynomial(p.bridge_word), t).roots[0] for t in thetas],
        "sqrt_s": [cmath.exp(0.5j * t) for t in thetas],
    }
    point[where][1] = complex("nan")
    with pytest.raises(RepresentationError, match=message):
        build_rep(p, point["s"][1], point["u"][1], point["sqrt_s"][1])
    with pytest.raises(RepresentationError, match=message):
        build_rep(p, *(np.array(point[k]) for k in ("s", "u", "sqrt_s")))


def test_relator_check_rejects_nan():
    # a NaN never reaches the relator check through build_rep (the phi check
    # fails first); images given directly reach it
    p = catalog.knot("5_2")
    nan = np.full((2, 2), complex("nan"))
    with np.errstate(invalid="ignore"), pytest.raises(RepresentationError, match="^relator residual nan "):
        Rep(p, [nan, np.eye(2)])


def _frames(knot, thetas, roots):
    """Riley's pair and build_rep's images at one stack of SU(2) points."""
    s, sq = np.exp(1j * thetas), np.exp(0.5j * thetas)
    return riley_rep(knot, s, np.array(roots), sq), build_rep(knot, s, roots, sq)


def test_su2_frame_images_are_unit_quaternions_with_riley_traces():
    # unitary with determinant 1 within 1e-15, and conjugate to Riley's pair:
    # the traces of x, y and xy agree within 1e-14; on the catalog knots
    # across their windows and on every family knot at pi
    stacks = []
    for name in ("5_2", "trefoil"):
        p = catalog.knot(name)
        stack = su2_solutions(riley_polynomial(p.bridge_word), [0.9, 1.3, 2.0, 2.7, math.pi, 4.1, 5.5])
        points = [(theta, u) for theta, roots in zip(stack.thetas, stack.roots) for u in roots]
        stacks.append((p, np.array([t for t, _ in points]), [u for _, u in points]))
    stacks += [(knot, np.full(len(roots), math.pi), roots) for knot, _, roots in family_roots_at_pi()]
    for knot, thetas, roots in stacks:
        riley, su2 = _frames(knot, thetas, roots)
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
            plus = build_rep(p, s, u, sq)
            minus = build_rep(p, s, u, -sq)
            for a, b in zip(plus.images, minus.images):
                assert np.array_equal(b, -a)
            for w in p.relators:
                assert np.array_equal(plus.adjoint_prefixes(w), minus.adjoint_prefixes(w))


def test_build_rep_clamps_su2_roots_within_the_slack_and_takes_riley_off_su2():
    # su2_solutions keeps the trefoil's root u = 3.3e-16 at theta = pi/3,
    # just above the window [sigma - 2, 0]; it is the abelian point
    # Delta(s) = 0, where every term of phi(s, u) vanishes.  The largest
    # |c_k(s)| gives phi's check a scale there, so it passes (it failed
    # while the scale was the term sum alone, the same rounding as the
    # residual).  It is built in the unitary frame, clamped to u = 0, where
    # y = x
    p = catalog.knot("trefoil")
    theta = math.pi / 3
    (u,) = su2_solutions(riley_polynomial(p.bridge_word), theta).roots
    assert 0.0 < u <= INTERVAL_SLACK
    s, sq = cmath.exp(1j * theta), cmath.exp(0.5j * theta)
    rep = build_rep(p, s, u, sq)
    assert max(rep.relator_residuals) <= 1e-15
    assert rep.u == u and np.array_equal(rep.images[0], rep.images[1])
    # and below the window: clamped to u = sigma - 2, where y = x^-1
    s2, sq2 = cmath.exp(2j), cmath.exp(1j)
    rep = build_rep(p, s2, 2 * s2.real - 2 - INTERVAL_SLACK / 2, sq2, check=False)
    assert np.abs(rep.images[1] - _inverses(rep)[0]).max() <= 1e-15
    # off SU(2) (past the slack, |s| != 1, a complex u) the images are
    # Riley's pair over sqrt(s), and the phi and relator checks decide:
    # none of these points is on the variety
    for point in ((s, 3 * INTERVAL_SLACK, sq), (4.0, 0.5, 2.0), (s, u + 1e-3j, sq)):
        rep = build_rep(p, *point, check=False)
        assert all(map(np.array_equal, rep.images, riley_rep(p, *point, check=False).images))
        with pytest.raises(RepresentationError, match="does not vanish"):
            build_rep(p, *point)
    # a point of the variety off SU(2) builds in Riley's frame: the
    # trefoil's roots at s = 4 lie outside the window [2 Re s - 2, 0]
    phi = riley_polynomial(p.bridge_word)
    for u in np.roots([c(4.0) for c in reversed(phi.coeffs)]):
        rep = build_rep(p, 4.0, complex(u), 2.0)
        assert max(rep.relator_residuals) <= 1e-9
        assert all(map(np.array_equal, rep.images, riley_rep(p, 4.0, complex(u), 2.0).images))
