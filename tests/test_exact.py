import math
import re
from fractions import Fraction

import numpy as np
import pytest

from adtorsion import catalog
from adtorsion.exact import _tables, _torsion_coefficients, torsion_function
from adtorsion.locus import auto_theta_range, find_critical_points, rep_at
from adtorsion.modular import PRIMES, chebyshev
from adtorsion.reps import RepresentationError, riley_polynomial, su2_solutions
from adtorsion.torsion import compute_torsion
from adtorsion.verify import closed_form_5_2
from adtorsion.words import parse_word

from test_torsion import schubert_knot


def _family(p_max):
    return [(p, q) for p in range(3, p_max + 1, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


def _polynomial(coeffs, sigma, u):
    """sum coeffs[j][i] sigma^i u^j, exact for exact sigma and u."""
    return sum(c * sigma**i * u**j for j, row in enumerate(coeffs) for i, c in enumerate(row))


@pytest.mark.parametrize("knot", [schubert_knot(7, 3), catalog.knot("5_2")], ids=["b(7,3)", "5_2"])
def test_torsion_function_of_5_2_is_minus_the_closed_form(knot):
    # T has degree at most 2 in sigma and in u, as the closed form does, so
    # equal values on the integer grid {0, 1, 2}^2 make them equal
    # coefficient by coefficient
    coeffs = torsion_function(knot.bridge_word).coeffs
    assert len(coeffs) == 3 and all(len(row) == 3 for row in coeffs)
    for sigma in range(3):
        for u in range(3):
            assert _polynomial(coeffs, sigma, u) == -closed_form_5_2(sigma, u)


def test_torsion_function_is_memoized_per_word():
    word = schubert_knot(11, 5).bridge_word
    assert torsion_function(word) is torsion_function(schubert_knot(11, 5).bridge_word)


@pytest.mark.parametrize("p, q", _family(21) + [(41, 11)])
def test_torsion_function_matches_compute_torsion(p, q):
    # every SU(2) point at theta = pi, 2 and 1.3, to 1e-9 relative; the
    # Chebyshev form keeps the digits that monomial Horner loses on long
    # words (6e-4 relative on b(41,11))
    knot = schubert_knot(p, q)
    phi, function = riley_polynomial(knot.bridge_word), torsion_function(knot.bridge_word)
    for theta in (math.pi, 2.0, 1.3):
        roots = su2_solutions(phi, theta).roots
        if not roots:
            continue
        rep = rep_at(knot, np.full(len(roots), theta), roots)
        values = [r.value for r in compute_torsion(rep)]
        exact = function([2.0 * math.cos(theta)] * len(roots), roots)
        for value, t in zip(values, exact.tolist()):
            assert abs(t - value) <= 1e-9 * abs(value), (theta, value, t)


@pytest.mark.parametrize("q", [q for q in range(1, 41, 2) if math.gcd(41, q) == 1])
def test_two_primes_carry_the_coefficients(q):
    # a third prime below 2^24 reproduces every coefficient on the p = 41
    # knots, where they are longest, and they stay within 40 bits, far inside
    # the symmetric range of two primes
    word = schubert_knot(41, q).bridge_word
    phi_sigma = riley_polynomial(word).sigma_form()
    coeffs = torsion_function(word).coeffs
    assert _torsion_coefficients(word, phi_sigma, (16777213, 16777199, 16777183)) == coeffs
    assert max(abs(c).bit_length() for row in coeffs for c in row) <= 40


def test_the_primes_join_until_one_more_changes_nothing():
    # b(71,1)'s coefficients need 49 bits, past the symmetric range of two
    # primes below 2^24 (47 bits), where T(pi, u) read 2.46e27 against the
    # numeric 644106.  A third prime carries them and a fourth confirms:
    # the exact trace at sigma = -2 is the torus knots' p^2 (p^2 - 1) / 24,
    # and T at every root there one of the constants p^2 / (4 sin^2(pi k / p))
    knot = schubert_knot(71, 1)
    function = torsion_function(knot.bridge_word)
    assert max(abs(c).bit_length() for row in function.coeffs for c in row) == 49
    assert function.trace(-2) == Fraction(71 * 71 * (71 * 71 - 1), 24)
    constants = sorted(71 * 71 / (4 * math.sin(math.pi * k / 71) ** 2) for k in range(1, 36))
    roots = su2_solutions(riley_polynomial(knot.bridge_word), math.pi).roots
    values = sorted(function([-2.0] * len(roots), roots).tolist())
    assert len(values) == 35
    for value, constant in zip(values, constants):
        assert abs(value - constant) <= 1e-9 * constant
    # three primes join no stable result: the primes run out
    with pytest.raises(ArithmeticError, match="more primes"):
        _torsion_coefficients(knot.bridge_word, function.phi_coeffs, PRIMES[:3])


def test_a_phi_not_monic_in_u_is_refused():
    # phi = (sigma + 2) u + (3 - sigma^2): T's build reduces modulo phi as
    # modulo a monic polynomial, which read as a false "no double zero at
    # t = 1"; the refusal names phi's leading u-coefficient instead
    word = parse_word("y^-1 x^-1 x^-1 y^-1 y^-1", ["x", "y"])
    assert riley_polynomial(word).sigma_form() == [[3, 0, -1], [2, 1]]
    with pytest.raises(RepresentationError, match=r"monic in u, .* leading u-coefficient s \+ 2\*s\^2 \+ s\^3"):
        torsion_function(word)


@pytest.mark.parametrize("p", range(3, 22, 2))
def test_dihedral_trace_of_the_torus_knots(p):
    # on b(p, 1) = T(2, p) the d roots at sigma = -2 carry the torus
    # constants p^2 / (4 sin^2(pi k / p)), whose sum is p^2 (p^2 - 1) / 24;
    # the numeric torsions at theta = pi sum to the exact trace
    knot = schubert_knot(p, 1)
    trace = torsion_function(knot.bridge_word).trace(-2)
    assert trace == Fraction(p * p * (p * p - 1), 24)
    roots = su2_solutions(riley_polynomial(knot.bridge_word), math.pi).roots
    rep = rep_at(knot, np.full(len(roots), math.pi), roots)
    values = [r.value.real for r in compute_torsion(rep)]
    assert abs(sum(values) - trace) <= 1e-11 * sum(map(abs, values))


def test_gradient_is_the_derivative_of_the_exact_polynomial():
    # T, dT/dsigma and dT/du of the Chebyshev form against the exact
    # polynomial and its exact partial derivatives, in and off the window
    function = torsion_function(schubert_knot(15, 7).bridge_word)
    coeffs = function.coeffs
    sigma_u = [(-1.7, -3.2), (0.4, -0.9), (1.9, -0.05), (-0.3, -1.5)]
    value, d_sigma, d_u = function.gradient(*zip(*sigma_u))
    # the value alone has the bits of the value with the derivatives
    assert function(*zip(*sigma_u)).tolist() == value.tolist()
    for (sigma, u), v, ds, du in zip(sigma_u, value, d_sigma, d_u):
        s, w = Fraction(sigma), Fraction(u)
        exact = _polynomial(coeffs, s, w)
        exact_ds = sum(i * c * s ** (i - 1) * w**j for j, row in enumerate(coeffs)
                       for i, c in enumerate(row) if i)
        exact_du = sum(j * c * s**i * w ** (j - 1) for j, row in enumerate(coeffs)
                       for i, c in enumerate(row) if j)
        scale = max(1.0, abs(float(exact)), abs(float(exact_ds)), abs(float(exact_du)))
        for got, want in ((v, exact), (ds, exact_ds), (du, exact_du)):
            assert abs(got - float(want)) <= 1e-12 * scale


def test_tables_have_the_bits_of_the_reference_recurrences():
    # _tables runs the T and U recurrences in one loop into preallocated
    # arrays; its tables have the bits of each recurrence run on its own
    # (T_m by modular.chebyshev, T_m' = m U_(m-1) by U's recurrence), a
    # point alone gets the bits it gets in the stack, and the tables come
    # C-contiguous, so that the forms' sums run over each point's own
    # contiguous row (a transposed view sums in another order)
    rng = np.random.default_rng(40)
    y, x = rng.uniform(-1.0, 1.0, 7), rng.uniform(-1.0, 1.0, 5)
    z = np.concatenate([y, x])
    for n in (1, 2, 3, 9, 25):
        derivative = [np.zeros_like(z), np.ones_like(z)]
        u_prev, u_cur = np.ones_like(z), 2.0 * z
        for m in range(2, n):
            derivative.append(m * u_cur)
            u_prev, u_cur = u_cur, 2.0 * z * u_cur - u_prev
        t, dt = chebyshev(z, n), np.stack(derivative[:n], axis=-1)
        (t_y, dt_y), (t_x, dt_x) = tables = _tables(y, x, n)
        assert all(a.flags.c_contiguous for pair in tables for a in pair)
        assert np.concatenate([t_y, t_x]).tolist() == t.tolist(), n
        assert np.concatenate([dt_y, dt_x]).tolist() == dt.tolist(), n
        (t_0, dt_0), _ = _tables(y[:1], x[:0], n)
        assert (t_0.tolist(), dt_0.tolist()) == (t[:1].tolist(), dt[:1].tolist())


def test_evaluation_refuses_points_off_the_real_box():
    # off the box |sigma| <= 2 the Chebyshev forms are ill-conditioned: at
    # the roots of phi(5/2, .) the form of T is off by 7.5e-5 relative on
    # b(21,5) and by a factor of 872 on b(31,7).  A complex u was cast to its
    # real part (20.97 for T = 20.35 - 1.09i on 5_2 at (5/2, 0.3 + 0.2i))
    function = torsion_function(catalog.knot("5_2").bridge_word)
    assert _polynomial(function.coeffs, Fraction(5, 2), Fraction(3, 10) + 0.2j) == pytest.approx(20.35 - 1.09j)
    for sigma, u, point in (
        (2.5, np.array([0.3 + 0.2j]), "sigma=2.5, u=(0.3+0.2j)"),
        ([1.0, 0.5], [-0.5, 0.3 + 0.2j], "sigma=0.5, u=(0.3+0.2j)"),
        ([0.5j], [-0.5], "sigma=0.5j, u=-0.5"),
        ([1.0, -2.5], [-0.5, -3.0], "sigma=-2.5, u=-3.0"),
        # at sigma = 2 the coordinate x = 1 + u / (1 - sigma / 2) divides by zero
        ([2.0], [0.0], "sigma=2.0, u=0.0"),
    ):
        for evaluate in (function, function.gradient, function.form):
            with pytest.raises(ValueError, match=re.escape(f"-2 <= sigma < 2, not {point}")):
                evaluate(sigma, u)
    # real points in a complex dtype and the box's edge sigma = -2 are evaluated
    assert function(np.array([1.0 + 0j]), np.array([-0.5 + 0j])).tolist() == function([1.0], [-0.5]).tolist()
    assert np.isfinite(function([-2.0], [-4.0])).all()


@pytest.mark.parametrize("p, q", [(7, 3), (11, 5), (15, 7)])
def test_slope_is_the_central_difference_of_compute_torsion(p, q):
    # dT/dtheta along a branch, by the chain rule on the exact function,
    # against the 1e-5 central difference of the numeric torsion at the
    # branch's roots on either side
    knot = schubert_knot(p, q)
    phi, function = riley_polynomial(knot.bridge_word), torsion_function(knot.bridge_word)
    h = 1e-5
    checked = 0
    for theta in (1.9, 2.2, 2.6, 2.9):
        rows = su2_solutions(phi, [theta - h, theta, theta + h]).roots
        if len({len(roots) for roots in rows}) != 1 or not rows[0]:
            continue
        rank = len(rows[0]) // 2
        minus, at, plus = (roots[rank] for roots in rows)
        values = [r.value.real for r in compute_torsion(
            rep_at(knot, [theta - h, theta + h], [minus, plus]))]
        difference = (values[1] - values[0]) / (2.0 * h)
        slope, value = (a[0] for a in function.slope([theta], [at]))
        assert abs(slope - difference) <= 1e-6 * max(1.0, abs(value)), (theta, slope, difference)
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize("p, q, u", [(13, 7, -1.646177208564532), (13, 11, -2.151778969894047)])
def test_critical_search_finds_the_fold_minimum(p, q, u):
    # next to the fold at theta = 2.06513 the WIDE_STEP central difference
    # misplaced this minimum, and the report check discarded it as "too
    # large"; the exact slope puts it at theta = 2.0676443630616
    knot = schubert_knot(p, q)
    lo, hi = auto_theta_range(riley_polynomial(knot.bridge_word))
    report = find_critical_points(knot, lo, hi, 33)
    assert not [n for n in report.notes if "too large" in n]
    found = [pt for pt in report.points if abs(pt.theta - 2.06764) < 1e-4]
    assert len(found) == 1
    assert abs(found[0].u - u) <= 1e-9
