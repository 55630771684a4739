import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from adtorsion import catalog
from adtorsion.laurent import (
    IntLaurent,
    LaurentMatrix,
    LaurentPoly,
    RationalFunction,
    _det_cofactor,
    divide_out_simple_roots,
    unit_aligned_distance,
)
from adtorsion.reps import riley_polynomial, su2_solutions
from adtorsion.torsion import alexander_block_matrix

from test_torsion import _bits, as_poly, divide_alone, riley_rep, schubert_knot, stack_of


def dict_mul(a: dict, b: dict) -> dict:
    """Independent dictionary-based product oracle."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def as_dict(p: LaurentPoly) -> dict:
    return {p.offset + i: c for i, c in enumerate(p.coeffs) if c != 0}


def random_poly(rng, span=5, lo=-4):
    offset = rng.randint(lo, 2)
    coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(1, span))]
    return LaurentPoly(offset, coeffs)


def test_arith_examples():
    t = LaurentPoly.variable()
    one = LaurentPoly.one()
    assert (t - one) * (t - one) == LaurentPoly(0, [1, -2, 1])
    assert LaurentPoly.term(1, -1) * t == one
    # (t-1)(t^2 - 2cos(pi) t + 1) = (t-1)(t+1)^2 = t^3 + t^2 - t - 1
    quad = LaurentPoly(0, [1, -2 * math.cos(math.pi), 1])
    assert ((t - one) * quad).approx_eq(LaurentPoly(0, [-1, -1, 1, 1]), 1e-15)


def test_mul_against_dict_oracle():
    rng = random.Random(31)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        got = as_dict(p * q)
        want = dict_mul(as_dict(p), as_dict(q))
        assert set(got) == set(want)
        for e in want:
            assert abs(got[e] - want[e]) <= 1e-12 * max(1.0, abs(want[e]))


def test_evaluate_examples():
    t = LaurentPoly.variable()
    one = LaurentPoly.one()
    assert (t - one).evaluate(1.0) == 0
    assert LaurentPoly(0, [1, -2, 1]).evaluate(2.0) == 1
    assert abs(LaurentPoly(-2, [1]).evaluate(2.0) - 0.25) < 1e-15
    with pytest.raises(ValueError):
        LaurentPoly(-1, [1]).evaluate(0.0)


def test_derivative_examples():
    assert LaurentPoly(0, [0, 0, 1]).derivative() == LaurentPoly(1, [2])
    assert LaurentPoly(-1, [1]).derivative() == LaurentPoly(-2, [-1])
    assert LaurentPoly.one().derivative().is_zero


def test_second_derivative_recovers_cofactor():
    # (1/2) d^2/dt^2 [(t-1)^2 f] at 1 equals f(1): symbolic expansion oracle
    rng = random.Random(8)
    square = LaurentPoly(0, [1, -2, 1])
    for _ in range(100):
        f = random_poly(rng, span=7, lo=0)
        p = square * f
        lhs = p.derivative(2).evaluate(1.0) / 2.0
        assert abs(lhs - f.evaluate(1.0)) <= 1e-9 * max(1.0, abs(f.evaluate(1.0)))


def test_derivative_matches_finite_differences():
    rng = random.Random(9)
    h = 1e-5
    for _ in range(100):
        p = random_poly(rng, span=9)
        exact = p.derivative().evaluate(1.0)
        approx = (p.evaluate(1.0 + h) - p.evaluate(1.0 - h)) / (2 * h)
        assert abs(exact - approx) <= 1e-6 * max(1.0, abs(exact))


def test_monomial_shift_invariance_of_derivative_at_zero():
    # if p(1) = 0 then d/dt (t^m p) at 1 equals p'(1), exactly
    rng = random.Random(10)
    t_minus_1 = LaurentPoly(0, [-1, 1])
    for _ in range(100):
        p = t_minus_1 * random_poly(rng)
        base = p.derivative().evaluate(1.0)
        for m in (-3, 2, 5):
            shifted = p.shift(m).derivative().evaluate(1.0)
            assert abs(shifted - base) <= 1e-12 * max(1.0, abs(base))


def test_divide_out_simple_roots_examples():
    q, rems = divide_alone(LaurentPoly(0, [1, -2, 1]), 2)
    assert q.approx_eq(LaurentPoly.one(), 1e-14)
    assert max(rems) < 1e-14
    q, rems = divide_alone(LaurentPoly(0, [-2, 1]), 1)
    assert abs(rems[0] - 1.0) < 1e-15  # remainder -1: division fails the tolerance test
    with pytest.raises(ValueError):
        divide_out_simple_roots(stack_of([LaurentPoly.one()]), 0)


def test_divide_out_a_stack_as_each_polynomial_alone():
    rng = random.Random(12)
    square = LaurentPoly(0, [1, -2, 1])
    polys = [
        LaurentPoly.zero(),
        LaurentPoly(4, [3]),
        LaurentPoly(-2, [2, 1, -1]),  # first quotient -t: its zero constant term is trimmed
        LaurentPoly(0, [0.5, -1, 0.5]),
    ]
    polys += [square * random_poly(rng, span=rng.randint(1, 8)) for _ in range(20)]
    polys += [random_poly(rng, span=rng.randint(1, 8)) for _ in range(20)]
    for multiplicity in (1, 2, 3):
        quotients, remainders = divide_out_simple_roots(stack_of(polys), multiplicity)
        assert remainders.shape == (len(polys), multiplicity)
        for p, row, rems in zip(polys, quotients, remainders.tolist()):
            q, alone = divide_alone(p, multiplicity)
            assert _bits(rems) == _bits(alone)
            # the stack's row without its zero padding at the top and its
            # trailing zeros is the quotient's coefficient list
            assert _bits(LaurentPoly._raw(0, row[::-1].tolist()).coeffs) == _bits(q.coeffs)
    assert divide_alone(LaurentPoly(-2, [2, 1, -1]), 1)[0] == LaurentPoly(-1, [-1])


def test_hypot_is_python_abs_to_the_bit():
    # the array cleanup and the remainders take moduli with np.hypot because
    # it returns abs(complex) bit for bit; np.abs does not on every build
    rng = np.random.default_rng(13)
    n = 100_000
    # huge parts stay below 2^1022: abs(complex) raises where hypot overflows
    exponents = rng.integers(-1080, 1023, size=(2, n))
    parts = np.ldexp(rng.uniform(-1.0, 1.0, size=(2, n)), exponents)
    parts[:, :8] = [[0.0, -0.0, 5e-324, -5e-324, 8.9e307, -8.9e307, 1.0, 3.0],
                    [-0.0, 5e-324, 8.9e307, 0.0, -8.9e307, 2.2e-308, 1e-300, 4.0]]
    z = parts[0] + 1j * parts[1]
    assert np.count_nonzero(np.abs(z.real) < 2.2250738585072014e-308) > 1000  # subnormal parts
    expected = np.array([abs(complex(v)) for v in z.tolist()])
    assert np.array_equal(np.hypot(z.real, z.imag).view(np.uint64), expected.view(np.uint64))


def test_divide_out_cross_checks_second_derivative():
    rng = random.Random(11)
    square = LaurentPoly(0, [1, -2, 1])
    for _ in range(50):
        f = random_poly(rng, span=6)
        p = square * f
        q, rems = divide_alone(p, 2)
        assert max(rems) <= 1e-10 * max(1.0, p.max_abs)
        direct = p.derivative(2).evaluate(1.0) / 2.0
        assert abs(q.evaluate(1.0) - direct) <= 1e-8 * max(1.0, abs(direct))


def test_cleanup_invariants():
    p = LaurentPoly(0, [0, 1, 1e-20, 2, 0])
    assert p.offset == 1
    assert p.coeffs[0] != 0 and p.coeffs[-1] != 0
    assert p.coefficient(2) == 0  # relative cleanup zeroed the dust
    assert LaurentPoly(5, [0, 0]).is_zero


def test_determinant_examples():
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    identity = LaurentMatrix.from_entries([[one if i == j else zero for j in range(3)] for i in range(3)])
    assert as_poly(identity.determinant()) == LaurentPoly.one()
    diag = LaurentMatrix.from_entries(
        [
            [LaurentPoly.term(1, 1), LaurentPoly.zero(), LaurentPoly.zero()],
            [LaurentPoly.zero(), LaurentPoly.term(1, -1), LaurentPoly.zero()],
            [LaurentPoly.zero(), LaurentPoly.zero(), LaurentPoly.one()],
        ]
    )
    assert as_poly(diag.determinant()).approx_eq(LaurentPoly.one(), 1e-14)
    assert as_poly(LaurentMatrix.from_entries([]).determinant()) == LaurentPoly.one()


def test_determinant_alternating():
    rng = random.Random(12)
    m = LaurentMatrix.from_entries([[random_poly(rng, span=3) for _ in range(4)] for _ in range(4)])
    d = as_poly(m.determinant())
    d_swapped = as_poly(LaurentMatrix(m.offset, m.coeffs[:, [2, 1, 0, 3]]).determinant())
    assert (d + d_swapped).max_abs <= 1e-12 * max(1.0, d.max_abs)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 9])
def test_determinant_matches_scalar_determinant(n):
    rng = random.Random(100 + n)
    m = LaurentMatrix.from_entries([[random_poly(rng, span=5) for _ in range(n)] for _ in range(n)])
    d = as_poly(m.determinant())
    # the determinant drops its unit: det(z) = d(z) z^k for one integer k at
    # every z; entry exponents run from -4 to 6, so -4n <= k <= 6n
    zs = [cmath.exp(2j * cmath.pi * (k + 0.37) / 50) for k in range(50)]
    wants = [complex(np.linalg.det(m.evaluate(z))) for z in zs]
    units = [
        k for k in range(-4 * n, 6 * n + 1)
        if all(abs(d.evaluate(z) * z**k - want) <= 1e-9 * max(1.0, abs(want))
               for z, want in zip(zs, wants))
    ]
    assert len(units) == 1


def test_determinant_routes_agree():
    # the array determinant against the ring cofactor expansion, on a random
    # 5x5 matrix and on the twisted Fox block of b(41,11), the widest span
    # the benchmark builds
    rng = random.Random(55)
    entries = [[random_poly(rng, span=4) for _ in range(5)] for _ in range(5)]
    m = LaurentMatrix.from_entries(entries)
    assert as_poly(m.determinant()).approx_eq(
        _det_cofactor(entries, LaurentPoly).with_offset_zero(), 1e-9
    )

    block = fox_block_41_11(2.3, 4)
    assert block.size == 3 and len(block.coeffs) == 7
    entries = [[block.entry(i, j) for j in range(3)] for i in range(3)]
    assert as_poly(block.determinant()).approx_eq(
        _det_cofactor(entries, LaurentPoly).with_offset_zero(), 1e-9
    )


def fox_block_41_11(theta, root=None, u=None):
    """The twisted Fox block of b(41,11) at SU(2) root ``root`` of theta, or
    at the given u, in Riley's pair over sqrt(s), built without the variety
    checks."""
    p = schubert_knot(41, 11)
    if u is None:
        u = su2_solutions(riley_polynomial(p.bridge_word), theta).roots[root]
    rep = riley_rep(p, cmath.exp(1j * theta), u, cmath.exp(0.5j * theta), check=False)
    return alexander_block_matrix(rep)


def exact_determinant_3x3(m):
    """{exponent: coefficient} of det m, summed over the six permutations in
    exact rational arithmetic on the float coefficients, rounded once."""
    def entry(i, j):
        return {
            m.offset + k: (Fraction(c.real), Fraction(c.imag))
            for k, c in enumerate(m.coeffs[:, i, j].tolist())
            if c
        }

    def mul(p, q):
        out = {}
        for e1, (a, b) in p.items():
            for e2, (c, d) in q.items():
                re, im = out.get(e1 + e2, (0, 0))
                out[e1 + e2] = (re + a * c - b * d, im + a * d + b * c)
        return out

    total = {}
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        term = mul(mul(entry(0, perm[0]), entry(1, perm[1])), entry(2, perm[2]))
        for e, (re, im) in term.items():
            r0, i0 = total.get(e, (0, 0))
            total[e] = (r0 + sign * re, i0 + sign * im)
    return {e: complex(float(re), float(im)) for e, (re, im) in total.items()}


def unit_restored(rows, exact):
    """The determinant's one row as a LaurentPoly whose lowest exponent is
    that of the exact ``{exponent: coefficient}``."""
    return as_poly(rows).shift(min(e for e, c in exact.items() if c))


def test_determinant_is_accurate_on_an_ill_conditioned_block():
    # b(41,11) at theta = pi, u frozen 1.2e-3 below the root nearest the
    # window edge (off the variety, so built unchecked): entries reach 1.5e4
    # while det stays near 1.7e2, so the products cancel in 8 digits; at the
    # root itself the ratio is only 89
    block = fox_block_41_11(math.pi, u=-3.9953127872016485)
    exact = exact_determinant_3x3(block)
    got = unit_restored(block.determinant(), exact)
    scale = max(abs(c) for c in exact.values())
    assert np.abs(block.coeffs).max() > 1e2 * scale
    err = max(abs(got.coefficient(e) - c) for e, c in exact.items())
    assert err <= 1e-9 * scale


def test_determinant_is_accurate_on_a_block_on_the_variety():
    # b(41,3) at theta = pi, root 0, in Riley's pair over sqrt(s):
    # entries reach 628 times the largest coefficient of det; the same block
    # at the eight floats nearest u keeps the bound from holding at one point
    # by luck (errors there run from 5.9e-10 to 1.51e-9 times the scale)
    p = schubert_knot(41, 3)
    root = su2_solutions(riley_polynomial(p.bridge_word), math.pi).roots[0]
    assert root == -3.9941316023674824
    for k in range(-4, 5):
        u = root + k * math.ulp(root)
        rep = riley_rep(p, cmath.exp(1j * math.pi), u, cmath.exp(0.5j * math.pi), check=False)
        block = alexander_block_matrix(rep)
        exact = exact_determinant_3x3(block)
        got = unit_restored(block.determinant(), exact)
        scale = max(abs(c) for c in exact.values())
        assert np.abs(block.coeffs).max() > 6e2 * scale
        err = max(abs(got.coefficient(e) - c) for e, c in exact.items())
        assert err <= 5e-9 * scale


def test_determinant_zero_row():
    rng = random.Random(66)
    rows = [[random_poly(rng) for _ in range(7)] for _ in range(7)]
    rows[3] = [LaurentPoly.zero()] * 7
    assert as_poly(LaurentMatrix.from_entries(rows).determinant()).is_zero


def test_rational_function_normalization():
    num = LaurentPoly(-2, [1, 1])
    den = LaurentPoly(-1, [1, -1])
    r = RationalFunction(num, den)
    assert min(r.numerator.offset, r.denominator.offset) == 0
    assert r.numerator.offset >= 0 and r.denominator.offset >= 0
    z = 1.7 + 0.3j
    assert abs(r.evaluate(z) - num.evaluate(z) / den.evaluate(z)) < 1e-12
    with pytest.raises(ZeroDivisionError):
        RationalFunction(num, LaurentPoly.zero())


def test_unit_aligned_distance():
    rng = random.Random(77)
    p = random_poly(rng)
    assert unit_aligned_distance(p, p.shift(3)) <= 1e-15
    assert unit_aligned_distance(p, (-p).shift(-2)) <= 1e-15
    q = p + LaurentPoly.term(1.0, p.hi + 1)
    assert unit_aligned_distance(p, q) > 1e-3


def test_json_roundtrip():
    p = LaurentPoly(-2, [1 + 2j, 0, 3])
    assert LaurentPoly.from_json(p.to_json()) == p


def test_int_laurent_stays_exact_past_double_precision():
    big = 10**20
    p = IntLaurent(-1, (big, 1))
    q = IntLaurent(0, (big, -1))
    assert (p + q).coeffs == (big, big + 1, -1)
    assert (p - q).coeffs == (big, 1 - big, 1)
    assert (p * q).coeffs == (big * big, 0, -1) and (p * q).offset == -1
    assert all(type(c) is int for c in (p * q).coeffs)


def test_int_laurent_evaluates_to_an_int():
    value = IntLaurent(0, (2, -3, 2))(-1)
    assert type(value) is int and value == 7
    value = IntLaurent(2, (10**20 + 1, 1))(-1)
    assert type(value) is int and value == 10**20
    assert type(IntLaurent.zero()(-1)) is int


def test_uncleaned_complex_poly_keeps_its_small_coefficient():
    p = LaurentPoly(-3, [1.0, 1e-14, 2.0], cleanup=0.0)
    assert p.coefficient(-2) == 1e-14
    for q in (p.shift(5), p.with_offset_zero(), -p):
        assert len(q.coeffs) == 3 and abs(q.coeffs[1]) == 1e-14
    assert LaurentPoly(-3, [1.0, 1e-14, 2.0]).coefficient(-2) == 0  # the default cleans


def test_coefficient_outside_support_is_the_ring_zero():
    zero = IntLaurent(1, (5, 7)).coefficient(9)
    assert type(zero) is int and zero == 0
    zero = LaurentPoly(1, [5, 7]).coefficient(-4)
    assert type(zero) is complex and zero == 0
    assert type(IntLaurent.zero().coefficient(0)) is int
    assert type(LaurentPoly.zero().coefficient(0)) is complex


def test_rings_never_compare_equal():
    assert IntLaurent(0, (1,)) != LaurentPoly(0, (1,))
    assert LaurentPoly(0, (1,)) != IntLaurent(0, (1,))
    assert IntLaurent.one() == IntLaurent(0, (1,))


def test_int_laurent_and_riley_strings():
    assert IntLaurent(-2, (-1, 0, 0, 2, 1)).to_str("t") == "-t^-2 + 2*t + t^2"
    assert IntLaurent(0, (3, -1, -4)).to_str() == "3 - s - 4*s^2"
    assert IntLaurent.zero().to_str() == "0"
    phi = riley_polynomial(catalog.knot("5_2").bridge_word)
    assert phi.to_str() == (
        "(s^2)*u^3 + (-2*s + 3*s^2 - 2*s^3)*u^2 "
        "+ (1 - 3*s + 6*s^2 - 3*s^3 + s^4)*u + (-2*s + 3*s^2 - 2*s^3)"
    )
    assert phi.sigma_form_str() == (
        "(1)*u^3 + (-2*sigma + 3)*u^2 + (sigma^2 - 3*sigma + 4)*u + (-2*sigma + 3)"
    )


def test_stacked_determinant_is_per_point():
    # one FFT, one batched det and one inverse FFT for a stack of matrices,
    # one row per point
    rng = random.Random(77)
    mats = [LaurentMatrix.from_entries([[random_poly(rng, span=3) for _ in range(3)] for _ in range(3)])
            for _ in range(4)]
    lo = min(m.offset for m in mats)
    span = max(m.offset + len(m.coeffs) for m in mats) - lo
    stack = np.zeros((4, span, 3, 3), dtype=complex)
    for i, m in enumerate(mats):
        stack[i, m.offset - lo : m.offset - lo + len(m.coeffs)] = m.coeffs
    dets = LaurentMatrix(lo, stack).determinant()
    assert len(dets) == 4
    for d, m in zip(dets, mats):
        assert as_poly(d).approx_eq(as_poly(m.determinant()), 1e-12)
