"""Exact integer arithmetic on the package's polynomials sum table[j][i]
sigma^i u^j (phi's sigma form, the torsion function T): CRT, interpolation
modulo a prime, Chebyshev forms, the breakpoint polynomials in sigma, exact
signs, values and Newton steps.  It imports no other module of the package."""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import zip_longest

import numpy as np

#: primes below 2^24, so that a product of two residues fits int64; the exact
#: polynomials here and in ``exact`` are formed modulo them and joined by CRT
PRIMES = (16777213, 16777199, 16777183, 16777153, 16777141, 16777139, 16777127, 16777121,
          16777099, 16777049, 16777027, 16776989, 16776973, 16776971, 16776967, 16776961)


def settle(residues: Iterable[list[int]], primes: Sequence[int] = PRIMES) -> list[int] | None:
    """The integers in the symmetric range of the product of the primes
    whose residues ``residues`` yields, one list per prime of ``primes`` in
    order, joined by CRT until the next list changes none of them: the stop
    rule of every CRT here.  None when ``residues`` ends first."""
    known, modulus = None, 1
    for values, prime in zip(residues, primes):
        symmetric = [c - modulus if c > modulus // 2 else c for c in known or [0] * len(values)]
        if known is not None and all((c - r) % prime == 0 for c, r in zip(symmetric, values)):
            return symmetric
        inverse = pow(modulus, -1, prime)
        known = [c + modulus * ((r - c) * inverse % prime) for c, r in zip(symmetric, values)]
        modulus *= prime
    return None


@functools.lru_cache(maxsize=None)
def inverse_vandermonde(nodes: tuple[int, ...], p: int) -> np.ndarray:
    """V^-1 modulo p for V[k, i] = nodes[k]^i: coefficients = V^-1 @ values.

    Column k holds the coefficients of the Lagrange polynomial of node k:
    the master polynomial prod (z - node) divided by z - nodes[k] (synthetic
    division, all nodes at once), over its value at nodes[k]."""
    n = len(nodes)
    master = [1]
    for z in nodes:
        master = [((master[i - 1] if i else 0) - z * (master[i] if i < len(master) else 0)) % p
                  for i in range(len(master) + 1)]
    z = np.array(nodes, dtype=np.int64)
    quotient = np.empty((n, n), dtype=np.int64)  # (degree, node)
    carry = np.zeros(n, dtype=np.int64)
    for i in range(n, 0, -1):
        carry = (master[i] + carry * z) % p
        quotient[i - 1] = carry
    scale = [pow(math.prod(nodes[k] - v for v in nodes[:k] + nodes[k + 1:]) % p, -1, p) for k in range(n)]
    inverse = quotient * np.array(scale, dtype=np.int64) % p
    inverse.flags.writeable = False
    return inverse


def chebyshev_form(table) -> np.ndarray:
    """The Chebyshev form of sum table[j][i] sigma^i u^j: the float
    coefficients c[m, n] of T_m(y) T_n(x), y = sigma / 2 and
    x = 1 + u / (1 - y), exact in Python integers until the last division.

    With sigma = 2 y and u = (1 - y)(x - 1), the polynomial is
    sum_j A_j(y) (x - 1)^j, A_j(y) = (sum_i table[j][i] 2^i y^i)(1 - y)^j;
    z^k = 2^-n sum_m K[k, m] T_m(z) with integers K, in both variables.  No
    zero entry of the two maps enters a product."""
    ny, nx = max(len(row) + j for j, row in enumerate(table)) - 1, len(table) - 1
    a = np.zeros((ny + 1, nx + 1), dtype=object)
    for j, row in enumerate(table):
        a[:len(row), j] = [c << i for i, c in enumerate(row)]
    for r in range(1, nx + 1):  # column j times (1 - y)^j
        a[1:, r:] = a[1:, r:] - a[:-1, r:]
    # left[m, k] = K_y[k, m] is nonzero only for k = m, m + 2, ...;
    # right[j, n] only for n <= j
    left, right = _chebyshev_maps(ny, nx)
    b = np.array([left[m, m::2] @ a[m::2] for m in range(ny + 1)])
    columns = [b[:, n:] @ right[n:, n] for n in range(nx + 1)]
    scale = 1 << (ny + nx)
    return np.array([[v / scale for v in row] for row in zip(*columns)])


@functools.lru_cache(maxsize=None)
def _chebyshev_maps(ny: int, nx: int) -> tuple[np.ndarray, np.ndarray]:
    """K_y^T, which takes the monomial coefficients of a polynomial of
    degree ny in y to 2^ny times its Chebyshev coefficients, and the
    (nx + 1, nx + 1) integers that take the coefficient of (x - 1)^j to
    2^nx times the Chebyshev coefficients in x, with the convention
    z^k = 2^(1-k) sum_{2j < k} C(k, j) T_{k-2j}(z) + 2^-k C(k, k/2) T_0(z)."""

    def to_chebyshev(n):
        out = np.zeros((n + 1, n + 1), dtype=object)
        for k in range(n + 1):
            for j in range(k // 2 + 1):
                m = k - 2 * j
                out[k, m] = math.comb(k, j) << (n - k + (m > 0))
        return out

    shifted = np.array([[math.comb(j, n) * (-1) ** ((j - n) % 2) for n in range(nx + 1)]
                        for j in range(nx + 1)], dtype=object)  # (x - 1)^j in monomials
    return to_chebyshev(ny).T, shifted @ to_chebyshev(nx)


def chebyshev(z: np.ndarray, n: int) -> np.ndarray:
    """T_0(z) .. T_{n-1}(z), (points, n), by the three-term recurrence."""
    t, twice = [np.ones_like(z), z], 2.0 * z
    for _ in range(2, n):
        t.append(twice * t[-1] - t[-2])
    return np.stack(t[:n], axis=-1)


def breakpoint_polynomials(table: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """disc_u, the value at u = 0 and the value at u = sigma - 2 (the end of
    the SU(2) window) of sum table[j][i] sigma^i u^j, each an integer
    polynomial in sigma, ascending, without zero top coefficients."""
    edge: list[int] = []
    for row in reversed(table):  # Horner's rule in u at u = sigma - 2
        shifted = [a - 2 * b for a, b in zip([0, *edge], [*edge, 0])]
        edge = [a + b for a, b in zip_longest(shifted, row, fillvalue=0)]
    return _discriminant(table), table[0], _trim(edge)


def _discriminant(table: list[list[int]]) -> list[int]:
    """disc_u of sum table[j][i] sigma^i u^j, ascending in sigma, as
    det [t_(i+j)], i, j < d: t_k = a_d^k s_k, with d the u-degree, a_d the
    leading coefficient and s_k the power sums of the roots u (times
    a_d^((d - 1)(d - 2)) where a_d != 1; phi is monic on two-bridge knots).
    It is formed modulo the primes at sigma = 0 .. n - 1 and interpolated,
    the first two primes in one pass of :func:`_hankel_determinants` and
    later ones one at a time; CRT joins the primes until one more changes
    no coefficient (:func:`settle`).  n starts at 3 d + 2 and doubles until
    the top two coefficients vanish modulo every prime (the degree is at
    most 3 d - 1 on b(p, q) up to p = 41)."""
    d = len(table) - 1
    if d < 2:
        return [1]

    def residues(n):  # prime by prime; they end where the top two do not vanish
        for batch in [PRIMES[:2], *((prime,) for prime in PRIMES[2:])]:
            for prime, values in zip(batch, _hankel_determinants(table, n, batch)):
                coeffs = (inverse_vandermonde(tuple(range(n)), prime) @ values % prime).tolist()
                if any(coeffs[-2:]):
                    return
                yield coeffs
        raise ArithmeticError("the discriminant needs more primes than PRIMES holds")

    n = 3 * d + 2
    while (known := settle(residues(n))) is None:
        n *= 2
    return _trim(known)


def _hankel_determinants(table: list[list[int]], n: int, primes: Sequence[int]) -> np.ndarray:
    """det [t_(i+j)] of :func:`_discriminant` modulo each of ``primes`` at
    sigma = 0 .. n - 1: (prime, node), from one pass over the flat batch of
    (prime, node) points.  The steps are elementwise and exact, so a prime
    gets the same row in any batch.  Newton's identities give t_0 = d and
    t_k = -(sum_(i <= min(k - 1, d)) w_i t_(k-i) + k w_k), the last term
    for k <= d, w_i = a_(d-i) a_d^(i-1).  The elimination scales rows by the
    pivot instead of dividing by it: one modular inverse per point is left,
    at the end."""
    d, width = len(table) - 1, max(map(len, table))
    prime = np.repeat(np.array(primes, dtype=np.int64), n)  # the prime of every point
    nodes, points = np.tile(np.arange(n), len(primes)), np.arange(len(prime))
    a = np.zeros((d + 1, len(prime)), dtype=np.int64)  # (j, point) of a_j(sigma), by Horner's rule
    for i in range(width - 1, -1, -1):
        column = [row[i] if i < len(row) else 0 for row in table]
        a = (a * nodes + np.array([[c % p for p in primes] for c in column]).repeat(n, axis=1)) % prime
    w, lead = np.empty((d, len(prime)), dtype=np.int64), 1
    for i in range(d):
        w[i] = a[d - 1 - i] * lead % prime
        lead = lead * a[d] % prime
    t = np.full((2 * d - 1, len(prime)), d, dtype=np.int64)
    for k in range(1, 2 * d - 1):
        m = min(k - 1, d)
        t[k] = -(np.add.reduce(w[:m] * t[k - 1::-1][:m], axis=0) + (k * w[k - 1] if k <= d else 0)) % prime
    h = t[np.add.outer(np.arange(d), np.arange(d))].transpose(2, 0, 1)  # (point, i, j)
    det, scale, prefix = np.ones((3, len(prime)), dtype=np.int64)
    for j in range(d):
        r = j + np.argmax(h[:, j:, j] != 0, axis=1)  # the first nonzero pivot, j if none
        h[points, j], h[points, r] = h[points, r], h[points, j]
        pivot = h[:, j, j]
        det = det * np.where(r == j, pivot, prime - pivot) % prime
        scale = scale * prefix % prime  # row j was scaled by every pivot above it
        prefix = prefix * pivot % prime
        h[:, j + 1:, j + 1:] = (pivot[:, None, None] * h[:, j + 1:, j + 1:]
                                - h[:, j + 1:, j, None] * h[:, None, j, j + 1:]) % prime[:, None, None]
    inverses = [pow(s, -1, p) if s else 0 for s, p in zip(scale.tolist(), prime.tolist())]
    return (det * inverses % prime).reshape(len(primes), n)


def square_free(poly: list[int]) -> list[int]:
    """An integer polynomial (ascending) with the distinct roots of ``poly``:
    poly itself when gcd(poly, poly') is 1 modulo a prime that does not
    divide its leading coefficient, which proves it square-free; else poly
    over the integer gcd, from the primitive remainder sequence."""
    poly = _trim(poly)
    derivative = [i * c for i, c in enumerate(poly)][1:]
    prime = next(p for p in PRIMES if poly[-1] % p)
    a, b = poly, derivative
    while b := _trim([c % prime for c in b]):  # Euclid modulo the prime
        a, b = b, _pseudo_divide(a, b)[1]
    if len(a) == 1:
        return poly
    a, b = _primitive(poly), _primitive(derivative)
    while b:
        a, b = b, _primitive(_pseudo_divide(a, b)[1])
    return _primitive(_pseudo_divide(poly, a)[0])


def _trim(poly: list[int]) -> list[int]:
    """poly without its zero top coefficients."""
    while poly and not poly[-1]:
        poly = poly[:-1]
    return list(poly)


def _primitive(poly: list[int]) -> list[int]:
    g = math.gcd(*(poly := _trim(poly))) or 1
    return [c // g for c in poly]


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """q and r with lead(b)^k a = q b + r and r of lower degree than b."""
    q, a = [0] * max(len(a) - len(b) + 1, 0), _trim(a)
    while len(a) >= len(b):
        shift, f = len(a) - len(b), a[-1]
        q = [b[-1] * c for c in q]
        q[shift] += f
        a = _trim([b[-1] * c - f * (b[i - shift] if i >= shift else 0) for i, c in enumerate(a)])
    return q, a


def real_roots(poly: list[int]) -> list[float]:
    """The real roots in (-2, 2) of a square-free integer polynomial, each
    the float nearest it, ascending.  The estimates are the eigenvalues
    within 1e-6 of the real axis of the colleague matrix of its Chebyshev
    series in sigma / 2.  Exact signs at -2, 2 and the midpoints between
    estimates bracket the roots, one estimate per bracket; a root at one of
    those points is kept as it is.  In a bracket whose ends differ in sign
    the search starts at the estimate and steps outward, toward the end of
    the other sign, on exact signs, by steps doubling from 2^-52 (about the
    estimates' error on the family) until the sign flips.  That last step is
    bisected on exact signs down to a float where the value is 0, or to two
    adjacent floats, of which the sign at their midpoint picks the nearer.
    So each root with a bracket of its own gets the float nearest it, by any
    search."""
    series = chebyshev_form([poly])[:, 0]
    estimates = sorted({min(max(2.0 * z.real, -2.0), 2.0)
                        for z in np.polynomial.chebyshev.chebroots(series).tolist()
                        if abs(z.imag) <= 1e-6 and abs(z.real) <= 1.0 + 1e-6})
    ends = [-2.0, *(0.5 * (x + y) for x, y in zip(estimates, estimates[1:])), 2.0]

    def sign(x: float | Fraction) -> int:  # exact, at a float or a Fraction
        value = _homogeneous(poly, *x.as_integer_ratio())
        return (value > 0) - (value < 0)

    signs = [sign(x) for x in ends]
    roots = [x for x, s in zip(ends[1:-1], signs[1:-1]) if not s]
    for x, a, b, sa, sb in zip(estimates, ends, ends[1:], signs, signs[1:]):
        if sa * sb >= 0:
            continue
        s = sign(x)
        if not s:
            roots.append(x)
            continue
        end, se = (b, sb) if s == sa else (a, sa)  # the root lies between x and end
        step, near = 2.0**-52, x
        while True:
            far = x + math.copysign(step, end - x)
            if (far - end) * (end - x) >= 0:  # at or past the end
                far, sf = end, se
            else:
                sf = sign(far)
            if sf != s:
                break
            near, step = far, 2.0 * step
        roots.append(_bisect(sign, min(near, far), max(near, far), s if near < far else sf) if sf else far)
    return sorted(roots)


def _bisect(sign, a: float, b: float, sa: int) -> float:
    """The root between a < b, where the exact sign is sa at a and the other
    sign at b: a float where the value is 0, or of the two adjacent floats
    the bisection ends on, the nearer by the sign at their midpoint (the
    lower on a tie)."""
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:  # adjacent floats
            return b if sign((Fraction(a) + Fraction(b)) / 2) == sa else a
        s = sign(m)
        if not s:
            return m
        a, b = (m, b) if s == sa else (a, m)


def _homogeneous(poly: Sequence[int], num: int, den: int) -> int:
    """den^(len(poly) - 1) poly(num / den), by Horner's rule in integers (shifts
    where den is a power of 2): the one exact evaluation at a rational point."""
    shift, acc = den.bit_length() - 1, 0
    dyadic = den == 1 << shift
    for k, c in enumerate(reversed(poly)):
        acc = acc * num + (c << shift * k if dyadic else c * den**k)
    return acc


def rows_at(table: Sequence[Sequence[int]], sigma) -> list[Fraction]:
    """sum_i table[j][i] sigma^i for every j, exact at a rational sigma (an
    int, a Fraction or a float): the coefficients in u of the table's
    polynomial at sigma."""
    num, den = Fraction(sigma).as_integer_ratio()
    return [Fraction(_homogeneous(row, num, den), den ** max(len(row) - 1, 0)) for row in table]


def newton(coeffs: list[int], u: complex) -> complex:
    """u after five Newton steps on the integer polynomial sum coeffs[j] u^j,
    the polynomial and its derivative evaluated exactly at each float
    iterate: with u = U / D, D a power of two, Horner's rule runs on the
    Gaussian integers H = D^k h and G = D^k h' of its partial sums, and the
    step H / G is rounded once.  Five steps: over the fibre row's sigma on
    the catalog and every b(p, q) with p <= 41, ten steps move the roots of
    one fibre of 540, while three leave b(41,3) and b(41,5) at sigma = 5/2
    short of their roots."""
    for _ in range(5):
        (a, m), (b, n) = u.real.as_integer_ratio(), u.imag.as_integer_ratio()
        d = max(m, n)
        ur, ui = a * (d // m), b * (d // n)
        hr, hi, gr, gi, dk = coeffs[-1], 0, 0, 0, d
        for c in reversed(coeffs[:-1]):
            gr, gi = gr * ur - gi * ui + hr * d, gr * ui + gi * ur + hi * d
            hr, hi = hr * ur - hi * ui + c * dk, hr * ui + hi * ur
            dk *= d
        norm = gr * gr + gi * gi
        if norm == 0:
            break
        u -= complex((hr * gr + hi * gi) / norm, (hi * gr - hr * gi) / norm)
    return u
