"""The exact torsion function T(sigma, u) of a two-bridge word.

On the representation variety of <x, y | w x w^-1 y^-1> the torsion is
T = [Delta_1 / (t - 1)^2](1) / (sigma - 2), a function of the character:
an element of Z[sigma][u] / (phi), with phi monic in u of degree d.
``torsion_function`` builds its integer coefficients once per word and
evaluates T, its partial derivatives and its slope along a root branch.

The construction.  From w x w^-1 = y, the Fox derivative of the relator by
y is (1 - y) dw/dy - 1, so the torsion's Fox block is
M(t) = (I - t Ad Y) Phi(dw/dy) - I.  Ad is scale-invariant, so Riley's
unnormalized matrices X = [[s, 1], [0, 1]], Y = [[s, 0], [-s u, 1]] serve,
with Ad m = (entries quadratic in m) / det m.  At t = 1 + eps, eps^3 = 0,
the eps^2 coefficient of det M is Delta_1''(1) / 2; the eps^0 and eps^1
coefficients vanish modulo phi, the double zero at t = 1, which the build
checks.  Everything runs modulo the primes of ``modular.PRIMES``, at the
integer nodes s0 = 2 .. d + 2: M is evaluated letter by letter at the
u-nodes 0 .. 2 n_y + 2 (n_y the number of y letters of w, which bounds the
u-degree of M by 2 n_y + 2), reduced modulo phi(s0, u) and evaluated at
the 3 d - 2 u-nodes its determinant needs; det M is then reduced modulo
phi, divided by sigma0 - 2 and interpolated in sigma, and the sigma^d
coefficient must vanish.  CRT joins the primes until one more changes no
coefficient (``modular.settle``; b(71,1)'s 49 bits need three).

Evaluation does not use the monomial coefficients, which cancel
catastrophically on long words.  T is rewritten exactly in
y = sigma / 2 and x = 1 + u / (1 - sigma / 2), which maps the SU(2) window
u in [sigma - 2, 0] onto [-1, 1], and expanded in Chebyshev polynomials
T_m(y) T_n(x) by ``modular.chebyshev_form``, which gives phi the same form
(``RileyPoly.chebyshev_form``, shared with the SU(2) root finder).  On the
box sigma in [-2, 2], x in [-1, 1] both forms are well conditioned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .modular import PRIMES, chebyshev, chebyshev_form, inverse_vandermonde, rows_at, settle
from .reps import RILEY_CACHE_SIZE, RepresentationError, riley_polynomial
from .torsion import RegularityError
from .words import Word


@dataclass(frozen=True)
class ChebyshevForm:
    """An integer polynomial in sigma and u as the float coefficients
    ``coeffs[m, n]`` of T_m(y) T_n(x), y = sigma / 2, x = 1 + u / (1 - y).

    Evaluations take sequences of real sigma (|sigma| < 2) and u and run
    elementwise over the points; every sum runs over a point's own
    contiguous row, so a point gets the same bits in any stack."""

    coeffs: np.ndarray

    def __call__(self, sigma, u) -> np.ndarray:
        """The value at every point, with the bits ``_partials`` gives it."""
        y, x = _coordinates(sigma, u)
        inner = np.add.reduce(self.coeffs * chebyshev(x, self.coeffs.shape[1])[:, None, :], axis=-1)
        return np.add.reduce(chebyshev(y, self.coeffs.shape[0]) * inner, axis=-1)

    def _partials(self, tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The value and the partial derivatives in y and in x at every point,
        from the ``_tables`` of the points, at least as wide as the form:
        each form reads its own slice."""
        ((t_y, dt_y), (t_x, dt_x)), (ny, nx) = tables, self.coeffs.shape
        ty, dty, tx, dtx = t_y[:, :ny], dt_y[:, :ny], t_x[:, :nx], dt_x[:, :nx]
        inner = np.add.reduce(self.coeffs * tx[:, None, :], axis=-1)  # (point, m)
        inner_x = np.add.reduce(self.coeffs * dtx[:, None, :], axis=-1)
        return (np.add.reduce(ty * inner, axis=-1), np.add.reduce(dty * inner, axis=-1),
                np.add.reduce(ty * inner_x, axis=-1))


def _coordinates(sigma, u) -> tuple[np.ndarray, np.ndarray]:
    """y = sigma / 2 and x = 1 + u / (1 - y) at every point; a ValueError
    naming the first point off the real box -2 <= sigma < 2, where the forms
    are not accurate (at the roots of phi(5/2, .) the form of T is off by a
    factor of 872 on b(31,7)) or, at sigma = 2, x divides by zero."""
    sigma, u = np.asarray(sigma).reshape(-1), np.asarray(u).reshape(-1)
    s, v = np.broadcast_arrays(sigma, u)
    off = np.flatnonzero((np.imag(s) != 0) | (np.imag(v) != 0) | (np.real(s) < -2.0) | (np.real(s) >= 2.0))
    if off.size:
        i = off[0]
        raise ValueError(f"the Chebyshev form evaluates only real points with -2 <= sigma < 2, "
                         f"not sigma={s.tolist()[i]}, u={v.tolist()[i]}")
    y = np.real(sigma).astype(float) / 2.0
    return y, 1.0 + np.real(u).astype(float) / (1.0 - y)


def _tables(y: np.ndarray, x: np.ndarray, n: int):
    """(T, T') of the points at y and at x, columns 0 .. n - 1, from one run
    of the recurrences over y and x stacked: T_m by its three-term
    recurrence and T_m' = m U_(m-1), with U by its own, in one loop.  The
    recurrences are elementwise, so every entry has the bits of a run on its
    own.  The tables are C-contiguous, (point, m): the forms' sums then run
    over each point's own contiguous row."""
    k, z = len(y), np.concatenate([y, x])
    twice = 2.0 * z
    tables, u = np.empty((2, n, len(z))), np.empty((n, len(z)))  # (m, point) of T_m, T_m' and U_m
    t, dt = tables
    t[0], dt[0], u[0] = 1.0, 0.0, 1.0
    if n > 1:
        t[1], dt[1], u[1] = z, 1.0, twice
    for m in range(2, n):
        t[m] = twice * t[m - 1] - t[m - 2]
        dt[m] = m * u[m - 1]
        u[m] = twice * u[m - 1] - u[m - 2]
    t, dt = np.ascontiguousarray(tables.transpose(0, 2, 1))
    return (t[:k], dt[:k]), (t[k:], dt[k:])


@dataclass(frozen=True)
class TorsionFunction:
    """The torsion of a two-bridge word as an exact function on phi = 0.

    ``coeffs[j][i]`` is the integer coefficient of sigma^i u^j, j < d and
    i < d; T(sigma, u) is that polynomial at any (sigma, u) with
    phi(sigma, u) = 0.  ``phi_coeffs`` holds phi's coefficients the same
    way, monic of u-degree d.  ``form`` and ``phi_form`` are the Chebyshev
    forms of T and of phi that every evaluation reads; ``phi_form`` wraps
    the coefficients that phi's RileyPoly holds."""

    word: Word
    coeffs: tuple[tuple[int, ...], ...]
    phi_coeffs: tuple[tuple[int, ...], ...] = field(repr=False)
    form: ChebyshevForm = field(repr=False)
    phi_form: ChebyshevForm = field(repr=False)

    def __call__(self, sigma, u) -> np.ndarray:
        """T at every (sigma, u) of the sequences."""
        return self.form(sigma, u)

    def gradient(self, sigma, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """T, dT/dsigma and dT/du at every (sigma, u) of the sequences."""
        y, x = _coordinates(sigma, u)
        u, h = np.real(u).astype(float).reshape(-1), 1.0 - y
        f, f_y, f_x = self.form._partials(_tables(y, x, max(self.form.coeffs.shape)))
        # sigma = 2 y and u = h (x - 1), so d/du = d/dx / h and
        # d/dsigma = (d/dy + d/dx u / h^2) / 2
        return f, 0.5 * (f_y + f_x * u / (h * h)), f_x / h

    def slope(self, theta, u) -> tuple[np.ndarray, np.ndarray]:
        """dT/dtheta along the root branch through every SU(2) point
        (theta, u), and T there.

        On the branch du/dsigma = -phi_sigma / phi_u and dsigma/dtheta =
        -2 sin theta, so dT/dtheta = -2 sin theta (T_sigma - T_u phi_sigma /
        phi_u).  It is taken in the coordinates of the forms, where it reads
        -sin theta (F_y - F_x Phi_y / Phi_x) and the terms in u / h^2 of
        T_sigma and phi_sigma, which cancel, are never formed."""
        thetas = np.asarray(theta, dtype=float).reshape(-1).tolist()
        # sigma as su2_solutions forms it, one point at a time
        sigma = [2.0 * math.cos(t) for t in thetas]
        # one table for both forms, as wide as the wider
        tables = _tables(*_coordinates(sigma, u), max(self.form.coeffs.shape + self.phi_form.coeffs.shape))
        f, f_y, f_x = self.form._partials(tables)
        _, p_y, p_x = self.phi_form._partials(tables)
        return -np.array([math.sin(t) for t in thetas]) * (f_y - f_x * p_y / p_x), f

    def trace(self, sigma) -> Fraction:
        """The sum of T(sigma, u) over the d roots u of phi(sigma, u), exact
        for a rational sigma: the trace of T in Q[u] / (phi(sigma, u)), from
        the power sums of the roots by Newton's identities.  At sigma = -2
        the roots are the binary dihedral points."""
        a = rows_at(self.phi_coeffs, sigma)  # phi(sigma, u) = sum a[k] u^k, a[d] = 1
        d = len(a) - 1
        sums = [Fraction(d)]  # the power sums of the roots
        for k in range(1, d):
            sums.append(-(k * a[d - k] + sum(a[d - i] * sums[k - i] for i in range(1, k))))
        return sum(v * s for v, s in zip(rows_at(self.coeffs, sigma), sums))


@functools.lru_cache(maxsize=RILEY_CACHE_SIZE)
def torsion_function(w: Word) -> TorsionFunction:
    """The exact torsion function of the two-bridge word w.

    Memoized per word like ``riley_polynomial``: every call with an equal
    word returns the same shared object.  RepresentationError when phi has
    no sigma form or no u-degree; RegularityError when the build's checks
    fail (no double zero at t = 1 modulo phi, or a sigma-degree of d)."""
    phi = riley_polynomial(w)
    phi_sigma = phi.sigma_form()
    if phi_sigma is None or phi.u_degree < 1:
        raise RepresentationError("the torsion function needs a Riley polynomial in sigma of "
                                  "positive u-degree")
    if phi_sigma[-1] != [1]:  # reduction modulo phi divides by its leading u-coefficient
        raise RepresentationError("the torsion function needs a Riley polynomial monic in u, not one "
                                  f"with leading u-coefficient {phi.coefficient(phi.u_degree).to_str()}")
    coeffs = _torsion_coefficients(w, phi_sigma)
    return TorsionFunction(w, coeffs, tuple(map(tuple, phi_sigma)),
                           ChebyshevForm(chebyshev_form(coeffs)), ChebyshevForm(phi.chebyshev_form()))


def _torsion_coefficients(w: Word, phi_sigma: list[list[int]], primes: tuple[int, ...] = PRIMES):
    """coeffs[j][i] of sigma^i u^j of T modulo phi, from the residues modulo
    the primes of ``primes`` in order, joined by ``modular.settle``;
    ArithmeticError when the primes run out.  The first two primes are one
    batch, which settles every coefficient of up to 23 bits (all b(p, q) up
    to p = 31), and later ones come one at a time."""
    residues = (values for batch in [primes[:2], *((prime,) for prime in primes[2:])]
                for values in _torsion_residues(w, phi_sigma, batch).reshape(len(batch), -1).tolist())
    if (flat := settle(residues, primes)) is None:
        raise ArithmeticError("the torsion function needs more primes than it was given")
    d = len(phi_sigma) - 1
    return tuple(tuple(flat[k:k + d]) for k in range(0, len(flat), d))


# Ad of a prefix with entries (a, b, c, d), row-major and times its
# determinant: _SIGN times the products of _LEFT and _RIGHT, plus bc in the
# middle entry; rows (a^2, -2ab, -b^2), (-ac, ad + bc, bd), (-c^2, 2cd, d^2)
_LEFT, _RIGHT = [0, 0, 1, 0, 0, 1, 2, 2, 3], [0, 1, 1, 2, 3, 3, 2, 3, 3]
_SIGN = np.array([1, -2, -1, -1, 1, 1, -1, 2, 1], dtype=np.int64)[:, None]
# the cyclic successors of the rows (and columns) of a 3 x 3 matrix: its
# cofactor at (i, j) is M[n_i, n_j] M[l_i, l_j] - M[n_i, l_j] M[l_i, n_j]
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]


def _torsion_residues(w: Word, phi_sigma: list[list[int]], primes: tuple[int, ...]) -> np.ndarray:
    """T modulo every prime: (prime, j, i) of sigma^i u^j, j < d, i < d.

    The elementwise steps run over one flat batch of (prime, s node, u node)
    points, the interpolations are matrix products per (prime, s node), and
    each product of two residues is reduced before more than a few are
    summed.  Phi and M are evaluated at 2 n_y + 3 u-nodes, more than the
    u-degree of M; M is then reduced modulo phi and evaluated at the
    3 d - 2 u-nodes its determinant needs."""
    d = len(phi_sigma) - 1
    nodes = list(range(2, d + 3))
    n_y = sum(1 for g, _ in w.letters if g == 1)
    if not n_y:
        raise RepresentationError("the torsion function needs a word with a letter y")
    n_fox, n_det = 2 * n_y + 3, 3 * d - 2
    n_p, n_s = len(primes), len(nodes)
    prime = np.array(primes, dtype=np.int64)[:, None]
    node = np.array(nodes, dtype=np.int64)[None, :]
    inverses, (P, s, s_inv, u) = _batch(primes, d, n_fox)

    # the prefix chain W_k: the first column (W_00, W_10) and the second
    # (W_01, W_11), right-multiplied by one letter at a time.  The Fox terms
    # of dw/dy are +W_k before a letter y and -W_{k+1} after a letter y^-1
    first = np.zeros((2, len(P)), dtype=np.int64)
    second = np.zeros_like(first)
    first[0] = second[1] = 1
    terms, alphas, signs = [], [], []
    alpha = 0
    for g, e in w.letters:
        if g == 1 and e == 1:
            terms.append((first, second))
            alphas.append(alpha)
            signs.append(1)
        if g == 0 and e == 1:    # x = [[s, 1], [0, 1]]
            first, second = first * s % P, (first + second) % P
        elif g == 0:             # x^-1 = [[1/s, -1/s], [0, 1]]
            first = first * s_inv % P
            second = (second - first) % P
        elif e == 1:             # y = [[s, 0], [-s u, 1]]
            first = (first - second * u) * s % P
        else:                    # y^-1 = [[1/s, 0], [u, 1]]
            first = (first * s_inv + second * u) % P
        alpha += e
        if g == 1 and e == -1:
            terms.append((first, second))
            alphas.append(alpha)
            signs.append(-1)

    # Phi(dw/dy) at t = 1 + eps: sum of sign t^alpha Ad W over the terms, with
    # t^alpha = 1 + alpha eps + alpha (alpha - 1) / 2 eps^2 and Ad W the
    # products over det W = s^alpha
    entries = np.array([(f[0], g[0], f[1], g[1]) for f, g in terms])  # (term, 4, batch)
    products = entries[:, _LEFT] * entries[:, _RIGHT]
    products[:, 4] += entries[:, 1] * entries[:, 2]
    products %= P
    top = max(map(abs, alphas))
    powers = {0: np.ones((n_p, n_s), dtype=np.int64)}  # s^-k and s^k for |k| <= top
    for k in range(1, top + 1):
        powers[k] = powers[k - 1] * inverses % prime
        powers[-k] = powers[1 - k] * node % prime
    jets = np.array([(sign, sign * a, sign * (a * (a - 1) // 2)) for sign, a in zip(signs, alphas)]).T
    weights = jets[:, :, None, None] % prime * np.stack([powers[a] for a in alphas]) % prime
    weights = weights.reshape(3, len(alphas), -1).repeat(n_fox, axis=-1)  # (eps power, term, batch)
    fox = np.einsum("etb,tqb->eqb", weights, products)
    fox = (fox * _SIGN % P).reshape(3, 3, 3, -1)  # (eps power, row, column, batch)

    # M = (I - t Ad Y) Phi - I with Ad Y = [[s, 0, 0], [s u, 1, 0], [-s u^2, -2 u, 1/s]],
    # row by row; ``before`` is the next lower eps power of Phi
    before = np.concatenate([np.zeros_like(fox[:1]), fox[:2]])
    both = fox + before
    su = s * u % P
    rows = np.stack([
        ((1 - s) * fox[:, 0] - s * before[:, 0]) % P,
        (-su * both[:, 0] % P - before[:, 1]) % P,
        (su * u % P * both[:, 0] % P + 2 * u * both[:, 1]
         + (1 - s_inv) * fox[:, 2] - s_inv * before[:, 2]) % P,
    ], axis=1)
    rows[0] -= np.eye(3, dtype=np.int64)[:, :, None]

    # M modulo phi, from its values at the n_fox nodes to those at the n_det
    # nodes, one map per (prime, s node)
    sigma = (node + inverses) % prime
    remainders = _powers_mod(phi_sigma, sigma, primes, max(n_fox, n_det))  # (prime, node, k, j)
    modulus = prime[..., None, None]
    to_det = _interpolation(primes, n_fox) @ remainders[:, :, :n_fox] % modulus
    to_det = to_det @ _evaluation(primes, d, n_det) % modulus
    rows = rows.reshape(27, n_p, n_s, n_fox).transpose(1, 2, 0, 3) % modulus
    rows = (rows @ to_det % modulus).transpose(2, 0, 1, 3).reshape(3, 3, 3, -1)

    # det M to eps^2 from cofactors, on the flat batch of n_det u-nodes: for
    # 3 x 3 matrices det(M0 + eps M1 + eps^2 M2) = det M0 + eps <C0, M1>
    # + eps^2 (<C0, M2> + <C1, M0>) + O(eps^3), with C_k the cofactor matrix
    # of M_k and <X, Y> = sum X_ij Y_ij; <C0, M0> = 3 det M0 stands in for
    # det M0, which must vanish with it
    P = _batch(primes, d, n_det)[1][0]  # the prime at every point of this batch
    m = rows[:2]  # (eps power, row, column, batch)
    cofactors = (m[:, _NEXT][:, :, _NEXT] * m[:, _LAST][:, :, _LAST] % P
                 - m[:, _NEXT][:, :, _LAST] * m[:, _LAST][:, :, _NEXT] % P)
    pairings = np.add.reduce((cofactors[[0, 0, 0, 1]] * rows[[0, 1, 2, 0]]).reshape(4, 9, -1), axis=1)
    values = np.stack([pairings[0], pairings[1], pairings[2] + pairings[3]]) % P
    values = values.reshape(3, n_p, n_s, n_det).transpose(1, 2, 0, 3)

    # the remainder of det M modulo phi: eps^0 and eps^1 must vanish; the
    # eps^2 part over sigma0 - 2, interpolated in sigma
    reduced = values @ _interpolation(primes, n_det) % modulus @ remainders[:, :, :n_det] % modulus
    if reduced[:, :, :2].any():
        raise RegularityError("det M has no double zero at t = 1 modulo phi")
    scale = np.array([[pow(v - 2, -1, p) for v in row] for p, row in zip(primes, sigma.tolist())])
    torsion = reduced[:, :, 2] * scale[..., None] % prime[..., None]  # (prime, node, j)
    coeffs = np.stack([inverse_vandermonde(tuple(row), p) for p, row in zip(primes, sigma.tolist())]) \
        @ torsion % prime[..., None]  # (prime, i, j), i <= d
    if coeffs[:, d].any():
        raise RegularityError("the torsion function has sigma-degree d")
    return coeffs[:, :d].transpose(0, 2, 1)


@functools.lru_cache(maxsize=None)
def _batch(primes: tuple[int, ...], d: int, n: int):
    """1 / s0 modulo each prime at the s nodes 2 .. d + 2, (prime, node), and
    the prime, s0, 1 / s0 and u0 at every point of the flat batch of
    (prime, s node, u node), u0 = 0 .. n - 1."""
    nodes = range(2, d + 3)
    inverses = np.array([[pow(v, -1, p) for v in nodes] for p in primes], dtype=np.int64)
    grid = (len(primes), len(nodes), n)
    flat = [np.broadcast_to(a, grid).reshape(-1) for a in (
        np.array(primes, dtype=np.int64)[:, None, None], np.array(nodes, dtype=np.int64)[None, :, None],
        inverses[:, :, None], np.arange(n, dtype=np.int64),
    )]
    for a in (inverses, *flat):
        a.flags.writeable = False
    return inverses, flat


@functools.lru_cache(maxsize=None)
def _interpolation(primes: tuple[int, ...], n: int) -> np.ndarray:
    """Per prime, the map from values at u = 0 .. n - 1 to the coefficients
    of u^0 .. u^(n-1), as a right factor: (prime, 1, n, n)."""
    return np.stack([inverse_vandermonde(tuple(range(n)), p).T for p in primes])[:, None]


@functools.lru_cache(maxsize=None)
def _evaluation(primes: tuple[int, ...], d: int, n: int) -> np.ndarray:
    """Per prime, the map from the coefficients of u^0 .. u^(d-1) to the
    values at u = 0 .. n - 1, as a right factor: (prime, 1, d, n)."""
    return np.array([[[pow(k, j, p) for k in range(n)] for j in range(d)] for p in primes],
                    dtype=np.int64)[:, None]


def _powers_mod(phi_sigma: list[list[int]], sigma: np.ndarray, primes: tuple[int, ...],
                n: int) -> np.ndarray:
    """u^k modulo phi(sigma0, u) and p for k < n: (prime, node, k, j) of u^j,
    at the sigma nodes ``sigma`` (prime, node).

    phi(sigma0, u) is monic of degree d, and C, the matrix of multiplication
    by u on remainders (row j is u^(j+1) mod phi), has the rows u^(bd + j)
    mod phi in C^(bd): the table is I, C^d, C^2d, ... stacked, with C^d by
    repeated squaring."""
    d = len(phi_sigma) - 1
    prime = np.array(primes, dtype=np.int64)[:, None, None, None]
    width = max(map(len, phi_sigma[:d]))
    table = np.array([[[c % p for c in row] + [0] * (width - len(row)) for row in phi_sigma[:d]]
                      for p in primes], dtype=np.int64)  # (prime, j, i) of sigma^i u^j
    powers = [np.ones_like(sigma)]
    for _ in range(width - 1):
        powers.append(powers[-1] * sigma % prime[..., 0, 0])
    step = np.zeros(sigma.shape + (d, d), dtype=np.int64)
    step[..., np.arange(d - 1), np.arange(1, d)] = 1
    step[..., d - 1, :] = -(np.stack(powers, axis=-1) @ table.swapaxes(1, 2)) % prime[..., 0]
    block, exponent, square = None, d, step  # block = C^d
    while exponent:
        if exponent & 1:
            block = square if block is None else block @ square % prime
        exponent >>= 1
        if exponent:
            square = square @ square % prime
    blocks = [np.broadcast_to(np.eye(d, dtype=np.int64), block.shape), block]
    while len(blocks) * d < n:
        blocks.append(blocks[-1] @ block % prime)
    return np.concatenate(blocks, axis=-2)[..., :n, :]
