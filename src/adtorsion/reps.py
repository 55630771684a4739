"""Representations of two-bridge knot groups via Riley's parametrization.

The generator assignment is x -> [[s, 1], [0, 1]], y -> [[s, 0], [-s*u, 1]];
the pair (s, u) carries a nonabelian representation exactly when the
obstruction polynomial phi(s, u) = W_11 + (1-s)W_12 vanishes, where W is the
bridge word evaluated on the two matrices.  phi is computed exactly over
Z[s, s^-1][u]; the unit-circle/real-u locus (|s| = 1, u in [2cos(theta)-2, 0])
enumerates the SU(2)-conjugate points.  Dividing both matrices by a square
root of s lands the representation in SL(2, C) (the Riley frame); an SU(2)
point can instead be built in the conjugate unitary frame, where every
image, and every product of images, is a unit quaternion.  The adjoint
action on the trace-zero matrices is taken in the ordered basis (E, H, F).
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Generator
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .laurent import IntLaurent, _Laurent, _signed_sum_str
from .presentation import Presentation
from .words import Word

#: default bound on relator residuals (``Tolerances.relation``, ``--tol-relation``)
RELATION_TOL = 1e-9
REALITY_TOL = 1e-9
INTERVAL_SLACK = 1e-9
#: default near-double-root distance in u (``Tolerances.multiplicity``)
MULTIPLICITY_THRESHOLD = 1e-5

#: the sigma grid on which su2_root_count_thresholds probes the root count
THRESHOLD_SIGMA_LO = -2.0
THRESHOLD_SIGMA_HI = 1.995
THRESHOLD_SAMPLES = 2000
#: the first scan counts roots on every THRESHOLD_STRIDE-th grid point; on the
#: 178 two-bridge knots up to p = 41, 5_2 and the trefoil the count on the
#: whole grid never rises with sigma (changes come as close as one grid step,
#: six grid steps hold two, but none is undone), and strides 4 to 64 all give
#: the whole grid's brackets
THRESHOLD_STRIDE = 16

#: trailing Chebyshev coefficients at most this fraction of the largest are
#: rounding noise of the fit (at most 8e-15 on the two-bridge knots up to
#: p = 41) and are dropped before the colleague matrix
CHEBYSHEV_TRIM = 1e-13

#: distinct words whose obstruction polynomial stays memoized per process
RILEY_CACHE_SIZE = 256


class RepresentationError(ValueError):
    """(s, u) off the representation variety, or unusable presentation."""


def riley_assignment(s: complex, u: complex) -> tuple[np.ndarray, np.ndarray]:
    """The generator matrices X = [[s,1],[0,1]], Y = [[s,0],[-su,1]]; for
    arrays of s and u, stacks (..., 2, 2) of them."""
    x = np.zeros(np.broadcast(s, u).shape + (2, 2), dtype=complex)
    y = np.zeros_like(x)
    x[..., 0, 0] = y[..., 0, 0] = s
    x[..., 0, 1] = x[..., 1, 1] = y[..., 1, 1] = 1.0
    y[..., 1, 0] = -s * u
    return x, y


# ---------------------------------------------------------------------------
# exact obstruction polynomial over Z[s, s^-1][u]
# ---------------------------------------------------------------------------


class _UPoly(_Laurent):
    """Polynomial in u with exact IntLaurent coefficients in s: the ring
    Z[s, s^-1][u] in which Riley's polynomial is formed."""

    __slots__ = ()
    _zero = IntLaurent.zero()

    def __init__(self, offset: int = 0, coeffs: Sequence[IntLaurent] = ()):
        self._store(offset, coeffs)

    def by_u_degree(self) -> list[IntLaurent]:
        """The coefficients of u^0, ..., u^hi, zeros included."""
        return [self.coefficient(d) for d in range(self.hi + 1)] if self.coeffs else []


_S = _UPoly.term(IntLaurent.term(1, 1))
_S_INV = _UPoly.term(IntLaurent.term(1, -1))
_ONE_MINUS_S = _UPoly.term(IntLaurent(0, (1, -1)))


class RileyPoly:
    """Exact bivariate obstruction polynomial, canonically unit-normalized.

    ``coeffs[d]`` is the exact Laurent polynomial in s multiplying u^d.  The
    canonical representative of the ±s^k unit class has lowest s-exponent 0
    across all coefficients and a positive lowest s-term in the leading
    u-coefficient, so structural equality is equality up to units.

    ``word`` is the two-generator word the polynomial was built from (None
    when built from coefficients); the SU(2) root finder evaluates phi from
    it.  phi(e^{i theta}, u) is a unit times a real polynomial exactly when
    every nonzero u-coefficient is palindromic about one common s-power;
    ``_centre`` holds twice that power, their common lo + hi (None when
    there is none).
    """

    __slots__ = ("coeffs", "word", "_centre", "_shift")

    def __init__(self, coeffs: Iterable[IntLaurent], word: Word | None = None):
        self.word = word
        self._centre = None
        self._shift = 0  # the s-power divided out of the word's own polynomial
        cs = _UPoly(0, tuple(coeffs)).by_u_degree()
        if not cs:
            self.coeffs: tuple[IntLaurent, ...] = ()
            return
        self._shift = min(c.lo for c in cs if not c.is_zero)
        cs = [c.shift(-self._shift) for c in cs]
        if cs[-1].coeffs[0] < 0:
            cs = [-c for c in cs]
        self.coeffs = tuple(cs)
        centres = {c.lo + c.hi for c in cs if not c.is_zero}
        if len(centres) == 1 and all(c.is_palindromic() for c in cs):
            (self._centre,) = centres

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def u_degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else 0

    def coefficient(self, d: int) -> IntLaurent:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return IntLaurent.zero()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RileyPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def residual_and_scale(self, s: complex, u: complex) -> tuple[float, float]:
        """|phi(s, u)| by Horner's rule in u, and the sum of the term
        magnitudes, the scale for near-zero testing, from one evaluation of
        each coefficient at s (arrays of s and u give arrays of both)."""
        values = [c(s) for c in self.coeffs]
        acc = 0j
        total = 0.0
        for v in reversed(values):
            acc = acc * u + v
        for d, v in enumerate(values):
            total += abs(v) * abs(u) ** d
        return abs(acc), np.maximum(total, 1e-300)

    def sigma_form(self) -> list[list[int]] | None:
        """Coefficients as integer polynomials in sigma = s + 1/s, or None.

        Exists when all u-coefficients are palindromic about a common integer
        s-power; ascending sigma-degree lists, indexed by u-degree.
        """
        if self.is_zero:
            return []
        if self._centre is None or self._centre % 2:
            return None
        k = self._centre // 2
        return [_palindromic_to_sigma(c.shift(-k)) if not c.is_zero else [] for c in self.coeffs]

    def sigma_form_str(self, uvar: str = "u", svar: str = "sigma") -> str | None:
        form = self.sigma_form()
        if form is None:
            return None
        return _poly_in_u_str(
            [_signed_sum_str(reversed(list(enumerate(c))), svar) for c in form], uvar
        )

    def to_str(self, uvar: str = "u", svar: str = "s") -> str:
        return _poly_in_u_str([c.to_str(svar) for c in self.coeffs], uvar)

    def __repr__(self) -> str:
        return f"RileyPoly({self.to_str()})"

    def to_json(self) -> dict:
        data = {
            "u_degree": self.u_degree,
            "coeffs": [{"s_offset": c.offset, "ints": list(c.coeffs)} for c in self.coeffs],
        }
        sigma = self.sigma_form_str()
        if sigma is not None:
            data["sigma_form"] = sigma
        return data


def _palindromic_to_sigma(p: IntLaurent) -> list[int]:
    # p symmetric about 0: p = a_0 + sum_{j>=1} a_j (s^j + s^-j), where
    # s^j + s^-j = P_j(sigma) for P_0 = 2, P_1 = sigma, P_{j+1} = sigma*P_j - P_{j-1}
    out = [p.coefficient(0)] + [0] * p.hi
    prev, cur = [2], [0, 1]
    for j in range(1, p.hi + 1):
        a = p.coefficient(j)
        for i, c in enumerate(cur):
            out[i] += a * c
        prev, cur = cur, [x - y for x, y in zip([0] + cur, prev + [0, 0])]
    return out


def _poly_in_u_str(coeff_strs: Sequence[str], uvar: str) -> str:
    """``(c_d)*u^d + ... + (c_0)`` from the printed coefficients, indexed by
    u-degree; a coefficient printed as "0" is left out."""
    parts = []
    for d in range(len(coeff_strs) - 1, -1, -1):
        cstr = coeff_strs[d]
        if cstr == "0":
            continue
        if d == 0:
            parts.append(f"({cstr})")
        elif d == 1:
            parts.append(f"({cstr})*{uvar}")
        else:
            parts.append(f"({cstr})*{uvar}^{d}")
    return " + ".join(parts) if parts else "0"


def _first_row(w: Word, one, s, s_inv, times_u):
    """The first row (W_11, W_12) of the product W of Riley's letter matrices
    along w, the row phi reads: (1, 0) right-multiplied by one letter matrix
    at a time, in any ring where ``one`` is 1, ``s`` and ``s_inv`` are s and
    1/s, and ``times_u`` multiplies by u."""
    a, b = one, one - one
    for g, e in w.letters:
        if g == 0 and e == 1:    # x = [[s, 1], [0, 1]]
            a, b = a * s, a + b
        elif g == 0:             # x^-1 = [[1/s, -1/s], [0, 1]]
            a = a * s_inv
            b = b - a
        elif e == 1:             # y = [[s, 0], [-s u, 1]]
            a = (a - times_u(b)) * s
        else:                    # y^-1 = [[1/s, 0], [u, 1]]
            a = a * s_inv + times_u(b)
    return a, b


@functools.lru_cache(maxsize=RILEY_CACHE_SIZE)
def riley_polynomial(w: Word) -> RileyPoly:
    """Exact obstruction polynomial W_11 + (1-s) W_12 of a two-generator word.

    Memoized per word: every call with an equal word returns the same shared
    :class:`RileyPoly`, which callers must not mutate.
    """
    if w.max_index() > 1:
        raise RepresentationError("word uses more than two generators")
    # a factor u shifts the u-degree
    a, b = _first_row(w, _UPoly.term(IntLaurent.one()), _S, _S_INV, lambda p: p.shift(1))
    return RileyPoly((a + _ONE_MINUS_S * b).by_u_degree(), w)


# ---------------------------------------------------------------------------
# SU(2) locus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Su2Solutions:
    """Real u-roots inside [2cos(theta)-2, 0], ascending, with per-root
    near-multiple flags (a neighbor closer than the multiplicity threshold).

    ``borderline`` holds real parts of root pairs that fell just outside the
    reality filter but within the multiplicity threshold: the signature of a
    genuine double root sitting at the edge of the real locus.
    """

    theta: float
    sigma: float
    roots: tuple[float, ...]
    near_multiple: tuple[bool, ...]
    borderline: tuple[float, ...] = ()

    @property
    def any_near_multiple(self) -> bool:
        return any(self.near_multiple) or bool(self.borderline)

    def __len__(self) -> int:
        return len(self.roots)


def su2_solutions(
    phi: RileyPoly,
    theta: float | Sequence[float],
    tol: float = REALITY_TOL,
    *,
    multiplicity_threshold: float = MULTIPLICITY_THRESHOLD,
) -> Su2Solutions | list[Su2Solutions]:
    """All real roots of phi(e^{i theta}, u) in [2cos(theta)-2, 0]; for a
    sequence of thetas, one :class:`Su2Solutions` per theta.

    phi is evaluated from its word by the letter product at Chebyshev points
    of the window and fitted in the Chebyshev basis; the roots are the
    eigenvalues of the colleague matrix.  Roots with |Im u| above
    REALITY_TOL are discarded, the window gets a small slack at both
    endpoints, and near-multiple roots are flagged.  A theta gets the same
    roots in any stack.  ``tol`` is not read: whether phi(e^{i theta}, u) is
    real up to a unit is decided exactly, once per polynomial, from its
    coefficients.  The parameter stays because callers outside the package
    pass it positionally; the package's own callers leave it out.

    One theta is solved as a stack of one and memoized per process (at most
    RILEY_CACHE_SIZE entries), keyed on what the root finder reads of phi
    (its word, ``_shift``, ``_centre`` and u-degree), the float theta and
    ``multiplicity_threshold``: every root index of one theta shares one
    solve and the same frozen result.  A sequence of thetas neither reads
    nor fills the memo.  ``su2_solutions.cache_info()`` and
    ``su2_solutions.cache_clear()`` reach it; an error is never stored.
    """
    source = _root_source(phi)
    if np.ndim(theta) > 0:
        return _solutions(source, [float(t) for t in theta], multiplicity_threshold)
    return _solution_at(source, float(theta), multiplicity_threshold)


def _solutions(source: tuple, thetas: list[float], multiplicity_threshold: float) -> list[Su2Solutions]:
    roots, real, edge = _su2_roots(source, thetas, multiplicity_threshold)
    out = []
    for t, values, r, e in zip(thetas, roots.real.tolist(), real.tolist(), edge.tolist()):
        kept = tuple(sorted(compress(values, r)))
        close = [b - a < multiplicity_threshold for a, b in zip(kept, kept[1:])]
        flags = tuple(x or y for x, y in zip([False] + close, close + [False])) if kept else ()
        edge = tuple(sorted(compress(values, e)))
        out.append(Su2Solutions(t, 2.0 * math.cos(t), kept, flags, edge))
    return out


@functools.lru_cache(maxsize=RILEY_CACHE_SIZE)
def _solution_at(source: tuple, theta: float, multiplicity_threshold: float) -> Su2Solutions:
    return _solutions(source, [theta], multiplicity_threshold)[0]


su2_solutions.cache_info = _solution_at.cache_info
su2_solutions.cache_clear = _solution_at.cache_clear


def su2_root_counts(phi: RileyPoly, thetas: Sequence[float]) -> list[int]:
    """``len(su2_solutions(phi, theta).roots)`` for every theta, without
    building the solution objects."""
    return _su2_roots(_root_source(phi), [float(t) for t in thetas], 0.0)[1].sum(axis=1).tolist()


def _root_source(phi: RileyPoly) -> tuple:
    """What the SU(2) root finder reads of phi: (word, _shift, _centre,
    u-degree); ValueError for a polynomial it cannot solve."""
    if phi.is_zero:
        raise ValueError("zero polynomial")
    if phi._centre is None:
        raise ValueError("phi(e^{i theta}, u) is not real up to a unit: its u-coefficients "
                         "are not palindromic about one common s-power")
    if phi.word is None:
        raise ValueError("SU(2) roots are evaluated from the word phi was built from")
    return phi.word, phi._shift, phi._centre, phi.u_degree


@functools.lru_cache(maxsize=None)
def _chebyshev_basis(d: int):
    """For u-degree d: x - 1 at the 2(d + 1) Chebyshev points x of the first
    kind, the (d + 1, 2(d + 1)) matrix that turns values at those points into
    the Chebyshev coefficients of degree 0..d, and per degree n = 1..d the
    colleague matrix of T_n with the weights of the coefficients in its last
    column (as ``numpy.polynomial.chebyshev.chebcompanion`` forms it)."""
    nodes = 2 * (d + 1)
    angles = np.pi * (np.arange(nodes) + 0.5) / nodes
    fit = np.cos(np.outer(np.arange(d + 1), angles)) * (2.0 / nodes)
    fit[0] /= 2.0
    colleagues = []
    for n in range(1, d + 1):
        base = np.diag(np.full(n - 1, 0.5), 1) + np.diag(np.full(n - 1, 0.5), -1)
        last = np.zeros((n, n))
        last[:, -1] = 0.5
        if n == 1:  # T_1 = x
            last[0, 0] = 1.0
        else:
            base[0, 1] = base[1, 0] = last[0, -1] = math.sqrt(0.5)
        colleagues.append((base, last))
    return np.cos(angles) - 1.0 + 0j, fit, colleagues


def _su2_roots(source: tuple, thetas: list[float], borderline_tol: float):
    """The one root finder behind su2_solutions and su2_root_counts, on the
    ``_root_source`` of phi.

    For each theta (a row), the roots u, padded with NaN, and two masks of
    the roots inside the slack window: real within REALITY_TOL, and
    near-real (|Im| <= borderline_tol), the signature of a
    double root at the edge of the real locus.  Every step is elementwise or
    one LAPACK call per matrix, so a row does not depend on its stack.
    """
    if not all(0.0 < t < 2.0 * math.pi for t in thetas):
        raise ValueError("theta must lie strictly between 0 and 2*pi")
    word, shift, centre, d = source
    t = np.array(thetas)[:, None]
    s = np.exp(1j * t)
    h = 1.0 - s.real  # u = h (x - 1) maps [-1, 1] onto the window [sigma - 2, 0]
    x_minus_1, fit, colleagues = _chebyshev_basis(d)
    u = h * x_minus_1
    # with |s| = 1 and u in the window the letter matrices are
    # SU(2)-conjugate, so the product does not cancel
    a, b = _first_row(word, 1.0, s, s.conj(), lambda p: u * p)
    # phi of the word is a sign times s^shift times the canonical phi, which
    # is s^(_centre / 2) times a real polynomial
    values = ((a + (1.0 - s) * b) * np.exp(-0.5j * (2 * shift + centre) * t)).real
    # an elementwise sum over the points, not a matrix product: BLAS may
    # round a row differently depending on the stack it sits in
    coeffs = np.add.reduce(values[:, None, :] * fit, axis=-1)
    size = np.abs(coeffs)
    top = np.maximum.reduce(size, axis=1)[:, None]
    if not top.all():
        theta = thetas[np.flatnonzero(top == 0.0)[0]]
        raise ValueError(f"phi(e^{{i theta}}, u) vanishes identically at theta={theta!r}")
    degrees = d - (size > CHEBYSHEV_TRIM * top)[:, ::-1].argmax(axis=1)
    x = np.full((len(thetas), d), np.nan, dtype=complex)
    for n in set(degrees.tolist()) - {0}:
        rows = degrees == n
        c = coeffs[rows]
        base, last = colleagues[n - 1]
        x[rows, :n] = np.linalg.eigvals(base - c[:, :n, None] / c[:, n, None, None] * last)
    roots = h * (x - 1.0)
    imag = np.abs(roots.imag)
    window = (roots.real >= -2.0 * h - INTERVAL_SLACK) & (roots.real <= INTERVAL_SLACK)
    real = imag <= REALITY_TOL
    return roots, real & window, ~real & (imag <= borderline_tol) & window


def su2_root_count_thresholds(phi: RileyPoly) -> list[float]:
    """Sigma values where the SU(2) root count changes.

    The grid is THRESHOLD_SAMPLES points in sigma = 2cos(theta) from
    THRESHOLD_SIGMA_LO to THRESHOLD_SIGMA_HI.  One stack counts roots on
    every THRESHOLD_STRIDE-th point and the last; a second counts them on
    the points inside each of those intervals whose end counts differ.  A
    count that leaves and regains its value within one interval of
    THRESHOLD_STRIDE grid steps is not seen.

    Each change between neighbouring grid points is a bracket with an event
    function of its roots (see :func:`_threshold_event`), whose zero Brent's
    method finds to 1e-13, all brackets in lockstep, one root stack per
    round.  One more stack checks every zero t: the count at t - 1e-9 must
    be the bracket's low-end count, and the count at t + 1e-9 must differ;
    its roots at t + 1e-9 are kept.
    A bracket whose event function has one sign at both ends, or whose zero
    fails the check, is refined the same way on a step function of the
    count: +1/2 where it is the low end's, -1/2 elsewhere.  The count can
    change twice inside one bracket: when the count at t + 1e-9 is not the
    bracket's high-end count, (t + 1e-9, high end) is refined the same way,
    and so on until every bracket reaches its high-end count.  Only the
    fallback zeros need a stack of their own at t + 1e-9."""

    source = _root_source(phi)

    def roots_at(sigmas: list[float]) -> tuple[np.ndarray, list[int]]:
        thetas = [max(1e-9, math.acos(max(-1.0, min(1.0, sig / 2.0)))) for sig in sigmas]
        roots, inside, _ = _su2_roots(source, thetas, 0.0)
        return roots, inside.sum(axis=1).tolist()

    lo, hi, samples = THRESHOLD_SIGMA_LO, THRESHOLD_SIGMA_HI, THRESHOLD_SAMPLES

    def grid(i: int) -> float:
        return lo + (hi - lo) * i / (samples - 1)

    roots: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}

    def count(indices: list[int]) -> None:
        found, found_counts = roots_at([grid(i) for i in indices])
        roots.update(zip(indices, found))
        counts.update(zip(indices, found_counts))

    coarse = [*range(0, samples - 1, THRESHOLD_STRIDE), samples - 1]
    count(coarse)
    changed = [(i, j) for i, j in zip(coarse, coarse[1:]) if counts[i] != counts[j]]
    count([k for i, j in changed for k in range(i + 1, j)])
    # (a, b, count at a, count at b, roots at a, roots at b) with the count
    # changing between neighbours a and b
    brackets = [
        (grid(k), grid(k + 1), counts[k], counts[k + 1], roots[k], roots[k + 1])
        for i, j in changed
        for k in range(i, j)
        if counts[k] != counts[k + 1]
    ]

    def event_zeros(jobs: dict) -> dict[int, float]:
        # Brent's method to 1e-13 on every job (function, a, its value at a,
        # b, its value at b), all in lockstep, one root stack per round
        def values(batch):
            rows, row_counts = roots_at([sigma for _, sigma in batch])
            return [jobs[i][0](sigma, row, c) for (i, sigma), row, c in zip(batch, rows, row_counts)]

        return _lockstep_zeros(values, {i: _bracketed_zero(*job[1:], xtol=1e-13) for i, job in jobs.items()})

    thresholds: list[float] = []
    while brackets:
        zeros = event_zeros({
            i: job for i, bracket in enumerate(brackets) if (job := _threshold_event(*bracket))
        })
        checked = list(zeros)
        near_roots, near = roots_at([zeros[i] + d for i in checked for d in (-1e-9, 1e-9)])
        # the roots and count just above every zero that passes the check
        above: dict[int, tuple[np.ndarray, int]] = {}
        for i, row, below, count in zip(checked, near_roots[1::2], near[::2], near[1::2]):
            if below != brackets[i][2] or count == below:
                del zeros[i]
            else:
                above[i] = row, count
        # +1/2 where the count is the low end's, -1/2 elsewhere: with equal |f|
        # at every trial Brent's method bisects to where the count leaves the
        # low end's, also across a second change inside the bracket
        fallback = event_zeros({
            i: (lambda sigma, row, c, ca=ca: 0.5 if c == ca else -0.5, a, 0.5, b, -0.5)
            for i, (a, b, ca, *_) in enumerate(brackets)
            if i not in zeros
        })
        zeros.update(fallback)
        if fallback:
            rows, row_counts = roots_at([zeros[i] + 1e-9 for i in fallback])
            above.update(zip(fallback, zip(rows, row_counts)))
        found = [zeros[i] for i in range(len(brackets))]
        thresholds += found
        # a second change inside a bracket: the count just above its zero is
        # not the high end's, and the rest of the bracket is refined again
        brackets = [
            (t + 1e-9, b, above[i][1], cb, above[i][0], roots_b)
            for i, ((_, b, _, cb, _, roots_b), t) in enumerate(zip(brackets, found))
            if above[i][1] != cb
        ]
    return sorted(thresholds)


def _threshold_event(a, b, ca, cb, roots_a, roots_b):
    """The event function of the root count change between neighbouring
    sigma values a < b, with the counts ca != cb and the roots there, as
    (function, a, its value at a, b, its value at b), or None when no
    candidate changes sign.  A function is called with (sigma, the roots
    there, the count there) and follows its roots from call to call.

    An odd change is a root crossing a window end: the event is the
    crossing root's Re u - INTERVAL_SLACK at u = 0, or its
    Re u - (sigma - 2 - INTERVAL_SLACK) at the lower end.  An even change is
    a pair of real roots merging into a conjugate pair: the event is
    Re((u1 - u2)^2), positive while the pair is real and -4 Im^2 after.
    """
    if (ca - cb) % 2:
        real = roots_a[np.abs(roots_a.imag) <= REALITY_TOL].tolist()
        for bound in (lambda sig: INTERVAL_SLACK, lambda sig: sig - 2.0 - INTERVAL_SLACK):
            for u in sorted(real, key=lambda u: abs(u.real - bound(a))):
                event = _crossing_event(bound, u)
                fa, fb = event(a, roots_a, ca), event(b, roots_b, cb)
                if fa * fb <= 0.0:
                    return event, a, fa, b, fb
        return None
    # a conjugate pair inside the window at the end with fewer real roots,
    # nearest the real axis first; the event is read there first
    (few, roots_few, c_few), (many, roots_many, c_many) = sorted(
        [(a, roots_a, ca), (b, roots_b, cb)], key=lambda end: end[2]
    )
    pairs = roots_few[
        (roots_few.imag > REALITY_TOL)
        & (roots_few.real <= INTERVAL_SLACK)
        & (roots_few.real >= few - 2.0 - INTERVAL_SLACK)
    ]
    for mid in pairs[np.argsort(pairs.imag)].real.tolist():
        event = _fold_event(mid)
        values = {few: event(few, roots_few, c_few), many: event(many, roots_many, c_many)}
        if values[a] * values[b] <= 0.0:
            return event, a, values[a], b, values[b]
    return None


def _crossing_event(bound, u: complex):
    """Re u - bound(sigma) of the root nearest the one of the last call."""

    def event(sigma: float, roots: np.ndarray, count: int) -> float:
        nonlocal u
        u = roots[np.nanargmin(np.abs(roots - u))]
        return float(u.real - bound(sigma))

    return event


def _fold_event(mid: complex):
    """Re((u1 - u2)^2) of the two roots nearest the mean of the last call's pair."""

    def event(sigma: float, roots: np.ndarray, count: int) -> float:
        nonlocal mid
        u1, u2 = roots[np.argsort(np.abs(roots - mid))[:2]]
        mid = 0.5 * (u1 + u2)
        return float(((u1 - u2) ** 2).real)

    return event


def _lockstep_zeros(evaluate, searches: dict) -> dict:
    """Brent searches run in lockstep: ``searches`` maps a key to a
    :func:`_bracketed_zero` generator, and each round makes one call
    ``evaluate([(key, trial x), ...])`` for the searches not yet done, which
    returns f(x) for each, or an exception that ends that search.  Returns
    each key's zero, or the exception that ended its search."""
    out, trials = {}, {}

    def advance(key, steps: Generator[float, float, float], value: float | None) -> None:
        try:
            trials[key] = steps.send(value), steps
        except StopIteration as stop:
            out[key] = stop.value

    for key, steps in searches.items():
        advance(key, steps, None)
    while trials:
        batch = list(trials.items())
        trials.clear()
        for (key, (_, steps)), value in zip(batch, evaluate([(key, x) for key, (x, _) in batch])):
            if isinstance(value, Exception):
                out[key] = value
            else:
                advance(key, steps, value)
    return out


def _bracketed_zero(
    a: float, fa: float, b: float, fb: float, xtol: float
) -> Generator[float, float, float]:
    """Zero of f between a and b, where fa = f(a) and fb = f(b) do not share
    a sign, by Brent's method (Brent 1973, *Algorithms for Minimization
    without Derivatives*, ch. 4).

    A generator: it yields each trial x and is sent f(x) there, and it
    returns the zero.  Every step stays inside the current sign bracket: an
    inverse quadratic or secant step when it shrinks the bracket fast
    enough, else bisection.  The zero is the bracket end with the smaller
    |f| once f is exactly 0 there or the bracket is narrower than xtol.
    """
    if fa * fb > 0.0:
        raise ValueError(f"f has one sign at both ends ({fa:.3e}, {fb:.3e})")
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            # keep c on the other side of the zero from b
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if fb == 0.0 or abs(c - b) < xtol:
            return b
        m = 0.5 * (c - b)
        tol1 = 2.0 * sys.float_info.epsilon * abs(b) + 0.25 * xtol
        bisect = abs(e) < tol1 or abs(fa) <= abs(fb)
        if not bisect:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * m * q - abs(tol1 * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                bisect = True
        if bisect:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = yield b


def near_transition(sigma: float, thresholds: Sequence[float], band: float = 1e-3) -> bool:
    """Whether sigma lies within the near-threshold band of a count change."""
    return any(abs(sigma - t) < band for t in thresholds)


# ---------------------------------------------------------------------------
# representations and the adjoint
# ---------------------------------------------------------------------------


_EYE2 = np.eye(2, dtype=complex)
_EYE2.flags.writeable = False


def _mat_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of each 2x2 matrix of a stack (..., 2, 2), as adjugate over
    determinant.  The determinants are formed in Python complex arithmetic,
    which rounds like numpy's scalars; numpy's array product fuses a
    multiply and an add."""
    det = np.array([a * d - b * c for a, b, c, d in m.reshape(-1, 4).tolist()]).reshape(m.shape[:-2])
    if (np.abs(det) < 1e-300).any():
        raise RepresentationError("singular image matrix")
    adjugate = np.stack([m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]], axis=-1)
    return adjugate.reshape(m.shape) / det[..., None, None]


def _points(*values):
    """Python complex numbers for one point, equal-length complex arrays for a stack."""
    if not any(np.ndim(v) for v in values):
        return [complex(v) for v in values]
    return np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in values))


def _unstack(a):
    """A Python scalar for one point, the array of per-point values for a stack."""
    return a.item() if a.ndim == 0 else a


def _raise_first(failures) -> None:
    """Raise the RepresentationError of the first failing point, in stack
    order, for the first check it fails; ``failures`` holds a mask over the
    points and a message for point i per check."""
    if not any(np.count_nonzero(mask) for mask, _ in failures):
        return
    masks = np.broadcast_arrays(*(np.atleast_1d(mask) for mask, _ in failures))
    for i in np.flatnonzero(np.logical_or.reduce(masks))[:1]:
        for mask, (_, message) in zip(masks, failures):
            if mask[i]:
                raise RepresentationError(message(i))


class Rep:
    """A matrix representation of a presentation's group, with diagnostics,
    at one point or at a stack of N points.

    Construct from one complex matrix per generator, 2x2 for one point and
    (N, 2, 2) for a stack, or through :func:`build_rep` for Riley's
    parametrization; `images` holds the matrices.  At a stack the per-point
    attributes (s, u, sqrt_s, the residuals, the irreducibility flag and
    the meridian trace) are length-N arrays.  Values are immutable by
    convention.  ``prefixes`` and ``adjoint_prefixes`` memoize, per word,
    the images of all its prefixes; the relator check forms each relator's
    chain, and every Fox term of that relator reads it.

    ``unitary=True`` declares every image a unit quaternion
    [[g, d], [-conj(d), conj(g)]] (with ``check``, within ``tol``): the
    inverses are then conjugate transposes, and prefix chains are formed
    on first rows by elementwise products instead of matrix products.
    """

    __slots__ = (
        "presentation",
        "images",
        "inverses",
        "unitary",
        "s",
        "u",
        "sqrt_s",
        "relator_residuals",
        "irreducible",
        "trace_meridian",
        "_letters",
        "_prefixes",
        "_adjoints",
    )

    def __init__(
        self,
        presentation: Presentation,
        images: Sequence[np.ndarray],
        *,
        s: complex | None = None,
        u: complex | None = None,
        sqrt_s: complex | None = None,
        tol: float = RELATION_TOL,
        check: bool = True,
        unitary: bool = False,
    ):
        if len(images) != presentation.k:
            raise RepresentationError("one image matrix per generator required")
        self.presentation = presentation
        self.images = tuple(np.asarray(m, dtype=complex) for m in images)
        stack = np.stack(self.images)
        self.unitary = unitary
        if unitary and check:
            _raise_first([_unitary_failure(stack, tol)])
        self.inverses = tuple(stack.conj().swapaxes(-1, -2) if unitary else _mat_inverse(stack))
        self._letters = _quaternion_letters(stack) if unitary else None
        self.s = s
        self.u = u
        self.sqrt_s = sqrt_s
        self._prefixes: dict[Word, np.ndarray] = {}
        self._adjoints: dict[Word, np.ndarray] = {}

        self.relator_residuals = tuple(
            _unstack(np.abs(self.of_word(r) - _EYE2).max(axis=(-2, -1)))
            for r in presentation.relators
        )
        if check:
            _raise_first([self._relator_failure(tol)])

        self.trace_meridian = _unstack(np.trace(self.images[presentation.meridian], axis1=-2, axis2=-1))
        self.irreducible = self._irreducibility_heuristic()

    @property
    def stacked(self) -> bool:
        """Whether this is a stack of points rather than one point."""
        return self.images[0].ndim == 3

    def _relator_failure(self, tol: float):
        worst = functools.reduce(np.maximum, self.relator_residuals, 0.0)
        return worst > tol, lambda i: (
            f"relator residual {np.atleast_1d(worst)[i]:.3e} exceeds tolerance {tol:.1e}: "
            "(s, u) may be off the representation variety"
        )

    def _irreducibility_heuristic(self, threshold: float = 1e-8) -> bool:
        # a pair of invertible 2x2 matrices shares an eigenvector iff the
        # trace of their commutator is 2; a unitary representation forms the
        # commutator as a quaternion chain
        pairs = [(i, j) for i in range(len(self.images)) for j in range(i + 1, len(self.images))]
        if self.unitary:
            commutators = [self.of_word(Word([(i, 1), (j, 1), (i, -1), (j, -1)])) for i, j in pairs]
        else:
            commutators = [
                self.images[i] @ self.images[j] @ self.inverses[i] @ self.inverses[j] for i, j in pairs
            ]
        far = [np.abs(np.trace(c, axis1=-2, axis2=-1) - 2.0) > threshold for c in commutators]
        return _unstack(np.any(far, axis=0))

    def prefixes(self, w: Word) -> np.ndarray:
        """rho of every prefix of w, the empty prefix first: one read-only
        (len(w) + 1, *batch, 2, 2) stack, formed once per word by
        right-multiplying the identity letter by letter (see
        :meth:`_quaternion_chain` for a unitary representation)."""
        chain = self._prefixes.get(w)
        if chain is None:
            if self.unitary:
                chain = self._quaternion_chain(w)
            else:
                chain = np.empty((len(w.letters) + 1,) + self.images[0].shape, dtype=complex)
                chain[0] = _EYE2
                for k, (g, e) in enumerate(w.letters):
                    np.matmul(chain[k], self.images[g] if e == 1 else self.inverses[g], out=chain[k + 1])
            self._prefixes[w] = chain = _read_only(chain)
        return chain

    def _quaternion_chain(self, w: Word) -> np.ndarray:
        """The prefix chain of a unitary representation from first rows.

        A prefix [[a, b], [-conj(b), conj(a)]] is kept as its first row
        (a, b); a letter [[g, d], [-conj(d), conj(g)]] maps it to
        (a g - b conj(d), a d + b conj(g)), as the row times the letter's
        matrix: one elementwise product and one sum per letter, and one
        product alone for a diagonal letter (d = 0).  The rows are stored
        component first, (2, N), so each product runs over the points.  One
        point runs as a stack of one, so its bits do not depend on its
        stack."""
        letters = self._letters
        n = math.prod(self.images[0].shape[:-2])
        rows = np.empty((len(w.letters) + 1, 2, n), dtype=complex)
        rows[0, 0] = 1.0
        rows[0, 1] = 0.0
        terms = np.empty((2, 2, n), dtype=complex)
        for k, letter in enumerate(map(letters.__getitem__, w.letters)):
            if letter.ndim == 2:
                np.multiply(rows[k], letter, out=rows[k + 1])
            else:
                np.multiply(rows[k][:, None], letter, out=terms)
                np.add(terms[0], terms[1], out=rows[k + 1])
        chain = np.empty((len(rows), n, 2, 2), dtype=complex)
        chain[..., 0, :] = rows.swapaxes(1, 2)
        np.negative(rows[:, 1].conj(), out=chain[..., 1, 0])
        np.conjugate(rows[:, 0], out=chain[..., 1, 1])
        return chain.reshape((len(rows),) + self.images[0].shape)

    def of_word(self, w: Word) -> np.ndarray:
        return self.prefixes(w)[-1]

    def adjoint_prefixes(self, w: Word) -> np.ndarray:
        """Ad rho of every prefix of w, the empty prefix first: one
        read-only (len(w) + 1, *batch, 3, 3) stack, the closed form of
        :func:`adjoint_of_matrix` over :meth:`prefixes`, formed once per word."""
        ad = self._adjoints.get(w)
        if ad is None:
            self._adjoints[w] = ad = _read_only(adjoint_of_matrix(self.prefixes(w)))
        return ad

    def conjugated(self, g: np.ndarray) -> "Rep":
        ginv = _mat_inverse(np.asarray(g, dtype=complex))
        return Rep(
            self.presentation,
            [g @ m @ ginv for m in self.images],
            s=self.s,
            u=self.u,
            sqrt_s=self.sqrt_s,
            check=False,
        )


def _quaternion_letters(stack: np.ndarray) -> dict:
    """The letters (g, +-1) of a unitary stack of images (k, *batch, 2, 2)
    as operands of the quaternion chain, each over the N points (N = 1 for
    one point): the (2, 2, N) matrix, or the (2, N) diagonal when the
    generator's images are all diagonal."""
    m = np.ascontiguousarray(np.moveaxis(stack.reshape(len(stack), -1, 2, 2), 1, -1))
    inverse = np.ascontiguousarray(m.conj().swapaxes(1, 2))
    letters = {}
    for g, (image, inv) in enumerate(zip(m, inverse)):
        if not (image[0, 1].any() or image[1, 0].any()):
            image, inv = image.diagonal().T.copy(), inv.diagonal().T.copy()
        letters[g, 1], letters[g, -1] = image, inv
    return letters


def _unitary_failure(stack: np.ndarray, tol: float):
    """The points of a stack of images (k, *batch, 2, 2) not all of the
    unit-quaternion form [[g, d], [-conj(d), conj(g)]] within tol."""
    g, d, c, e = np.moveaxis(stack.reshape(stack.shape[:-2] + (4,)), -1, 0)
    error = np.maximum.reduce([
        np.abs(g.real * g.real + g.imag * g.imag + d.real * d.real + d.imag * d.imag - 1.0),
        np.abs(c + d.conj()),
        np.abs(e - g.conj()),
    ]).max(axis=0)
    return error > tol, lambda i: (
        f"images are not in SU(2): unit-quaternion error {np.atleast_1d(error)[i]:.3e} "
        f"exceeds tolerance {tol:.1e}"
    )


def _su2_images(s, u, sqrt_s):
    """The SU(2) frame at every point: with h = sqrt_s, c = Re h and
    S = Im h, x = diag(h, conj(h)) and y = [[c + ia, b], [-b, c - ia]],
    where a = S + u/(2S) and b = sqrt(-u (u + 4S^2)) / (2S) (that is,
    sign(S) sqrt(S^2 - a^2), without its cancellation at u = 0).

    Tr x, Tr y and Tr xy = sigma - u are those of Riley's pair over sqrt_s,
    so the pairs are conjugate; -sqrt_s gives exactly -x and -y.  Returns
    both image stacks, (N, 2, 2) with N = 1 for one point, and the mask of
    points off SU(2): |sqrt_s| != 1, u not real, S = 0, or u outside the
    window [2 Re s - 2, 0] by more than INTERVAL_SLACK, the slack
    su2_solutions keeps roots within.  A u within the slack is clamped to
    the window end, where b = 0."""
    h, s, u = (np.asarray(v, dtype=complex).reshape(-1) for v in (sqrt_s, s, u))
    c, S = h.real, h.imag
    width = 4.0 * S * S
    ur = np.clip(u.real, -width, 0.0)
    off = (
        (np.abs(np.abs(h) - 1.0) > REALITY_TOL)
        | (np.abs(u.imag) > REALITY_TOL)
        | (S == 0.0)
        | (u.real < -2.0 * (1.0 - s.real) - INTERVAL_SLACK)
        | (u.real > INTERVAL_SLACK)
    )
    with np.errstate(divide="ignore", invalid="ignore"):  # S = 0 is off SU(2)
        a = S + ur / (2.0 * S)
        b = np.sqrt(np.maximum(-ur * (ur + width), 0.0)) / (2.0 * S)
    x = np.zeros((len(h), 2, 2), dtype=complex)
    x[:, 0, 0] = h
    x[:, 1, 1] = h.conj()
    y = np.zeros_like(x)
    y.real[:, 0, 0] = y.real[:, 1, 1] = c
    y.imag[:, 0, 0] = a
    y.imag[:, 1, 1] = -a
    y.real[:, 0, 1] = b
    y.real[:, 1, 0] = -b
    return x, y, off


def build_rep(
    p: Presentation,
    s: complex,
    u: complex,
    sqrt_s: complex | None = None,
    tol: float = RELATION_TOL,
    check: bool = True,
    *,
    frame: str = "riley",
) -> Rep:
    """The representation at Riley's (s, u); for arrays of s and u (and
    sqrt_s), one Rep of that stack of points.

    ``frame="riley"`` builds (X/sqrt(s), Y/sqrt(s)) at any point of the
    variety.  ``frame="su2"`` builds a conjugate unitary pair (see
    :func:`_su2_images`) and raises a RepresentationError at a point off
    SU(2); its prefix chains are products of unit quaternions.  Either way
    ``s``, ``u`` and ``sqrt_s`` are Riley's.

    Verifies sqrt_s^2 = s, that (s, u) lies on the zero set of the bridge
    word's obstruction polynomial, and that the relator maps to the identity
    within tol.  A stack raises the error its first failing point raises on
    its own.  With check=False the object is built regardless and the
    residuals are left in the diagnostics (the square root and the SU(2)
    frame are always checked).
    """
    if frame not in ("riley", "su2"):
        raise ValueError(f"frame must be 'riley' or 'su2', got {frame!r}")
    if p.bridge_word is None or p.k != 2:
        raise RepresentationError("non-2-bridge presentation: no bridge word available")
    s, u, sqrt_s = _points(s, u, np.sqrt(np.asarray(s, dtype=complex)) if sqrt_s is None else sqrt_s)
    failures = [(
        abs(sqrt_s * sqrt_s - s) > tol * np.maximum(1.0, abs(s)),
        lambda i: "sqrt_s is not a square root of s",
    )]
    if frame == "su2":
        x, y, off = _su2_images(s, u, sqrt_s)
        failures.append((off, lambda i: "(s, u) is not an SU(2) point: the su2 frame needs "
                         "|sqrt_s| = 1 and a real u in [2 Re s - 2, 0]"))
        shape = np.shape(s) + (2, 2)
        images = x.reshape(shape), y.reshape(shape)
    else:
        x, y = riley_assignment(s, u)
        root = np.asarray(sqrt_s)[..., None, None]
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero sqrt_s fails its check
            images = x / root, y / root
    phi = riley_polynomial(p.bridge_word)
    if check and not phi.is_zero:
        failures.append(phi_failure(phi, s, u, tol))
    with np.errstate(divide="ignore", invalid="ignore"):  # images of a point failing a check
        rep = Rep(p, images, s=s, u=u, sqrt_s=sqrt_s, tol=tol, check=False, unitary=frame == "su2")
    if check:
        failures.append(rep._relator_failure(tol))
    _raise_first(failures)
    return rep


def phi_failure(phi: RileyPoly, s, u, tol: float):
    """The points (s, u) where phi does not vanish: |phi| above
    max(tol, RELATION_TOL) times the sum of its term magnitudes; the mask
    and the message for point i, as ``_raise_first`` takes them."""
    residual, scale = phi.residual_and_scale(s, u)
    return residual > max(tol, RELATION_TOL) * scale, lambda i: (
        f"phi(s, u) = {np.atleast_1d(residual)[i]:.3e} does not vanish: "
        "(s, u) off the representation variety"
    )


def adjoint_of_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix of V -> m V m^-1 on trace-zero 2x2 matrices, basis (E, H, F);
    for a stack (..., 2, 2) of matrices a stack (..., 3, 3).

    Column j holds the (E, H, F) coordinates of m B_j m^-1 in closed form:
    for m = [[a, b], [c, d]], m E m^-1 = (a^2 E - ac H - c^2 F) / det m, and
    likewise for H and F.  One elementwise pass over the flattened stack:
    numpy's array loops give an entry the same bits at every length and
    position, so a matrix's adjoint does not depend on its stack.
    """
    m = np.asarray(m, dtype=complex)
    a, b, c, d = m.reshape(-1, 4).T
    det = a * d - b * c
    if np.any(np.abs(det) < 1e-300):
        raise RepresentationError("singular image matrix")
    entries = np.stack(
        [a * a, -2 * a * b, -b * b, -a * c, a * d + b * c, b * d, -c * c, 2 * c * d, d * d], axis=-1
    )
    return (entries / det[:, None]).reshape(m.shape[:-2] + (3, 3))


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m
