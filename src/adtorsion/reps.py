"""Representations of two-bridge knot groups via Riley's parametrization.

The generator assignment is x -> [[s, 1], [0, 1]], y -> [[s, 0], [-s*u, 1]];
the pair (s, u) carries a nonabelian representation exactly when the
obstruction polynomial phi(s, u) = W_11 + (1-s)W_12 vanishes, where W is the
bridge word evaluated on the two matrices.  phi is computed exactly over
Z[s, s^-1][u]; the unit-circle/real-u locus (|s| = 1, u in [2cos(theta)-2, 0])
enumerates the SU(2)-conjugate points.  build_rep takes each point's frame
from the point: at an SU(2) point a conjugate pair of unit quaternions, and
elsewhere Riley's pair divided by a square root of s, which lands the
representation in SL(2, C).  The adjoint action on the trace-zero matrices
is taken in the ordered basis (E, H, F).  phi's Chebyshev form and the
breakpoint polynomials in sigma of its SU(2) roots are formed in ``modular``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .laurent import IntLaurent, _Laurent, _signed_sum_str
from .modular import breakpoint_polynomials, chebyshev, chebyshev_form, real_roots, square_free
from .presentation import Presentation
from .words import Word

#: default bound on relator residuals (``Tolerances.relation``)
RELATION_TOL = 1e-9
REALITY_TOL = 1e-9
INTERVAL_SLACK = 1e-9
#: default near-double-root distance in u (``Tolerances.multiplicity``)
MULTIPLICITY_THRESHOLD = 1e-5

#: a point is irreducible when some commutator of two images has a trace
#: farther than this from 2 (``Rep.irreducible``)
COMMUTATOR_TRACE_TOL = 1e-8

#: trailing Chebyshev coefficients in x at most this fraction of the largest
#: are dropped before the colleague matrix: c_n is O((1 - sigma/2)^n), so
#: near sigma = 2 the top ones fall below the rounding of the others (on the
#: two-bridge knots up to p = 41 they are dropped only above sigma = 1.08)
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

    phi(e^{i theta}, u) is a unit times a real polynomial exactly when
    every nonzero u-coefficient is palindromic about one common s-power;
    ``_centre`` holds twice that power, their common lo + hi (None when
    there is none).  The hash is computed once, and the Chebyshev form (see
    :meth:`chebyshev_form`) on first use.
    """

    __slots__ = ("coeffs", "_centre", "_hash", "_form")

    def __init__(self, coeffs: Iterable[IntLaurent]):
        self._centre = self._form = None
        cs = _UPoly(0, tuple(coeffs)).by_u_degree()
        if cs:
            shift = min(c.lo for c in cs if not c.is_zero)
            cs = [c.shift(-shift) for c in cs]
            if cs[-1].coeffs[0] < 0:
                cs = [-c for c in cs]
            centres = {c.lo + c.hi for c in cs if not c.is_zero}
            if len(centres) == 1 and all(c.is_palindromic() for c in cs):
                (self._centre,) = centres
        self.coeffs: tuple[IntLaurent, ...] = tuple(cs)
        self._hash = hash(self.coeffs)

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
        return self._hash

    def residual_and_scale(self, s: complex, u: complex) -> tuple[float, float]:
        """|phi(s, u)| by Horner's rule in u, and the scale for near-zero
        testing: the sum of the term magnitudes, floored by the largest
        |c_k(s)|, from one evaluation of each coefficient at s (arrays of s
        and u give arrays of both).  The floor gives a scale where every
        term vanishes: at a reducible root, Delta(s) = 0 and u = 0."""
        values = [c(s) for c in self.coeffs]
        acc = 0j
        total = 0.0
        for v in reversed(values):
            acc = acc * u + v
        sizes = [abs(v) for v in values]
        for d, size in enumerate(sizes):
            total += size * abs(u) ** d
        # max |c_k(s)|: Python's max at one point, one reduction over a stack
        top = np.maximum.reduce(sizes) if np.ndim(total) else max(sizes, default=0.0)
        return abs(acc), np.maximum(np.maximum(total, top), 1e-300)

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

    def chebyshev_form(self) -> np.ndarray:
        """The Chebyshev form of the sigma form (see ``modular.chebyshev_form``),
        built once and shared by every reader: the SU(2) root finder and the
        exact torsion function.  ValueError when phi is zero or has no sigma
        form, so that phi(e^{i theta}, u) is not real up to a unit."""
        if self._form is None:
            if self.is_zero:
                raise ValueError("zero polynomial")
            sigma = self.sigma_form()
            if sigma is None:
                raise ValueError("phi(e^{i theta}, u) is not real up to a unit: its u-coefficients "
                                 "are not palindromic about one common even s-power")
            self._form = _read_only(chebyshev_form(sigma))
        return self._form

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


@functools.lru_cache(maxsize=RILEY_CACHE_SIZE)
def riley_polynomial(w: Word) -> RileyPoly:
    """Exact obstruction polynomial W_11 + (1-s) W_12 of a two-generator word.

    Memoized per word: every call with an equal word returns the same shared
    :class:`RileyPoly`, which callers must not mutate.
    """
    if w.max_index() > 1:
        raise RepresentationError("word uses more than two generators")
    # the first row (W_11, W_12) of the product W of the letter matrices:
    # (1, 0) right-multiplied by one letter matrix at a time; a factor u
    # shifts the u-degree
    a, b = _UPoly.term(IntLaurent.one()), _UPoly()
    for g, e in w.letters:
        if g == 0 and e == 1:    # x = [[s, 1], [0, 1]]
            a, b = a * _S, a + b
        elif g == 0:             # x^-1 = [[1/s, -1/s], [0, 1]]
            a = a * _S_INV
            b = b - a
        elif e == 1:             # y = [[s, 0], [-s u, 1]]
            a = (a - b.shift(1)) * _S
        else:                    # y^-1 = [[1/s, 0], [u, 1]]
            a = a * _S_INV + b.shift(1)
    return RileyPoly((a + _ONE_MINUS_S * b).by_u_degree())


# ---------------------------------------------------------------------------
# SU(2) locus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Su2Solutions:
    """The SU(2) roots of one theta: row 0 of a one-theta :class:`Su2Stack`.

    ``roots`` are the real u-roots inside [2cos(theta)-2, 0], ascending,
    and ``any_near_multiple`` is the stack's near-multiple flag of theta.
    """

    theta: float
    sigma: float
    roots: tuple[float, ...]
    any_near_multiple: bool


class Su2Stack:
    """The SU(2) roots of a stack of thetas as one table.

    ``thetas`` and ``sigmas`` are lists of floats, one per theta.
    ``table`` holds the kept roots of every theta as one (n, d) float
    array, ascending in each row and NaN after them, ``counts`` the number
    of roots per theta, and ``roots`` the table's rows as tuples.
    ``near_multiple`` is True where two kept roots of a theta lie closer
    than the multiplicity threshold or a near-real root sits at the
    window's edge.  Each row is sorted and flagged on its own, so a theta
    gets the same row and flag in any stack."""

    def __init__(self, thetas: list[float], sigmas: list[float], roots: np.ndarray, real: np.ndarray,
                 edge: np.ndarray, multiplicity_threshold: float):
        self.thetas, self.sigmas = thetas, sigmas
        self.table = np.where(real, roots.real, np.nan)
        # a stable sort leaves -0.0 and 0.0, which compare equal, in eigvals' order on every CPU
        self.table.sort(axis=1, kind="stable")
        self.counts = real.sum(axis=1)
        # np.diff's subtraction without its call overhead; NaN compares False
        close = self.table[:, 1:] - self.table[:, :-1] < multiplicity_threshold
        self.near_multiple = (close.any(axis=1) | edge.any(axis=1)).tolist()

    @functools.cached_property
    def roots(self) -> list[tuple[float, ...]]:
        """The kept roots of every theta, ascending."""
        return [tuple(row[:n]) for row, n in zip(self.table.tolist(), self.counts.tolist())]


def su2_solutions(
    phi: RileyPoly,
    theta: float | Sequence[float],
    tol: float = REALITY_TOL,
    *,
    multiplicity_threshold: float = MULTIPLICITY_THRESHOLD,
) -> Su2Solutions | Su2Stack:
    """All real roots of phi(e^{i theta}, u) in [2cos(theta)-2, 0]: for a
    sequence of thetas one :class:`Su2Stack`, the root table of them all
    with a near-multiple flag per theta, and for one theta row 0 of the
    stack of that theta alone, as one :class:`Su2Solutions`.

    The roots are the eigenvalues of the colleague matrix of phi's
    Chebyshev coefficients in x at sigma = 2 cos(theta) (see
    :func:`_su2_roots`).  Roots with |Im u| above REALITY_TOL are
    discarded, the window gets a small slack at both endpoints, and
    near-multiple roots are flagged.  A theta gets the same roots and
    flag in any stack and alone.  ``tol`` is not read: whether
    phi(e^{i theta}, u) is real up to a unit is decided exactly, once per
    polynomial, from its coefficients.  The parameter stays because
    callers outside the package pass it positionally; the package's own
    callers leave it out.

    One theta is memoized per process (at most RILEY_CACHE_SIZE entries),
    keyed on phi (whose hash is computed once), the float theta and
    ``multiplicity_threshold``: every root index of one theta shares one
    solve and the same frozen result, also across equal polynomials.  A
    sequence of thetas neither reads nor fills the memo.
    ``su2_solutions.cache_info()`` and ``su2_solutions.cache_clear()`` reach
    it; an error is never stored.
    """
    if np.ndim(theta) > 0:
        return _stack(phi, [float(t) for t in theta], multiplicity_threshold)
    return _solution_at(phi, float(theta), multiplicity_threshold)


def _stack(phi: RileyPoly, thetas: list[float], multiplicity_threshold: float) -> Su2Stack:
    """The Su2Stack of ``thetas``: the one root solve, which one theta takes as a stack of one."""
    sigmas = _sigmas(thetas)
    return Su2Stack(thetas, sigmas, *_su2_roots(phi.chebyshev_form(), sigmas, multiplicity_threshold),
                    multiplicity_threshold)


@functools.lru_cache(maxsize=RILEY_CACHE_SIZE)
def _solution_at(phi: RileyPoly, theta: float, multiplicity_threshold: float) -> Su2Solutions:
    stack = _stack(phi, [theta], multiplicity_threshold)
    return Su2Solutions(theta, stack.sigmas[0], stack.roots[0], stack.near_multiple[0])


su2_solutions.cache_info = _solution_at.cache_info
su2_solutions.cache_clear = _solution_at.cache_clear


def _sigmas(thetas: list[float]) -> list[float]:
    """sigma = 2 cos(theta) of every theta, as Su2Solutions holds it;
    ValueError unless every theta lies strictly between 0 and 2 pi."""
    if not all(0.0 < t < 2.0 * math.pi for t in thetas):
        raise ValueError("theta must lie strictly between 0 and 2*pi")
    return [2.0 * math.cos(t) for t in thetas]


@functools.lru_cache(maxsize=None)
def _colleagues(d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per degree n = 1..d the colleague matrix of T_n with the weights of
    the coefficients in its last column (as
    ``numpy.polynomial.chebyshev.chebcompanion`` forms it)."""
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
    return colleagues


def _su2_roots(form: np.ndarray, sigmas: list[float], borderline_tol: float):
    """The root finder behind su2_solutions, on phi's Chebyshev form
    c[m, n] (see :meth:`RileyPoly.chebyshev_form`).

    At each sigma (a row) phi is sum_n c_n T_n(x), c_n = sum_m c[m, n]
    T_m(sigma / 2), in x = 1 + u / h, h = 1 - sigma / 2, which maps the
    window u in [sigma - 2, 0] onto [-1, 1]; its roots x are the eigenvalues
    of the colleague matrix (Good 1961).  Returns the roots u, padded with
    NaN, and two masks of the roots inside the slack window: real within
    REALITY_TOL, and near-real (|Im| <= borderline_tol), the signature of a
    double root at the edge of the real locus.  Every step is elementwise or
    one LAPACK call per matrix, so a row does not depend on its stack.
    """
    y = np.array(sigmas) / 2.0
    h = (1.0 - y)[:, None]
    # an elementwise product summed over each point's own contiguous row, not
    # a matrix product: BLAS may round a row differently depending on the
    # stack it sits in
    coeffs = np.add.reduce(form.T * chebyshev(y, len(form))[:, None, :], axis=-1)
    d = coeffs.shape[1] - 1
    size = np.abs(coeffs)
    top = np.maximum.reduce(size, axis=1)[:, None]
    if not top.all():
        sigma = sigmas[np.flatnonzero(top == 0.0)[0]]
        raise ValueError(f"phi(sigma, u) vanishes identically at sigma={sigma!r}")
    degrees = d - (size > CHEBYSHEV_TRIM * top)[:, ::-1].argmax(axis=1)
    x = np.full((len(sigmas), d), np.nan, dtype=complex)
    colleagues = _colleagues(d)
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
    """The breakpoints of phi's SU(2) roots: the distinct real sigma in
    (-2, 2), ascending, where disc_u phi, phi(sigma, 0) or phi(sigma, sigma - 2)
    vanishes, each the float nearest it (``modular.real_roots``).  A root
    enters or leaves the window [sigma - 2, 0] only through an end, and two
    roots meet before they cross or turn complex, so between two
    consecutive breakpoints the roots in the window keep their number and
    their order.  ValueError as for :meth:`RileyPoly.chebyshev_form`."""
    phi.chebyshev_form()  # the ValueError where phi is zero or has no sigma form
    return sorted({root for poly in breakpoint_polynomials(phi.sigma_form()) if any(poly)
                   for root in real_roots(square_free(poly))})


# ---------------------------------------------------------------------------
# representations and the adjoint
# ---------------------------------------------------------------------------


def _product(m, n):
    """The 2x2 product of two row-major (a, b, c, d) tuples of Python complex numbers."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _inverse(m):
    """Adjugate over determinant of one (a, b, c, d) tuple."""
    a, b, c, d = m
    det = a * d - b * c
    if math.hypot(det.real, det.imag) < 1e-300:
        raise RepresentationError("singular image matrix")
    return d / det, -b / det, -c / det, a / det


def _points(*values):
    """Python complex numbers for one point, equal-length complex arrays for a stack."""
    if not any(np.ndim(v) for v in values):
        return [complex(v) for v in values]
    return np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in values))


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
    chain, and every Fox term of that relator reads it.  Each point's 2x2
    products and inverses are taken on their own in Python complex arithmetic.
    """

    __slots__ = (
        "presentation",
        "images",
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
    ):
        if len(images) != presentation.k:
            raise RepresentationError("one image matrix per generator required")
        self.presentation = presentation
        self.images = tuple(np.asarray(m, dtype=complex) for m in images)
        # per generator, its image and its inverse at each point as (a, b, c, d)
        self._letters = [(points, [_inverse(m) for m in points])
                         for points in (m.reshape(-1, 4).tolist() for m in self.images)]
        self.s = s
        self.u = u
        self.sqrt_s = sqrt_s
        self._prefixes: dict[Word, np.ndarray] = {}
        self._adjoints: dict[Word, np.ndarray] = {}

        self.relator_residuals = tuple(
            self._per_point([max(abs(a - 1.0), abs(b), abs(c), abs(d - 1.0))
                             for a, b, c, d in self.of_word(r).reshape(-1, 4).tolist()])
            for r in presentation.relators
        )
        if check:
            _raise_first([self._relator_failure(tol)])

        self.trace_meridian = self._per_point([m[0] + m[3] for m in self._letters[presentation.meridian][0]])
        # each point holds (image, inverse) per generator; two invertible 2x2
        # matrices share an eigenvector iff their commutator x y x^-1 y^-1 has trace 2
        self.irreducible = self._per_point([
            any(abs(c[0] + c[3] - 2.0) > COMMUTATOR_TRACE_TOL
                for i, (x, xi) in enumerate(point) for y, yi in point[i + 1:]
                for c in [_product(_product(_product(x, y), xi), yi)])
            for point in zip(*(zip(*letter) for letter in self._letters))
        ])

    @property
    def stacked(self) -> bool:
        """Whether this is a stack of points rather than one point."""
        return self.images[0].ndim == 3

    def _per_point(self, values: list):
        """The value of one point, or a stack's per-point values as an array."""
        return np.array(values).reshape(self.images[0].shape[:-2]) if self.images[0].ndim > 2 else values[0]

    def _relator_failure(self, tol: float):
        worst = functools.reduce(np.maximum, self.relator_residuals, 0.0)
        return np.logical_not(worst <= tol), lambda i: (
            f"relator residual {np.atleast_1d(worst)[i]:.3e} exceeds tolerance {tol:.1e}: "
            "(s, u) may be off the representation variety"
        )

    def prefixes(self, w: Word) -> np.ndarray:
        """rho of every prefix of w, the empty prefix first: one read-only
        (len(w) + 1, *batch, 2, 2) stack, formed once per word by
        right-multiplying the identity letter by letter, one point at a time."""
        stack = self._prefixes.get(w)
        if stack is None:
            letters = [self._letters[g][e != 1] for g, e in w.letters]
            n, length = len(self._letters[0][0]), len(letters) + 1
            runs = [accumulate([letter[k] for letter in letters], _product, initial=(1, 0, 0, 1))
                    for k in range(n)]
            values = chain.from_iterable(chain.from_iterable(runs))
            stack = np.fromiter(values, complex, 4 * n * length).reshape(n, length, 4).swapaxes(0, 1)
            self._prefixes[w] = stack = _read_only(stack.reshape((length,) + self.images[0].shape))
        return stack

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
        g = np.asarray(g, dtype=complex).reshape(4).tolist()
        ginv = _inverse(g)
        images = [np.array([_product(_product(g, x), ginv) for x in points]).reshape(m.shape)
                  for m, (points, _) in zip(self.images, self._letters)]
        return Rep(self.presentation, images, s=self.s, u=self.u, sqrt_s=self.sqrt_s, check=False)


def _su2_images(s, u, sqrt_s):
    """The unitary frame at one point (Python numbers, as ``_points`` hands
    them over) or at a stack: with h = sqrt_s, c = Re h and S = Im h,
    x = diag(h, conj(h)) and y = [[c + ia, b], [-b, c - ia]], where
    a = S + u/(2S) and b = sqrt(-u (u + 4S^2)) / (2S) (that is,
    sign(S) sqrt(S^2 - a^2), without its cancellation at u = 0).

    Tr x, Tr y and Tr xy = sigma - u are those of Riley's pair over sqrt_s,
    so the pairs are conjugate; -sqrt_s gives exactly -x and -y.  Returns
    the images as one (2, *shape, 2, 2) array, x first, and the mask of the
    points off SU(2), where build_rep puts Riley's pair instead:
    |sqrt_s| != 1, u not real,
    S = 0, or u outside the window [2 Re s - 2, 0] by more than
    INTERVAL_SLACK, the slack su2_solutions keeps roots within.  A u within
    the slack is clamped to the window end, where b = 0.  Each entry takes
    the same real operations at one point and in a stack, so it gets the
    same bits."""
    c, S = sqrt_s.real, sqrt_s.imag
    width = 4.0 * S * S
    ur = u.real
    off = (
        (abs(abs(sqrt_s) - 1.0) > REALITY_TOL)
        | (abs(u.imag) > REALITY_TOL)
        | (S == 0.0)
        | (ur < -2.0 * (1.0 - s.real) - INTERVAL_SLACK)
        | (ur > INTERVAL_SLACK)
    )
    # the clamp by exact selections, and 1 for 2S where S = 0: plain
    # arithmetic on Python floats and on arrays alike
    ur = (ur >= -width) * (ur <= 0.0) * ur - (ur < -width) * width
    twice_s = 2.0 * S + (S == 0.0)
    a = S + ur / twice_s
    b = np.sqrt(-ur * (ur + width)) / twice_s
    zero = c - c
    images = np.array([[sqrt_s, zero, zero, sqrt_s.conjugate()], [c + 1j * a, b, -b, c - 1j * a]])
    # (2, 4, *shape) to (2, *shape, 2, 2)
    images = np.ascontiguousarray(images.swapaxes(1, -1))
    return images.reshape(images.shape[:-1] + (2, 2)), off


def build_rep(
    p: Presentation,
    s: complex,
    u: complex,
    sqrt_s: complex | None = None,
    tol: float = RELATION_TOL,
    check: bool = True,
) -> Rep:
    """The representation at Riley's (s, u); for arrays of s and u (and
    sqrt_s), one Rep of that stack of points.

    Each point gets its frame from the point itself.  At an SU(2) point
    (|sqrt_s| = 1, Im sqrt_s != 0 and a real u in [2 Re s - 2, 0], within
    INTERVAL_SLACK) the images are a conjugate pair of unit quaternions (see
    :func:`_su2_images`); elsewhere they are Riley's (X/sqrt(s), Y/sqrt(s)).
    Either way ``s``, ``u`` and ``sqrt_s`` are Riley's.

    Verifies sqrt_s^2 = s, that (s, u) lies on the zero set of the bridge
    word's obstruction polynomial, and that the relator maps to the identity
    within tol; each check asks for a value within its bound, so a NaN in
    s, u or sqrt_s fails the first check it enters.  A stack raises the
    error its first failing point raises on its own.  With check=False the
    object is built regardless and the residuals are left in the
    diagnostics (the square root is always checked).
    """
    if p.bridge_word is None or p.k != 2:
        raise RepresentationError("non-2-bridge presentation: no bridge word available")
    s, u, sqrt_s = _points(s, u, np.sqrt(np.asarray(s, dtype=complex)) if sqrt_s is None else sqrt_s)
    failures = [(
        np.logical_not(abs(sqrt_s * sqrt_s - s) <= tol * np.maximum(1.0, abs(s))),
        lambda i: "sqrt_s is not a square root of s",
    )]
    images, off = _su2_images(s, u, sqrt_s)
    if np.count_nonzero(off):
        # Riley's pair at the points off SU(2) only
        at = np.flatnonzero(off)
        s_at, u_at, root = (np.reshape(v, -1)[at] for v in (s, u, sqrt_s))
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero sqrt_s fails its check
            images.reshape(2, -1, 2, 2)[:, at] = np.divide(riley_assignment(s_at, u_at), root[:, None, None])
    phi = riley_polynomial(p.bridge_word)
    if check and not phi.is_zero:
        failures.append(phi_failure(phi, s, u, tol))
    rep = Rep(p, images, s=s, u=u, sqrt_s=sqrt_s, tol=tol, check=False)
    if check:
        failures.append(rep._relator_failure(tol))
    _raise_first(failures)
    return rep


def phi_failure(phi: RileyPoly, s, u, tol: float):
    """The points (s, u) where phi does not vanish: |phi| not within
    max(tol, RELATION_TOL) times the sum of its term magnitudes; the mask
    and the message for point i, as ``_raise_first`` takes them."""
    residual, scale = phi.residual_and_scale(s, u)
    return np.logical_not(residual <= max(tol, RELATION_TOL) * scale), lambda i: (
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
