"""Representations of two-bridge knot groups via Riley's parametrization.

The generator assignment is x -> [[s, 1], [0, 1]], y -> [[s, 0], [-s*u, 1]];
the pair (s, u) carries a nonabelian representation exactly when the
obstruction polynomial phi(s, u) = W_11 + (1-s)W_12 vanishes, where W is the
bridge word evaluated on the two matrices.  phi is computed exactly over
Z[s, s^-1][u]; the unit-circle/real-u locus (|s| = 1, u in [2cos(theta)-2, 0])
enumerates the SU(2)-conjugate points.  Dividing both matrices by a square
root of s lands the representation in SL(2, C); the adjoint action on the
trace-zero matrices is taken in the ordered basis (E, H, F).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .laurent import IntLaurent, _signed_sum_str
from .presentation import Presentation
from .words import Word

REALITY_TOL = 1e-9
INTERVAL_SLACK = 1e-9
MULTIPLICITY_THRESHOLD = 1e-5

#: the sigma grid on which su2_root_count_thresholds probes the root count
THRESHOLD_SIGMA_LO = -2.0
THRESHOLD_SIGMA_HI = 1.995
THRESHOLD_SAMPLES = 2000

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

# a polynomial in u is a list of IntLaurent coefficients, index = u-degree

_UPoly = list


def _u_trim(a: list[IntLaurent]) -> list[IntLaurent]:
    while a and a[-1].is_zero:
        a.pop()
    return a


def _u_add(a: Sequence[IntLaurent], b: Sequence[IntLaurent]) -> list[IntLaurent]:
    out = [IntLaurent.zero()] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _u_trim(out)

def _u_mul(a: Sequence[IntLaurent], b: Sequence[IntLaurent]) -> list[IntLaurent]:
    if not a or not b:
        return []
    out = [IntLaurent.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return _u_trim(out)


def _u_const(c: IntLaurent) -> list[IntLaurent]:
    return [] if c.is_zero else [c]


_S = IntLaurent.term(1, 1)
_S_INV = IntLaurent.term(1, -1)
_ONE = IntLaurent.one()

# 2x2 matrices over Z[s,s^-1][u] for the letters x, x^-1, y, y^-1
_LETTER_MATRICES = {
    (0, 1): ((_u_const(_S), _u_const(_ONE)), ([], _u_const(_ONE))),
    (0, -1): ((_u_const(_S_INV), _u_const(-_S_INV)), ([], _u_const(_ONE))),
    (1, 1): ((_u_const(_S), []), ([IntLaurent.zero(), -_S], _u_const(_ONE))),
    (1, -1): ((_u_const(_S_INV), []), ([IntLaurent.zero(), _ONE], _u_const(_ONE))),
}


def _mat_mul(a, b):
    return tuple(
        tuple(
            _u_add(_u_mul(a[i][0], b[0][j]), _u_mul(a[i][1], b[1][j]))
            for j in range(2)
        )
        for i in range(2)
    )


class RileyPoly:
    """Exact bivariate obstruction polynomial, canonically unit-normalized.

    ``coeffs[d]`` is the exact Laurent polynomial in s multiplying u^d.  The
    canonical representative of the ±s^k unit class has lowest s-exponent 0
    across all coefficients and a positive lowest s-term in the leading
    u-coefficient, so structural equality is equality up to units.
    """

    __slots__ = ("coeffs", "_table")

    def __init__(self, coeffs: Iterable[IntLaurent]):
        self._table = None  # the coefficients as one float array, built on first specialization
        cs = _u_trim([c for c in coeffs])
        if not cs:
            self.coeffs: tuple[IntLaurent, ...] = ()
            return
        k = min(c.lo for c in cs if not c.is_zero)
        cs = [c.shift(-k) for c in cs]
        if cs[-1].coeffs[0] < 0:
            cs = [-c for c in cs]
        self.coeffs = tuple(cs)

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

    def equal_up_to_unit(self, other: "RileyPoly") -> bool:
        # constructors already canonicalize, so units are quotiented out
        return self == other

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def evaluate(self, s: complex, u: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * u + c(s)
        return acc

    def magnitude_at(self, s: complex, u: complex) -> float:
        """Sum of term magnitudes; tolerance scale for near-zero testing."""
        total = 0.0
        for d, c in enumerate(self.coeffs):
            total += abs(c(s)) * abs(u) ** d
        return np.maximum(total, 1e-300)

    def specialize_real(self, theta, tol: float = REALITY_TOL):
        """Real coefficients of phi(e^{i theta}, u), lowest u-degree first: a
        list for one theta, one array row per theta for an array of them.

        The unit class only fixes the coefficients up to a common complex
        phase, so the phase of the largest coefficient is divided out; if the
        remaining imaginary parts exceed tol * scale the word is outside the
        expected symmetry class and a ValueError names the first such theta.
        The array form rounds every step as Python's complex arithmetic does,
        so a row does not depend on the other thetas it is computed with.
        """
        if self.is_zero:
            raise ValueError("zero polynomial")
        if np.ndim(theta) == 0:
            values = [c(cmath.exp(1j * theta)) for c in self.coeffs]
            scale = max(abs(v) for v in values)
            if scale == 0.0:
                raise ValueError("zero polynomial after specialization")
            ref = max(values, key=abs)
            phase = ref / abs(ref)
            aligned = [v / phase for v in values]
            re, worst = [v.real for v in aligned], np.array([max(abs(v.imag) for v in aligned)])
        else:
            re, worst, scale = self._specialized(np.asarray(theta, dtype=float))
        for i in np.flatnonzero(worst > tol * np.atleast_1d(scale))[:1]:
            raise ValueError(
                f"specialized polynomial is not real within tolerance "
                f"(residual {worst[i]:.3e} vs scale {np.atleast_1d(scale)[i]:.3e})"
            )
        return re

    def _specialized(self, thetas: np.ndarray):
        if self._table is None:
            width = max(len(c.coeffs) for c in self.coeffs)
            self._table = np.array([c.coeffs + (0,) * (width - len(c.coeffs)) for c in self.coeffs],
                                   dtype=float), np.array([c.offset for c in self.coeffs])
        table, n = self._table
        z = np.exp(1j * thetas)[:, None]
        zr, zi = z.real, z.imag
        re = im = np.zeros((len(z), len(n)))
        for column in table.T[::-1]:  # Horner's rule in s for every u-degree at once
            re, im = re * zr - im * zi + column, re * zi + im * zr
        # times s^offset, the power formed by binary powering as complex.__pow__ forms it
        rr, ri = np.ones_like(re), np.zeros_like(im)
        while n.any():
            odd = (n & 1).astype(bool)
            rr, ri = np.where(odd, rr * zr - ri * zi, rr), np.where(odd, rr * zi + ri * zr, ri)
            zr, zi, n = zr * zr - zi * zi, zr * zi + zi * zr, n >> 1
        re, im = re * rr - im * ri, re * ri + im * rr
        size = np.hypot(re, im)
        scale = size.max(axis=1)
        if not np.all(scale > 0.0):
            raise ValueError("zero polynomial after specialization")
        # divide by the phase p = ref / |ref| with Python's (Smith's) formula; where
        # |Im p| > |Re p| it runs with the parts of p and of every value swapped,
        # which gives the real part and minus the imaginary part
        ref = np.arange(len(z)), size.argmax(axis=1)
        p = re[ref][:, None] / scale[:, None], im[ref][:, None] / scale[:, None]
        flip = np.abs(p[0]) < np.abs(p[1])
        a, b = np.where(flip, p[1], p[0]), np.where(flip, p[0], p[1])
        ratio = b / a
        denom = a + b * ratio
        vr, vi = np.where(flip, im, re), np.where(flip, re, im)
        return (vr + vi * ratio) / denom, np.abs((vi - vr * ratio) / denom).max(axis=1), scale

    def sigma_form(self) -> list[list[int]] | None:
        """Coefficients as integer polynomials in sigma = s + 1/s, or None.

        Exists when all u-coefficients are palindromic about a common integer
        s-power; ascending sigma-degree lists, indexed by u-degree.
        """
        if self.is_zero:
            return []
        centers = {c.lo + c.hi for c in self.coeffs if not c.is_zero}
        if len(centers) != 1:
            return None
        (m,) = centers
        if m % 2 != 0:
            return None
        k = m // 2
        out: list[list[int]] = []
        for c in self.coeffs:
            if c.is_zero:
                out.append([])
                continue
            centered = c.shift(-k)
            if not centered.is_palindromic():
                return None
            out.append(_palindromic_to_sigma(centered))
        return out

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
    # p symmetric about 0: p = a_0 + sum_{j>=1} a_j (s^j + s^-j); the bracket
    # satisfies P_1 = sigma, P_2 = sigma^2 - 2, P_j = sigma*P_{j-1} - P_{j-2}
    top = p.hi
    out = [0] * (top + 1)
    out[0] = p.coefficient(0)
    prev = [2]               # P_0
    cur = [0, 1]             # P_1
    for j in range(1, top + 1):
        aj = p.coefficient(j)
        if aj != 0:
            for i, ci in enumerate(cur):
                out[i] += aj * ci
        # advance: P_{j+1} = sigma*P_j - P_{j-1}
        nxt = [0] + cur
        for i, ci in enumerate(prev):
            nxt[i] -= ci
        prev, cur = cur, nxt
    while len(out) > 1 and out[-1] == 0:
        out.pop()
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
    acc = ((_u_const(_ONE), []), ([], _u_const(_ONE)))  # identity
    for letter in w.letters:
        acc = _mat_mul(acc, _LETTER_MATRICES[letter])
    one_minus_s = _u_const(_ONE - _S)
    phi = _u_add(acc[0][0], _u_mul(one_minus_s, acc[0][1]))
    return RileyPoly(phi)


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

    Companion-matrix eigenvalues with one Newton polish per root; roots with
    |Im| above the reality filter are discarded, the window gets a small
    slack at both endpoints, and near-multiple roots are flagged.
    """
    stacked = np.ndim(theta) > 0
    thetas = [float(t) for t in theta] if stacked else [float(theta)]
    found = [((), ())] * len(thetas)
    for rows, re, real, edge in _su2_roots(phi, thetas, tol, multiplicity_threshold):
        for row, values, r, e in zip(rows, re, real, edge):
            found[row] = tuple(sorted(map(float, compress(values, mask))) for mask in (r, e))
    out = []
    for t, (kept, edge) in zip(thetas, found):
        close = [b - a < multiplicity_threshold for a, b in zip(kept, kept[1:])]
        flags = tuple(x or y for x, y in zip([False] + close, close + [False])) if kept else ()
        out.append(Su2Solutions(t, 2.0 * math.cos(t), tuple(kept), flags, tuple(edge)))
    return out if stacked else out[0]


def su2_root_counts(phi: RileyPoly, thetas: Sequence[float]) -> list[int]:
    """``len(su2_solutions(phi, theta).roots)`` for every theta, without
    building the solution objects."""
    thetas = [float(t) for t in thetas]
    counts = np.zeros(len(thetas), dtype=int)
    for rows, _, real, _ in _su2_roots(phi, thetas, REALITY_TOL, 0.0):
        counts[rows] = np.sum(real, axis=1)
    return counts.tolist()


#: stacks of up to this many thetas are solved one theta at a time in Python
#: scalars, where numpy's cost per call would dominate; both kernels round
#: every step the same way, so the roots do not depend on the choice
SCALAR_STACK = 4


def _su2_roots(phi: RileyPoly, thetas: list[float], tol: float, borderline_tol: float):
    """The one root finder behind su2_solutions and su2_root_counts.

    Per block of thetas (one theta, or all thetas whose trimmed specialized
    polynomial has degree d, one ``eigvals`` call each): their rows, the real
    parts of the polished roots, and two masks of the roots inside the slack
    window: real within REALITY_TOL, and near-real (|Im| <= borderline_tol),
    the signature of a double root at the edge of the real locus.
    """
    if not all(0.0 < t < 2.0 * math.pi for t in thetas):
        raise ValueError("theta must lie strictly between 0 and 2*pi")
    lo = [2.0 * math.cos(t) - 2.0 for t in thetas]
    if len(thetas) <= SCALAR_STACK:
        for row, theta in enumerate(thetas):
            roots = _polished_roots(phi.specialize_real(theta, tol))
            window = [lo[row] - INTERVAL_SLACK <= z.real <= INTERVAL_SLACK for z in roots]
            real = [w and abs(z.imag) <= REALITY_TOL for z, w in zip(roots, window)]
            edge = [w and REALITY_TOL < abs(z.imag) <= borderline_tol for z, w in zip(roots, window)]
            yield [row], [[z.real for z in roots]], [real], [edge]
        return
    coeffs = phi.specialize_real(thetas, tol)
    kept = np.abs(coeffs) > 1e-12 * np.abs(coeffs).max(axis=1, keepdims=True)
    degrees = coeffs.shape[1] - 1 - kept[:, ::-1].argmax(axis=1)
    for d in sorted(set(degrees.tolist()) - {0}):
        rows = np.flatnonzero(degrees == d)
        roots = _polished_roots(coeffs[rows, : d + 1])
        imag = np.abs(roots.imag)
        lows = np.array(lo)[rows, None] - INTERVAL_SLACK
        window = (roots.real >= lows) & (roots.real <= INTERVAL_SLACK)
        real = imag <= REALITY_TOL
        yield rows, roots.real, real & window, ~real & (imag <= borderline_tol) & window


def _polished_roots(coeffs):
    """Companion eigenvalues, each after one Newton step, of the polynomial
    with these ascending real coefficients (a list, trimmed of trailing
    coefficients <= 1e-12 * max first) or of each row of a (G, d + 1) array;
    both forms round as numpy's scalars do."""
    if isinstance(coeffs, list):
        top = max(abs(c) for c in coeffs)
        while len(coeffs) > 1 and abs(coeffs[-1]) <= 1e-12 * top:
            coeffs.pop()
        d = len(coeffs) - 1
        if d == 0:
            return []
        companion = np.zeros((d, d))
        companion[np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, d - 1] = [-(c / coeffs[-1]) for c in coeffs[:-1]]
        out = []
        for z in np.linalg.eigvals(companion):  # real or complex numpy scalars
            pz = dz = 0.0 * z
            for k in range(d, -1, -1):
                pz = pz * z + coeffs[k]
                if k:
                    dz = dz * z + k * coeffs[k]
            out.append(z - pz / dz if abs(dz) > 1e-30 else z)
        return out
    g, d = coeffs.shape[0], coeffs.shape[1] - 1
    companion = np.zeros((g, d, d))
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    companion[:, :, d - 1] = -(coeffs[:, :d] / coeffs[:, d:])
    eig = np.linalg.eigvals(companion)
    roots = eig.astype(complex)
    # p and p' in one Horner pass, p' padded with a leading zero coefficient,
    # products rounded as numpy's scalars round them (the array product fuses
    # a multiply and an add)
    both = np.zeros((2 * g, d + 1))
    both[:g], both[g:, :d] = coeffs, np.arange(1, d + 1) * coeffs[:, 1:]
    zr, zi = np.concatenate([roots.real, roots.real]), np.concatenate([roots.imag, roots.imag])
    re = im = np.zeros(zr.shape)
    for column in both.T[::-1, :, None]:
        re, im = re * zr - im * zi + column, re * zi + im * zr
    pz, dz = np.split(re + 1j * im, 2)
    # numpy hands back one polynomial's eigenvalues as reals when all are
    # real, and its Newton step is then a real division
    real_rows = np.all(eig.imag == 0.0, axis=1)[:, None]
    step = np.abs(dz) > 1e-30
    roots[step & real_rows] -= pz[step & real_rows].real / dz[step & real_rows].real
    roots[step & ~real_rows] -= pz[step & ~real_rows] / dz[step & ~real_rows]
    return roots


def su2_root_count_thresholds(phi: RileyPoly) -> list[float]:
    """Sigma values where the SU(2) root count changes, by bisection on the
    count over a THRESHOLD_SAMPLES grid in sigma = 2cos(theta) from
    THRESHOLD_SIGMA_LO to THRESHOLD_SIGMA_HI."""

    def theta_of(sig: float) -> float:
        theta = math.acos(max(-1.0, min(1.0, sig / 2.0)))
        return 1e-9 if theta <= 0.0 else theta

    def count(sig: float) -> int:
        return su2_root_counts(phi, [theta_of(sig)])[0]

    lo, hi, samples = THRESHOLD_SIGMA_LO, THRESHOLD_SIGMA_HI, THRESHOLD_SAMPLES
    grid = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    counts = su2_root_counts(phi, [theta_of(s) for s in grid])
    thresholds = []
    for i in range(samples - 1):
        if counts[i] == counts[i + 1]:
            continue
        a, b = grid[i], grid[i + 1]
        ca = counts[i]
        for _ in range(80):
            mid = 0.5 * (a + b)
            if count(mid) == ca:
                a = mid
            else:
                b = mid
            if b - a < 1e-13:
                break
        thresholds.append(0.5 * (a + b))
    return thresholds


def near_transition(sigma: float, thresholds: Sequence[float], band: float = 1e-3) -> bool:
    """Whether sigma lies within the near-threshold band of a count change."""
    return any(abs(sigma - t) < band for t in thresholds)


# ---------------------------------------------------------------------------
# representations and the adjoint
# ---------------------------------------------------------------------------


_EYE2 = np.eye(2, dtype=complex)
_EYE2.flags.writeable = False


def _mat_inverse(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and determinant of each 2x2 matrix of a stack (..., 2, 2), the
    inverse as adjugate over determinant.  The determinants are formed in
    Python complex arithmetic, which rounds like numpy's scalars; numpy's
    array product fuses a multiply and an add."""
    det = np.array([a * d - b * c for a, b, c, d in m.reshape(-1, 4).tolist()]).reshape(m.shape[:-2])
    if (np.abs(det) < 1e-300).any():
        raise RepresentationError("singular image matrix")
    adjugate = np.stack([m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]], axis=-1)
    return adjugate.reshape(m.shape) / det[..., None, None], det


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
    attributes (s, u, sqrt_s, the residuals, the flags and the traces) are
    length-N arrays.  Values are immutable by convention; ``adjoint`` is
    built on first use.
    """

    __slots__ = (
        "presentation",
        "images",
        "inverses",
        "s",
        "u",
        "sqrt_s",
        "relator_residuals",
        "special_linear",
        "su2_params",
        "irreducible",
        "trace_meridian",
        "_adjoint",
    )

    def __init__(
        self,
        presentation: Presentation,
        images: Sequence[np.ndarray],
        *,
        s: complex | None = None,
        u: complex | None = None,
        sqrt_s: complex | None = None,
        tol: float = 1e-9,
        check: bool = True,
    ):
        if len(images) != presentation.k:
            raise RepresentationError("one image matrix per generator required")
        self.presentation = presentation
        self.images = tuple(np.asarray(m, dtype=complex) for m in images)
        inverses, dets = _mat_inverse(np.stack(self.images))
        self.inverses = tuple(inverses)
        self.s = s
        self.u = u
        self.sqrt_s = sqrt_s
        self._adjoint = None

        self.relator_residuals = tuple(
            _unstack(np.abs(self.of_word(r) - _EYE2).max(axis=(-2, -1)))
            for r in presentation.relators
        )
        if check:
            _raise_first([self._relator_failure(tol)])

        self.special_linear = _unstack((np.abs(dets - 1.0) <= tol).all(axis=0))
        self.trace_meridian = _unstack(np.trace(self.images[presentation.meridian], axis1=-2, axis2=-1))
        self.irreducible = self._irreducibility_heuristic()
        self.su2_params = self._su2_params_hold()

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
        # trace of their commutator is 2
        n = len(self.images)
        far = [
            np.abs(np.trace(
                self.images[i] @ self.images[j] @ self.inverses[i] @ self.inverses[j],
                axis1=-2, axis2=-1,
            ) - 2.0) > threshold
            for i in range(n)
            for j in range(i + 1, n)
        ]
        return _unstack(np.any(far, axis=0))

    def _su2_params_hold(self) -> bool:
        s, u = self.s, self.u
        if s is None or u is None:
            return False
        sigma = 2.0 * s.real / abs(s)
        return (
            (abs(abs(s) - 1.0) <= REALITY_TOL)
            & (abs(u.imag) <= REALITY_TOL)
            & (sigma - 2.0 - INTERVAL_SLACK <= u.real)
            & (u.real <= INTERVAL_SLACK)
        )

    def of_word(self, w: Word) -> np.ndarray:
        acc = _EYE2
        for g, e in w.letters:
            acc = acc @ (self.images[g] if e == 1 else self.inverses[g])
        return acc

    @property
    def adjoint(self) -> "AdjointImage":
        """Adjoint images of the generators, shared by every twisted matrix."""
        if self._adjoint is None:
            self._adjoint = adjoint_images(self)
        return self._adjoint

    @property
    def trace_meridian_sq(self) -> complex:
        m = self.images[self.presentation.meridian]
        return _unstack(np.trace(m @ m, axis1=-2, axis2=-1))

    def conjugated(self, g: np.ndarray, tol: float = 1e-9) -> "Rep":
        ginv = _mat_inverse(np.asarray(g, dtype=complex))[0]
        return Rep(
            self.presentation,
            [g @ m @ ginv for m in self.images],
            s=self.s,
            u=self.u,
            sqrt_s=self.sqrt_s,
            tol=max(tol, 10 * float(np.max(self.relator_residuals, initial=0.0))),
            check=False,
        )


def build_rep(
    p: Presentation,
    s: complex,
    u: complex,
    sqrt_s: complex | None = None,
    tol: float = 1e-9,
    check: bool = True,
) -> Rep:
    """Riley-parametrized representation (X/sqrt(s), Y/sqrt(s)); for arrays
    of s and u (and sqrt_s), one Rep of that stack of points.

    Verifies sqrt_s^2 = s, that (s, u) lies on the zero set of the bridge
    word's obstruction polynomial, and that the relator maps to the identity
    within tol.  A stack raises the error its first failing point raises on
    its own.  With check=False the object is built regardless and the
    residuals are left in the diagnostics.
    """
    if p.bridge_word is None or p.k != 2:
        raise RepresentationError("non-2-bridge presentation: no bridge word available")
    s, u, sqrt_s = _points(s, u, np.sqrt(np.asarray(s, dtype=complex)) if sqrt_s is None else sqrt_s)
    failures = [(
        abs(sqrt_s * sqrt_s - s) > tol * np.maximum(1.0, abs(s)),
        lambda i: "sqrt_s is not a square root of s",
    )]
    phi = riley_polynomial(p.bridge_word)
    if check and not phi.is_zero:
        residual = abs(phi.evaluate(s, u))
        failures.append((
            residual > max(tol, 1e-9) * phi.magnitude_at(s, u),
            lambda i: f"phi(s, u) = {np.atleast_1d(residual)[i]:.3e} does not vanish: "
            "(s, u) off the representation variety",
        ))
    x, y = riley_assignment(s, u)
    root = np.asarray(sqrt_s)[..., None, None]
    if np.ndim(s) == 0:  # one point fails at its first failing check
        _raise_first(failures)
        return Rep(p, (x / root, y / root), s=s, u=u, sqrt_s=sqrt_s, tol=tol, check=check)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero sqrt_s fails its check
        rep = Rep(p, (x / root, y / root), s=s, u=u, sqrt_s=sqrt_s, tol=tol, check=False)
    if check:
        failures.append(rep._relator_failure(tol))
    _raise_first(failures)
    return rep


def adjoint_of_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix of V -> m V m^-1 on trace-zero 2x2 matrices, basis (E, H, F);
    for a stack (..., 2, 2) of matrices a stack (..., 3, 3).

    Column j holds the (E, H, F) coordinates of m B_j m^-1 in closed form:
    for m = [[a, b], [c, d]], m E m^-1 = (a^2 E - ac H - c^2 F) / det m, and
    likewise for H and F.
    """
    m = np.asarray(m, dtype=complex)
    entries, dets = [], []
    for a, b, c, d in m.reshape(-1, 4).tolist():  # Python complex arithmetic, as in _mat_inverse
        dets.append(a * d - b * c)
        entries.append(
            [a * a, -2 * a * b, -b * b, -a * c, a * d + b * c, b * d, -c * c, 2 * c * d, d * d]
        )
    det = np.array(dets).reshape(m.shape[:-2])
    if np.any(np.abs(det) < 1e-300):
        raise RepresentationError("singular image matrix")
    return np.array(entries).reshape(m.shape[:-2] + (3, 3)) / det[..., None, None]


@dataclass(frozen=True)
class AdjointImage:
    """Per-generator 3x3 adjoint matrices (and inverses) of a representation,
    (N, 3, 3) at a stack of points.

    ``prefixes`` memoizes every prefix it forms in a letter trie, so the Fox
    terms of a relator (all prefixes of it) cost one product per letter in
    total.  Each product is still ``eye(3)`` right-multiplied letter by
    letter, so values do not depend on the order of the calls.  Returned
    matrices are shared and read-only.
    """

    matrices: tuple[np.ndarray, ...]
    inverses: tuple[np.ndarray, ...]
    # trie node: (Ad(rho(prefix)), {letter: child node}); the root is the empty word
    _prefixes: tuple = field(
        default_factory=lambda: (_read_only(np.eye(3, dtype=complex)), {}),
        init=False, repr=False, compare=False,
    )

    def prefixes(self, w: Word) -> list[np.ndarray]:
        """Ad(rho) of every prefix of w, the empty prefix first."""
        node = self._prefixes
        out = [node[0]]
        for letter in w.letters:
            child = node[1].get(letter)
            if child is None:
                g, e = letter
                step = self.matrices[g] if e == 1 else self.inverses[g]
                child = (_read_only(node[0] @ step), {})
                node[1][letter] = child
            node = child
            out.append(node[0])
        return out

    def of_word(self, w: Word) -> np.ndarray:
        return self.prefixes(w)[-1]


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def adjoint_images(rep: Rep) -> AdjointImage:
    """Adjoint matrices of all generator images; sign of the 2x2 lift cancels."""
    ad = adjoint_of_matrix(np.stack(rep.images + rep.inverses))
    k = len(rep.images)
    return AdjointImage(tuple(ad[:k]), tuple(ad[k:]))
