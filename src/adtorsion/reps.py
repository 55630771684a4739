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
    """The generator matrices X = [[s,1],[0,1]], Y = [[s,0],[-su,1]]."""
    x = np.array([[s, 1.0], [0.0, 1.0]], dtype=complex)
    y = np.array([[s, 0.0], [-s * u, 1.0]], dtype=complex)
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

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[IntLaurent]):
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
        return max(total, 1e-300)

    def specialize_real(self, theta: float, tol: float = REALITY_TOL) -> list[float]:
        """Real coefficients of phi(e^{i theta}, u), lowest u-degree first.

        The unit class only fixes the coefficients up to a common complex
        phase, so the phase of the largest coefficient is divided out; if the
        remaining imaginary parts exceed tol * scale the word is outside the
        expected symmetry class and a ValueError is raised.
        """
        if self.is_zero:
            raise ValueError("zero polynomial")
        z = cmath.exp(1j * theta)
        values = [c(z) for c in self.coeffs]
        scale = max(abs(v) for v in values)
        if scale == 0.0:
            raise ValueError("zero polynomial after specialization")
        ref = max(values, key=abs)
        phase = ref / abs(ref)
        aligned = [v / phase for v in values]
        worst = max(abs(v.imag) for v in aligned)
        if worst > tol * scale:
            raise ValueError(
                f"specialized polynomial is not real within tolerance "
                f"(residual {worst:.3e} vs scale {scale:.3e})"
            )
        return [v.real for v in aligned]

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
    theta: float,
    tol: float = REALITY_TOL,
    *,
    multiplicity_threshold: float = MULTIPLICITY_THRESHOLD,
) -> Su2Solutions:
    """All real roots of phi(e^{i theta}, u) in [2cos(theta)-2, 0].

    Companion-matrix eigenvalues with one Newton polish per root; roots with
    |Im| above the reality filter are discarded, the window gets a small
    slack at both endpoints, and near-multiple roots are flagged.
    """
    if not (0.0 < theta < 2.0 * math.pi):
        raise ValueError("theta must lie strictly between 0 and 2*pi")
    coeffs = phi.specialize_real(theta, tol)
    top = max(abs(c) for c in coeffs)
    while len(coeffs) > 1 and abs(coeffs[-1]) <= 1e-12 * top:
        coeffs.pop()
    sigma = 2.0 * math.cos(theta)
    if len(coeffs) == 1:
        return Su2Solutions(theta, sigma, (), ())

    roots, borderline = _real_roots(coeffs, REALITY_TOL, multiplicity_threshold)
    lo = sigma - 2.0
    kept = sorted(r for r in roots if lo - INTERVAL_SLACK <= r <= INTERVAL_SLACK)
    flags = [False] * len(kept)
    for i in range(len(kept) - 1):
        if kept[i + 1] - kept[i] < multiplicity_threshold:
            flags[i] = True
            flags[i + 1] = True
    edge = tuple(
        sorted(r for r in borderline if lo - INTERVAL_SLACK <= r <= INTERVAL_SLACK)
    )
    return Su2Solutions(theta, sigma, tuple(kept), tuple(flags), edge)


def _real_roots(
    coeffs: Sequence[float], reality_tol: float, borderline_tol: float
) -> tuple[list[float], list[float]]:
    """Real roots of a real polynomial (ascending coefficients), plus the real
    parts of near-real roots that only just failed the reality filter."""
    d = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs[:-1]]
    companion = np.zeros((d, d))
    for i in range(1, d):
        companion[i, i - 1] = 1.0
    for i in range(d):
        companion[i, d - 1] = -monic[i]
    eig = np.linalg.eigvals(companion)
    dcoeffs = [i * coeffs[i] for i in range(1, d + 1)]
    out = []
    borderline = []
    for z in eig:
        pz = _horner(coeffs, z)
        dz = _horner(dcoeffs, z)
        if abs(dz) > 1e-30:
            z = z - pz / dz
        if abs(z.imag) <= reality_tol:
            out.append(float(z.real))
        elif abs(z.imag) <= borderline_tol:
            borderline.append(float(z.real))
    return out, borderline


def su2_root_counts(phi: RileyPoly, thetas: Sequence[float]) -> list[int]:
    """``len(su2_solutions(phi, theta).roots)`` for every theta, batched.

    The same steps with the same default tolerances as :func:`su2_solutions`:
    the specialization with its reality check (which raises), trailing
    coefficient trimming, companion eigenvalues (one ``eigvals`` call per
    degree), one Newton polish, the reality filter and the slack window.
    """
    thetas = np.asarray(thetas, dtype=float)
    if not np.all((0.0 < thetas) & (thetas < 2.0 * math.pi)):
        raise ValueError("theta must lie strictly between 0 and 2*pi")
    if phi.is_zero:
        raise ValueError("zero polynomial")
    z = np.exp(1j * thetas)
    values = np.stack([_horner(c.coeffs, z) * z**c.offset for c in phi.coeffs], axis=1)
    scale = np.abs(values).max(axis=1)
    if not np.all(scale > 0.0):
        raise ValueError("zero polynomial after specialization")
    ref = values[np.arange(len(values)), np.abs(values).argmax(axis=1)]
    aligned = values / (ref / np.abs(ref))[:, None]
    worst = np.abs(aligned.imag).max(axis=1)
    bad = np.flatnonzero(worst > REALITY_TOL * scale)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"specialized polynomial is not real within tolerance "
            f"(residual {worst[i]:.3e} vs scale {scale[i]:.3e})"
        )
    coeffs = aligned.real
    # degree after trimming trailing coefficients <= 1e-12 * top, as in su2_solutions
    kept = np.abs(coeffs) > 1e-12 * np.abs(coeffs).max(axis=1, keepdims=True)
    degrees = coeffs.shape[1] - 1 - kept[:, :0:-1].argmax(axis=1)
    degrees[~kept[:, 1:].any(axis=1)] = 0
    lo = np.array([2.0 * math.cos(t) for t in thetas]) - 2.0
    counts = np.zeros(len(thetas), dtype=int)
    for d in np.unique(degrees[degrees > 0]):
        rows = np.flatnonzero(degrees == d)
        cs = coeffs[rows, : d + 1]
        companion = np.zeros((len(rows), d, d))
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, :, d - 1] = -cs[:, :d] / cs[:, d:]
        roots = np.linalg.eigvals(companion).astype(complex)
        pz = _horner(cs.T[:, :, None], roots)
        dz = _horner((np.arange(1, d + 1) * cs[:, 1:]).T[:, :, None], roots)
        step = np.abs(dz) > 1e-30
        roots[step] -= pz[step] / dz[step]
        inside = (
            (np.abs(roots.imag) <= REALITY_TOL)
            & (roots.real >= lo[rows, None] - INTERVAL_SLACK)
            & (roots.real <= INTERVAL_SLACK)
        )
        counts[rows] = inside.sum(axis=1)
    return counts.tolist()


def _horner(coeffs, z):
    """sum_i coeffs[i] z^i by Horner's rule, lowest degree first; broadcasts."""
    acc = 0.0 * z
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def su2_root_count_thresholds(phi: RileyPoly) -> list[float]:
    """Sigma values where the SU(2) root count changes, by bisection on the
    count over a THRESHOLD_SAMPLES grid in sigma = 2cos(theta) from
    THRESHOLD_SIGMA_LO to THRESHOLD_SIGMA_HI."""

    def theta_of(sig: float) -> float:
        theta = math.acos(max(-1.0, min(1.0, sig / 2.0)))
        return 1e-9 if theta <= 0.0 else theta

    def count(sig: float) -> int:
        return len(su2_solutions(phi, theta_of(sig)).roots)

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


def _mat_inverse(m: np.ndarray) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-300:
        raise RepresentationError("singular image matrix")
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det


class Rep:
    """A matrix representation of a presentation's group, with diagnostics.

    Construct from one 2x2 complex matrix per generator, or through
    :func:`build_rep` for Riley's parametrization; `images` holds the
    matrices.  Values are immutable by convention; ``adjoint`` is built on first use.
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
        self.inverses = tuple(_mat_inverse(m) for m in self.images)
        self.s = s
        self.u = u
        self.sqrt_s = sqrt_s
        self._adjoint = None

        residuals = []
        for r in presentation.relators:
            diff = self.of_word(r) - np.eye(2)
            residuals.append(float(np.max(np.abs(diff))))
        self.relator_residuals = tuple(residuals)
        if check and any(res > tol for res in residuals):
            raise RepresentationError(
                f"relator residual {max(residuals):.3e} exceeds tolerance {tol:.1e}: "
                "(s, u) may be off the representation variety"
            )

        dets = [m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] for m in self.images]
        self.special_linear = all(abs(d - 1.0) <= tol for d in dets)
        self.trace_meridian = complex(np.trace(self.images[presentation.meridian]))
        self.irreducible = self._irreducibility_heuristic()
        self.su2_params = self._su2_params_hold()

    def _irreducibility_heuristic(self, threshold: float = 1e-8) -> bool:
        # a pair of invertible 2x2 matrices shares an eigenvector iff the
        # trace of their commutator is 2
        n = len(self.images)
        for i in range(n):
            for j in range(i + 1, n):
                comm = self.images[i] @ self.images[j] @ self.inverses[i] @ self.inverses[j]
                if abs(complex(np.trace(comm)) - 2.0) > threshold:
                    return True
        return False

    def _su2_params_hold(self) -> bool:
        if self.s is None or self.u is None:
            return False
        if abs(abs(self.s) - 1.0) > REALITY_TOL or abs(self.u.imag) > REALITY_TOL:
            return False
        sigma = 2.0 * self.s.real / abs(self.s)
        return sigma - 2.0 - INTERVAL_SLACK <= self.u.real <= INTERVAL_SLACK

    def of_word(self, w: Word) -> np.ndarray:
        acc = np.eye(2, dtype=complex)
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
        return complex(np.trace(m @ m))

    def conjugated(self, g: np.ndarray, tol: float = 1e-9) -> "Rep":
        ginv = _mat_inverse(np.asarray(g, dtype=complex))
        return Rep(
            self.presentation,
            [g @ m @ ginv for m in self.images],
            s=self.s,
            u=self.u,
            sqrt_s=self.sqrt_s,
            tol=max(tol, 10 * max(self.relator_residuals, default=0.0)),
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
    """Riley-parametrized representation (X/sqrt(s), Y/sqrt(s)).

    Verifies sqrt_s^2 = s, that (s, u) lies on the zero set of the bridge
    word's obstruction polynomial, and that the relator maps to the identity
    within tol.  With check=False the object is built regardless and the
    residuals are left in the diagnostics.
    """
    if p.bridge_word is None or p.k != 2:
        raise RepresentationError("non-2-bridge presentation: no bridge word available")
    s = complex(s)
    u = complex(u)
    if sqrt_s is None:
        sqrt_s = cmath.sqrt(s)
    if abs(sqrt_s * sqrt_s - s) > tol * max(1.0, abs(s)):
        raise RepresentationError("sqrt_s is not a square root of s")
    phi = riley_polynomial(p.bridge_word)
    if check and not phi.is_zero:
        residual = abs(phi.evaluate(s, u))
        if residual > max(tol, 1e-9) * phi.magnitude_at(s, u):
            raise RepresentationError(
                f"phi(s, u) = {residual:.3e} does not vanish: "
                "(s, u) off the representation variety"
            )
    x, y = riley_assignment(s, u)
    return Rep(p, (x / sqrt_s, y / sqrt_s), s=s, u=u, sqrt_s=sqrt_s, tol=tol, check=check)


def adjoint_of_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix of V -> m V m^-1 on trace-zero 2x2 matrices, basis (E, H, F).

    Column j holds the (E, H, F) coordinates of m B_j m^-1 in closed form:
    for m = [[a, b], [c, d]], m E m^-1 = (a^2 E - ac H - c^2 F) / det m, and
    likewise for H and F.
    """
    (a, b), (c, d) = np.asarray(m, dtype=complex).tolist()
    det = a * d - b * c
    if abs(det) < 1e-300:
        raise RepresentationError("singular image matrix")
    return np.array(
        [[a * a, -2 * a * b, -b * b], [-a * c, a * d + b * c, b * d], [-c * c, 2 * c * d, d * d]]
    ) / det


@dataclass(frozen=True)
class AdjointImage:
    """Per-generator 3x3 adjoint matrices (and inverses) of a representation.

    ``of_word`` memoizes every prefix it forms in a letter trie, so the Fox
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

    def of_word(self, w: Word) -> np.ndarray:
        node = self._prefixes
        for letter in w.letters:
            child = node[1].get(letter)
            if child is None:
                g, e = letter
                step = self.matrices[g] if e == 1 else self.inverses[g]
                child = (_read_only(node[0] @ step), {})
                node[1][letter] = child
            node = child
        return node[0]


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def adjoint_images(rep: Rep) -> AdjointImage:
    """Adjoint matrices of all generator images; sign of the 2x2 lift cancels."""
    mats = tuple(adjoint_of_matrix(m) for m in rep.images)
    invs = tuple(adjoint_of_matrix(m) for m in rep.inverses)
    return AdjointImage(mats, invs)
