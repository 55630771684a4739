"""One-variable Laurent polynomials over Z and over C, matrices of them,
determinants.

Both rings share one storage, trimming and ring arithmetic (:class:`_Laurent`),
and so do the polynomials in u over Z[s, s^-1] behind Riley's polynomial.
:class:`IntLaurent` has arbitrary-precision integer coefficients, never
cleaned: the two-bridge representation polynomial (exact in s) and the
classical Alexander polynomial oracle (exact in t) live there.
:class:`LaurentPoly` has double-precision complex coefficients, and its
constructor applies a relative cleanup: coefficients of modulus <= threshold
* max-modulus are zeroed.  Either way the support is trimmed, so a nonzero
polynomial always has nonzero first and last coefficients.  Matrix entries
are never cleaned; only a determinant is, by
``LaurentMatrix.determinant(cleanup=...)``, which cleans all its rows in one
array pass by the constructor's rule.

A determinant is a coefficient stack, one complex array with one row per
point: highest coefficient first, each row ending at its lowest nonzero
coefficient, below at least one column of zeros, no unit t^k.  A running
sum along a row adds the coefficients as Horner's rule at t = 1 adds them,
so :func:`divide_out_simple_roots` divides a whole stack by (t - 1) with
one running sum per round and gives every row the bits it gets alone, and
:func:`readings_at_1` takes every reading of the torsion routes at t = 1
from one stack.  Moduli come from ``np.hypot``, which is Python's
``abs(complex)`` to the bit.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

DEFAULT_CLEANUP = 1e-12


def _signed_sum_str(terms: Iterable[tuple[int, int]], var: str) -> str:
    """``(exponent, integer coefficient)`` pairs, in the order given, as
    ``2*s^2 - s + 3``; zero coefficients are skipped, an empty sum is "0"."""
    parts = []
    for e, c in terms:
        if c == 0:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if abs(c) == 1 else f"{abs(c)}*{power}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


class _Laurent:
    """``sum_i coeffs[i] * var^(offset + i)`` with trimmed coefficients.

    A subclass names its ring zero ``_zero`` (coefficients equal to it are
    trimmed) and has a constructor ``(offset, coeffs)`` that brings
    coefficients into the ring and calls ``_store``; sums and products come
    back through that constructor.  The coefficients may themselves be
    polynomials, as in the u-polynomials over Z[s, s^-1] of ``reps``.
    """

    __slots__ = ("offset", "coeffs")
    _zero = 0

    def _store(self, offset: int, cs: Sequence) -> None:
        zero = self._zero
        lo = 0
        while lo < len(cs) and cs[lo] == zero:
            lo += 1
        hi = len(cs)
        while hi > lo and cs[hi - 1] == zero:
            hi -= 1
        if lo == hi:
            self.offset = 0
            self.coeffs: tuple = ()
        else:
            self.offset = offset + lo
            self.coeffs = tuple(cs[lo:hi])

    @classmethod
    def _raw(cls, offset: int, cs: Sequence):
        """Coefficients already in the ring: trimmed, neither coerced nor cleaned."""
        p = cls.__new__(cls)
        p._store(offset, cs)
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls(0, (1,))

    @classmethod
    def term(cls, coeff, exponent: int = 0):
        return cls(exponent, (coeff,))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lo(self) -> int:
        """Lowest exponent with nonzero coefficient (0 for the zero poly)."""
        return self.offset

    @property
    def hi(self) -> int:
        """Highest exponent with nonzero coefficient (0 for the zero poly)."""
        return self.offset + len(self.coeffs) - 1 if self.coeffs else 0

    def coefficient(self, exponent: int):
        i = exponent - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self._zero

    def shift(self, k: int):
        """Multiply by ``var^k``."""
        if self.is_zero:
            return self
        return self._raw(self.offset + k, self.coeffs)

    def with_offset_zero(self):
        """Drop the monomial unit: same coefficients, lowest exponent 0."""
        return self.shift(-self.offset)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.hi, other.hi)
        out = [self._zero] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.offset - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.offset - lo + i] += c
        return type(self)(lo, out)

    def __neg__(self):
        return self._raw(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return type(self)()
        out = [self._zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return type(self)(self.offset + other.offset, out)

    # -- evaluation and identity --------------------------------------

    def evaluate(self, z):
        """Horner evaluation of ``z^offset * sum c_i z^i``; exact when the
        coefficients and ``z`` are integers and lo >= 0."""
        if self.offset < 0 and np.any(z == 0):
            raise ValueError("evaluation at 0 with negative offset")
        acc = self._zero
        for c in reversed(self.coeffs):
            acc = acc * z + c
        if self.offset == 0:
            return acc
        return acc * z**self.offset

    __call__ = evaluate

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.offset == other.offset
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.offset, self.coeffs))


class IntLaurent(_Laurent):
    """Exact Laurent polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ()

    def __init__(self, offset: int = 0, coeffs: Iterable[int] = ()):
        self._store(offset, [int(c) for c in coeffs])

    def __repr__(self) -> str:
        return f"IntLaurent({self.offset}, {self.coeffs!r})"

    def to_str(self, var: str = "s") -> str:
        return _signed_sum_str(((self.offset + i, c) for i, c in enumerate(self.coeffs)), var)

    def unit_normalized(self) -> "IntLaurent":
        """Canonical representative up to ``±var^k``: lo = 0, lowest coeff > 0."""
        if self.is_zero:
            return self
        shifted = self.with_offset_zero()
        return -shifted if shifted.coeffs[0] < 0 else shifted

    def equal_up_to_unit(self, other: "IntLaurent") -> bool:
        return self.unit_normalized() == other.unit_normalized()

    def is_palindromic(self) -> bool:
        """Coefficient sequence reads the same in both directions."""
        return self.coeffs == tuple(reversed(self.coeffs))


class LaurentPoly(_Laurent):
    """Laurent polynomial in t with double-precision complex coefficients,
    cleaned relative to the largest modulus by every public constructor."""

    __slots__ = ()
    _zero = 0j

    def __init__(
        self,
        offset: int = 0,
        coeffs: Iterable[complex] = (),
        cleanup: float = DEFAULT_CLEANUP,
    ):
        cs = [complex(c) for c in coeffs]
        if cs and cleanup > 0.0:
            bound = cleanup * max(abs(c) for c in cs)
            cs = [0j if abs(c) <= bound else c for c in cs]
        self._store(offset, cs)

    @classmethod
    def variable(cls) -> "LaurentPoly":
        return cls(1, (1.0,))

    @classmethod
    def from_dict(cls, d: Mapping[int, complex], cleanup: float = DEFAULT_CLEANUP) -> "LaurentPoly":
        if not d:
            return cls.zero()
        lo = min(d)
        hi = max(d)
        cs = [0j] * (hi - lo + 1)
        for e, c in d.items():
            cs[e - lo] = complex(c)
        return cls(lo, cs, cleanup=cleanup)

    @property
    def span(self) -> int:
        """Degree span hi - lo (0 for the zero polynomial)."""
        return len(self.coeffs) - 1 if self.coeffs else 0

    @property
    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def derivative(self, order: int = 1) -> "LaurentPoly":
        """Formal derivative, respecting negative exponents."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(order):
            d: dict[int, complex] = {}
            for i, c in enumerate(p.coeffs):
                e = p.offset + i
                if e != 0 and c != 0:
                    d[e - 1] = c * e
            p = LaurentPoly.from_dict(d, cleanup=0.0)
        return p

    def approx_eq(self, other: "LaurentPoly", tol: float) -> bool:
        """Coefficientwise comparison, tolerance relative to the larger scale."""
        scale = max(self.max_abs, other.max_abs, 1.0)
        lo = min(self.offset, other.offset) if (self.coeffs or other.coeffs) else 0
        hi = max(self.hi, other.hi)
        for e in range(lo, hi + 1):
            if abs(self.coefficient(e) - other.coefficient(e)) > tol * scale:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "offset": self.offset,
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "LaurentPoly":
        return cls(int(data["offset"]), [complex(re, im) for re, im in data["coeffs"]], cleanup=0.0)

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        parts = [f"({c:.6g})*t^{self.offset + i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "LaurentPoly(" + " + ".join(parts) + ")"


def unit_aligned_distance(p: LaurentPoly, q: LaurentPoly) -> float:
    """Relative coefficient distance between p and the best unit ±t^m · q.

    Aligning the lowest exponents is the only monomial shift that can match
    supports; both signs are tried.
    """
    if p.is_zero and q.is_zero:
        return 0.0
    if p.is_zero or q.is_zero:
        return float("inf")
    q = q.shift(p.lo - q.lo)
    scale = max(p.max_abs, q.max_abs)
    lo = min(p.lo, q.lo)
    hi = max(p.hi, q.hi)
    d_plus = max(abs(p.coefficient(e) - q.coefficient(e)) for e in range(lo, hi + 1))
    d_minus = max(abs(p.coefficient(e) + q.coefficient(e)) for e in range(lo, hi + 1))
    return min(d_plus, d_minus) / scale


def _end_at_lowest(rows: np.ndarray) -> np.ndarray:
    """Roll each row of a stack in place until it ends at its lowest
    nonzero coefficient: the low zeros move to the top.  Returns ``rows``."""
    if np.count_nonzero(rows[:, -1]) < len(rows):
        for i in np.flatnonzero(rows[:, -1] == 0):
            rows[i] = np.roll(rows[i], len(rows[i]) - len(np.trim_zeros(rows[i], "b")))
    return rows


def divide_out_simple_roots(rows: np.ndarray, multiplicity: int) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic-divide every row of a coefficient stack ``multiplicity``
    times by ``(t - 1)``.

    Each round is one running sum per row from the highest coefficient
    down; the last sum is the remainder and the others are the quotient,
    which ends at its lowest nonzero coefficient again before the next
    round.  Returns the final quotients, a stack in the same layout, and
    the modulus of each round's remainder, an (N, multiplicity) array; the
    caller decides whether the remainders pass its tolerance.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    ends = np.empty((len(rows), multiplicity), dtype=complex)
    for k in range(multiplicity):
        sums = np.add.accumulate(rows, axis=1)
        ends[:, k] = sums[:, -1]
        # a one-column stack divides to the zero polynomial
        rows = sums[:, :-1] if sums.shape[1] > 1 else np.zeros_like(sums)
        if k + 1 < multiplicity:
            _end_at_lowest(rows)
    return rows, np.hypot(ends.real, ends.imag)


def readings_at_1(rows: np.ndarray) -> tuple[list, ...]:
    """What the torsion routes read of each row of a coefficient stack at
    t = 1, one list each: max |c|, the moduli of the two remainders of the
    double division by (t - 1), the value at 1 of the quotient, and the
    first and second derivatives at 1.  The stack carries no unit t^k, so
    the derivatives are those of the polynomial whose lowest exponent is 0.

    Each reading is one array pass over the stack.  Every sum runs from the
    highest coefficient down, as Horner's rule at 1 sums, so a row's
    readings have the same bits in any stack: P'(1) sums c_e * e and P''(1)
    sums (c_e * e) * (e - 1), rounded in that order.
    """
    quotients, remainders = divide_out_simple_roots(rows, 2)
    # the column exponents e, width - 1 down to 0, then e - 1, complex so
    # that no product casts them
    exponents = np.arange(rows.shape[1] - 1, -2, -1, dtype=complex)
    first = rows * exponents[:-1]
    # a running sum's last column is its value at 1
    derivatives = np.add.accumulate([first, first * exponents[1:]], axis=2)[:, :, -1]
    return (
        np.hypot(rows.real, rows.imag).max(axis=1).tolist(),
        remainders.tolist(),
        np.add.accumulate(quotients, axis=1)[:, -1].tolist(),
        *derivatives.tolist(),
    )


class LaurentMatrix:
    """Square matrix of Laurent polynomials held as one coefficient stack:
    ``coeffs[k]`` is the n x n complex matrix multiplying ``t^(offset + k)``.
    At a stack of N points the array is (N, span, n, n), one matrix per
    point, and ``determinant`` returns one row per point.

    Entries are never cleaned and keep every digit; only the determinant
    is, through ``determinant(cleanup=...)``.
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: int, coeffs: np.ndarray):
        coeffs = np.array(coeffs, dtype=complex)
        if coeffs.ndim not in (3, 4) or coeffs.shape[-1] != coeffs.shape[-2]:
            raise ValueError("coefficient stack must have shape (span, n, n) or (N, span, n, n)")
        self.offset = offset
        self.coeffs = coeffs

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[LaurentPoly]]) -> "LaurentMatrix":
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        nonzero = [p for row in entries for p in row if not p.is_zero]
        lo = min((p.lo for p in nonzero), default=0)
        hi = max((p.hi for p in nonzero), default=0)
        coeffs = np.zeros((hi - lo + 1, n, n), dtype=complex)
        for i, row in enumerate(entries):
            for j, p in enumerate(row):
                coeffs[p.lo - lo : p.lo - lo + len(p.coeffs), i, j] = p.coeffs
        return cls(lo, coeffs)

    @property
    def size(self) -> int:
        return self.coeffs.shape[-1]

    def entry(self, i: int, j: int) -> LaurentPoly:
        return LaurentPoly(self.offset, self.coeffs[:, i, j], cleanup=0.0)

    def evaluate(self, z: complex) -> np.ndarray:
        powers = complex(z) ** np.arange(self.offset, self.offset + self.coeffs.shape[-3])
        return np.tensordot(powers, self.coeffs, axes=([0], [-3]))

    def determinant(self, cleanup: float = DEFAULT_CLEANUP) -> np.ndarray:
        """Determinant by evaluation at roots of unity and FFT interpolation:
        a coefficient stack, one row per point (one matrix gives one row).

        Row i has terms between t^(offset + lo_i) and t^(offset + hi_i), so
        det is t^(n offset + sum lo_i) times a polynomial of degree at most
        D = sum (hi_i - lo_i), the certified bound.  The stack with each row
        shifted down by its lo_i is evaluated at the D + 1 roots of unity by
        one FFT (t = 1 is the first sample), one batched LU determinant is
        taken there, and one inverse FFT returns the coefficients.  At a
        stack of points the row supports are those of all points together,
        and the three steps run once for all of them.  Each row is cleaned
        by the LaurentPoly constructor's rule; the unit t^k is dropped.
        """
        n = self.size
        points = self.coeffs if self.coeffs.ndim == 4 else self.coeffs[None]
        # (span, n): row i has a t^k term at some point
        support = points.any(axis=(0, 3))
        lo = support.argmax(axis=0).tolist()
        hi = [len(support) - 1 - k for k in support[::-1].argmax(axis=0).tolist()]
        shifted = np.zeros((len(points), sum(hi) - sum(lo) + 1, n, n), dtype=complex)
        for i in range(n):
            shifted[:, : hi[i] - lo[i] + 1, i] = points[:, lo[i] : hi[i] + 1, i]
        values = np.fft.ifft(np.linalg.det(np.fft.fft(shifted, axis=1)), axis=1)
        if cleanup > 0.0:
            # np.abs differs from abs(complex) in the last bit, np.hypot does not
            moduli = np.hypot(values.real, values.imag)
            values[moduli <= cleanup * moduli.max(axis=1, keepdims=True)] = 0
        rows = np.zeros((len(points), values.shape[1] + 1), dtype=complex)
        rows[:, 1:] = values[:, ::-1]
        return _end_at_lowest(rows)

    def __repr__(self) -> str:
        return f"LaurentMatrix(size={self.size}, offset={self.offset}, span={self.coeffs.shape[-3]})"


def _det_cofactor(rows: Sequence[Sequence], ring: type):
    """Cofactor expansion along the first row over ``ring``: exact for
    IntLaurent entries (the classical Alexander polynomial); over LaurentPoly
    it is the reference the array determinant is tested against."""
    n = len(rows)
    if n == 0:
        return ring.one()
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = ring.zero()
    rest = rows[1:]
    for j, top in enumerate(rows[0]):
        if top.is_zero:
            continue
        minor = tuple(tuple(r[c] for c in range(n) if c != j) for r in rest)
        term = top * _det_cofactor(minor, ring)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


class RationalFunction:
    """Numerator/denominator pair, normalized only by a common monomial.

    No polynomial gcd is ever cancelled; both offsets are made >= 0 with at
    least one equal to 0.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: LaurentPoly, denominator: LaurentPoly):
        if denominator.is_zero:
            raise ZeroDivisionError("zero denominator")
        if numerator.is_zero:
            numerator = LaurentPoly.zero()
            denominator = denominator.with_offset_zero()
        else:
            m = min(numerator.offset, denominator.offset)
            numerator = numerator.shift(-m)
            denominator = denominator.shift(-m)
        self.numerator = numerator
        self.denominator = denominator

    def evaluate(self, z: complex) -> complex:
        return self.numerator.evaluate(z) / self.denominator.evaluate(z)

    def to_json(self) -> dict:
        return {"numerator": self.numerator.to_json(), "denominator": self.denominator.to_json()}

    def __repr__(self) -> str:
        return f"RationalFunction({self.numerator!r}, {self.denominator!r})"
