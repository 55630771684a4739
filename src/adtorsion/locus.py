"""The torsion along the SU(2) locus of a two-bridge knot: theta grids,
sweeps, the SU(2) window, and critical points of the torsion per root
branch.

The SU(2) roots of phi(e^{i theta}, u) depend on theta only through
sigma = 2 cos(theta), so on every branch T(theta) = T(2 pi - theta), and a
critical search runs on the half window theta <= pi.  Between two
consecutive breakpoints of ``su2_root_count_thresholds`` the roots keep
their number and their order, so the rank among the sorted roots
identifies the root.  A branch is therefore a breakpoint interval and a
rank, and no root is paired with another across samples.  The search reads
one slope, dT/dtheta of the exact torsion function (``exact``) by the
chain rule at the branch's root: its samples find the sign changes, and
Brent's method refines each one from the slopes of its two samples.  A
search reports T and the slope where it took them, and a sweep T at its
roots; each checks one point against the numeric torsion.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import statistics
import sys
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .presentation import Presentation, PresentationError
from .reps import (
    RELATION_TOL,
    Rep,
    RepresentationError,
    RileyPoly,
    Su2Stack,
    _raise_first,
    build_rep,
    phi_failure,
    riley_polynomial,
    su2_root_count_thresholds,
    su2_solutions,
)
from .torsion import CONSISTENCY_TOL, RegularityError, compute_torsion


# what one branch evaluation can raise; a critical search drops the sample or
# the sign change and notes why, and keeps going
_BRANCH_ERRORS = (RegularityError, RepresentationError)

#: distance kept from each end of the probed SU(2) window by auto_theta_range
AUTO_THETA_MARGIN = 0.02

#: thetas per root-count stack of the auto_theta_range scan from each end
AUTO_THETA_CHUNK = 48

#: distance of a cut sample from its threshold theta, inside its interval;
#: the samples, and so every refined theta* and its u to the last bit,
#: depend on it
CUT_OFFSET = 2.2e-3

#: folded grid thetas this close are one sample, and one this close to pi
#: stands for pi: theta_grid's middle sample rounds to one ulp either side
#: of pi on some windows
PI_SLACK = 1e-12

# a root branch: the root count of its threshold interval and its rank among
# the sorted roots there
_Branch = tuple[int, int]
# a theta and a branch
_Sample = tuple[float, _Branch]
# a sign change of a branch's slope: (theta_a, slope there, theta_b, slope
# there, branch)
_Bracket = tuple[float, float, float, float, _Branch]


@dataclass(frozen=True)
class CriticalPoint:
    theta: float
    u: float
    torsion: complex
    derivative_estimate: float
    is_dihedral: bool


@dataclass
class CriticalReport:
    points: list[CriticalPoint]
    notes: list[str]
    thresholds: list[float]
    window: tuple[float, float]

    @property
    def dihedral_count(self) -> int:
        return sum(1 for pt in self.points if pt.is_dihedral)

    def to_json(self) -> dict:
        return {
            "points": [
                {
                    "theta": pt.theta,
                    "u": pt.u,
                    "torsion": [pt.torsion.real, pt.torsion.imag],
                    "derivative_estimate": pt.derivative_estimate,
                    "is_dihedral": pt.is_dihedral,
                }
                for pt in self.points
            ],
            "notes": self.notes,
            "sigma_thresholds": self.thresholds,
            "dihedral_count": self.dihedral_count,
        }


def rep_at(p: Presentation, theta: float, u: float) -> Rep:
    """The representation at s = e^{i theta} with the continuous
    square-root branch e^{i theta / 2} (build_rep picks the unitary frame at
    an SU(2) point); for arrays of theta and u, one Rep of that stack of
    points."""
    theta = np.asarray(theta, dtype=float)
    return build_rep(p, np.exp(1j * theta), u, sqrt_s=np.exp(0.5j * theta))


def _two_bridge_phi(p: Presentation, task: str) -> RileyPoly:
    """Riley polynomial of a two-bridge presentation; PresentationError
    naming ``task`` for any other presentation."""
    if p.bridge_word is None:
        raise PresentationError(f"{task} needs a two-bridge presentation")
    return riley_polynomial(p.bridge_word)


def theta_grid(lo: float, hi: float, samples: int) -> list[float]:
    """``samples`` evenly spaced thetas from lo to hi, both included;
    ValueError unless 0 < lo < hi < 2 pi and samples >= 2."""
    problems = []
    if not (0.0 < lo < hi < 2.0 * math.pi):
        problems.append("need 0 < theta-lo < theta-hi < 2*pi")
    if samples < 2:
        problems.append("samples must be >= 2")
    if problems:
        raise ValueError("; ".join(problems))
    return [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]


def _torsion_function(p: Presentation):
    """The exact torsion function of p's bridge word.  Its module is
    imported here, on first use: a set-up or a single torsion never loads
    it."""
    from .exact import torsion_function

    return torsion_function(p.bridge_word)


def sweep_rows(p: Presentation, theta_lo: float, theta_hi: float, samples: int) -> list[dict]:
    """One row per SU(2) root at each theta of the grid: sigma, u, the
    torsion T, whether the invariant has a simple zero at t = 1, and
    Tr rho(mu) = 2 cos(theta / 2).

    T is the word's exact torsion function (``exact.torsion_function``,
    built once per word) at every (sigma, u).  Its build proved that the
    zero of Delta_1 at t = 1 has order at least 2 on all of phi = 0, so the
    order is exactly 2, the invariant's simple zero, wherever T != 0.
    Every point must pass build_rep's phi check, and the middle row is
    checked against the numeric torsion (``rep_at`` and
    ``compute_torsion``), last: a relative difference above
    CONSISTENCY_TOL is a RegularityError.  T does not depend on the
    dropped generator, so a sweep drops none."""
    grid = theta_grid(theta_lo, theta_hi, samples)
    phi = _two_bridge_phi(p, "sweep")
    stack = su2_solutions(phi, grid)
    # every point's theta, sigma and u, row by row of the root table
    counts = stack.counts
    us = stack.table[np.arange(stack.table.shape[1]) < counts[:, None]]
    if not us.size:
        return []
    angles, sigmas = np.repeat(stack.thetas, counts), np.repeat(stack.sigmas, counts)
    _raise_first([phi_failure(phi, np.exp(1j * angles), us.astype(complex), RELATION_TOL)])
    values = _torsion_function(p)(sigmas, us).tolist()
    traces = (2.0 * np.exp(0.5j * angles).real).tolist()
    # the last numpy calls: the rows are built in Python after the check
    thetas, sigmas, us = angles.tolist(), sigmas.tolist(), us.tolist()
    middle = len(us) // 2
    _cross_check(p, thetas[middle], us[middle], values[middle])
    return [
        {
            "theta": theta,
            "sigma": sigma,
            "u": u,
            "torsion_re": value,
            "torsion_im": 0.0,
            "tai_simple_zero": value != 0.0,
            "trace_mu": trace,
        }
        for theta, sigma, u, value, trace in zip(thetas, sigmas, us, values, traces)
    ]


def _cross_check(p: Presentation, theta: float, u: float, value: float) -> None:
    """The exact torsion ``value`` at one SU(2) point against the numeric
    torsion there (``rep_at`` and ``compute_torsion``): a RegularityError
    naming both when they differ by more than CONSISTENCY_TOL, relative.
    A sweep and a critical search run it last: each then ends on the numeric
    route's small complex matmul, as when every point took that route (see
    torsion_polynomial on the state that matmul leaves the CPU in)."""
    numeric = compute_torsion(rep_at(p, theta, u)).value
    if not abs(value - numeric) <= CONSISTENCY_TOL * abs(numeric):
        raise RegularityError(
            f"exact torsion {value!r} and numeric torsion {numeric!r} differ at "
            f"theta={theta!r}, u={u!r}"
        )


def auto_theta_range(phi: RileyPoly, thresholds: list[float] | None = None) -> tuple[float, float]:
    """Widest theta window on which SU(2) roots exist, probed on a grid.

    The window runs from the first theta of the grid with a root, at index
    i, to the mirror grid point n - 1 - i.  The root count depends only on
    sigma = 2 cos(theta), and sigma(theta) = sigma(2 pi - theta), so this is
    the window of the whole grid (on the 178 two-bridge knots up to p = 41,
    5_2 and the trefoil the count grid is mirror-symmetric).  The half grid
    is scanned from its low end in chunks of AUTO_THETA_CHUNK thetas; given
    the sigmas of ``su2_root_count_thresholds(phi)``, between which the
    count is constant, one stack counts the first two thetas of each run of
    the half grid between two of them."""
    n = 600
    thetas = [0.02 + (2 * math.pi - 0.04) * i / (n - 1) for i in range(n)]
    if thresholds is None:
        chunks = [range(start, min(start + AUTO_THETA_CHUNK, n // 2))
                  for start in range(0, n // 2, AUTO_THETA_CHUNK)]
    else:
        # the run of an index: the number of thresholds above its sigma
        runs = [len(thresholds) - bisect.bisect_right(thresholds, 2.0 * math.cos(thetas[i]))
                for i in range(n // 2)]
        chunks = [[i for i in range(n // 2) if i < 2 or runs[i] != runs[i - 2]]]
    lo = None
    for chunk in chunks:
        counts = su2_solutions(phi, [thetas[i] for i in chunk]).counts.tolist()
        lo = next((i for i, count in zip(chunk, counts) if count), None)
        if lo is not None:
            break
    if lo is None or thetas[n - 1 - lo] - thetas[lo] < 4 * AUTO_THETA_MARGIN:
        raise RepresentationError("no SU(2) representations found on the probe grid")
    return thetas[lo] + AUTO_THETA_MARGIN, thetas[n - 1 - lo] - AUTO_THETA_MARGIN


class _BranchTorsion:
    """Torsion along the root branches of one presentation.

    A branch is given by (count, rank): the root count of its breakpoint
    interval and its rank among the sorted SU(2) roots there.  A critical
    search evaluates all its branches together: the SU(2) roots of each
    theta are found once and shared by every branch, and each batch of
    points is one stack.  Slopes and values come from the word's exact
    torsion function, built on the first slope, once per (theta, branch).
    """

    def __init__(self, p: Presentation, phi: RileyPoly, solutions: Su2Stack | None = None):
        self.p, self.phi = p, phi
        #: the sorted SU(2) roots of every theta solved so far
        self.roots: dict[float, tuple[float, ...]] = (
            {} if solutions is None else dict(zip(solutions.thetas, solutions.roots)))
        #: (dT/dtheta, T) or the branch error of every (theta, branch) so far
        self.slopes: dict[_Sample, object] = {}

    @functools.cached_property
    def exact(self):
        """The word's exact torsion function."""
        return _torsion_function(self.p)

    def solve(self, thetas) -> None:
        """Find the SU(2) roots of every theta not solved before, in one call."""
        if new := sorted(set(thetas) - self.roots.keys()):
            stack = su2_solutions(self.phi, new)
            self.roots.update(zip(stack.thetas, stack.roots))

    def root(self, theta: float, branch: _Branch) -> float:
        """The branch's root at a solved theta; a RepresentationError when
        the theta's root count is not the branch's."""
        count, rank = branch
        roots = self.roots[theta]
        if len(roots) != count:
            raise RepresentationError(
                f"root count {len(roots)} at theta={theta:.6f} is not the branch's {count}"
            )
        return roots[rank]

    def derivatives(self, samples: list[_Sample]) -> list:
        """dT/dtheta along the branch and T at every (theta, branch), from
        the exact torsion function at the branch's root there, or the branch
        error that root (or the function's build) raises; only the samples
        not taken before are evaluated, the roots of their new thetas found
        in one call and their points as one stack."""
        exact = _attempt(lambda: self.exact)
        if isinstance(exact, Exception):
            return [exact] * len(samples)
        if new := [sample for sample in dict.fromkeys(samples) if sample not in self.slopes]:
            self.solve(theta for theta, _ in new)
            roots = [_attempt(self.root, theta, branch) for theta, branch in new]
            points = [(theta, u) for (theta, _), u in zip(new, roots) if not isinstance(u, Exception)]
            slopes = iter(zip(*(a.tolist() for a in exact.slope(*zip(*points)))) if points else ())
            self.slopes.update(zip(new, [u if isinstance(u, Exception) else next(slopes) for u in roots]))
        return [self.slopes[sample] for sample in samples]


def _attempt(f, *args):
    """f(*args), or the branch error it raises."""
    try:
        return f(*args)
    except _BRANCH_ERRORS as exc:
        return exc


def _half_window_intervals(grid: list[float], thresholds: list[float]) -> list[list[float]]:
    """The sample thetas of every interval of the half window theta <= pi
    between the cuts at acos(sigma / 2) of the threshold sigmas, in
    ascending theta.

    The grid is folded by theta -> min(theta, 2 pi - theta), with points
    within PI_SLACK merged.  Each interval gets the folded points more than
    CUT_OFFSET inside its cuts, and one sample CUT_OFFSET inside each cut
    that lies in the half window; an interval narrower than 2 CUT_OFFSET
    gets none.  Thetas within PI_SLACK of pi are left out: the dihedral
    points are taken at pi itself."""
    folded: list[float] = []
    for theta in sorted(min(t, 2.0 * math.pi - t) for t in grid):
        if not folded or theta - folded[-1] > PI_SLACK:
            folded.append(theta)
    lo, hi = folded[0], min(folded[-1], math.pi - PI_SLACK)
    cuts = sorted(cut for sigma in thresholds if lo < (cut := math.acos(sigma / 2.0)) < hi)
    intervals = []
    for a, b in zip([-math.inf, *cuts], [*cuts, math.inf]):
        a, b = a + CUT_OFFSET, b - CUT_OFFSET
        thetas = [a, *(t for t in folded if a < t < b), b] if a < b else []
        intervals.append([t for t in thetas if lo <= t <= hi])
    return intervals


def find_critical_points(
    p: Presentation, theta_lo: float | None, theta_hi: float | None, samples: int
) -> CriticalReport:
    """Locate zeros of d(torsion)/d(theta) per root branch.

    Both ends None is the window of ``auto_theta_range`` on the search's
    thresholds; one missing end fails the window check.  The roots depend
    on theta only through sigma = 2 cos(theta), so T(theta) = T(2 pi -
    theta) on every branch and the search runs on the half window
    theta <= pi (``_half_window_intervals``).  Each zero theta* it finds is
    reported at theta* and at 2 pi - theta*, those of the two in the
    window, with one u, torsion and derivative estimate.  When the window
    contains pi every SU(2) root there is a critical point, the binary
    dihedral one, taken at pi itself.

    A branch is an interval between breakpoints and a rank among its
    roots.  One slope serves the whole search: dT/dtheta of the word's
    exact torsion function (``exact.torsion_function``, built once per word)
    by the chain rule at the branch's root, with no numeric torsion.  It is
    taken at the interval's samples, and every sign change is refined by
    Brent's method on it, starting from the slopes of the two samples, all
    sign changes in lockstep (``_refine_derivative_zeros``), one root stack
    per Brent round.  Each point is annotated with the binary-dihedral test
    |Tr rho(mu)| = |2 cos(theta/2)| <= 1e-6 and reports the T and
    |dT/dtheta| of the slope taken there.  Pi joins the samples: its roots
    are solved in the samples' root stack and its points take their slopes
    in the samples' slope stack (a point gets the same bits in any stack),
    and it is left out of the near-multiple notes.  Last, the middle point
    off pi (else a dihedral one) is checked against the numeric torsion
    (``_cross_check``); a representation error there is a note.
    """
    phi = _two_bridge_phi(p, "critical")
    thresholds = su2_root_count_thresholds(phi)
    if theta_lo is None and theta_hi is None:
        theta_lo, theta_hi = auto_theta_range(phi, thresholds)
    theta_lo, theta_hi = (math.nan if t is None else t for t in (theta_lo, theta_hi))
    grid = theta_grid(theta_lo, theta_hi, samples)
    intervals = _half_window_intervals(grid, thresholds)
    sampled = sorted({t for thetas in intervals for t in thetas})
    # pi, the dihedral points' theta, lies above every sample (they keep
    # PI_SLACK from it) and joins their stack
    at_pi = theta_lo <= math.pi <= theta_hi
    solutions = su2_solutions(phi, sampled + ([math.pi] if at_pi else []))
    notes = [f"near-multiple roots at theta={theta:.6f}"
             for theta, near in zip(sampled, solutions.near_multiple) if near]
    torsion = _BranchTorsion(p, phi, solutions)
    count_at_pi = len(torsion.roots[math.pi]) if at_pi else 0
    dihedral = [(math.pi, (count_at_pi, rank)) for rank in range(count_at_pi)]

    # the interval's one root count: the count at most of its samples (a
    # sample with another count fails the count check); the dihedral points
    # take their slopes in the samples' stack
    counted = [(thetas, statistics.mode(len(torsion.roots[t]) for t in thetas))
               for thetas in intervals if len(thetas) >= 2]
    differences = iter(torsion.derivatives(
        [(t, (count, rank)) for thetas, count in counted for rank in range(count) for t in thetas]
        + dihedral
    ))
    # per interval and rank in order: a note, or the index of a sign change to
    # refine; emitted once every sign change is refined and every point evaluated
    events: list[str | int] = []
    brackets: list[_Bracket] = []
    for thetas, count in counted:
        span = f"[{thetas[0]:.4f}, {thetas[-1]:.4f}]"
        flat = []  # the constant torsion of every flat rank
        for rank in range(count):
            results = [next(differences) for _ in thetas]
            failures = [r for r in results if isinstance(r, Exception)]
            if failures:
                events.append(
                    f"{len(failures)} of {len(thetas)} derivative samples failed on root {rank} "
                    f"of {count} over {span}, the first with: {failures[0]}"
                )
            kept = [(theta, r) for theta, r in zip(thetas, results) if not isinstance(r, Exception)]
            if not kept:
                continue
            # slopes below the evaluation-noise floor carry no sign
            # information; a branch that is flat everywhere has constant torsion
            floor = 1e-9 * max([1.0] + [abs(v) for _, (_, v) in kept])
            usable = [(theta, g) for theta, (g, _) in kept if abs(g) > floor]
            if not usable:
                flat.append(f"root {rank} at {statistics.fmean(v for _, (_, v) in kept):.12g}")
            for (theta_a, ga), (theta_b, gb) in zip(usable, usable[1:]):
                if ga * gb < 0.0:
                    events.append(len(brackets))
                    brackets.append((theta_a, ga, theta_b, gb, (count, rank)))
        if flat:
            events.append(f"branch torsion is constant at the numerical noise floor over "
                          f"{span}: {', '.join(flat)}")

    refined = _refine_derivative_zeros(torsion, brackets)
    targets = [zero for zero in refined if not isinstance(zero, Exception)]
    found = iter(_critical_points(torsion, targets + dihedral))
    points: list[CriticalPoint] = []

    def report(pt: CriticalPoint, what: str) -> None:
        # report invariant: the derivative estimate at a reported point must
        # sit below the critical threshold
        if pt.derivative_estimate > 1e-3 * max(1.0, abs(pt.torsion)):
            notes.append(
                f"discarded {what}: derivative estimate {pt.derivative_estimate:.2e} too large"
            )
        elif pt.is_dihedral:
            points.append(pt)
        else:
            mirror = dataclasses.replace(pt, theta=2.0 * math.pi - pt.theta)
            points.extend(q for q in (pt, mirror) if theta_lo <= q.theta <= theta_hi)

    for event in events:
        if isinstance(event, str):
            notes.append(event)
            continue
        theta_a, _, theta_b, _, _ = brackets[event]
        pt = refined[event] if isinstance(refined[event], Exception) else next(found)
        if isinstance(pt, Exception):
            notes.append(f"dropped sign change in theta [{theta_a:.6f}, {theta_b:.6f}]: {pt}")
        else:
            report(pt, f"sign change near theta={pt.theta:.6f}")
    for rank, pt in enumerate(found):
        what = f"the dihedral point of root {rank} of {count_at_pi}"
        if isinstance(pt, Exception):
            notes.append(f"dropped {what}: {pt}")
        else:
            report(pt, what)

    checked = [pt for pt in points if not pt.is_dihedral] or points
    if checked:
        pt = checked[len(checked) // 2]
        try:
            _cross_check(p, pt.theta, pt.u, pt.torsion.real)
        except RepresentationError as exc:
            notes.append(f"no numeric cross-check at theta={pt.theta!r}, u={pt.u!r}: {exc}")
    return CriticalReport(points, notes, thresholds, (theta_lo, theta_hi))


def _refine_derivative_zeros(torsion: _BranchTorsion, brackets: list[_Bracket]) -> list:
    """(theta, branch) of the slope's zero inside every bracket, or the
    branch error that drops the bracket.

    Brent's method starts from the two sampled slopes of each bracket, and
    all brackets advance in lockstep (:func:`_lockstep_zeros`): each round
    solves the roots at the trial theta of every bracket not yet done in
    one stack and takes the exact torsion function's slope there, as at the
    samples.
    """

    def slopes(batch: list[tuple[int, float]]) -> list:
        results = torsion.derivatives([(theta, brackets[i][4]) for i, theta in batch])
        return [g if isinstance(g, Exception) else g[0] for g in results]

    zeros = _lockstep_zeros(slopes, {
        i: _bracketed_zero(*bracket[:4], xtol=1e-11) for i, bracket in enumerate(brackets)
    })
    return [zeros[i] if isinstance(zeros[i], Exception) else (zeros[i], bracket[4])
            for i, bracket in enumerate(brackets)]


def _critical_points(torsion: _BranchTorsion, targets: list[_Sample]) -> list:
    """The critical point at every (theta, branch), or the branch error it
    raises, with the T and |dT/dtheta| of the branch's slope there (the
    refinement's at every theta*)."""
    return [
        result if isinstance(result, Exception) else CriticalPoint(
            theta=theta,
            u=torsion.root(theta, branch),
            torsion=complex(result[1]),
            derivative_estimate=abs(result[0]),
            is_dihedral=abs(2.0 * math.cos(theta / 2.0)) <= 1e-6,
        )
        for (theta, branch), result in zip(targets, torsion.derivatives(targets))
    ]


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
