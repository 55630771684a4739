"""The torsion along the SU(2) locus of a two-bridge knot: theta grids,
sweeps, the SU(2) window, and critical points of the torsion per root
branch.

A branch is its rank among the sorted SU(2) roots, keyed by the root
count: where the root count does not change the real roots cannot cross, so
the rank identifies the root.  This holds between grid samples with equal
counts, at theta +- h and at a trial theta of the refinement.  Only across a
change of the root count does the grid pairing fall back to nearest u.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .presentation import Presentation, PresentationError
from .reps import (
    Rep,
    RepresentationError,
    RileyPoly,
    _bracketed_zero,
    build_rep,
    riley_polynomial,
    su2_root_count_thresholds,
    su2_root_counts,
    su2_solutions,
)
from .torsion import (
    DEFAULT_TOLERANCES,
    RegularityError,
    Tolerances,
    compute_torsion,
    simple_zero,
    torsion_polynomial,
    torsion_via_limit,
)


class BracketError(ArithmeticError):
    """The refinement derivative has one sign at both ends of a sign change."""


# what one branch evaluation can raise; a critical search drops the sample or
# the sign change and notes why, and keeps going
_BRANCH_ERRORS = (RegularityError, RepresentationError)

#: distance kept from each end of the probed SU(2) window by auto_theta_range
AUTO_THETA_MARGIN = 0.02

#: thetas per root-count stack of the auto_theta_range scan from each end
AUTO_THETA_CHUNK = 48

#: central-difference step in theta of the reported derivative estimates
FD_STEP = 1e-4

#: a grid theta this close to pi stands for pi: theta_grid's middle sample
#: rounds to one ulp either side of pi on some windows
PI_SLACK = 1e-12

# a theta and the branch's {root count: rank} there
_Sample = tuple[float, dict[int, int]]


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


def rep_at(p: Presentation, theta: float, u: float, tol: Tolerances) -> Rep:
    """SU(2) representation at s = e^{i theta} with the continuous
    square-root branch e^{i theta / 2}, built in the unitary frame; for
    arrays of theta and u, one Rep of that stack of points."""
    theta = np.asarray(theta, dtype=float)
    return build_rep(p, np.exp(1j * theta), u, sqrt_s=np.exp(0.5j * theta), tol=tol.relation,
                     frame="su2")


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


def sweep_rows(
    p: Presentation,
    theta_lo: float,
    theta_hi: float,
    samples: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
    drop: int | None = None,
) -> list[dict]:
    """One row per SU(2) root at each theta of the grid: sigma, u, the
    torsion, the simple-zero diagnostic and Tr rho(mu).  All roots at all
    thetas are one stack of points: one representation, one assembly and
    one determinant for the whole sweep."""
    grid = theta_grid(theta_lo, theta_hi, samples)
    phi = _two_bridge_phi(p, "sweep")
    solutions = su2_solutions(phi, grid, multiplicity_threshold=tol.multiplicity)
    points = [(sols, u) for sols in solutions for u in sols.roots]
    if not points:
        return []
    rep = rep_at(p, [sols.theta for sols, _ in points], [u for _, u in points], tol)
    results = compute_torsion(rep, tol, drop=drop)
    return [
        {
            "theta": sols.theta,
            "sigma": sols.sigma,
            "u": u,
            "torsion_re": result.value.real,
            "torsion_im": result.value.imag,
            "tai_simple_zero": simple_zero(result.polynomial),
            "trace_mu": trace,
        }
        for (sols, u), result, trace in zip(points, results, rep.trace_meridian.real.tolist())
    ]


def auto_theta_range(phi: RileyPoly) -> tuple[float, float]:
    """Widest theta window on which SU(2) roots exist, probed on a grid.

    The grid is scanned from its low end in chunks of AUTO_THETA_CHUNK
    thetas up to the first theta with a root, at index i; the window ends
    at the mirror grid point n - 1 - i.  The root count depends only on
    sigma = 2 cos(theta), and sigma(theta) = sigma(2 pi - theta), so the
    window is that of the whole grid (on the 178 two-bridge knots up to
    p = 41, 5_2 and the trefoil the count grid is mirror-symmetric)."""
    n = 600
    thetas = [0.02 + (2 * math.pi - 0.04) * i / (n - 1) for i in range(n)]
    lo = None
    for start in range(0, n // 2, AUTO_THETA_CHUNK):
        chunk = range(start, min(start + AUTO_THETA_CHUNK, n // 2))
        counts = su2_root_counts(phi, [thetas[i] for i in chunk])
        lo = next((i for i, count in zip(chunk, counts) if count), None)
        if lo is not None:
            break
    if lo is None or thetas[n - 1 - lo] - thetas[lo] < 4 * AUTO_THETA_MARGIN:
        raise RepresentationError("no SU(2) representations found on the probe grid")
    return thetas[lo] + AUTO_THETA_MARGIN, thetas[n - 1 - lo] - AUTO_THETA_MARGIN


class _BranchTorsion:
    """Torsion along the root branches of one presentation.

    A branch is given by ``ranks``: its rank among the sorted SU(2) roots,
    keyed by the root count at which that rank is known (one grid sample, or
    the two ends of a bracket).  A critical search evaluates all its
    branches together: the SU(2) roots of each theta are found once and
    shared by every branch, and each batch of points is one stack.
    """

    def __init__(self, p: Presentation, phi: RileyPoly, tol: Tolerances, solutions=()):
        self.p, self.phi, self.tol = p, phi, tol
        #: the sorted SU(2) roots of every theta solved so far
        self.roots: dict[float, tuple[float, ...]] = {sols.theta: sols.roots for sols in solutions}

    def solve(self, thetas) -> None:
        """Find the SU(2) roots of every theta not solved before, in one call."""
        if new := sorted(set(thetas) - self.roots.keys()):
            self.roots.update((s.theta, s.roots) for s in su2_solutions(
                self.phi, new, multiplicity_threshold=self.tol.multiplicity))

    def root(self, theta: float, ranks: dict[int, int]) -> float:
        """The branch's root at a solved theta; a RepresentationError when no
        end of the bracket has this theta's root count."""
        roots = self.roots[theta]
        rank = ranks.get(len(roots))
        if rank is None:
            raise RepresentationError(
                f"root count {len(roots)} at theta={theta:.6f} matches no bracket end"
            )
        return roots[rank]

    def values(self, samples: list[_Sample]) -> list:
        """Torsion value of the branch at every (theta, ranks), or the branch
        error it raises, with the roots of all new thetas found in one call
        and all points evaluated as one stack.  When a point is off the
        variety every point is evaluated on its own."""
        self.solve(theta for theta, _ in samples)
        roots = [_attempt(self.root, theta, ranks) for theta, ranks in samples]
        points = [(theta, u) for (theta, _), u in zip(samples, roots) if not isinstance(u, Exception)]
        try:
            tps = iter(torsion_polynomial(
                rep_at(self.p, [t for t, _ in points], [u for _, u in points], self.tol), tol=self.tol
            ) if points else ())
        except RepresentationError as exc:
            if len(points) == 1:
                return [u if isinstance(u, Exception) else exc for u in roots]
            # a point off the variety: every point on its own
            return [
                u if isinstance(u, Exception) else self.values([sample])[0]
                for sample, u in zip(samples, roots)
            ]
        return [
            u if isinstance(u, Exception) else _attempt(lambda tp: torsion_via_limit(tp).real, next(tps))
            for u in roots
        ]

    def derivatives(self, samples: list[_Sample], h: float = FD_STEP) -> list:
        """Central difference with step h at every (theta, ranks) and the
        mean of the two torsion values it used, or the branch error it
        raises (at theta + h first), all thetas +- h as one stack."""
        values = self.values([(theta + d, ranks) for theta, ranks in samples for d in (h, -h)])
        return [_difference(plus, minus, h) for plus, minus in zip(values[::2], values[1::2])]


def _attempt(f, *args):
    """f(*args), or the branch error it raises."""
    try:
        return f(*args)
    except _BRANCH_ERRORS as exc:
        return exc


def _difference(plus, minus, h: float):
    """(plus - minus) / 2h and the mean of the two values, or the first
    branch error among them."""
    failed = next((v for v in (plus, minus) if isinstance(v, Exception)), None)
    return failed or ((plus - minus) / (2.0 * h), 0.5 * (plus + minus))


def find_critical_points(
    p: Presentation,
    theta_lo: float,
    theta_hi: float,
    samples: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CriticalReport:
    """Locate zeros of d(torsion)/d(theta) per root branch.

    The torsion is symmetric about theta = pi on every branch, so when the
    window contains pi every SU(2) root there is a critical point, the
    binary dihedral one.  Elsewhere, central finite differences on a theta
    grid; every sign change is refined by Brent's method on a wide-step
    difference, all sign changes in lockstep (``_refine_derivative_zeros``).
    Each zero is annotated with the binary-dihedral test
    |Tr rho(mu)| = |2 cos(theta/2)| <= 1e-6.  The search is a fixed number
    of stacks: the grid's differences, the wide-step end slopes, one per
    Brent round, and the reported points.
    """
    grid = theta_grid(theta_lo, theta_hi, samples)
    phi = _two_bridge_phi(p, "critical")
    notes: list[str] = []
    # roots move at |du/dtheta| = O(1) along a branch, so the pairing radius
    # must scale with the grid spacing
    spacing = (theta_hi - theta_lo) / (samples - 1)
    max_jump = max(0.35, 3.0 * spacing)

    # branch pairing: a sample is (theta, u, {root count: rank of u}).  At
    # an equal root count each branch keeps its rank; across a count change,
    # nearest-u continuation within max_jump, birth/death noted
    branches: list[list[tuple[float, float, dict[int, int]]]] = []
    active: list[int] = []  # the branch of each root of the last sample, by rank
    prev_count = None
    solutions = su2_solutions(phi, grid, multiplicity_threshold=tol.multiplicity)
    for theta, sols in zip(grid, solutions):
        roots = list(sols.roots)
        new_samples = [(theta, u, {len(roots): rank}) for rank, u in enumerate(roots)]
        if sols.any_near_multiple:
            notes.append(f"near-multiple roots at theta={theta:.6f}; branch pairing ambiguous")
        if len(roots) == prev_count:
            for idx, sample in zip(active, new_samples):
                branches[idx].append(sample)
            continue
        if prev_count is not None:
            notes.append(f"root count changed {prev_count} -> {len(roots)} at theta={theta:.6f}")
        prev_count = len(roots)

        new_active: list[int] = []
        used = set()
        for sample, u in zip(new_samples, roots):
            best = None
            for idx in active:
                if idx in used:
                    continue
                last_u = branches[idx][-1][1]
                if best is None or abs(u - last_u) < abs(u - branches[best][-1][1]):
                    best = idx
            if best is not None and abs(u - branches[best][-1][1]) <= max_jump:
                used.add(best)
                branches[best].append(sample)
                new_active.append(best)
            else:
                branches.append([sample])
                new_active.append(len(branches) - 1)
        active = new_active

    torsion = _BranchTorsion(p, phi, tol, solutions)
    # per branch in order: a note, or the index of a sign change to refine;
    # emitted once every sign change is refined and every point evaluated
    events: list[str | int] = []
    brackets: list[tuple[_Sample, _Sample]] = []

    branches = [branch for branch in branches if len(branch) >= 3]
    differences = iter(torsion.derivatives([(theta, ranks) for b in branches for theta, _, ranks in b]))
    for branch in branches:
        theta_lo_b, theta_hi_b = branch[0][0], branch[-1][0]
        derivs: list[float | None] = []
        values: list[float] = []
        failures: list[Exception] = []
        for _ in branch:
            result = next(differences)
            if isinstance(result, Exception):
                derivs.append(None)
                failures.append(result)
                continue
            derivs.append(result[0])
            values.append(result[1])
        span = f"[{theta_lo_b:.4f}, {theta_hi_b:.4f}]"
        if failures:
            events.append(
                f"{len(failures)} of {len(branch)} derivative samples failed on the "
                f"branch over {span}, the first with: {failures[0]}"
            )
        if not values:
            continue

        # derivative values below the evaluation-noise floor carry no sign
        # information; a branch that is flat everywhere has constant torsion
        floor = 1e-11 * max([1.0] + [abs(v) for v in values]) / FD_STEP
        usable = [i for i, g in enumerate(derivs) if g is not None and abs(g) > floor]
        if not usable:
            events.append(f"branch torsion is constant at the numerical noise floor over {span}")
            continue
        for i1, i2 in zip(usable, usable[1:]):
            if derivs[i1] * derivs[i2] < 0.0:
                (theta_a, _, ranks_a), (theta_b, _, ranks_b) = branch[i1], branch[i2]
                if theta_a - PI_SLACK <= math.pi <= theta_b + PI_SLACK:
                    continue  # the dihedral point, reported below
                events.append(len(brackets))
                brackets.append(((theta_a, ranks_a), (theta_b, ranks_b)))

    refined = _refine_derivative_zeros(torsion, brackets)
    targets = [zero for zero in refined if not isinstance(zero, Exception)]
    # T(theta) = T(2 pi - theta) on every branch, so dT/dtheta vanishes at pi
    # on each: every root there is a critical point, with no refinement
    at_pi = theta_lo <= math.pi <= theta_hi
    centres = [theta for theta, _ in targets] + ([math.pi] if at_pi else [])
    # the roots of every reported theta in one call; the count at pi sets
    # the dihedral points
    torsion.solve(theta + d for theta in centres for d in (0.0, FD_STEP, -FD_STEP))
    count_at_pi = len(torsion.roots[math.pi]) if at_pi else 0
    found = iter(_critical_points(
        torsion, targets + [(math.pi, {count_at_pi: rank}) for rank in range(count_at_pi)]
    ))
    points: list[CriticalPoint] = []

    def report(pt: CriticalPoint, what: str) -> None:
        # report invariant: the derivative estimate at a reported point must
        # sit below the critical threshold
        if pt.derivative_estimate <= 1e-3 * max(1.0, abs(pt.torsion)):
            points.append(pt)
        else:
            notes.append(
                f"discarded {what}: derivative estimate {pt.derivative_estimate:.2e} too large"
            )

    for event in events:
        if isinstance(event, str):
            notes.append(event)
            continue
        (theta_a, _), (theta_b, _) = brackets[event]
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

    thresholds = su2_root_count_thresholds(phi)
    return CriticalReport(points=points, notes=notes, thresholds=thresholds)


def _refine_derivative_zeros(
    torsion: _BranchTorsion,
    brackets: list[tuple[_Sample, _Sample]],
) -> list:
    """(theta, ranks) of the derivative zero between the two branch ends
    (theta, ranks) of every bracket, whose derivatives differ in sign, or
    the error that drops the bracket.

    A wider step is used for the refinement: the central difference of a
    smooth function has a zero crossing at the critical point to first order
    for ANY step, while the evaluation-noise floor of its sign scales like
    1/step.  The reported derivative estimate still uses FD_STEP.  Every
    theta evaluated takes its root by rank from the end with its root count,
    from end a when both ends have it.

    All brackets advance in lockstep: one stack of differences takes the
    slopes at every end, then each Brent round is one stack holding the
    trial theta of every bracket not yet done.
    """
    h = 2e-3
    ranks = [{**ranks_b, **ranks_a} for (_, ranks_a), (_, ranks_b) in brackets]
    ends = torsion.derivatives(
        [(end[0], r) for bracket, r in zip(brackets, ranks) for end in bracket], h
    )
    out: list = [None] * len(brackets)
    trials: dict[int, tuple[float, Generator[float, float, float]]] = {}

    def advance(i: int, steps: Generator[float, float, float], slope: float | None) -> None:
        try:
            trials[i] = steps.send(slope), steps
        except StopIteration as stop:
            out[i] = stop.value, ranks[i]

    for i, (((theta_a, _), (theta_b, _)), end_a, end_b) in enumerate(
        zip(brackets, ends[::2], ends[1::2])
    ):
        failed = next((g for g in (end_a, end_b) if isinstance(g, Exception)), None)
        if failed is not None:
            out[i] = failed
            continue
        ga, gb = end_a[0], end_b[0]
        if ga * gb > 0.0:
            out[i] = BracketError(
                f"the derivative with step {h:g} has one sign at both ends "
                f"({ga:.3e}, {gb:.3e})"
            )
            continue
        advance(i, _bracketed_zero(theta_a, ga, theta_b, gb, xtol=1e-11), None)
    while trials:
        batch = list(trials.items())
        trials.clear()
        slopes = torsion.derivatives([(theta, ranks[i]) for i, (theta, _) in batch], h)
        for (i, (_, steps)), slope in zip(batch, slopes):
            if isinstance(slope, Exception):
                out[i] = slope
            else:
                advance(i, steps, slope[0])
    return out


def _critical_points(torsion: _BranchTorsion, targets: list[_Sample]) -> list:
    """The critical point at every (theta, ranks), or the branch error it
    raises (its value first, then theta + FD_STEP, then theta - FD_STEP):
    the values and the differences of all targets as one stack."""
    values = torsion.values(
        [(theta + d, ranks) for theta, ranks in targets for d in (0.0, FD_STEP, -FD_STEP)]
    )
    out = []
    for (theta, ranks), value, plus, minus in zip(targets, values[::3], values[1::3], values[2::3]):
        difference = _difference(plus, minus, FD_STEP)
        failed = next((v for v in (value, difference) if isinstance(v, Exception)), None)
        out.append(failed or CriticalPoint(
            theta=theta,
            u=torsion.root(theta, ranks),
            torsion=complex(value),
            derivative_estimate=abs(difference[0]),
            is_dihedral=abs(2.0 * math.cos(theta / 2.0)) <= 1e-6,
        ))
    return out
