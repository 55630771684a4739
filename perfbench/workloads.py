"""The three workloads: what each prepares, how it draws its inputs from the
seed, how one operation runs and is checked, and its end-to-end metrics.

Every workload is a closed loop with one caller: the next call goes out
only when the previous one has returned.  The package is driven only
through ``adtorsion.cli.main`` run in-process and the library functions
of its README (``riley_polynomial``, ``su2_solutions``, ``build_rep``,
``compute_torsion``).

Operation times are wall times.  Each workload reduces its outcomes to
the same five figures (see ``metrics``), either over wall time or over
cost, the wall time in units of the reference loop (see refclock.py):

============ ===================== ====================== ========================
figure       sweep-5_2             critical-family        points-family
============ ===================== ====================== ========================
ok_share     sweep calls that      searches that exit 0   points that complete
             complete              without over-count     (1 - fail_share)
ok_rate      checked rows per      completed searches     completed points per
             unit of time          per unit of time       unit of time
p50          median time per row   median search time,    geometric mean over
             over sweep calls      failed = +inf          knots of the per-knot
                                                          median point time
p90          p90 time per row      p90 time of            same with p90
             over sweep calls      completed searches
dihedral_    checked rows at       dihedral points found  completed points at
recall       theta = pi / 3        / sum (p - 1)/2        theta = pi / sum (p-1)/2
============ ===================== ====================== ========================
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from family import checked_knot, family, two_bridge_knot
from refclock import clock as _clock
from tracing import find_object

COMMON_LAYERS = (
    "reps.riley_polynomial",
    "reps.su2_solutions",
    "reps.build_rep",
    "torsion.homology_torsion",
    "torsion.torsion_via_limit",
    "torsion.phi_of",
    "foxcalc.fox_derivative",
    "laurent.determinant",
    "laurent.divide_out_simple_roots",
)


class WrongResult(AssertionError):
    """The program returned a result that an output check proves wrong."""


@dataclass
class Outcome:
    """One measured operation: its knot, wall time, cost, and what it produced."""

    knot: str
    seconds: float
    cost: float = 0.0          # seconds over the reference loop's time around it
    reason: str | None = None  # failure reason; None when the operation completed
    units: int = 1             # checked results it produced (rows of a sweep)
    found: int = 0             # dihedral representations found
    expected: int = 0          # dihedral representations expected

    @property
    def ok(self) -> bool:
        return self.reason is None


def run_cli(cli, argv: list[str]) -> tuple[int | str, str, str]:
    """``adtorsion <argv>`` in-process: exit code (or the escaping exception's
    type name), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # an abort is a counted failure, not a bench crash
        rc = type(exc).__name__
    return rc, out.getvalue(), err.getvalue()


def _failure(rc, stderr: str) -> str:
    if isinstance(rc, str):
        return rc
    line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    return f"exit {rc}: {line.removeprefix('error: ')}".strip()


def _quantile(values: list[float], q: float) -> float:
    """Smoothed q-quantile: the mean of the order statistics within n/20
    ranks of the quantile's position, +inf when any of them is +inf or there
    are no values.

    Single order statistics of a few dozen operations jump between
    neighbours whose times differ by 20%; the mean over the window does
    not, and it still never rises when a +inf entry becomes finite.  A
    window of n/10 ranks around the 90th percentile takes in the slowest
    operation, which a stall of the host sets.
    """
    if not values:
        return math.inf
    ordered = sorted(values)
    h = q * (len(ordered) - 1)
    half = len(ordered) / 20
    window = ordered[max(0, math.floor(h - half)):min(len(ordered), math.ceil(h + half) + 1)]
    return statistics.fmean(window) if all(map(math.isfinite, window)) else math.inf


def _common_metrics(outcomes: list[Outcome], clock: str) -> dict[str, float]:
    """ok_rate counts checked results per unit of ``clock`` spent in the
    program's calls."""
    done = [o for o in outcomes if o.ok]
    expected = sum(o.expected for o in outcomes)
    return {
        "ok_share": len(done) / len(outcomes),
        "ok_rate": sum(o.units for o in done) / sum(getattr(o, clock) for o in outcomes),
        "dihedral_recall": sum(o.found for o in outcomes) / expected if expected else 1.0,
    }


class Workload:
    name = ""
    layers: tuple[str, ...] = ()
    #: operations in one full pass; a run does whole passes only
    pass_length = 1
    #: wall time of one pass on the 2-vCPU virtual machine the baseline was
    #: recorded on; sets how many passes a run of a given length does
    nominal_pass_s = 1.0

    def operations(self, seconds: float) -> int:
        """Operations in a run of about ``seconds`` on the baseline machine.

        The count depends on ``seconds`` only, not on the host's speed, so
        every run of a workload attempts the same operations and counts the
        same failures; a slower host makes the run longer, not smaller.
        """
        return self.pass_length * max(1, round(seconds / self.nominal_pass_s))

    def prepare(self, api, cli, workdir: Path) -> None:
        """Set-up: build and oracle-check the inputs, find theta windows."""
        raise NotImplementedError

    def inputs(self, seed: int):
        """Endless stream of operation inputs drawn from the seed."""
        raise NotImplementedError

    def warm_up(self, api, cli) -> None:
        raise NotImplementedError

    def run(self, api, cli, op) -> list[Outcome]:
        raise NotImplementedError

    def metrics(self, outcomes: list[Outcome], clock: str) -> dict[str, float]:
        """The five figures, with times read from ``clock`` (``"seconds"``
        or ``"cost"``); a latency is +inf when nothing completed."""
        raise NotImplementedError

    def wall_names(self, wall: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Wall-time figures under the names the ROADMAP bench items use."""
        return {
            "fail_share": (1.0 - wall["ok_share"], "share"),
            "dihedral_recall": (wall["dihedral_recall"], "share"),
        }


@dataclass
class SweepFiveTwo(Workload):
    """``adtorsion sweep --knot 5_2`` over the whole SU(2) window.

    The seed draws each call's (odd) sample count, so every grid holds
    theta = pi, the window's midpoint, with its (7 - 1)/2 dihedral rows.  Every row must match the 5_2
    closed form with one global sign.
    """

    name = "sweep-5_2"
    layers = COMMON_LAYERS + ("torsion.compute_torsion", "cli.sweep_rows")
    nominal_pass_s = 0.4
    sign: int = 0
    window: tuple[float, float] = (0.0, 0.0)
    consistency: float = 0.0
    dihedral: int = 0

    def prepare(self, api, cli, workdir):
        knot = checked_knot(api, "5_2", 7, api.knot("5_2"))
        self.dihedral = knot.dihedral
        self.window = find_object("auto_theta_range")[1](knot.phi)
        self.consistency = api.Tolerances().consistency

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            yield 2 * rng.randint(30, 60) + 1

    def warm_up(self, api, cli):
        self.run(api, cli, 61)

    def run(self, api, cli, samples):
        lo, hi = self.window
        argv = ["sweep", "--knot", "5_2", "--theta-lo", repr(lo), "--theta-hi", repr(hi),
                "--samples", str(samples)]
        start = _clock()
        rc, out, err = run_cli(cli, argv)
        seconds = _clock() - start
        if rc != 0:
            return [Outcome("5_2", seconds, reason=_failure(rc, err), expected=self.dihedral)]
        rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
        if not rows:
            raise WrongResult("sweep printed no rows")
        centre = 0.5 * (lo + hi)
        at_pi = 0
        for row in rows:
            value = float(row["torsion_re"])
            target = _closed_form_5_2(float(row["sigma"]), float(row["u"]))
            scale = self.consistency * max(1.0, abs(target))
            self.sign = self.sign or (1 if value * target > 0 else -1)
            if abs(value - self.sign * target) > scale or abs(float(row["torsion_im"])) > scale:
                raise WrongResult(
                    f"5_2 row theta={row['theta']} u={row['u']}: torsion {value} "
                    f"against closed form {self.sign * target}"
                )
            at_pi += abs(float(row["theta"]) - centre) < 1e-9
        return [Outcome("5_2", seconds, units=len(rows), found=at_pi, expected=self.dihedral)]

    def metrics(self, outcomes, clock):
        m = _common_metrics(outcomes, clock)
        per_row = [getattr(o, clock) / o.units for o in outcomes if o.ok]
        m["p50"] = _quantile(per_row, 0.5)
        m["p90"] = _quantile(per_row, 0.9)
        return m

    def wall_names(self, wall):
        return super().wall_names(wall) | {"sweep_points_per_s": (wall["ok_rate"], "1/s")}


def _closed_form_5_2(sigma: float, u: float) -> float:
    """Torsion of 5_2 on the SU(2) locus, an exact oracle for the sweep."""
    return -(5 * sigma + 3) * u * u + (5 * sigma * sigma - 7 * sigma + 1) * u + 1 - 10 * sigma


@dataclass
class CriticalFamily(Workload):
    """``adtorsion critical --format json`` (auto range, 33 samples) on every
    b(p, q) with odd p from 3 to 15 and odd q coprime to p.

    A pass covers the whole family and the seed sets its order: drawing one
    q per p would make recall and the median swing with the seed by more
    than any useful bound, since whole knots fail today.
    """

    name = "critical-family"
    layers = COMMON_LAYERS + (
        "reps.su2_root_count_thresholds",
        "cli.find_critical_points",
        "cli.auto_theta_range",
    )
    knots: list = field(default_factory=list)
    paths: list = field(default_factory=list)
    FAMILY = family(range(3, 16, 2))
    pass_length = len(FAMILY)
    nominal_pass_s = 40.0

    def prepare(self, api, cli, workdir):
        self.knots = [two_bridge_knot(api, p, q) for p, q in self.FAMILY]
        self.paths = []
        workdir.mkdir(exist_ok=True)
        for i, knot in enumerate(self.knots):
            path = workdir / f"knot{i:02d}.txt"
            path.write_text(f"twobridge w: {knot.word}\n", encoding="utf-8")
            self.paths.append(str(path))

    def inputs(self, seed):
        rng = random.Random(seed)
        order = list(range(len(self.knots)))
        while True:
            rng.shuffle(order)
            yield from order

    def warm_up(self, api, cli):
        self.run(api, cli, 0)

    def run(self, api, cli, index):
        knot = self.knots[index]
        start = _clock()
        rc, out, err = run_cli(cli, ["critical", "--presentation", self.paths[index], "--format", "json"])
        seconds = _clock() - start
        outcome = Outcome(knot.name, seconds, expected=knot.dihedral)
        if rc != 0:
            outcome.reason = _failure(rc, err)
            return [outcome]
        try:
            report = json.loads(out)
        except ValueError:
            raise WrongResult(f"{knot.name}: critical printed no JSON report") from None
        flagged = sum(1 for pt in report["points"] if pt["is_dihedral"])
        if flagged != report["dihedral_count"]:
            raise WrongResult(f"{knot.name}: dihedral_count {report['dihedral_count']} "
                              f"but {flagged} points flagged dihedral")
        for pt in report["points"]:
            if not all(math.isfinite(x) for x in (pt["theta"], pt["u"], *pt["torsion"])):
                raise WrongResult(f"{knot.name}: non-finite critical point {pt}")
        if flagged > knot.dihedral:
            outcome.reason = "dihedral_overcount"
        else:
            outcome.found = flagged
        return [outcome]

    def metrics(self, outcomes, clock):
        m = _common_metrics(outcomes, clock)
        m["p50"] = _quantile([getattr(o, clock) if o.ok else math.inf for o in outcomes], 0.5)
        m["p90"] = _quantile([getattr(o, clock) for o in outcomes if o.ok], 0.9)
        return m

    def wall_names(self, wall):
        return super().wall_names(wall) | {"critical_p50_s": (wall["p50"], "s")}


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class PointsFamily(Workload):
    """Single-point torsion requests, each point done the way
    ``adtorsion torsion --root i`` does it: riley_polynomial, su2_solutions,
    build_rep, compute_torsion.

    Requests come in rounds with one request per knot, in an order the seed
    shuffles.  Each knot's thetas are pi first (the binary dihedral slice,
    with (p - 1)/2 roots), then a golden-ratio sequence over its SU(2)
    window, which covers the window evenly in few requests.  The thetas do
    not depend on the seed: root conditioning rejects points depending on
    theta, so seeded thetas would make the failure count differ from seed
    to seed.
    """

    name = "points-family"
    layers = COMMON_LAYERS + ("torsion.compute_torsion",)
    knots: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    tol: object = None

    PQ = ((7, 3), (13, 5), (21, 5), (31, 7), (41, 11))
    pass_length = len(PQ)
    nominal_pass_s = 0.6

    def prepare(self, api, cli, workdir):
        auto_theta_range = find_object("auto_theta_range")[1]
        self.knots = [two_bridge_knot(api, p, q) for p, q in self.PQ]
        self.windows = [auto_theta_range(k.phi) for k in self.knots]
        self.tol = api.Tolerances()

    def inputs(self, seed):
        rng = random.Random(seed)
        order = list(range(len(self.knots)))
        for j in itertools.count():
            rng.shuffle(order)
            for k in order:
                lo, hi = self.windows[k]
                yield k, math.pi if j == 0 else lo + (hi - lo) * ((0.5 + j * _GOLDEN) % 1.0)

    def warm_up(self, api, cli):
        self._point(api, self.knots[0], math.pi, 0)

    def _point(self, api, knot, theta, i):
        """Root i at theta: the root count, and the TorsionResult, None when
        there is no root i, or the type name of the error raised."""
        tol = self.tol
        try:
            phi = api.riley_polynomial(knot.presentation.bridge_word)
            sols = api.su2_solutions(phi, theta, tol.relation,
                                     multiplicity_threshold=tol.multiplicity)
        except Exception as exc:  # a raised error is a counted failure
            return i + 1, type(exc).__name__
        if i >= len(sols.roots):
            return len(sols.roots), None
        try:
            rep = api.build_rep(knot.presentation, cmath.exp(1j * theta), sols.roots[i],
                                sqrt_s=cmath.exp(0.5j * theta), tol=tol.relation)
            return len(sols.roots), api.compute_torsion(rep, tol)
        except Exception as exc:  # a rejected point or raised error is a counted failure
            return len(sols.roots), type(exc).__name__

    def run(self, api, cli, op):
        k, theta = op
        knot = self.knots[k]
        dihedral = theta == math.pi
        outcomes = []
        i, count = 0, 1
        while i < count:
            start = _clock()
            count, result = self._point(api, knot, theta, i)
            seconds = _clock() - start
            if result is None:
                break
            if isinstance(result, str):
                outcomes.append(Outcome(knot.name, seconds, reason=result))
            else:
                outcomes.append(self._checked(knot, result, seconds, dihedral))
            i += 1
        if dihedral:
            outcomes = outcomes or [Outcome(knot.name, 0.0, reason="no_roots_at_pi")]
            outcomes[0].expected = knot.dihedral
        return outcomes

    def _checked(self, knot, result, seconds, dihedral) -> Outcome:
        value = result.value
        outcome = Outcome(knot.name, seconds)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            outcome.reason = "non_finite"
        elif result.diagnostics["consistency_ok"] is False:
            outcome.reason = "consistency"
        elif abs(value.imag) > self.tol.consistency * max(1.0, abs(value.real)):
            raise WrongResult(f"{knot.name}: torsion {value} is not real on the SU(2) locus")
        else:
            outcome.found = int(dihedral)
        return outcome

    def metrics(self, outcomes, clock):
        m = _common_metrics(outcomes, clock)
        by_knot: dict[str, list[float]] = {k.name: [] for k in self.knots}
        for o in outcomes:
            if o.ok:
                by_knot[o.knot].append(getattr(o, clock))
        for key, q in (("p50", 0.5), ("p90", 0.9)):
            per_knot = [_quantile(times, q) for times in by_knot.values()]
            m[key] = (math.exp(statistics.fmean(math.log(t) for t in per_knot))
                      if all(map(math.isfinite, per_knot)) else math.inf)
        return m

    def wall_names(self, wall):
        return super().wall_names(wall) | {
            "point_ms": (1e3 * wall["p50"], "ms"),
            "point_p90_ms": (1e3 * wall["p90"], "ms"),
        }


WORKLOADS = {w.name: w for w in (SweepFiveTwo, CriticalFamily, PointsFamily)}
