"""Bench-side spans around the package's layer boundaries.

A layer is named ``<module>.<function>`` after the module that defines it
today.  The function object is looked up by name across every loaded
``adtorsion.*`` module, and every module attribute holding that object is
rebound to the wrapper, so spans keep working when code moves between
modules.  Spans stay in memory until the run ends; self time is computed
from their nesting afterwards.
"""

from __future__ import annotations

import functools
import inspect
import sys

from refclock import clock as _clock

# (metric prefix, dotted attribute path looked up across adtorsion modules)
LAYERS = (
    ("reps.riley_polynomial", "riley_polynomial"),
    ("reps.su2_solutions", "su2_solutions"),
    ("reps.su2_root_count_thresholds", "su2_root_count_thresholds"),
    ("reps.build_rep", "build_rep"),
    ("torsion.compute_torsion", "compute_torsion"),
    ("torsion.homology_torsion", "homology_torsion"),
    ("torsion.torsion_via_limit", "torsion_via_limit"),
    ("torsion.phi_of", "phi_of"),
    ("foxcalc.fox_derivative", "fox_derivative"),
    ("laurent.determinant", "LaurentMatrix.determinant"),
    ("laurent.divide_out_simple_roots", "divide_out_simple_roots"),
    ("cli.find_critical_points", "find_critical_points"),
    ("cli.sweep_rows", "sweep_rows"),
    ("cli.auto_theta_range", "auto_theta_range"),
)


class LayerLookupError(LookupError):
    """A layer's function could not be found, or was found twice."""


def package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "adtorsion" or name.startswith("adtorsion."))
    ]


def find_object(path: str):
    """The single object named ``path`` (``name`` or ``Class.attr``) that the
    loaded adtorsion modules hold; its owner for a method."""
    head, _, attr = path.partition(".")
    found = {}
    for mod in package_modules():
        obj = vars(mod).get(head)
        if obj is not None and getattr(obj, "__name__", None) == head:
            found[id(obj)] = obj
    if len(found) != 1:
        raise LayerLookupError(f"{len(found)} objects named {head!r} in adtorsion modules")
    (obj,) = found.values()
    if not attr:
        return None, obj
    if not inspect.isclass(obj) or attr not in vars(obj):
        raise LayerLookupError(f"{head!r} has no method {attr!r}")
    return obj, vars(obj)[attr]


class Tracer:
    """Spans ``[layer, start, end, parent, op, error]`` for one traced run.

    ``op`` is the bench operation the span belongs to, so spans of one
    request share an identifier; ``error`` is the exception type a call
    raised, or None.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, layer: str, fn):
        spans = self.spans
        stack = self._stack
        clock = _clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1, self.op, None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                spans[index][5] = type(exc).__name__
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> None:
        """Rebind every layer function in every loaded adtorsion module."""
        for layer, path in LAYERS:
            owner, fn = find_object(path)
            wrapper = self._wrap(layer, fn)
            if owner is not None:
                self._restore.append((owner, path.split(".")[1], fn))
                setattr(owner, path.split(".")[1], wrapper)
                continue
            for mod in package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_stats(self) -> tuple[dict[str, dict], int]:
        """Per layer: calls, errors and self time; plus the evaluated-point count.

        Self time is a span's duration minus the durations of its direct
        children; an evaluated point is a ``compute_torsion`` span, or a
        ``torsion_via_limit`` span with no ``compute_torsion`` ancestor.
        """
        stats = {layer: {"calls": 0, "errors": 0, "self_s": 0.0} for layer, _ in LAYERS}
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _op, _err in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        in_compute = [False] * len(self.spans)
        points = 0
        for i, (layer, start, end, parent, _op, err) in enumerate(self.spans):
            entry = stats[layer]
            entry["calls"] += 1
            entry["errors"] += err is not None
            entry["self_s"] += (end - start) - child_time[i]
            inherited = parent >= 0 and in_compute[parent]
            in_compute[i] = inherited or layer == "torsion.compute_torsion"
            if layer == "torsion.compute_torsion" or (
                layer == "torsion.torsion_via_limit" and not inherited
            ):
                points += 1
        return stats, points
