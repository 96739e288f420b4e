"""Spans around horolab's public entry points, installed from outside.

A wrapper replaces each traced function on every horolab module that binds
it (``from .measures import build_patterson`` in ``checks``, ``cli``,
``averages`` and the package ``__init__`` each make their own binding), and
each traced method on the class that defines it. Every call then records a
span: name, start, end and parent. Spans stay in memory; ``run.py`` writes
them out when the run ends.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

EVALUATE = "averages.evaluate"

# (module, attribute, span name) for module-level functions
FUNCTIONS = (
    ("horolab.groups", "critical_exponent", "groups.critical_exponent"),
    ("horolab.measures", "build_patterson", "measures.build_patterson"),
    ("horolab.measures", "conditional_on_horocycle", "measures.conditional"),
    ("horolab.measures", "quadrature_report", None),  # cold or warm, see _quadrature_name
    ("horolab.measures", "br_integral", "measures.br_integral"),
    ("horolab.measures", "conformality_defect", "measures.conformality_defect"),
    ("horolab.averages", "average_ps", "averages.average_ps"),
    ("horolab.averages", "average_lebesgue", "averages.average_lebesgue"),
    ("horolab.averages", "mass_in_compact", "averages.mass_in_compact"),
    ("horolab.averages", "mixing_series", "averages.mixing_series"),
    ("horolab.averages", "periodic_closure", "averages.periodic_closure"),
    ("horolab.averages", "ratio_series", "averages.ratio_series"),
    ("horolab.checks", "run_all", "checks.run_all"),
    ("horolab.cli", "main", "cli.main"),
    ("horolab.io", "atomic_write_text", "io.write"),
)

# (module, class, method, span name) for methods, wrapped on the class
METHODS = (
    ("horolab.groups", "FuchsianGroup", "reduce_frames", "groups.reduce_frames"),
    ("horolab.averages", "TestFunction", "evaluate_points", EVALUATE),
    ("horolab.averages", "ConstantFunction", "evaluate_points", EVALUATE),
    ("horolab.averages", "CuspHeightCap", "evaluate_points", EVALUATE),
    ("horolab.averages", "WeightedFunction", "evaluate_points", EVALUATE),
)

# spans whose self time is spent enumerating group words
ENUMERATING = ("groups.critical_exponent", "measures.build_patterson")

CRITERIA = (
    "busemann-oracle",
    "leaf-parameter-distance",
    "flow-conjugation",
    "flow-commutation",
    "parabolic-exponent",
    "ball-scaling",
    "conformality-trend",
    "equidistribution-trend",
    "ratio-limit",
    "mixing-approach",
    "thick-part-mass",
    "periodic-closure",
)

# per-layer metric -> the span whose self time it sums
SELF_TIMES = {
    "groups.critical_exponent_s": "groups.critical_exponent",
    "groups.reduce_frames_s": "groups.reduce_frames",
    "measures.build_patterson_s": "measures.build_patterson",
    "measures.conditional_s": "measures.conditional",
    "measures.quadrature_cold_s": "measures.quadrature_cold",
    "measures.quadrature_warm_s": "measures.quadrature_warm",
    "measures.br_integral_s": "measures.br_integral",
    "measures.conformality_defect_s": "measures.conformality_defect",
    "averages.evaluate_s": EVALUATE,
    "averages.average_ps_s": "averages.average_ps",
    "averages.average_lebesgue_s": "averages.average_lebesgue",
    "averages.mass_in_compact_s": "averages.mass_in_compact",
    "averages.mixing_series_s": "averages.mixing_series",
    "averages.periodic_closure_s": "averages.periodic_closure",
    "averages.ratio_series_s": "averages.ratio_series",
    "checks.run_all_s": "checks.run_all",
    "cli.main_s": "cli.main",
    "io.write_s": "io.write",
}

COUNTS = (
    "groups.reduce_frames_calls",
    "groups.frames_reduced",
    "groups.words_materialized",
    "groups.words_kept",
    "measures.atoms",
    "measures.quadrature_cells",
    "averages.points_evaluated",
    "io.bytes_written",
)

RATES = {
    # rate metric: (count, self-time spans it is divided by)
    "groups.frames_per_s": ("groups.frames_reduced", ("groups.reduce_frames",)),
    "groups.words_per_s": ("groups.words_materialized", ENUMERATING),
    "averages.points_per_s": ("averages.points_evaluated", (EVALUATE,)),
}


def metric_units() -> dict:
    """Every per-layer metric this module can emit, with its unit."""
    units = {name: "s" for name in SELF_TIMES}
    units.update({"checks.%s_s" % c: "s" for c in CRITERIA})
    units.update({name: "count" for name in COUNTS})
    units["io.bytes_written"] = "B"
    units.update({name: "1/s" for name in RATES})
    units["groups.keep_ratio"] = "ratio"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Records spans for the ops run between ``begin_op`` and ``end_op``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._op_span = -1
        self._counts: dict[str, float] = {}
        self._seen_measures: list = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _parent_name(self) -> str:
        return self.names[self.spans[self._stack[-1]][0]] if self._stack else ""

    def _count(self, key: str, n) -> None:
        self._counts[key] = self._counts.get(key, 0) + n

    # --------------------------------------------------------- wrappers

    def _wrapper(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _quadrature_name(self, args, kwargs):
        # the first quadrature on a measure within an op builds its pair
        # field; later calls reuse it. Known from call order alone.
        measure = args[1] if len(args) > 1 else kwargs["measure"]
        if any(m is measure for m in self._seen_measures):
            return "measures.quadrature_warm"
        self._seen_measures.append(measure)
        return "measures.quadrature_cold"

    def _after_hooks(self):
        def critical_exponent(args, kwargs, fit):
            if args[0].rank >= 2:  # rank one counts in closed form
                self._count("groups.words_kept", int(fit.counts[-1]))

        def build_patterson(args, kwargs, measure):
            self._count("measures.atoms", len(measure))
            self._count("groups.words_kept", len(measure))

        def quadrature(args, kwargs, report):
            self._count("measures.quadrature_cells", report[1])

        def reduce_frames(args, kwargs, frames):
            self._count("groups.reduce_frames_calls", 1)
            self._count("groups.frames_reduced", len(frames))

        def evaluate(args, kwargs, values):
            # a weighted function evaluates its inner function on the same points
            if self._parent_name() != EVALUATE:
                self._count("averages.points_evaluated", int(np.size(args[1])))

        def write(args, kwargs, result):
            text = args[1] if len(args) > 1 else kwargs["text"]
            self._count("io.bytes_written", len(text.encode("utf-8")))

        return {
            "critical_exponent": critical_exponent,
            "build_patterson": build_patterson,
            "quadrature_report": quadrature,
            "reduce_frames": reduce_frames,
            "evaluate_points": evaluate,
            "atomic_write_text": write,
        }

    def install(self) -> None:
        """Wrap every traced entry point on every module that binds it."""
        hooks = self._after_hooks()
        modules = [m for k, m in sys.modules.items() if k == "horolab" or k.startswith("horolab.")]
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrapper(original, span or self._quadrature_name, hooks.get(attr))
            bound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))
                        bound += 1
            if not bound:
                raise RuntimeError("no binding of %s.%s found" % (modname, attr))
        for modname, clsname, attr, span in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrapper(original, span, hooks.get(attr)))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # --------------------------------------------------------------- ops

    def begin_op(self) -> None:
        self._counts = {}
        self._seen_measures = []
        self._op_span = self._open("op")

    def end_op(self, words: int, extra: dict) -> dict:
        """Close the op span and return this op's per-layer metrics."""
        self._close(self._op_span)
        first = self._op_span
        self._seen_measures = []
        op_duration = self.spans[first][2] - self.spans[first][1]
        durations: dict[str, float] = {}
        child_time: dict[int, float] = {}
        for idx in range(len(self.spans) - 1, first, -1):
            nid, start, end, parent = self.spans[idx]
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for idx in range(first + 1, len(self.spans)):
            nid, start, end, parent = self.spans[idx]
            name = self.names[nid]
            durations[name] = durations.get(name, 0.0) + (end - start) - child_time.get(idx, 0.0)
        counts = dict(self._counts)
        counts["groups.words_materialized"] = words
        out = {metric: durations.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        out.update({"checks.%s_s" % c: 0.0 for c in CRITERIA})
        out.update(extra)
        out.update({name: float(counts.get(name, 0)) for name in COUNTS})
        for metric, (count, spans) in RATES.items():
            busy = sum(durations.get(s, 0.0) for s in spans)
            out[metric] = counts.get(count, 0) / busy if busy > 0 else 0.0
        out["groups.keep_ratio"] = counts.get("groups.words_kept", 0) / words if words else 0.0
        out["trace.coverage"] = child_time.get(first, 0.0) / op_duration
        return out
