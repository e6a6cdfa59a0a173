"""Outside-in layer trace for the ttiga benchmark.

The trace wraps the public functions of each ttiga layer from outside the
program: while a :class:`Tracer` is installed, every module attribute in
``ttiga.*`` that refers to one of the wrapped functions is replaced by a
timing wrapper, and the original is put back on exit. Nothing inside
``src/`` is changed, so untraced passes run the program exactly as shipped.

Spans (name, start, end, parent) are kept in memory and written out once at
the end. A call is recorded only if no span of the same name is already
open, so each span name measures the outermost calls of its function group
(``GridEvaluator.metric`` calling ``jacobians`` counts once).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span names, grouped by the ttiga layer they belong to
GEOMETRY_EVAL = "geometry.eval"
SPLINES = "splines.tabulate"
CROSS = "tensor_train.cross"
ROUND = "tensor_train.round"
AMEN = "tensor_train.amen"
AMEN_GLOBAL = "tensor_train.amen_global"
QUADRATURE = "assembly.quadrature"
STIFFNESS = "assembly.stiffness"
LOAD = "assembly.load"
DIRICHLET = "assembly.dirichlet"
SOLVE = "driver.solve"
ERROR = "driver.error"

# per-layer metric name -> unit, better; the order is the report order
LAYER_METRICS = {
    "geometry.eval_s": ("s", "lower"),
    "geometry.points": ("count", "lower"),
    "geometry.us_per_point": ("us", "lower"),
    "splines.tabulate_s": ("s", "lower"),
    "splines.calls": ("count", "lower"),
    "tensor_train.cross_s": ("s", "lower"),
    "tensor_train.cross_calls": ("count", "lower"),
    "tensor_train.cross_evals": ("count", "lower"),
    "tensor_train.cross_sweeps": ("count", "lower"),
    "tensor_train.cross_rank_max": ("rank", "lower"),
    "tensor_train.cross_evals_per_param": ("ratio", "lower"),
    "tensor_train.cross_unconverged": ("count", "lower"),
    "tensor_train.round_s": ("s", "lower"),
    "tensor_train.round_calls": ("count", "lower"),
    "tensor_train.amen_s": ("s", "lower"),
    "tensor_train.amen_sweeps": ("count", "lower"),
    "tensor_train.amen_rank_max": ("rank", "lower"),
    "tensor_train.amen_residual": ("rel", "lower"),
    "tensor_train.amen_global_s": ("s", "lower"),
    "tensor_train.amen_global_calls": ("count", "lower"),
    "tensor_train.amen_local_s": ("s", "lower"),
    "assembly.quadrature_s": ("s", "lower"),
    "assembly.stiffness_s": ("s", "lower"),
    "assembly.load_s": ("s", "lower"),
    "assembly.dirichlet_s": ("s", "lower"),
    "assembly.stiffness_rank_max": ("rank", "lower"),
    "assembly.load_rank_max": ("rank", "lower"),
    "driver.error_s": ("s", "lower"),
    "driver.self_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager around the calls to trace; counters collected
    from the wrapped calls' results live in :attr:`counters`.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []
        self._open = {}
        self._saved = []

    # -- recording ---------------------------------------------------------

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name, fn, on_result=None):
        """Timing wrapper for ``fn``; ``on_result(args, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open.get(name):
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            self._open[name] = True
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self._open[name] = False
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, fn, new):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "ttiga" or mod_name.startswith("ttiga."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, new)

    def __enter__(self):
        from ttiga import assembly, driver, geometry, splines
        from ttiga.tensor_train import amen, core, cross

        def on_points(args, result):
            self.count("points", len(args[1]))

        for meth in ("jacobians", "metric"):
            orig = getattr(geometry.GridEvaluator, meth)
            self._replace(
                geometry.GridEvaluator, meth, self.wrap(GEOMETRY_EVAL, orig, on_points)
            )

        def on_cross(args, res):
            self.count("cross_calls")
            self.count("cross_evals", res.n_evals)
            self.count("cross_sweeps", res.sweeps)
            self.count("cross_params", res.tensor.n_params)
            self.count("cross_unconverged", int(not res.converged))
            self.peak("cross_rank_max", max(res.ranks))

        def on_amen(args, res):
            self.count("amen_sweeps", res.sweeps)
            self.peak("amen_rank_max", max(res.ranks))
            self.peak("amen_residual", res.residual)

        def on_stiffness(args, res):
            self.peak("stiffness_rank_max", max(res[0].ranks))

        def on_load(args, res):
            self.peak("load_rank_max", max(res[0].ranks))

        groups = [
            (SPLINES, splines.eval_basis, None),
            (SPLINES, splines.tabulate, None),
            (CROSS, cross.tt_cross, on_cross),
            (ROUND, core.tt_round, None),
            (AMEN, amen.amen_solve, on_amen),
            (QUADRATURE, assembly.build_quadrature, None),
            (STIFFNESS, assembly.assemble_stiffness, on_stiffness),
            (LOAD, assembly.assemble_load, on_load),
            (DIRICHLET, assembly.apply_dirichlet, None),
            (SOLVE, driver.solve_poisson, None),
            (ERROR, driver.l2_error, None),
            (ERROR, driver.evaluate_field, None),
        ]
        for name, fn, hook in groups:
            self._replace_everywhere(fn, self.wrap(name, fn, hook))
        # the global TT operations as AMEn calls them (its exact residuals,
        # enrichment and final cleaning), on top of the rounding wrapper
        for attr in ("tt_matvec", "tt_sub", "tt_norm", "tt_round"):
            self._replace(amen, attr, self.wrap(AMEN_GLOBAL, getattr(amen, attr)))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
        return False

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time its children cover.

        Children of one span are sequential (one thread), so their covered
        interval is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def totals(self):
        """Summed duration and call count per span name."""
        dur, calls = {}, {}
        for name, start, end, _ in self.spans:
            dur[name] = dur.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        return dur, calls

    def layer_metrics(self):
        """Per-layer metrics of everything recorded (without trace_overhead)."""
        dur, calls = self.totals()
        c = self.counters
        selfs = self.self_times()
        driver_self = sum(
            t for s, t in zip(self.spans, selfs) if s[0] == SOLVE
        )
        points = c.get("points", 0)
        eval_s = dur.get(GEOMETRY_EVAL, 0.0)
        return {
            "geometry.eval_s": eval_s,
            "geometry.points": points,
            "geometry.us_per_point": 1e6 * eval_s / points if points else 0.0,
            "splines.tabulate_s": dur.get(SPLINES, 0.0),
            "splines.calls": calls.get(SPLINES, 0),
            "tensor_train.cross_s": dur.get(CROSS, 0.0),
            "tensor_train.cross_calls": c.get("cross_calls", 0),
            "tensor_train.cross_evals": c.get("cross_evals", 0),
            "tensor_train.cross_sweeps": c.get("cross_sweeps", 0),
            "tensor_train.cross_rank_max": c.get("cross_rank_max", 0),
            "tensor_train.cross_evals_per_param": (
                c["cross_evals"] / c["cross_params"] if c.get("cross_params") else 0.0
            ),
            "tensor_train.cross_unconverged": c.get("cross_unconverged", 0),
            "tensor_train.round_s": dur.get(ROUND, 0.0),
            "tensor_train.round_calls": calls.get(ROUND, 0),
            "tensor_train.amen_s": dur.get(AMEN, 0.0),
            "tensor_train.amen_sweeps": c.get("amen_sweeps", 0),
            "tensor_train.amen_rank_max": c.get("amen_rank_max", 0),
            "tensor_train.amen_residual": c.get("amen_residual", 0.0),
            "tensor_train.amen_global_s": dur.get(AMEN_GLOBAL, 0.0),
            "tensor_train.amen_global_calls": calls.get(AMEN_GLOBAL, 0),
            "tensor_train.amen_local_s": (
                dur.get(AMEN, 0.0) - dur.get(AMEN_GLOBAL, 0.0)
            ),
            "assembly.quadrature_s": dur.get(QUADRATURE, 0.0),
            "assembly.stiffness_s": dur.get(STIFFNESS, 0.0),
            "assembly.load_s": dur.get(LOAD, 0.0),
            "assembly.dirichlet_s": dur.get(DIRICHLET, 0.0),
            "assembly.stiffness_rank_max": c.get("stiffness_rank_max", 0),
            "assembly.load_rank_max": c.get("load_rank_max", 0),
            "driver.error_s": dur.get(ERROR, 0.0),
            "driver.self_s": driver_self,
        }

    def write(self, path, t_origin=0.0, index=0):
        """Append every span as one JSON line, with its self time; ``index``
        tells the traced passes of one run apart."""
        with open(path, "a") as fh:
            for i, ((name, start, end, parent), own) in enumerate(
                zip(self.spans, self.self_times())
            ):
                fh.write(json.dumps({
                    "pass": index, "id": i, "name": name,
                    "start": start - t_origin, "end": end - t_origin,
                    "parent": parent, "self": own,
                }) + "\n")
