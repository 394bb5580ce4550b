"""Per-layer tracing of diffeo1d from outside the package.

``Tracer.install()`` replaces public functions and methods of the diffeo1d
modules with timing wrappers and ``uninstall()`` puts the originals back.
Names that other modules import by name (``flow``, ``transit_time``,
``cr_distance``, ``field_norm`` and scipy's ``quad``, ``solve_ivp`` and
``brentq``) are rebound in every module that holds them; wrapping only the
defining module would miss most calls.

Stage-level calls (calibration, flattening, synthesis, certificates, the
benchmark's own operations) get one span each with a name, start, end and
parent.  Hot leaf calls (jets, field nodes, quadrature integrands) are only
aggregated: a count and a self time per name.  Self time is a call's
duration minus the time covered by wrapped calls made inside it.
"""

from __future__ import annotations

import inspect
import sys
import time
import warnings
from collections import defaultdict

import scipy.integrate
import scipy.optimize

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "jets.calls": "count",
    "jets.self_s": "s",
    "fields.eval_jet_calls": "count",
    "fields.value_calls": "count",
    "fields.self_s": "s",
    "fields.field_norm_nodes": "count",
    "fields.field_norm_s": "s",
    "diffeos.flow_calls.r0": "count",
    "diffeos.flow_calls.rk": "count",
    "diffeos.solve_ivp_calls": "count",
    "diffeos.rhs_evals": "count",
    "diffeos.rhs_per_solve": "count",
    "diffeos.flow_self_s": "s",
    "diffeos.transit_calls": "count",
    "diffeos.transit_s": "s",
    "quad.calls": "count",
    "quad.integrand_evals": "count",
    "quad.self_s": "s",
    "quad.warnings": "count",
    "brentq.calls": "count",
    "brentq.fevals": "count",
    "metrics.cr_distance_calls": "count",
    "metrics.cr_distance_nodes": "count",
    "metrics.cr_distance_s": "s",
    "metrics.var_s": "s",
    "metrics.liouville_s": "s",
    "grid.sample_s": "s",
    "conjugacy.synthesize_s": "s",
    "conjugacy.residuals_s": "s",
    "reduce.calibrate_s": "s",
    "reduce.flatten_s": "s",
    "reduce.interpolate_s": "s",
    "reduce.reduce_s.quartic": "s",
    "reduce.reduce_s.flat_ends": "s",
    "distortion.certificate_s": "s",
    "distortion.word_evals": "count",
    "cli.load_scene_s": "s",
    "cli.main_s.var": "s",
    "cli.main_s.liouville": "s",
    "cli.main_s.asymvar": "s",
    "cli.main_s.eval": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead": "ratio",
}


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Wraps diffeo1d's layers while installed; spans and aggregates stay
    in memory until :meth:`metrics` and :meth:`dump` read them."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(float)
        self.spans = []
        self._time = [0.0]      # per open call: time covered by its children
        self._open = []         # indices of open spans
        self._undo = []
        self._origin = time.perf_counter()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, span=False, after=None):
        """Wrapper that adds a call's duration and self time to ``name``;
        ``after(args, kwargs, result)`` updates counters."""
        clock = time.perf_counter
        stack = self._time
        stat = self.stats[name]
        spans, opened = self.spans, self._open
        origin = self._origin

        def wrapper(*args, **kwargs):
            if span:
                rec = {"name": name, "start": clock() - origin,
                       "parent": opened[-1] if opened else None}
                opened.append(len(spans))
                spans.append(rec)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                covered = stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.total += dt
                stat.self += dt - covered
                if span:
                    opened.pop()
                    rec["end"] = rec["start"] + dt
                    rec["self_s"] = dt - covered
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def span(self, name, fn):
        """Run ``fn()`` inside a named span (the benchmark's operations)."""
        return self._timed(name, fn, span=True)()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace every module-level binding of ``original`` in diffeo1d."""
        for mod in self._modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapper)

    # -- installation ------------------------------------------------------

    def install(self):
        from diffeo1d import (cli, conjugacy, diffeos, distortion, fields,
                              grid, jets, metrics, reduce)

        self._modules = [m for n, m in sys.modules.items()
                         if n == "diffeo1d" or n.startswith("diffeo1d.")]
        counts = self.counts

        # jets: every public jet_* function, wherever it is bound
        for name, fn in list(vars(jets).items()):
            if name.startswith("jet_") and inspect.isfunction(fn):
                self._rebind(fn, self._timed(f"jets.{name}", fn))

        # fields: eval_jet and scalar __call__ of every node class,
        # including the private ones other modules define
        classes = {cls for mod in self._modules for cls in vars(mod).values()
                   if inspect.isclass(cls)
                   and issubclass(cls, fields.VectorField1D)}
        for cls in classes:
            for meth, kind in (("eval_jet", "eval_jet"), ("__call__", "value")):
                if meth in cls.__dict__:
                    self._set(cls, meth, self._timed(
                        f"fields.{kind}.{cls.__name__}", cls.__dict__[meth]))

        def norm_nodes(args, kwargs, _):
            grid_arg = args[2] if len(args) > 2 else kwargs.get("grid")
            # None means field_norm's default grid of 513 nodes
            counts["fields.field_norm_nodes"] += (
                513 if grid_arg is None else len(grid_arg))

        self._rebind(fields.field_norm, self._timed(
            "fields.field_norm", fields.field_norm, after=norm_nodes))

        # diffeos: flows by order, transit times, the scipy integrators
        def flow_order(args, kwargs, _):
            r = args[3] if len(args) > 3 else kwargs.get("r", 0)
            counts["diffeos.flow_calls.r0" if r == 0
                   else "diffeos.flow_calls.rk"] += 1

        self._rebind(diffeos.flow, self._timed(
            "diffeos.flow", diffeos.flow, after=flow_order))
        self._rebind(diffeos.transit_time, self._timed(
            "diffeos.transit_time", diffeos.transit_time))

        solve_ivp = scipy.integrate.solve_ivp

        def counted_solve_ivp(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            counts["diffeos.solve_ivp_calls"] += 1
            counts["diffeos.rhs_evals"] += sol.nfev
            return sol

        self._rebind(solve_ivp, counted_solve_ivp)

        quad = scipy.integrate.quad

        def integrand_counter(fn):
            def counted(*a):
                counts["quad.integrand_evals"] += 1
                return fn(*a)
            return counted

        def traced_quad(func, *args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = quad(integrand_counter(func), *args, **kwargs)
            counts["quad.warnings"] += sum(
                issubclass(w.category, scipy.integrate.IntegrationWarning)
                for w in caught)
            return out

        self._rebind(quad, self._timed("quad", traced_quad))

        brentq = scipy.optimize.brentq

        def counted_brentq(f, *args, **kwargs):
            def g(*a):
                counts["brentq.fevals"] += 1
                return f(*a)
            counts["brentq.calls"] += 1
            return brentq(g, *args, **kwargs)

        self._rebind(brentq, counted_brentq)

        # grid and metrics: cr_distance nodes are the grids it asks for
        depth = [0]
        nodes = grid.GridSpec.nodes

        def counted_nodes(spec):
            xs = nodes(spec)
            if depth[0]:
                counts["metrics.cr_distance_nodes"] += len(xs)
            return xs

        self._set(grid.GridSpec, "nodes", counted_nodes)
        cr = self._timed("metrics.cr_distance", metrics.cr_distance)

        def cr_distance(*args, **kwargs):
            depth[0] += 1
            try:
                return cr(*args, **kwargs)
            finally:
                depth[0] -= 1

        self._rebind(metrics.cr_distance, cr_distance)
        for fn in (metrics.var_log_derivative, metrics.liouville_length):
            self._rebind(fn, self._timed(f"metrics.{fn.__name__}", fn))
        self._set(grid.GridFunction, "sample", staticmethod(self._timed(
            "grid.sample", grid.GridFunction.sample)))

        # stage-level calls get spans
        for mod, name in ((conjugacy, "synthesize_conjugacy"),
                          (conjugacy, "conjugacy_residuals"),
                          (reduce, "calibrate_flow_eta"),
                          (reduce, "flatten_field"),
                          (reduce, "interpolate_ITI"),
                          (distortion, "build_interval_certificate"),
                          (cli, "load_scene")):
            fn = getattr(mod, name)
            self._rebind(fn, self._timed(f"{mod.__name__[9:]}.{name}", fn,
                                         span=True))

        # word maps count their evaluations
        word_to_diffeo = distortion.word_to_diffeo
        evaluate = self._timed("distortion.word_eval", lambda m, x, r:
                               type(m).eval_jet(m, x, r))

        def counted_word(*args, **kwargs):
            word = word_to_diffeo(*args, **kwargs)
            word.eval_jet = lambda x, r: evaluate(word, x, r)
            return word

        self._rebind(word_to_diffeo, counted_word)

        def report_size(args, kwargs, _):
            out_dir, name = args[0], args[1]
            counts["cli.report_bytes"] += (out_dir / f"{name}.json").stat().st_size

        self._rebind(cli._write_report, self._timed(
            "cli.write_report", cli._write_report, after=report_size))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def _sum(self, prefix, field):
        return sum(getattr(s, field) for n, s in self.stats.items()
                   if n.startswith(prefix))

    def metrics(self, overhead: float) -> dict:
        st, c = self.stats, self.counts
        solves = c["diffeos.solve_ivp_calls"]
        values = {
            "jets.calls": self._sum("jets.", "calls"),
            "jets.self_s": self._sum("jets.", "self"),
            "fields.eval_jet_calls": self._sum("fields.eval_jet.", "calls"),
            "fields.value_calls": self._sum("fields.value.", "calls"),
            "fields.self_s": (self._sum("fields.eval_jet.", "self")
                              + self._sum("fields.value.", "self")),
            "fields.field_norm_nodes": c["fields.field_norm_nodes"],
            "fields.field_norm_s": st["fields.field_norm"].total,
            "diffeos.flow_calls.r0": c["diffeos.flow_calls.r0"],
            "diffeos.flow_calls.rk": c["diffeos.flow_calls.rk"],
            "diffeos.solve_ivp_calls": solves,
            "diffeos.rhs_evals": c["diffeos.rhs_evals"],
            "diffeos.rhs_per_solve": (c["diffeos.rhs_evals"] / solves
                                      if solves else 0.0),
            "diffeos.flow_self_s": st["diffeos.flow"].self,
            "diffeos.transit_calls": st["diffeos.transit_time"].calls,
            "diffeos.transit_s": st["diffeos.transit_time"].total,
            "quad.calls": st["quad"].calls,
            "quad.integrand_evals": c["quad.integrand_evals"],
            "quad.self_s": st["quad"].self,
            "quad.warnings": c["quad.warnings"],
            "brentq.calls": c["brentq.calls"],
            "brentq.fevals": c["brentq.fevals"],
            "metrics.cr_distance_calls": st["metrics.cr_distance"].calls,
            "metrics.cr_distance_nodes": c["metrics.cr_distance_nodes"],
            "metrics.cr_distance_s": st["metrics.cr_distance"].total,
            "metrics.var_s": st["metrics.var_log_derivative"].total,
            "metrics.liouville_s": st["metrics.liouville_length"].total,
            "grid.sample_s": st["grid.sample"].total,
            "conjugacy.synthesize_s":
                st["conjugacy.synthesize_conjugacy"].total,
            "conjugacy.residuals_s": st["conjugacy.conjugacy_residuals"].total,
            "reduce.calibrate_s": st["reduce.calibrate_flow_eta"].total,
            "reduce.flatten_s": st["reduce.flatten_field"].total,
            "reduce.interpolate_s": st["reduce.interpolate_ITI"].total,
            "distortion.certificate_s":
                st["distortion.build_interval_certificate"].total,
            "distortion.word_evals": st["distortion.word_eval"].calls,
            "cli.load_scene_s": st["cli.load_scene"].total,
            "cli.report_bytes": c["cli.report_bytes"],
            "trace.overhead": overhead,
        }
        # the benchmark's operations are spans named after their metric
        for name in LAYER_METRICS:
            if name.startswith(("reduce.reduce_s.", "cli.main_s.")):
                values[name] = st[name].total
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in LAYER_METRICS.items()}

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": {n: {"calls": s.calls, "total_s": s.total,
                               "self_s": s.self}
                           for n, s in sorted(self.stats.items()) if s.calls},
            "counts": dict(sorted(self.counts.items())),
        }
