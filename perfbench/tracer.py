"""Span tracer installed from outside the qcorr package.

Wraps qcorr's public functions, ``DensityMatrix.__init__``, the numpy
eigensolver kernels and ``scipy.optimize.minimize`` with timing wrappers.
Spans (name, start, end, parent span, unit id) are kept in memory in
compact arrays and written out when the run ends; per-stage counters are
kept at the same boundaries. Stage names have the form
``<module>.<function>``.

The qcorr modules import each other by name (``from .qstate import
partial_trace``), so every module attribute that holds a wrapped function
is rebound, not just the defining one. ``uninstall`` restores every
attribute it changed.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# qcorr functions traced as spans, by defining module. A stage name is the
# defining module plus the function name, wherever the call comes from.
QCORR_FUNCTIONS = {
    "qstate": ("partial_trace", "von_neumann_entropy", "haar_random_pure",
               "relative_entropy"),
    "bipartite": ("concurrence", "koashi_winter_classical",
                  "koashi_winter_discord", "classical_correlation_directional",
                  "discord_directional", "symmetrized_classical",
                  "symmetrized_discord", "mutual_information"),
    "tripartite": ("correlation_report", "genuine_total_via_relative_entropy",
                   "min_double_conditional_entropy", "total_classical_mixed",
                   "canonical_ordering", "three_tangle", "sweep_families",
                   "find_discord_crossover", "total_discord_pure"),
    "verify": ("run_suite", "evaluate_sample", "oracle_crosscheck"),
    "cli": ("main",),
}
LINALG_FUNCTIONS = ("eigvalsh", "eigh", "svd", "det")
BATCHED_LINALG = ("linalg.eigvalsh", "linalg.eigh", "linalg.svd")

# Stage groups behind the per-layer metrics; members of a group are summed.
GROUPS = {
    "bipartite.koashi_winter": ("bipartite.koashi_winter_classical",
                                "bipartite.koashi_winter_discord"),
    "bipartite.directional": ("bipartite.classical_correlation_directional",
                              "bipartite.discord_directional",
                              "bipartite.symmetrized_classical",
                              "bipartite.symmetrized_discord"),
    "linalg": tuple(f"linalg.{f}" for f in LINALG_FUNCTIONS),
}

# Per-layer metrics in the order they are reported: (name, unit, better).
# Counts and times are per unit of the workload (workloads.UNITS_PER_CALL).
PER_LAYER = (
    ("linalg.eigvalsh.calls", "count", "lower"),
    ("linalg.eigh.calls", "count", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.det.calls", "count", "lower"),
    ("linalg.matrices_per_call", "count", "higher"),
    ("linalg.self_ms", "ms", "lower"),
    ("qstate.DensityMatrix.inits", "count", "lower"),
    ("qstate.DensityMatrix.self_ms", "ms", "lower"),
    ("qstate.partial_trace.calls", "count", "lower"),
    ("qstate.partial_trace.self_ms", "ms", "lower"),
    ("qstate.von_neumann_entropy.calls", "count", "lower"),
    ("qstate.von_neumann_entropy.self_ms", "ms", "lower"),
    ("qstate.haar_random_pure.self_ms", "ms", "lower"),
    ("qstate.relative_entropy.self_ms", "ms", "lower"),
    ("tripartite.genuine_total_via_relative_entropy.self_ms", "ms", "lower"),
    ("bipartite.concurrence.calls", "count", "lower"),
    ("bipartite.concurrence.self_ms", "ms", "lower"),
    ("bipartite.koashi_winter.calls", "count", "lower"),
    ("bipartite.koashi_winter.self_ms", "ms", "lower"),
    ("bipartite.directional.calls", "count", "lower"),
    ("bipartite.directional.self_ms", "ms", "lower"),
    ("bipartite.mutual_information.calls", "count", "lower"),
    ("optimizer.one_angle.runs", "count", "lower"),
    ("optimizer.one_angle.nfev_per_run", "count", "lower"),
    ("optimizer.one_angle.self_ms", "ms", "lower"),
    ("optimizer.one_angle.success_ratio", "1", "higher"),
    ("optimizer.two_angle.runs", "count", "lower"),
    ("optimizer.two_angle.nfev_per_run", "count", "lower"),
    ("optimizer.two_angle.self_ms", "ms", "lower"),
    ("optimizer.two_angle.success_ratio", "1", "higher"),
    ("optimizer.distinct_ratio", "1", "higher"),
    ("tripartite.correlation_report.pure.self_ms", "ms", "lower"),
    ("tripartite.correlation_report.mixed.self_ms", "ms", "lower"),
    ("tripartite.min_double_conditional_entropy.self_ms", "ms", "lower"),
    ("tripartite.total_classical_mixed.self_ms", "ms", "lower"),
    ("tripartite.canonical_ordering.calls", "count", "lower"),
    ("tripartite.three_tangle.self_ms", "ms", "lower"),
    ("tripartite.sweep_families.self_ms", "ms", "lower"),
    ("tripartite.find_discord_crossover.self_ms", "ms", "lower"),
    ("tripartite.total_discord_pure.calls", "count", "lower"),
    ("verify.evaluate_sample.self_ms", "ms", "lower"),
    ("verify.oracle_crosscheck.self_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.scipy_import_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.process_ms", "ms", "lower"),
    ("trace.ops_per_s", "units/s", "higher"),
    ("trace.overhead_ops_per_s", "units/s", "higher"),
)

# Per-layer metrics that are counts or ratios of counts; these must repeat
# exactly between two traced runs of one seed.
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER
                      if unit in ("count", "1"))


def _leading_batch(a):
    shape = getattr(a, "shape", ())
    batch = 1
    for n in shape[:-2]:
        batch *= n
    return batch


class Tracer:
    """Timing wrappers plus the spans and counters they record."""

    def __init__(self):
        self.patched = []  # (owner, attribute, original), in install order
        self.unit = 0
        self.reset()

    def reset(self):
        """Drop recorded spans and counters; wrappers stay installed."""
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_unit = array("i")
        self._stack = []  # [span index, child ns]
        self.calls = {}
        self.self_ns = {}
        self.batch_matrices = {}
        self.optimizer_runs = []  # (kind, nfev, nit, success, unit, fingerprint)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _enter(self):
        idx = len(self.span_start)
        self.span_name.append(-1)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_unit.append(self.unit)
        self._stack.append([idx, 0])

    def _exit(self, name):
        end = time.perf_counter_ns()
        idx, child_ns = self._stack.pop()
        self.span_end[idx] = end
        self.span_name[idx] = self._name_id(name)
        duration = end - self.span_start[idx]
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, func, rename=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter()
            label = name
            try:
                result = func(*args, **kwargs)
                if rename is not None:
                    label = rename(result)
                return result
            finally:
                tracer._exit(label)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def _wrap_linalg(self, name, func):
        tracer = self
        batched = name in BATCHED_LINALG

        def traced(a, *args, **kwargs):
            if batched:
                tracer.batch_matrices[name] = (
                    tracer.batch_matrices.get(name, 0) + _leading_batch(a))
            tracer._enter()
            try:
                return func(a, *args, **kwargs)
            finally:
                tracer._exit(name)

        traced.__wrapped__ = func
        return traced

    def _wrap_minimize(self, func):
        tracer = self

        def traced(fun, x0, *args, **kwargs):
            kind = "optimizer.two_angle" if len(x0) == 4 else "optimizer.one_angle"
            tracer._enter()
            try:
                res = func(fun, x0, *args, **kwargs)
            finally:
                tracer._exit(kind)
            fingerprint = (tuple(float(x) for x in x0), float(res.fun),
                           int(res.nfev))
            tracer.optimizer_runs.append(
                (kind, int(res.nfev), int(res.nit), bool(res.success),
                 tracer.unit, fingerprint))
            return res

        traced.__wrapped__ = func
        return traced

    def _patch(self, owner, attribute, wrapper):
        self.patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self):
        """Wrap every traced callable, importing qcorr and scipy.optimize first."""
        if self.patched:
            raise RuntimeError("tracer already installed")
        import numpy.linalg
        import scipy.optimize
        import qcorr.cli  # noqa: F401  (loads every qcorr module)
        from qcorr import qstate

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "qcorr" or key.startswith("qcorr."))]
        for short, functions in QCORR_FUNCTIONS.items():
            home = sys.modules[f"qcorr.{short}"]
            for fname in functions:
                original = getattr(home, fname)
                rename = None
                if (short, fname) == ("tripartite", "correlation_report"):
                    def rename(report):
                        kind = "pure" if report.method == "closed-form" else "mixed"
                        return f"tripartite.correlation_report.{kind}"
                wrapper = self._wrap(f"{short}.{fname}", original, rename)
                for module in modules:
                    for attribute, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attribute, wrapper)
        init = qstate.DensityMatrix.__init__
        self._patch(qstate.DensityMatrix, "__init__",
                    self._wrap("qstate.DensityMatrix", init))
        for fname in LINALG_FUNCTIONS:
            self._patch(numpy.linalg, fname,
                        self._wrap_linalg(f"linalg.{fname}",
                                          getattr(numpy.linalg, fname)))
        self._patch(scipy.optimize, "minimize",
                    self._wrap_minimize(scipy.optimize.minimize))

    def uninstall(self):
        """Restore every attribute install changed, newest first."""
        while self.patched:
            owner, attribute, original = self.patched.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def _sum(self, table, stage):
        return sum(table.get(s, 0) for s in GROUPS.get(stage, (stage,)))

    def optimizer_summary(self):
        """Run counts per kind, plus distinct runs counted within each unit."""
        out = {}
        for kind in ("optimizer.one_angle", "optimizer.two_angle"):
            runs = [r for r in self.optimizer_runs if r[0] == kind]
            out[kind] = {
                "runs": len(runs),
                "nfev": sum(r[1] for r in runs),
                "successes": sum(1 for r in runs if r[3]),
                "iterations": [r[2] for r in runs],
            }
        distinct = {(r[4], r[5]) for r in self.optimizer_runs}
        out["distinct"] = len(distinct)
        out["runs"] = len(self.optimizer_runs)
        return out

    def counts(self):
        """Raw totals at every boundary, for the scratch-count checks."""
        return {
            "DensityMatrix.inits": self.calls.get("qstate.DensityMatrix", 0),
            "eigvalsh": self.calls.get("linalg.eigvalsh", 0),
            "eigh": self.calls.get("linalg.eigh", 0),
            "svd": self.calls.get("linalg.svd", 0),
            "optimizer": self.optimizer_summary(),
            "calls": dict(self.calls),
        }

    def per_layer(self, units):
        """Per-unit layer metrics from the counters (see PER_LAYER)."""
        def per_unit(x):
            return x / units

        def calls(stage):
            return per_unit(self._sum(self.calls, stage))

        def self_ms(stage):
            return per_unit(self._sum(self.self_ns, stage)) / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        opt = self.optimizer_summary()
        batched_calls = sum(self.calls.get(s, 0) for s in BATCHED_LINALG)
        batched_matrices = sum(self.batch_matrices.get(s, 0)
                               for s in BATCHED_LINALG)
        m = {
            "linalg.eigvalsh.calls": calls("linalg.eigvalsh"),
            "linalg.eigh.calls": calls("linalg.eigh"),
            "linalg.svd.calls": calls("linalg.svd"),
            "linalg.det.calls": calls("linalg.det"),
            "linalg.matrices_per_call": ratio(batched_matrices, batched_calls),
            "linalg.self_ms": self_ms("linalg"),
            "qstate.DensityMatrix.inits": calls("qstate.DensityMatrix"),
            "qstate.DensityMatrix.self_ms": self_ms("qstate.DensityMatrix"),
        }
        for stage in ("qstate.partial_trace", "qstate.von_neumann_entropy",
                      "bipartite.concurrence", "bipartite.koashi_winter",
                      "bipartite.directional"):
            m[f"{stage}.calls"] = calls(stage)
            m[f"{stage}.self_ms"] = self_ms(stage)
        for stage in ("qstate.haar_random_pure", "qstate.relative_entropy",
                      "tripartite.genuine_total_via_relative_entropy",
                      "tripartite.correlation_report.pure",
                      "tripartite.correlation_report.mixed",
                      "tripartite.min_double_conditional_entropy",
                      "tripartite.total_classical_mixed",
                      "tripartite.three_tangle", "tripartite.sweep_families",
                      "tripartite.find_discord_crossover",
                      "verify.evaluate_sample", "verify.oracle_crosscheck",
                      "cli.main"):
            m[f"{stage}.self_ms"] = self_ms(stage)
        for stage in ("bipartite.mutual_information",
                      "tripartite.canonical_ordering",
                      "tripartite.total_discord_pure"):
            m[f"{stage}.calls"] = calls(stage)
        for kind in ("optimizer.one_angle", "optimizer.two_angle"):
            k = opt[kind]
            m[f"{kind}.runs"] = per_unit(k["runs"])
            m[f"{kind}.nfev_per_run"] = ratio(k["nfev"], k["runs"])
            m[f"{kind}.self_ms"] = self_ms(kind)
            m[f"{kind}.success_ratio"] = ratio(k["successes"], k["runs"])
        m["optimizer.distinct_ratio"] = ratio(opt["distinct"], opt["runs"])
        return m

    def write_spans(self, path):
        """Write the spans as JSON: a name table plus one array per field."""
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "unit": self.span_unit.tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
