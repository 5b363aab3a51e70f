"""Spans around graphflow's public functions, recorded from outside the program.

``Tracer.install()`` wraps every public function of each graphflow module,
and every public method (plus ``__init__``) of each public class. A layer is
one module. A call that crosses into a layer records a span: name, start,
end, parent span and operation id. A call made from inside the same layer
(``metric_many`` calling ``metric_at``, ``EquivariantFlow.run`` calling
``rhs``) is only counted, so its time stays in the self time of the span
that crossed the boundary. A function imported by name into another module,
the benchmark's own included, is replaced there too, so a call is traced
whichever namespace it goes through. Spans stay in memory in flat arrays and
are written out by ``save()`` when the run ends.

``op_metrics()`` computes the per-layer metrics from the spans of each
traced operation. Self time is a span's duration minus the durations of
its child spans; the wrappers' own cost lands in the parents' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("geometry", "frames", "immersion", "flow", "verify", "classify", "barrier",
           "app", "cli")


def _points(args, kwargs, result):
    manifold, pts = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["pts"])
    return pts.size // manifold.dim


def _artifact_bytes(args, kwargs, result):
    return sum(os.path.getsize(os.path.join(result.out_dir, name)) for name in result.files)


def _residual_nodes(args, kwargs, result):
    return sum(cp["nodes"] for cp in result)


def _inequality_nodes(args, kwargs, result):
    return sum(cp["nodes"] for cp in result["checkpoints"])


# span name -> (counter name, function of (args, kwargs, result))
COUNTERS = {
    "geometry.ChartManifold.metric_many": ("metric_many.points", _points),
    "geometry.ChartManifold.christoffels_many": ("christoffels_many.points", _points),
    "flow.EquivariantFlow.run": ("equivariant.records",
                                 lambda args, kwargs, result: len(result.records)),
    "app.run_scenario": ("app.artifact_bytes", _artifact_bytes),
    "verify.residual_p_evolution": ("verify.nodes_evaluated", _residual_nodes),
    "verify.check_H_and_theta_inequalities": ("verify.nodes_evaluated", _inequality_nodes),
}


class Tracer:
    """Records spans of wrapped graphflow calls, tagged by operation id (one per pass)."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = defaultdict(float)  # (op, counter) -> value
        self.op_id = -1
        self.folded: dict = defaultdict(int)  # (op, name id) -> calls without a span
        self._stack = [-1]
        self._layers = [None]
        self._patched: list = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def begin_op(self) -> None:
        self.op_id += 1

    def _wrap(self, layer: str, span: str, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        counter = COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._layers[-1] == layer:
                # a call inside the same layer is counted, not given a span
                self.folded[(self.op_id, nid)] += 1
                result = fn(*args, **kwargs)
            else:
                idx = len(self.start)
                self.name_id.append(nid)
                self.parent.append(self._stack[-1])
                self.op.append(self.op_id)
                self.end.append(0.0)
                self._stack.append(idx)
                self._layers.append(layer)
                self.start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end[idx] = perf_counter()
                    self._stack.pop()
                    self._layers.pop()
            if counter is not None:
                self.counts[(self.op_id, counter[0])] += counter[1](args, kwargs, result)
            return result

        return traced

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        """Wrap the public callables of every graphflow module in MODULES."""
        replaced = {}  # id(original function) -> wrapper
        for short in MODULES:
            module = importlib.import_module(f"graphflow.{short}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(short, f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and (not attr.startswith("_")
                                                            or attr == "__init__"):
                            self._patch(obj, attr,
                                        self._wrap(short, f"{short}.{name}.{attr}", member))
        # every namespace that imported a wrapped function by name gets the
        # wrapper: graphflow's own modules and the benchmark's
        for module in list(sys.modules.values()):
            for name, obj in list(getattr(module, "__dict__", {}).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._patch(module, name, replaced[id(obj)])

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------------

    def _arrays(self):
        name_id, parent, op = np.array(self.name_id), np.array(self.parent), np.array(self.op)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return name_id, parent, op, dur - child

    def op_metrics(self) -> list:
        """Per traced operation, the per-layer metrics as {name: (value, unit)}.

        Self times are summed over the operation's spans of that name; calls
        count every call, whether it got a span or was folded into its
        caller's.
        """
        name_id, parent, op, self_time = self._arrays()
        counts = defaultdict(float, self.counts)
        # point_geometry calls made under a verify.* span: the monitors' attempts
        verify_ids = {i for i, n in enumerate(self.names) if n.startswith("verify.")}
        pg = self._name_ids.get("immersion.point_geometry")
        if pg is not None:
            for idx in np.flatnonzero(name_id == pg):
                up = parent[idx]
                while up >= 0 and name_id[up] not in verify_ids:
                    up = parent[up]
                if up >= 0:
                    counts[(int(op[idx]), "verify.point_geometry_attempts")] += 1
        out = []
        for op_id in range(self.op_id + 1):
            mask = op == op_id
            self_by_id = np.bincount(name_id[mask], weights=self_time[mask],
                                     minlength=len(self.names))
            spans_by_id = np.bincount(name_id[mask], minlength=len(self.names))

            def self_s(span):
                nid = self._name_ids.get(span)
                return 0.0 if nid is None else float(self_by_id[nid])

            def calls(span):
                nid = self._name_ids.get(span)
                if nid is None:
                    return 0
                return int(spans_by_id[nid]) + self.folded.get((op_id, nid), 0)

            def count(name):
                return counts.get((op_id, name), 0)

            def ratio(num, den):
                return num / den if den else 0.0

            mm_points = count("metric_many.points")
            cm_points = count("christoffels_many.points")
            steps = calls("flow.step")
            nodes = count("verify.nodes_evaluated")
            out.append({
                "geometry.metric_many.s": (self_s("geometry.ChartManifold.metric_many"), "s"),
                "geometry.metric_many.calls": (calls("geometry.ChartManifold.metric_many"),
                                               "count"),
                "geometry.metric_many.points": (mm_points, "count"),
                "geometry.christoffels_many.s": (
                    self_s("geometry.ChartManifold.christoffels_many"), "s"),
                "geometry.christoffels_many.points": (cm_points, "count"),
                "geometry.metric_at.calls": (calls("geometry.ChartManifold.metric_at"), "count"),
                "geometry.metric_at_per_point": (
                    ratio(calls("geometry.ChartManifold.metric_at"), mm_points), "1"),
                "geometry.curvature_conditions_report.s": (
                    self_s("geometry.curvature_conditions_report"), "s"),
                "geometry.curvature_conditions_report.calls": (
                    calls("geometry.curvature_conditions_report"), "count"),
                "geometry.points_per_step": (ratio(mm_points + cm_points, steps), "count"),
                "immersion.GraphMapField.calls": (calls("immersion.GraphMapField.__init__"),
                                                  "count"),
                "immersion.df_field.s": (self_s("immersion.GraphMapField.df_field"), "s"),
                "immersion.d2f_field.s": (self_s("immersion.GraphMapField.d2f_field"), "s"),
                "immersion.induced_g_inv_field.s": (
                    self_s("immersion.GraphMapField.induced_g_inv_field"), "s"),
                "immersion.gamma_induced_field.s": (
                    self_s("immersion.GraphMapField.gamma_induced_field"), "s"),
                "immersion.point_geometry.s": (self_s("immersion.point_geometry"), "s"),
                "immersion.point_geometry.calls": (calls("immersion.point_geometry"), "count"),
                "frames.build_svd_frame.s": (self_s("frames.build_svd_frame"), "s"),
                "frames.build_svd_frame.calls": (calls("frames.build_svd_frame"), "count"),
                "frames.singular_values_batch.s": (self_s("frames.singular_values_batch"), "s"),
                "frames.singular_values_batch.calls": (calls("frames.singular_values_batch"),
                                                       "count"),
                "flow.step.s": (self_s("flow.step"), "s"),
                "flow.step.calls": (steps, "count"),
                "flow.nonparametric_rhs.calls": (calls("flow.nonparametric_rhs"), "count"),
                "flow.h2_field.calls": (calls("flow.h2_field"), "count"),
                "flow.rhs_per_step": (ratio(calls("flow.nonparametric_rhs"), steps), "count"),
                "flow.EquivariantFlow.run.s": (self_s("flow.EquivariantFlow.run"), "s"),
                "flow.EquivariantFlow.rhs.calls": (calls("flow.EquivariantFlow.rhs"), "count"),
                "flow.equivariant.records": (count("equivariant.records"), "count"),
                "flow.reduce_circle_drift.s": (self_s("flow.reduce_circle_drift"), "s"),
                "verify.residual_p_evolution.s": (self_s("verify.residual_p_evolution"), "s"),
                "verify.check_H_and_theta_inequalities.s": (
                    self_s("verify.check_H_and_theta_inequalities"), "s"),
                "verify.check_decay_bounds.s": (self_s("verify.check_decay_bounds"), "s"),
                "verify.nodes_evaluated": (nodes, "count"),
                "verify.point_geometry_per_node": (
                    ratio(nodes, count("verify.point_geometry_attempts")), "1"),
                "classify.classify_limit.s": (self_s("classify.classify_limit"), "s"),
                "classify.classify_limit.calls": (calls("classify.classify_limit"), "count"),
                "barrier.certify_convexity.s": (self_s("barrier.certify_convexity"), "s"),
                "barrier.containment_monitor.s": (self_s("barrier.containment_monitor"), "s"),
                "app.run_scenario.self_s": (self_s("app.run_scenario"), "s"),
                "app.artifact_bytes": (count("app.artifact_bytes"), "bytes"),
                "app.run_identities.s": (self_s("app.run_identities"), "s"),
                "cli.main.calls": (calls("cli.main"), "count"),
            })
        return out

    def shares(self) -> dict:
        """Each span name's share of the total self time, over all traced operations."""
        name_id, _, _, self_time = self._arrays()
        totals = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        total = float(totals.sum())
        return {self.names[i]: float(totals[i]) / total
                for i in np.argsort(totals)[::-1] if totals[i] > 0}

    def save(self, path: str) -> None:
        """Write every span (name table plus flat arrays) to ``path`` (.npz)."""
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)), name_id=np.array(self.name_id),
            parent=np.array(self.parent), op=np.array(self.op), start=np.array(self.start),
            end=np.array(self.end))
