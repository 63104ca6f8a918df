"""Span tracing of the curvemates layers, installed from outside the library.

A Tracer wraps the public functions listed in WRAPPED by replacing module
attributes, so that every call made through a module namespace (including
the library's own calls between modules) records a span: name, layer,
start, end, parent span and item id, plus a count taken from the call
where one is meaningful. Spans stay in memory; the caller writes them out
when the run ends. Nothing in the library changes; uninstall() restores
every attribute.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

ALL = None  # patch scope: every curvemates module that references the function

LAYERS = ("geometry", "solvers", "association", "verify", "io", "cli")


def _points(args, kwargs, result):
    return {"points": int(result.grid.size)}


def _rk4_steps(args, kwargs, result):
    return {"rk4_steps": int(result.grid.size - 1) if result.provenance == "rk4" else 0}


def _text_written(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text)}  # the formats are pure ASCII, so chars == bytes


def _text_read(args, kwargs, result):
    return {"bytes": len(args[0] if args else kwargs["text"])}


# (span name, layer, defining module, attribute, modules to patch, count hook)
WRAPPED = [
    ("geometry.sample_curve", "geometry", "geometry", "sample_curve", ALL, _points),
    ("geometry.reparametrize_arclength", "geometry", "geometry", "reparametrize_arclength",
     ALL, _points),
    # Only the oracle's call: frames built inside sample/reparam stay in those spans.
    ("geometry.oracle_frames", "geometry", "geometry", "frenet_frames_sampled",
     ("verify",), None),
] + [
    (f"solvers.{fn}", "solvers", "solvers", fn, ALL, _rk4_steps)
    for fn in ("solve_riccati", "solve_constraint_ode", "solve_linear", "riccati_linearize",
               "lambda_involute", "lambda_helix_hyperbolic", "lambda_half_curvature",
               "lambda_constant", "lambda_exponential_pair")
] + [
    (f"association.{fn}", "association", "association", fn, ALL, None)
    for fn in ("associate", "construct_mate", "predicted_frames_grid",
               "predicted_curvature_arrays", "mate_curvatures_closed")
] + [
    ("verify.check_association", "verify", "verify", "check_association", ALL, None),
    ("verify.audit_curvature_formulas", "verify", "verify", "audit_curvature_formulas",
     ALL, None),
    ("verify.check_distance", "verify", "verify", "check_distance", ALL, None),
    # Defined in solvers, but only the oracle calls it: it is verify's work.
    ("verify.constraint_residual", "verify", "solvers", "constraint_residual", ALL, None),
] + [
    (f"io.{fn}", "io", "io", fn, ALL, None)
    for fn in ("sampled_curve_to_csv", "lambda_to_csv", "mate_to_csv", "report_to_json")
] + [
    ("io.atomic_write_text", "io", "io", "atomic_write_text", ALL, _text_written),
] + [
    (f"io.{fn}", "io", "io", fn, ALL, _text_read)
    for fn in ("sampled_curve_from_csv", "lambda_from_csv", "mate_positions_from_csv")
]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    item: int
    counts: dict
    error: str | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Records spans for the calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = -1
        self._stack: list[int] = []
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        from curvemates.errors import CurveMatesError

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "curvemates" or name.startswith("curvemates.")}
        plan = []
        for name, layer, home, attr, scope, hook in WRAPPED:
            original = getattr(importlib.import_module(f"curvemates.{home}"), attr)
            wrapper = self._wrap(name, layer, original, hook, CurveMatesError)
            targets = (modules.values() if scope is ALL
                       else [modules[f"curvemates.{m}"] for m in scope])
            for mod in targets:
                for key, value in list(vars(mod).items()):
                    if value is original and (scope is ALL or key == attr):
                        plan.append((mod, key, original, wrapper))
        return plan

    def _wrap(self, name, layer, fn, hook, typed_error):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, layer, time.perf_counter(), 0.0, parent, tracer.item, {})
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except typed_error as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                span.counts = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original, _ in self._patches:
            setattr(mod, key, original)

    @contextmanager
    def item_scope(self, item_id: int):
        self.item = item_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self.item = -1

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around code the tracer does not wrap (the CLI's main)."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, time.perf_counter(), 0.0, parent, self.item, {})
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[dict], item_id: int) -> None:
        """Append spans recorded by a child process, re-indexing parents."""
        base = len(self.spans)
        for s in spans:
            parent = s["parent"] + base if s["parent"] >= 0 else -1
            self.spans.append(Span(**{**s, "parent": parent, "item": item_id}))

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(asdict(s)) + "\n")


def _outermost_ms(spans: list[Span], names: set, ancestors) -> tuple[float, list[Span]]:
    """Inclusive time of spans in ``names`` not nested in another of ``names``."""
    picked = [s for i, s in enumerate(spans)
              if s.name in names and not any(spans[a].name in names for a in ancestors(i))]
    return sum(s.ms for s in picked), picked


SOLVER_SPANS = {n for n, layer, *_ in WRAPPED if layer == "solvers"}
TIME_GROUPS = {
    "solvers.solve_ms": SOLVER_SPANS,
    "geometry.sample_ms": {"geometry.sample_curve"},
    "geometry.reparam_ms": {"geometry.reparametrize_arclength"},
    "geometry.oracle_frames_ms": {"geometry.oracle_frames"},
    "association.associate_ms": {"association.associate"},
    "association.construct_ms": {"association.construct_mate"},
    "association.closed_form_ms": {"association.predicted_frames_grid",
                                   "association.predicted_curvature_arrays",
                                   "association.mate_curvatures_closed"},
    "verify.check_ms": {"verify.check_association"},
    "verify.audit_ms": {"verify.audit_curvature_formulas"},
    "verify.constraint_ms": {"verify.constraint_residual"},
    "io.serialize_ms": {"io.sampled_curve_to_csv", "io.lambda_to_csv", "io.mate_to_csv",
                        "io.report_to_json"},
    "io.write_ms": {"io.atomic_write_text"},
    "io.parse_ms": {"io.sampled_curve_from_csv", "io.lambda_from_csv",
                    "io.mate_positions_from_csv"},
}


def item_layer_values(spans: list[Span], wall_ms: float) -> dict:
    """Additive layer figures of one item, and its self time per layer.

    ``spans`` holds the item's spans in recording order with parents
    re-indexed to positions in this list.
    """
    def ancestors(i):
        p = spans[i].parent
        while p >= 0:
            yield p
            p = spans[p].parent

    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ms[s.parent] += s.ms
    self_ms = [s.ms - c for s, c in zip(spans, child_ms)]

    out = {}
    for metric, names in TIME_GROUPS.items():
        out[metric], picked = _outermost_ms(spans, names, ancestors)
        if metric == "solvers.solve_ms":
            out["solvers.rk4_steps"] = sum(s.counts.get("rk4_steps", 0) for s in picked)
            out["rk4_ms"] = sum(s.ms for s in picked if s.counts.get("rk4_steps", 0))
            out["solvers.typed_errors"] = sum(1 for s in picked if s.error)
    _, geo = _outermost_ms(spans, {"geometry.sample_curve", "geometry.reparametrize_arclength"},
                           ancestors)
    out["geometry.points"] = sum(s.counts["points"] for s in geo)
    out["verify.self_ms"] = sum(t for s, t in zip(spans, self_ms)
                                if s.name == "verify.check_association")
    out["cli.self_ms"] = sum(t for s, t in zip(spans, self_ms) if s.name == "cli.main")
    out["io.bytes_written"] = sum(s.counts.get("bytes", 0) for s in spans
                                  if s.name == "io.atomic_write_text")
    out["io.bytes_read"] = sum(s.counts.get("bytes", 0) for s in spans
                               if s.name in TIME_GROUPS["io.parse_ms"])

    by_layer = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_ms):
        by_layer[s.layer] += t
    by_layer["outside spans"] = wall_ms - sum(s.ms for s in spans if s.parent < 0)
    return {"sums": out, "self_ms_by_layer": by_layer}


def layer_metrics(per_item: list[dict]) -> tuple[dict, dict]:
    """Means per traced item of the additive figures, rates as ratios of totals.

    Means rather than medians, so that a minority item kind (the sampled
    curves of oracle-large) shows in the layers it exercises.
    """
    totals = {key: sum(v["sums"][key] for v in per_item) for key in per_item[0]["sums"]}
    values = {key: total / len(per_item) for key, total in totals.items() if key != "rk4_ms"}
    values["solvers.typed_errors"] = totals["solvers.typed_errors"]
    steps, write_s = totals["solvers.rk4_steps"], totals["io.write_ms"] / 1e3
    values["solvers.us_per_rk4_step"] = totals["rk4_ms"] * 1e3 / steps if steps else 0.0
    values["io.write_mb_per_s"] = totals["io.bytes_written"] / 1e6 / write_s if write_s else 0.0
    self_ms = {layer: sum(v["self_ms_by_layer"][layer] for v in per_item) / len(per_item)
               for layer in per_item[0]["self_ms_by_layer"]}
    return values, self_ms
