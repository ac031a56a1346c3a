"""Spans around the package's public functions, for the traced round.

Wrappers are installed at the name each caller looks up: a function bound
into several modules by ``from ... import`` (``cli.load_spec``,
``measures.heights``, ``markov.hat_matrix``, the ``_accel`` kernels
looked up through ``laplacian``) is replaced in every one of them, and a
method is replaced on its class.  Each span records its name, start, end
and parent; spans stay in memory until the round ends.  A span's self
time is its duration minus the durations of its child spans.  Nothing is
installed while the end-to-end rounds run, and ``Tracer.remove`` restores
every original.

Layer metrics are named ``<module>.<function>.<stat>``.  The ``_accel``
module appears as ``accel``, because a metric name starts with a letter.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path) of every wrapped function.
TARGETS = [
    ("cli", "main"),
    ("specfile", "load_spec"),
    ("substitution", "substitution_matrix"),
    ("diagram", "validate"),
    ("diagram", "natural_order"),
    ("diagram", "heights"),
    ("diagram", "all_heights"),
    ("diagram", "IncidenceMatrix.row_entries"),
    ("diagram", "IncidenceMatrix.to_dense"),
    ("perron", "pf_solve"),
    ("perron", "classify_recurrence"),
    ("measures", "hat_matrix"),
    ("measures", "HatMatrix.row_sum"),
    ("measures", "stationary_pf_measure"),
    ("measures", "verify_tail_invariance"),
    ("markov", "MarkovSystem.phat"),
    ("markov", "markov_from_tail_invariant"),
    ("markov", "dual_kernels"),
    ("markov", "hat_vs_incidence"),
    ("markov", "compose_Tn"),
    ("laplacian", "build_network"),
    ("laplacian", "solve_harmonic"),
    ("laplacian", "energy_norm"),
    ("laplacian", "walk"),
    ("laplacian", "hitting_probability"),
    ("cells", "dual_kernel"),
    ("cells", "path_measure_sample"),
    ("_accel", "trial_seeds"),
    ("_accel", "walk_returns_kernel"),
    ("_accel", "walk_trace_kernel"),
    ("_accel", "sample_chain_kernel"),
    ("_accel", "walk_hitting_kernel"),
    ("_accel", "walk_hitting_parallel"),
]
# Kernels that stand in for another one and share its span name.
ALIASES = {"walk_hitting_parallel": "accel.walk_hitting_kernel"}

# Result fields summed per span name.
RESULT_COUNTS = {"laplacian.solve_harmonic": "iterations",
                 "perron.pf_solve": "iterations",
                 "laplacian.hitting_probability": "timeouts"}

class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, raised]
        self.counts: dict[str, int] = defaultdict(int)
        self.harmonic: list[tuple] = []  # (net, bottom, top, solution)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        count_field = RESULT_COUNTS.get(name)
        keep_solve = name == "laplacian.solve_harmonic"
        signature = inspect.signature(fn) if keep_solve else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count_field:
                self.counts[f"{name}.{count_field}"] += getattr(
                    result, count_field, 0)
            if keep_solve:
                net, bottom, top = list(signature.bind(
                    *args, **kwargs).arguments.values())[:3]
                self.harmonic.append((net, bottom, top, result))
            return result
        return traced

    def install(self) -> None:
        """Wrap every target that exists; a target a refactor removed is
        skipped and its metrics read 0."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "bratteli" or name.startswith("bratteli.")}
        for module, attr in TARGETS:
            mod = package.get(f"bratteli.{module}")
            if mod is None:
                continue
            name = ALIASES.get(attr) or f"{module.lstrip('_')}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if orig is not None:
                    setattr(cls, meth, self._wrap(name, orig))
                    self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig)
            for other in package.values():
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, wrapper)
                        self._undo.append((other, key, orig))

    def remove(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, errors and summed self time."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "errors": 0, "self_s": 0.0})
        for i, (name, start, end, _, raised) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["errors"] += int(raised)
            s["self_s"] += (end - start) - child_time[i]
        return stats


def layer_metrics(tracer: Tracer, declared: list[dict], work: dict[str, int],
                  max_err: float, overhead_s: float) -> dict[str, dict]:
    """Every declared per-layer metric of one traced round, by name."""
    stats = tracer.layer_stats()
    out = {}
    for m in declared:
        metric, unit = m["name"], m["unit"]
        span, stat = metric.rsplit(".", 1)
        s = stats.get(span, {"calls": 0, "errors": 0, "self_s": 0.0})
        if metric == "trace.overhead_s":
            value = overhead_s
        elif stat == "max_err":
            value = max_err
        elif stat in ("steps_per_s", "trials_per_s"):
            value = work.get(span, 0) / s["self_s"] if s["self_s"] else 0.0
        elif stat in s:
            value = s[stat]
        else:
            value = tracer.counts.get(metric, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
