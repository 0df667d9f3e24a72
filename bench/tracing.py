"""Span tracer for the benchmark's traced run.

The tracer wraps mgflow's public functions where their callers look them up
(a module global such as `mgflow.dynamics.generalized_gradient`, or a class
attribute such as `PiecewisePolynomial.partial_moments`), so nothing inside
`src/` changes.  Each wrapped call records a span (name, start, end, parent,
unit) in memory; the spans are written out when the run ends and the
per-layer metrics are derived from them.  A layer's self time is its span's
duration minus the time its child spans cover.

Hot helpers that cost about a microsecond are counted, not spanned, so that
the tracer does not swamp the time of the functions that call them.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from mgflow import dynamics, gradients, network, one_neuron, quadrature, runner
from mgflow.params import Architecture
from mgflow.targets import PiecewisePolynomial, TargetFunction

# (owner the caller looks the name up in, attribute, span name).  The layer
# is the span name's first component.
SPANNED = (
    (network, "quadrature_nodes", "quadrature.nodes"),
    (quadrature, "segment_rule", "quadrature.segment_rule"),
    (network, "exact_breakpoints", "network.exact_breakpoints"),
    (network, "forward", "network.forward"),
    (gradients, "forward", "network.forward"),
    (dynamics, "risk", "network.risk"),
    (dynamics, "generalized_gradient", "gradients.generalized_gradient"),
    (network, "smoothed_act", "smoothing.act"),
    (gradients, "smoothed_act_deriv", "smoothing.act_deriv"),
    (dynamics, "project_gradient", "manifold.project"),
    (dynamics, "renormalize", "manifold.renormalize"),
    (dynamics, "max_constraint_deviation", "manifold.deviation"),
    (dynamics, "min_subvector_norm", "manifold.min_norm"),
    (dynamics, "rescale_full", "manifold.rescale_full"),
    (TargetFunction, "__call__", "targets.eval"),
    (PiecewisePolynomial, "partial_moments", "targets.partial_moments"),
    (runner, "integrate_flow", "dynamics.integrate_flow"),
    (runner, "gd_run", "dynamics.gd_run"),
    (one_neuron, "flow_batch", "one_neuron.flow_batch"),
    (one_neuron, "gradient_batch", "one_neuron.gradient_batch"),
    (one_neuron, "risk_batch", "one_neuron.risk_batch"),
    (one_neuron, "monitor_report", "one_neuron.monitor_report"),
    (runner, "run_experiment", "runner.run_experiment"),
)
COUNTED = ((Architecture, "neuron_indices", "params.neuron_indices"),)
LAYERS = (
    "quadrature", "manifold", "params", "network", "gradients",
    "smoothing", "dynamics", "targets", "one_neuron", "runner",
)

# name, unit, better: every per-layer metric the traced run reports.
PER_LAYER = (
    ("quadrature.calls", "count", "lower"),
    ("quadrature.us_per_call", "us", "lower"),
    ("quadrature.rule_builds", "count", "lower"),
    ("quadrature.nodes_per_call", "count", "lower"),
    ("quadrature.distinct_frac", "frac", "higher"),
    ("manifold.project_us_per_call", "us", "lower"),
    ("manifold.renormalize_us_per_call", "us", "lower"),
    ("manifold.deviation_us_per_call", "us", "lower"),
    ("manifold.min_norm_us_per_call", "us", "lower"),
    ("manifold.calls_per_step", "count/step", "lower"),
    ("params.neuron_indices_per_step", "count/step", "lower"),
    ("network.forward_calls", "count", "lower"),
    ("network.forward_us_per_call", "us", "lower"),
    ("network.risk_self_us_per_call", "us", "lower"),
    ("network.exact_breakpoints_us_per_call", "us", "lower"),
    ("gradients.calls", "count", "lower"),
    ("gradients.self_us_per_call", "us", "lower"),
    ("smoothing.calls", "count", "lower"),
    ("smoothing.us_per_call", "us", "lower"),
    ("dynamics.self_ms_per_step", "ms", "lower"),
    ("dynamics.grad_calls_per_step", "count/step", "lower"),
    ("dynamics.risk_calls_per_step", "count/step", "lower"),
    ("targets.eval_us_per_call", "us", "lower"),
    ("targets.partial_moments_calls", "count", "lower"),
    ("targets.partial_moments_us_per_call", "us", "lower"),
    ("one_neuron.flow_batch_self_ms_per_step", "ms", "lower"),
    ("one_neuron.gradient_batch_calls_per_step", "count/step", "lower"),
    ("one_neuron.gradient_batch_self_us_per_call", "us", "lower"),
    ("one_neuron.risk_batch_ms", "ms", "lower"),
    ("one_neuron.monitor_report_ms", "ms", "lower"),
    ("runner.self_ms", "ms", "lower"),
    ("runner.bytes_written", "bytes", "lower"),
    *((f"{layer}.errors", "count", "lower") for layer in LAYERS),
    ("trace.overhead_frac", "frac", "lower"),
)


class Tracer:
    """In-memory spans and counts for the wrapped mgflow functions.

    Spans are recorded only while `active` is set, so the benchmark's own
    output checks stay out of the trace.  Time spent hashing quadrature node
    sets is excluded from every span's clock.
    """

    def __init__(self):
        self.spans: list = []        # (name, start_ns, end_ns, parent index, unit)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.node_sets: set = set()
        self.nodes = 0
        self.unit = -1
        self.active = False
        self._stack: list[int] = []
        self._excluded_ns = 0
        self._saved: list = []

    def clock(self) -> int:
        return time.perf_counter_ns() - self._excluded_ns

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            observe = self._observe_nodes if name == "quadrature.nodes" else None
            self._patch(owner, attr, self._spanned(name, vars(owner)[attr], observe))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._counted(name, vars(owner)[attr]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, name, fn, observe=None):
        layer = name.split(".")[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                spans[idx] = (name, start, self.clock(), parent, self.unit)
                stack.pop()
            if observe is not None:
                t0 = time.perf_counter_ns()
                observe(result)
                self._excluded_ns += time.perf_counter_ns() - t0
            return result

        return wrapper

    def _counted(self, name, fn):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise

        return wrapper

    def _observe_nodes(self, result) -> None:
        X, w = result
        self.nodes += int(np.shape(w)[0])
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.ascontiguousarray(X).tobytes())
        digest.update(np.ascontiguousarray(w).tobytes())
        self.node_sets.add(digest.digest())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("name,start_ns,end_ns,parent,unit\n")
            for name, start, end, parent, unit in self.spans:
                fh.write(f"{name},{start},{end},{parent},{unit}\n")

    def span_stats(self, scale) -> dict:
        """Per span name: [calls, inclusive ns, self ns], each span's times
        multiplied by its unit's factor in `scale`."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, unit) in enumerate(self.spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += (end - start) * scale[unit]
            entry[2] += (end - start - covered[i]) * scale[unit]
        return stats


def layer_metrics(tracer: Tracer, steps: int, scale: list, bytes_written: int,
                  overhead_frac: float) -> dict:
    """The per-layer metrics of one traced phase, keyed as in PER_LAYER.

    `steps` counts the phase's integrator steps (for circle_batch one step
    advances the whole batch); `scale` holds each unit's contention factor,
    applied to its spans' times.  A layer the workload does not exercise
    reports zero.
    """
    stats = tracer.span_stats(scale)
    units = len(scale)

    def calls(*names):
        return sum(stats[n][0] for n in names if n in stats)

    def per_call(kind, unit_ns, *names):
        n = calls(*names)
        return sum(stats[x][kind] for x in names if x in stats) / unit_ns / n if n else 0.0

    def incl_us(*names):
        return per_call(1, 1e3, *names)

    def self_us(*names):
        return per_call(2, 1e3, *names)

    def self_ms_per_step(*names):
        return sum(stats[n][2] for n in names if n in stats) / 1e6 / steps

    dyn = ("dynamics.integrate_flow", "dynamics.gd_run")
    manifold = ("manifold.project", "manifold.renormalize", "manifold.deviation", "manifold.min_norm")
    smoothing = ("smoothing.act", "smoothing.act_deriv")
    quad_calls = calls("quadrature.nodes")
    values = {
        "quadrature.calls": quad_calls,
        "quadrature.us_per_call": incl_us("quadrature.nodes"),
        "quadrature.rule_builds": calls("quadrature.segment_rule"),
        "quadrature.nodes_per_call": tracer.nodes / quad_calls if quad_calls else 0.0,
        "quadrature.distinct_frac": len(tracer.node_sets) / quad_calls if quad_calls else 0.0,
        "manifold.project_us_per_call": incl_us("manifold.project"),
        "manifold.renormalize_us_per_call": incl_us("manifold.renormalize"),
        "manifold.deviation_us_per_call": incl_us("manifold.deviation"),
        "manifold.min_norm_us_per_call": incl_us("manifold.min_norm"),
        "manifold.calls_per_step": calls(*manifold) / steps,
        "params.neuron_indices_per_step": tracer.counts["params.neuron_indices"] / steps,
        "network.forward_calls": calls("network.forward"),
        "network.forward_us_per_call": incl_us("network.forward"),
        "network.risk_self_us_per_call": self_us("network.risk"),
        "network.exact_breakpoints_us_per_call": incl_us("network.exact_breakpoints"),
        "gradients.calls": calls("gradients.generalized_gradient"),
        "gradients.self_us_per_call": self_us("gradients.generalized_gradient"),
        "smoothing.calls": calls(*smoothing),
        "smoothing.us_per_call": incl_us(*smoothing),
        "dynamics.self_ms_per_step": self_ms_per_step(*dyn),
        "dynamics.grad_calls_per_step": calls("gradients.generalized_gradient") / steps,
        "dynamics.risk_calls_per_step": calls("network.risk") / steps,
        "targets.eval_us_per_call": incl_us("targets.eval"),
        "targets.partial_moments_calls": calls("targets.partial_moments"),
        "targets.partial_moments_us_per_call": incl_us("targets.partial_moments"),
        "one_neuron.flow_batch_self_ms_per_step": self_ms_per_step("one_neuron.flow_batch"),
        "one_neuron.gradient_batch_calls_per_step": calls("one_neuron.gradient_batch") / steps,
        "one_neuron.gradient_batch_self_us_per_call": self_us("one_neuron.gradient_batch"),
        "one_neuron.risk_batch_ms": incl_us("one_neuron.risk_batch") / 1e3,
        "one_neuron.monitor_report_ms": incl_us("one_neuron.monitor_report") / 1e3,
        "runner.self_ms": self_us("runner.run_experiment") / 1e3,
        "runner.bytes_written": bytes_written / units,
        **{f"{layer}.errors": tracer.errors[layer] for layer in LAYERS},
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
