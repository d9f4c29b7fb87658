"""Span tracing of mpme's public layer functions, from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper in every
loaded ``mpme`` module that holds a reference to it.  The modules import
one another's functions with ``from .x import f``, so patching only the
defining module would miss most calls.  Spans are kept in memory as
``[name, start, end, parent]`` rows; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict

# Functions wrapped in a span, by defining module.  Span names are
# "<module>.<function>" with the package prefix dropped.
TRACED = {
    "mpme.cli": ("cli_main",),
    "mpme.core": ("sufficient_stats",),
    "mpme.dataio": ("load_dataset", "dump_json"),
    "mpme.estimators": ("sample_estimate",),
    "mpme.experiments": ("generate_synthetic", "error_report", "prune_outliers"),
    "mpme.optim": ("maximize",),
    "mpme.prior_nix": ("learn_nix", "nix_map"),
    "mpme.prior_uni": ("learn_uni", "uni_map", "uni_log_marginal_likelihood"),
    "mpme.special": ("integrate_adaptive",),
}

# Callables passed as first argument to a traced function that get a span
# of their own: the objective handed to maximize and the integrand handed
# to integrate_adaptive (in these workloads, always the UNI integrand).
CALLBACK_SPANS = {
    "optim.maximize": "optim.objective",
    "special.integrate_adaptive": "prior_uni.integrand",
}

# Counters read from a span's arguments and result.
COUNTERS = {
    "optim.maximize": lambda args, r: {"iterations": r.iterations, "converged": r.converged},
    "prior_uni.integrand": lambda args, r: {"nodes": len(args[0]), "points": r.size},
    "dataio.load_dataset": lambda args, r: {"bytes": os.path.getsize(args[0])},
    "dataio.dump_json": lambda args, r: {"bytes": len(r.encode("utf-8"))},
}


class Tracer:
    """Records spans and counters while installed (``with tracer: ...``)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _wrapper_for(self, name, fn):
        traced = self._span(name, fn)
        if name not in CALLBACK_SPANS:
            return traced

        def with_callback(callback, *args, **kwargs):
            return traced(self._span(CALLBACK_SPANS[name], callback), *args, **kwargs)

        return with_callback

    def __enter__(self):
        wrappers = {}
        for module_name, names in TRACED.items():
            module = sys.modules[module_name]
            short = module_name.split(".", 1)[1]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (original, self._wrapper_for(f"{short}.{fn_name}", original))
        for module_name, module in list(sys.modules.items()):
            if module_name != "mpme" and not module_name.startswith("mpme."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def summary(self):
        """Per span name: call count, total seconds, self seconds, durations."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["durations"].append(end - start)
        return out


def tail(values) -> float:
    """The highest sample with at least ten samples beyond it, or the
    largest sample when there are fewer than eleven."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the tracer's spans and counters."""
    s, c = tracer.summary(), tracer.counts

    def get(name, field):
        return s[name][field] if name in s else 0

    def ratio(a, b):
        return a / b if b else 0.0

    learn = get("prior_nix.learn_nix", "durations") or [0.0]
    fits = get("optim.maximize", "calls")
    evals = get("optim.objective", "calls")
    integrals = get("special.integrate_adaptive", "calls")
    return {
        "optim.maximize.calls": fits,
        "optim.maximize.self_s": get("optim.maximize", "self_s"),
        "optim.objective.calls": evals,
        "optim.objective.s_per_eval": ratio(get("optim.objective", "s"), evals),
        "optim.evals_per_fit": ratio(evals, fits),
        "optim.iterations_per_fit": ratio(c["optim.maximize.iterations"], fits),
        "optim.converged_frac": ratio(c["optim.maximize.converged"], fits),
        "prior_nix.learn_nix.calls": get("prior_nix.learn_nix", "calls"),
        "prior_nix.learn_nix.s_p50": statistics.median(learn),
        "prior_nix.learn_nix.s_tail": tail(learn),
        "prior_nix.nix_map.s": get("prior_nix.nix_map", "s"),
        "prior_uni.learn_uni.calls": get("prior_uni.learn_uni", "calls"),
        "prior_uni.learn_uni.s": get("prior_uni.learn_uni", "s"),
        "prior_uni.uni_log_marginal_likelihood.calls": get("prior_uni.uni_log_marginal_likelihood", "calls"),
        "prior_uni.uni_log_marginal_likelihood.self_s": get("prior_uni.uni_log_marginal_likelihood", "self_s"),
        "prior_uni.integrand.s": get("prior_uni.integrand", "s"),
        "prior_uni.integrand.points": c["prior_uni.integrand.points"],
        "special.integrate_adaptive.calls": integrals,
        "special.integrate_adaptive.self_s": get("special.integrate_adaptive", "self_s"),
        "special.integrand_calls_per_integral": ratio(get("prior_uni.integrand", "calls"), integrals),
        "special.nodes_per_integral": ratio(c["prior_uni.integrand.nodes"], integrals),
        "dataio.load_dataset.s": get("dataio.load_dataset", "s"),
        "dataio.load_dataset.bytes": c["dataio.load_dataset.bytes"],
        "dataio.dump_json.s": get("dataio.dump_json", "s"),
        "dataio.dump_json.bytes": c["dataio.dump_json.bytes"],
        "core.sufficient_stats.calls": get("core.sufficient_stats", "calls"),
        "core.sufficient_stats.s": get("core.sufficient_stats", "s"),
        "experiments.prune_outliers.s": get("experiments.prune_outliers", "s"),
        "experiments.generate_synthetic.s": get("experiments.generate_synthetic", "s"),
        "experiments.error_report.s": get("experiments.error_report", "s"),
        "estimators.sample_estimate.s": get("estimators.sample_estimate", "s"),
        "cli.cli_main.self_s": get("cli.cli_main", "self_s"),
    }
