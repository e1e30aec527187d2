"""Outside-in tracer: wraps the public functions of every ``dgbs`` layer where
callers look them up, and records spans and work counts in memory.

``from .hafnian import matching_polynomial`` binds the name in the importing
module, so each wrapper is installed under every name in every ``dgbs.*``
module that holds the original function.  Methods are wrapped on their
class.  A span records its caller (the enclosing span), its duration and its
self time, which is the duration minus the time of the spans it encloses.
Spans are aggregated per (caller, callee) edge as they close; ``spans()``
returns the edges once the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("hafnian", "states", "probability", "metrics", "experiment",
          "reconstruction", "fock", "serialize", "cli")

# (module, class, method): methods traced besides module-level functions
METHODS = (("probability", "StateKernel", "from_state"),
           ("probability", "StateKernel", "reduced"),
           ("probability", "StateKernel", "korder_terms"),
           ("probability", "StateKernel", "pattern_probability"),
           ("experiment", "ClickTable", "patterns"),
           ("experiment", "ClickTable", "to_csv"))

SIGMA_Q_SOLVERS = ("states.a_matrix", "states.gamma_vector",
                   "states.log_vacuum_probability")
KERNEL_SIZES = (2, 4, 6, 8, 10)


class Tracer:
    def __init__(self):
        self._stack = []      # open spans: [child seconds, name]
        self._edges = {}      # (caller, name) -> [calls, total s, self s]
        self.counts = Counter()
        self._distinct = set()
        self._serial = 0

    # -- spans ----------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        stack, edges, clock = self._stack, self._edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                caller = None
                if stack:
                    stack[-1][0] += dur
                    caller = stack[-1][1]
                edge = edges.get((caller, name))
                if edge is None:
                    edge = edges[(caller, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[0]
            return result if after is None else after(result)

        return traced

    # -- counters recorded at the layer boundaries ---------------------------

    def _on_matching_polynomial(self, args, kwargs):
        n = (args[0] if args else kwargs["m"]).shape[0]
        self.counts[f"kernel_size.n{n}"] += 1
        self.counts["dp_cells"] += (1 << n) * (n // 2 + 1)

    def _on_pattern_probability(self, args, kwargs):
        kernel = args[0]
        pattern = args[1] if len(args) > 1 else kwargs["n"]
        serial = kernel.__dict__.get("_trace_serial")
        if serial is None:
            self._serial += 1
            serial = kernel._trace_serial = self._serial
        self.counts["patterns_evaluated"] += 1
        self._distinct.add((serial, pattern.counts))

    def _after_pid_lock(self, result):
        self.counts["pid_lock.steps"] += len(result.times)
        return result

    def _after_build_error_signal(self, signal):
        def count(_args, _kwargs):
            self.counts["error_signal_evals"] += 1
        return self.wrap("experiment.error_signal", signal, before=count)

    def end_command(self):
        """Close the distinct-pattern set of one CLI command."""
        self.counts["distinct_patterns"] += len(self._distinct)
        self._distinct.clear()

    # -- installation ---------------------------------------------------------

    def install(self):
        hooks = {
            "hafnian.matching_polynomial":
                {"before": self._on_matching_polynomial},
            "probability.StateKernel.pattern_probability":
                {"before": self._on_pattern_probability},
            "experiment.pid_lock": {"after": self._after_pid_lock},
            "experiment.build_error_signal":
                {"after": self._after_build_error_signal},
        }
        wrapped = {}   # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"dgbs.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj,
                                                 **hooks.get(name, {}))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dgbs" and not mod_name.startswith("dgbs."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"dgbs.{layer}"), cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            kw = hooks.get(name, {})
            if isinstance(raw, classmethod):
                setattr(cls, meth,
                        classmethod(self.wrap(name, raw.__func__, **kw)))
            else:
                setattr(cls, meth, self.wrap(name, raw, **kw))

    # -- results --------------------------------------------------------------

    def spans(self) -> list:
        """Aggregated spans: one entry per (caller, name) edge."""
        return [{"caller": caller, "name": name, "calls": c,
                 "total_s": total, "self_s": self_s}
                for (caller, name), (c, total, self_s)
                in sorted(self._edges.items(), key=lambda kv: -kv[1][2])]

    def by_name(self) -> dict:
        """name -> [calls, self seconds], summed over callers."""
        out = {}
        for (_, name), (calls, _, self_s) in self._edges.items():
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics the traced run reports (name -> value)."""
        names = self.by_name()

        def calls(name):
            return names.get(name, [0, 0.0])[0]

        def self_s(name):
            return names.get(name, [0, 0.0])[1]

        c = self.counts
        m = {
            "hafnian.matching_polynomial.calls":
                calls("hafnian.matching_polynomial"),
            "hafnian.matching_polynomial.self_s":
                self_s("hafnian.matching_polynomial"),
        }
        for n in KERNEL_SIZES:
            m[f"hafnian.kernel_size.n{n}.calls"] = c[f"kernel_size.n{n}"]
        m["hafnian.kernel_size.n12plus.calls"] = sum(
            v for k, v in c.items()
            if k.startswith("kernel_size.n") and int(k[13:]) >= 12)
        m.update({
            "hafnian.dp_cells": c["dp_cells"],
            "hafnian.reduce_by_pattern.calls":
                calls("hafnian.reduce_by_pattern"),
            "hafnian.reduce_by_pattern.self_s":
                self_s("hafnian.reduce_by_pattern"),
            "states.kernel_builds":
                calls("probability.StateKernel.from_state"),
            "states.sigma_q_solves": sum(calls(n) for n in SIGMA_Q_SOLVERS),
            "states.self_s": sum(v[1] for k, v in names.items()
                                 if k.startswith("states.")),
            "probability.patterns_evaluated": c["patterns_evaluated"],
            "probability.pattern_probability.self_s":
                self_s("probability.StateKernel.pattern_probability"),
            "probability.distribution_from_kernel.calls":
                calls("probability.distribution_from_kernel"),
            "probability.distribution_from_kernel.self_s":
                self_s("probability.distribution_from_kernel"),
            "probability.distinct_pattern_ratio":
                c["distinct_patterns"] / c["patterns_evaluated"]
                if c["patterns_evaluated"] else 1.0,
            "metrics.likelihood_ratio.self_s":
                self_s("metrics.likelihood_ratio"),
            "metrics.tvd.calls": calls("metrics.tvd"),
            "experiment.sample_patterns.self_s":
                self_s("experiment.sample_patterns"),
            "experiment.ClickTable.to_csv.self_s":
                self_s("experiment.ClickTable.to_csv"),
            "experiment.pid_lock.steps": c["pid_lock.steps"],
            "experiment.pid_lock.self_s": self_s("experiment.pid_lock"),
            "experiment.error_signal_evals": c["error_signal_evals"],
            "experiment.tune_pid_gains.self_s":
                self_s("experiment.tune_pid_gains"),
            "reconstruction.fit_fringe.calls":
                calls("reconstruction.fit_fringe"),
            "reconstruction.fit_fringe.self_s":
                self_s("reconstruction.fit_fringe"),
            "reconstruction.reconstruct.self_s":
                self_s("reconstruction.reconstruct"),
            "reconstruction.records_to_csv.self_s":
                self_s("reconstruction.records_to_csv"),
            "reconstruction.records_from_csv.self_s":
                self_s("reconstruction.records_from_csv"),
            "probability.predict_twofold.calls":
                calls("probability.predict_twofold"),
            "probability.predict_twofold.self_s":
                self_s("probability.predict_twofold"),
            "fock.oracle_probability.self_s":
                self_s("fock.oracle_probability"),
            "fock.self_s": sum(v[1] for k, v in names.items()
                               if k.startswith("fock.")),
            "serialize.canonical_json.self_s":
                self_s("serialize.canonical_json"),
            "trace.self_s_total": sum(v[1] for v in names.values()),
        })
        return m
