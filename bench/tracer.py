"""Spans around the calls into each layer, recorded from outside `src/`.

`Tracer.patch` rebinds the names each caller looks up (for example
`analysis.sample_network` or `analysis._BACKENDS["thinning"]`) to wrappers
that open a span, and restores the originals on exit.  Spans stay in
memory as (call id, span id, parent id, name, start, end) and are written
with the run id when the run ends; one call is one `verify` request.  `rng.stream` constructions are counted, not spanned:
the limit sampler makes tens of thousands of them.

A layer's self time is its span's duration minus the time covered by its
child spans.  The root span is the whole `cli.main` call, so the self times
of one call add up to its traced wall time.
"""

import contextlib
import json
import time
from collections import Counter

# span name -> the analysis-module names its callers look up
_ANALYSIS_LAYERS = {
    "network.sample": ("sample_network", "build_complementary_network"),
    "simulator.martingale": ("extract_martingale_paths",),
    "simulator.compensators": ("compensators",),
    "volterra.solve": ("solve_mean_field",),
    "fluctuations.sample": ("sample_terminal_fluctuations",),
    "fluctuations.jackknife": ("jackknife_covariance",),
}
_BACKEND_SPANS = {"thinning": "simulator.thinning",
                  "time_change": "simulator.time_change"}
# modules that bind rng.stream under their own name
_STREAM_CALLERS = ("network", "simulator", "fluctuations")

EXPERIMENT = "analysis.experiment"
_LAYER_NAMES = ("cli.verify", EXPERIMENT, *_ANALYSIS_LAYERS,
                *_BACKEND_SPANS.values())


class Tracer:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.call_id = None
        self.spans = []       # [call id, span id, parent id, name, start, end]
        self.call_counts = {}  # call id -> Counter of work done in that call
        self.counts = Counter()
        self._stack = []

    def begin_call(self, call_id):
        """Start a new request: later spans and counts belong to call_id."""
        self.call_id = call_id
        self.counts = self.call_counts[call_id] = Counter()

    @contextlib.contextmanager
    def span(self, name):
        rec = [self.call_id, len(self.spans),
               self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[1])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(result) records counts from the result."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        return traced

    def _count_network(self, net):
        self.counts["network.calls"] += 1
        self.counts["network.pairs"] += net.n * net.n

    def _count_samples(self, out):
        self.counts["fluctuations.samples"] += len(out["kbar"])

    def _count_stream(self, fn):
        def counted(*args, **kwargs):
            self.counts["rng.streams"] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def patch(self, hm):
        """Wrap every layer entry point of package `hm` for the duration."""
        analysis, cli = hm.analysis, hm.cli
        saved = []

        def rebind(namespace, key, new):
            saved.append((namespace, key, namespace[key]))
            namespace[key] = new

        after = {"network.sample": self._count_network,
                 "fluctuations.sample": self._count_samples}
        try:
            rebind(vars(cli), "run_experiment",
                   self.wrap(EXPERIMENT, cli.run_experiment))
            for name, attrs in _ANALYSIS_LAYERS.items():
                for attr in attrs:
                    rebind(vars(analysis), attr, self.wrap(
                        name, getattr(analysis, attr), after.get(name)))
            for key, name in _BACKEND_SPANS.items():
                rebind(analysis._BACKENDS, key,
                       self.wrap(name, analysis._BACKENDS[key]))
            for mod in _STREAM_CALLERS:
                module = getattr(hm, mod)
                rebind(vars(module), "stream",
                       self._count_stream(module.stream))
            yield self
        finally:
            for namespace, key, old in reversed(saved):
                namespace[key] = old

    def self_times(self, call_id):
        """Per-layer (self seconds, inclusive seconds) for one call."""
        spans = [s for s in self.spans if s[0] == call_id]
        child = Counter()
        for s in spans:
            if s[2] is not None:
                child[s[2]] += s[5] - s[4]
        self_s, incl_s = Counter(), Counter()
        for name in _LAYER_NAMES:
            self_s[name] = incl_s[name] = 0.0
        for s in spans:
            dur = s[5] - s[4]
            incl_s[s[3]] += dur
            self_s[s[3]] += dur - child[s[1]]
        return self_s, incl_s

    def write(self, path):
        """Write every span as one JSON line."""
        keys = ("call", "span", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = dict(zip(keys, s), run=self.run_id)
                fh.write(json.dumps(rec) + "\n")
