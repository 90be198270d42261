"""Spans around the calls monoplex.cli makes into the other modules.

The program carries no tracing of its own. While a traced pass runs, the
names that monoplex.cli imports from simulate, laws, moments and serialize
(plus its own build_scenario and write_run), and the overlap counters that
monoplex.moments imports from core, are replaced by wrappers that record one
span per call; the originals are put back afterwards, so untraced passes run
the unmodified modules.

A span has a name (its layer), start and end (perf_counter seconds), the id
of the span that was open when it started, the pass it belongs to, and a
unit count (replicates, colorings or edges) where the layer has one. A
layer's self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


def _replicates(_structure, cfg, *args, **kwargs):
    return cfg.replicates


def _colorings(M, c, *args, **kwargs):
    return c**M.num_vertices


def _colorings_weighted(WH, c, *args, **kwargs):
    return c**WH.base.num_vertices


# monoplex.cli attribute -> (layer, unit count of one call or None)
CLI_LAYERS = {
    "simulate_T": ("simulate.mc", _replicates),
    "simulate_W": ("simulate.mc", _replicates),
    "simulate_ap_T": ("simulate.mc", lambda n, r, cfg: cfg.replicates),
    "simulate_correlated_er_T": ("simulate.mc", _replicates),
    "exact_law": ("simulate.exact", _colorings),
    "exact_law_weighted": ("simulate.exact", _colorings_weighted),
    "poisson_law": ("laws.target", None),
    "binom2_poisson_law": ("laws.target", None),
    "shared_component_law": ("laws.target", None),
    "compound_weighted_law": ("laws.target", None),
    "tv_distance": ("laws.tv", None),
    "law_moments": ("laws.tv", None),
    "build_scenario": ("families.build", None),
    "ap_hypergraph": ("families.build", None),
    "mean_T": ("moments.report", None),
    "mean_W": ("moments.report", None),
    "variance_T": ("moments.report", None),
    "variance_W": ("moments.report", None),
    "moment_matrix": ("moments.report", None),
    "condition_ratios": ("moments.report", None),
    "read_json": ("serialize.load", None),
    "load_structure": ("serialize.load", None),
    "write_run": ("cli.output", None),
}

# monoplex.moments attribute -> (layer, edges handled by one call)
MOMENTS_LAYERS = {
    "k_exact_all": ("core.overlap", lambda H: H.num_edges),
    "k_cross_all": ("core.overlap", lambda H1, H2: H1.num_edges + H2.num_edges),
    "weighted_pair_sums_all": ("core.overlap", lambda WH: len(WH.weights)),
}


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.phase = "pass"
        self.pass_index = 0

    @contextmanager
    def span(self, name: str, units: int = 0, label: str | None = None):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "label": label,
            "phase": self.phase,
            "pass": self.pass_index,
            "units": units,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def layer_totals(self, spans: list[dict]) -> dict[str, dict]:
        """Per layer: self time in seconds and units, over the given spans."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "units": 0})
        for s in spans:
            t = out[s["name"]]
            t["self_s"] += s["end"] - s["start"] - child_time[s["id"]]
            t["units"] += s["units"]
        return dict(out)


@contextmanager
def patched(modules_and_tables, hook):
    """Replace each listed module attribute by a wrapper that calls
    hook(layer, units, fn, args, kwargs); restore the originals on exit."""
    saved = []
    for module, table in modules_and_tables:
        for attr, (layer, units) in table.items():
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrapper(fn, layer, units, hook))
    try:
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _wrapper(fn, layer, units, hook):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        return hook(layer, units, fn, args, kwargs)

    return call


def span_hook(tracer: Tracer):
    def hook(layer, units, fn, args, kwargs):
        with tracer.span(layer, units(*args, **kwargs) if units else 0):
            return fn(*args, **kwargs)

    return hook


def capture_hook(store: list):
    """Keep every law the simulate layer returns, in call order."""

    def hook(layer, units, fn, args, kwargs):
        out = fn(*args, **kwargs)
        if layer.startswith("simulate."):
            store.append((fn.__name__, args, out))
        return out

    return hook
