"""Batch experiment runner.

Subcommands: construct (write structure files), moments (JSON moment report
for a structure file), preset (emit a ready-made experiment spec), compare
(run a spec: build instances over a size sweep, compute empirical or exact
laws, and report total variation distances against target limit laws).

SCENARIOS maps each scenario name to a builder that returns a BuiltScenario
subclass giving exact(c), the exact law; simulate(cfg), the Monte Carlo law;
and derived(...), the "derived" limit law. BuiltScenario.law alone reads the
spec's law kind. Presets are data: PRESETS maps a name to its spec arguments.

Comparison output is a CSV table plus a JSON manifest. The CSV depends only
on the spec (seed included), so reruns are byte-identical; wall-clock
timings and timestamps live in the manifest only.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import os
import platform
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from fractions import Fraction
from math import ceil, comb, inf, isfinite
from pathlib import Path
from typing import Callable

import numpy as np

from monoplex import __version__
from monoplex.core import (
    Multiplex,
    ResourceBoundError,
    UniformHypergraph,
    ValidationError,
    WeightedUniformHypergraph,
    _check_int,
    _is_int,
    _prefixed,
    new_multiplex,
)
from monoplex.families import (
    CorrelatedErParams,
    ap_count_closed_form,
    ap_hypergraph,
    appendix_star_hypergraph,
    appendix_three_multiplex,
    complete_graph,
    copies_hypergraph,
    new_correlated_er_params,
    new_pattern_graph,
    new_simple_graph,
    sample_correlated_er,
    vertex_copy_weighted_hypergraph,
)
from monoplex.laws import (
    DEFAULT_TAIL_TOL,
    MAX_LAW_CELLS,
    DiscreteLaw,
    binom2_poisson_law,
    compound_weighted_law,
    law_moments,
    new_shared_component_spec,
    poisson_law,
    shared_component_law,
    tv_distance,
)
# condition_ratios and mean_W are unused here (the reports carry the ratios
# and the mean); they stay importable from this module, whose calls
# bench/spans.py wraps.
from monoplex.moments import (
    _each,
    condition_ratios,
    mean_T,
    mean_W,
    moment_matrix,
    variance_T,
    variance_W,
)
from monoplex.serialize import (
    dumps,
    hypergraph_to_obj,
    load_structure,
    multiplex_to_obj,
    read_json,
    write_json,
)
from monoplex.simulate import (
    EmpiricalLaw,
    _check_seed,
    exact_law,
    exact_law_weighted,
    new_simulation_config,
    simulate_ap_T,
    simulate_correlated_er_T,
    simulate_T,
    simulate_W,
)

@dataclass(frozen=True)
class ExperimentSpec:
    """One comparison run: a construction scenario swept over sizes, a color
    rule, a simulation budget, and the limit laws to compare against."""

    scenario: str
    params: dict
    c_rule: dict
    sizes: tuple[int, ...]
    replicates: int
    seed: int
    law: str
    targets: tuple[dict, ...]
    tail_tol: float


def _number(value, where: str) -> float:
    """A finite number from a spec: JSON files may hold NaN and Infinity."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{where}: must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past float range
        x = inf
    if not isfinite(x):
        raise ValidationError(f"{where}: must be a finite number, got {value!r}")
    return x


def _target_law(t: dict, where: str) -> Callable[[int, float], DiscreteLaw] | None:
    """The law builder (dimension, tail_tol) -> law of a fixed target: one
    rate (poisson, binom2-poisson), subset -> rate (shared), or the rates of
    weights 1..K (compound); None for "derived", whose law the scenario gives.
    Value ranges and layers past the dimension are checked where the law is built."""
    kind = t.get("kind")
    if kind == "derived":
        return None
    if kind in ("poisson", "binom2-poisson"):
        rate = _number(t.get("rate"), f"{where}.rate")
        return lambda d, tol: (poisson_law if kind == "poisson" else binom2_poisson_law)(rate, tol)
    rates = t.get("rates")
    if kind == "shared":
        if not isinstance(rates, list):
            raise ValidationError(f"{where}.rates: list of {{subset, rate}} objects required")
        by_subset = {}
        for j, item in enumerate(rates):
            subset = item.get("subset") if isinstance(item, dict) else None
            if not isinstance(subset, list) or not all(_is_int(i) for i in subset):
                raise ValidationError(f"{where}.rates[{j}].subset: list of layer numbers required")
            if not subset or min(subset) < 1:
                raise ValidationError(f"{where}.rates[{j}].subset: layers >= 1 required, got {subset}")
            if frozenset(subset) in by_subset:
                raise ValidationError(f"{where}.rates[{j}].subset: {sorted(set(subset))} is given twice")
            by_subset[frozenset(subset)] = _number(item.get("rate"), f"{where}.rates[{j}].rate")
        return lambda d, tol: shared_component_law(new_shared_component_spec(d, by_subset), tol)
    if kind != "compound":
        raise ValidationError(f"{where}.kind: unknown target kind {kind!r}")
    if not isinstance(rates, dict) or not rates:
        raise ValidationError(f"{where}.rates: nonempty object of weight -> rate required")
    by_weight = {}
    for w, rate in rates.items():
        digits = str(w).lstrip("0")
        if not str(w).isdecimal() or not digits:
            raise ValidationError(f"{where}.rates: weight {w!r} must be an integer >= 1")
        # a law holding weight K has more than K states; len() bounds the digits int() reads
        if len(digits) > len(str(MAX_LAW_CELLS)) or int(digits) >= MAX_LAW_CELLS:
            shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
            raise ResourceBoundError(f"{where}.rates: weight {shown} is not below the law bound {MAX_LAW_CELLS}")
        if int(digits) in by_weight:
            raise ValidationError(f"{where}.rates[{w}]: weight {int(digits)} is given twice")
        by_weight[int(digits)] = _number(rate, f"{where}.rates[{w}]")
    return lambda d, tol: compound_weighted_law([by_weight.get(w + 1, 0.0) for w in range(max(by_weight))], tol)


def new_experiment_spec(
    scenario: str,
    params: dict,
    c_rule: dict,
    sizes,
    replicates: int,
    seed: int,
    law: str = "simulate",
    targets=(),
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ExperimentSpec:
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ValidationError(
            f"scenario: unknown scenario {scenario!r} (expected one of {', '.join(SCENARIOS)})"
        )
    if not isinstance(params, dict):
        raise ValidationError(f"params: expected an object, got {params!r}")
    if not isinstance(sizes, (list, tuple, range)) or not sizes:
        raise ValidationError("sizes: must be a nonempty list")
    sizes = tuple(sizes)
    for i, n in enumerate(sizes):
        _check_int(n, 1, f"sizes[{i}]")
    if law not in ("simulate", "exact"):
        raise ValidationError(f"law: expected 'simulate' or 'exact', got {law!r}")
    if not isinstance(c_rule, dict):
        raise ValidationError(f"c_rule: expected an object, got {c_rule!r}")
    kind = c_rule.get("kind")
    if kind == "fixed":
        _check_int(c_rule.get("value"), 1, "c_rule.value")
    elif kind in ("power", "mean"):
        if _number(c_rule.get("lam"), "c_rule.lam") <= 0:
            raise ValidationError("c_rule.lam: must be a positive number")
        if kind == "power":
            _number(c_rule.get("a"), "c_rule.a")
    else:
        raise ValidationError(f"c_rule.kind: expected fixed/power/mean, got {kind!r}")
    if not isinstance(targets, (list, tuple)) or not targets:
        raise ValidationError("targets: a nonempty list of target laws required")
    labels = set()
    for i, t in enumerate(targets):
        if not isinstance(t, dict):
            raise ValidationError(f"targets[{i}]: expected an object, got {t!r}")
        _target_law(t, f"targets[{i}]")
        label = t.get("label")
        # results.csv writes labels unquoted, one row per label
        if not isinstance(label, str) or not label or any(ch in label for ch in ',"\r\n'):
            raise ValidationError(f"targets[{i}].label: required, without comma, quote or newline; got {label!r}")
        if label in labels:
            raise ValidationError(f"targets[{i}].label: {label!r} is given twice")
        labels.add(label)
    targets = tuple(dict(t) for t in targets)
    new_simulation_config(1, replicates, seed)
    if not isinstance(tail_tol, float) or not 0 < tail_tol < 1:
        raise ValidationError(f"tail_tol: must be in (0, 1), got {tail_tol!r}")
    return ExperimentSpec(
        scenario, dict(params), dict(c_rule), sizes, replicates, seed, law, targets, tail_tol
    )


def spec_to_obj(spec: ExperimentSpec) -> dict:
    return {"kind": "experiment_spec", **asdict(spec)}


def spec_from_obj(obj: dict, where: str = "spec") -> ExperimentSpec:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    if obj.get("kind") != "experiment_spec":
        raise ValidationError(f"{where}.kind: expected 'experiment_spec', got {obj.get('kind')!r}")
    for key in ("scenario", "params", "c_rule", "sizes", "replicates", "seed", "targets"):
        if key not in obj:
            raise ValidationError(f"{where}: missing field {key!r}")
    return new_experiment_spec(**{f.name: obj[f.name] for f in fields(ExperimentSpec) if f.name in obj})


# ---------------------------------------------------------------------------
# scenario construction


@contextmanager
def _named(where: str):
    """Prefix a refused law's message with what the law is for."""
    try:
        yield
    except (ValidationError, ResourceBoundError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class BuiltScenario:
    """A scenario's instance at one size. Subclasses hold its structure and
    give exact(c), its exact law at c colors; simulate(cfg), its EmpiricalLaw
    under a SimulationConfig; and derived(largest, c_largest, c, tail_tol),
    the law of a "derived" target. law() picks exact or simulate for the
    spec, so a subclass adds a law path by overriding one method."""

    n: int
    dimension: int
    uniformity: int
    ref_count: float  # reference edge/weight total driving the mean color rule

    def law(self, spec: ExperimentSpec, c: int, seed: int) -> Callable[[], tuple[DiscreteLaw, dict]]:
        """The only reader of spec.law. Returns the call that counts the law
        at c, with the manifest's record of how it was counted. A simulated
        law's config is made at once, so c, replicates and seed are checked
        before the call runs."""
        if spec.law == "exact":
            return lambda: (self.exact(c), {"law": "exact"})
        cfg = new_simulation_config(c, spec.replicates, seed)

        def simulated() -> tuple[DiscreteLaw, dict]:
            emp = self.simulate(cfg)
            return emp.law, dict(law="simulate", blocks=emp.blocks, chunk=emp.chunk, layers=list(emp.layers))

        return simulated

    def rows(self, spec: ExperimentSpec, c: int, largest: BuiltScenario, c_largest: int) -> list[dict]:
        """One comparison row per target of the spec. The targets are built
        and checked first, so a mismatched one fails before the law is computed."""
        targets = [(t["label"], self.target(t, largest, c_largest, c, spec.tail_tol)) for t in spec.targets]
        for label, target in targets:
            if target.dimension != self.dimension:
                raise ValidationError(
                    f"targets[{label}]: dimension {target.dimension} != scenario dimension {self.dimension}"
                )
        emp, counting = self.law(spec, c, spec.seed)()
        return [_compare_row(self.n, c, label, emp, target, counting) for label, target in targets]

    def target(self, tspec: dict, largest, c_largest: int, c: int, tail_tol: float) -> DiscreteLaw:
        """The limit law that one target of the spec names, at this size."""
        build = _target_law(tspec, f"targets[{tspec['label']}]")
        with _named(f"targets[{tspec['label']}]"):
            return build(self.dimension, tail_tol) if build else self.derived(largest, c_largest, c, tail_tol)


@dataclass(frozen=True)
class MultiplexScenario(BuiltScenario):
    """Fixed layers; derived: independent Poissons at the largest instance's layer means."""

    multiplex: Multiplex

    def exact(self, c: int) -> DiscreteLaw:
        return exact_law(self.multiplex, c)

    def simulate(self, cfg) -> EmpiricalLaw:
        return simulate_T(self.multiplex, cfg)

    def derived(self, largest, c_largest: int, c: int, tail_tol: float) -> DiscreteLaw:
        rates = {
            frozenset({i + 1}): mean_T(layer, c_largest)
            for i, layer in enumerate(largest.multiplex.layers)
        }
        return shared_component_law(new_shared_component_spec(self.dimension, rates), tail_tol)


@dataclass(frozen=True)
class WeightedScenario(BuiltScenario):
    """Weighted edges; derived: the compound law of this instance's weight classes at c."""

    weighted: WeightedUniformHypergraph

    def exact(self, c: int) -> DiscreteLaw:
        return exact_law_weighted(self.weighted, c)

    def simulate(self, cfg) -> EmpiricalLaw:
        return simulate_W(self.weighted, cfg)

    def derived(self, largest, c_largest: int, c: int, tail_tol: float) -> DiscreteLaw:
        counts, scale = Counter(self.weighted.weights), c ** (self.uniformity - 1)
        rates = [float(Fraction(counts[w], scale)) for w in range(1, max(counts) + 1)]
        return compound_weighted_law(rates, tail_tol)


@dataclass(frozen=True)
class ApScenario(BuiltScenario):
    """r-term APs in [1, n], r = uniformity; derived: Poisson at the largest mean."""

    def exact(self, c: int) -> DiscreteLaw:
        return exact_law(new_multiplex([ap_hypergraph(range(1, self.n + 1), self.uniformity)]), c)

    def simulate(self, cfg) -> EmpiricalLaw:
        return simulate_ap_T(self.n, self.uniformity, cfg)

    def derived(self, largest, c_largest: int, c: int, tail_tol: float) -> DiscreteLaw:
        return poisson_law(largest.ref_count / c_largest ** (largest.uniformity - 1), tail_tol)


@dataclass(frozen=True)
class CorrErScenario(BuiltScenario):
    """Correlated Erdos-Renyi layers, drawn afresh in every replicate."""

    er_params: CorrelatedErParams

    def exact(self, c: int) -> DiscreteLaw:
        raise ValidationError("law: exact enumeration unavailable for scenario 'corr-er'")

    def simulate(self, cfg) -> EmpiricalLaw:
        return simulate_correlated_er_T(self.er_params, cfg)

    def derived(self, largest, c_largest: int, c: int, tail_tol: float) -> DiscreteLaw:
        ep = largest.er_params
        subsets = comb(largest.n, largest.uniformity)
        scale = c_largest ** (largest.uniformity - 1)
        lam = ep.p * subsets / scale
        lam12 = ep.p12 * subsets / scale
        rates = {
            frozenset({1}): lam - lam12,
            frozenset({2}): lam - lam12,
            frozenset({1, 2}): lam12,
        }
        return shared_component_law(new_shared_component_spec(2, rates), tail_tol)


@dataclass(frozen=True)
class AppendixBScenario(BuiltScenario):
    """The nested and pairwise triple-overlap multiplexes. Whatever the
    spec's targets, each variant is compared with its own limit law and the
    two with each other (rows nested, pairwise, cross); variant i in name
    order draws with seed + i."""

    lam: float
    variants: dict  # name -> Multiplex

    def limits(self, c: int, tail_tol: float) -> dict[str, DiscreteLaw]:
        """Triple-overlap vs pairwise-overlap limit laws at the finite-n rates."""
        m = int(self.lam * self.n)
        li = comb(self.n, 2) / c
        lp = comb(m, 2) / c
        nested = {frozenset({i}): li - lp for i in (1, 2, 3)}
        nested[frozenset({1, 2, 3})] = lp
        pairwise = {frozenset({i}): li - 2 * lp for i in (1, 2, 3)}
        pairwise.update({frozenset(pair): lp for pair in itertools.combinations((1, 2, 3), 2)})
        laws = {}
        for name, rates in (("nested", nested), ("pairwise", pairwise)):
            with _named(f"{name} limit law"):
                laws[name] = shared_component_law(new_shared_component_spec(3, rates), tail_tol)
        return laws

    def rows(self, spec: ExperimentSpec, c: int, largest: BuiltScenario, c_largest: int) -> list[dict]:
        limits = self.limits(c, spec.tail_tol)
        emp, counting = {}, {}
        rows = []
        for offset, name in enumerate(sorted(self.variants)):
            seed = (spec.seed + offset) % 2**64
            variant = MultiplexScenario(self.n, 3, 2, self.ref_count, self.variants[name])
            emp[name], counting[name] = variant.law(spec, c, seed)()
            rows.append(_compare_row(self.n, c, name, emp[name], limits[name], counting[name]))
        rows.append(_compare_row(self.n, c, "cross", emp["nested"], emp["pairwise"], counting["nested"]))
        return rows


def _param(params: dict, key: str, default=None, low: int | None = None):
    """A numeric scenario parameter: params[key], else default (None: required);
    an integer >= low when low is given."""
    value = params.get(key, default)
    if value is None:
        raise ValidationError(f"params.{key}: required for this scenario")
    if low is None:
        return _number(value, f"params.{key}")
    _check_int(value, low, f"params.{key}")
    return value


def _blocks_graph(blocks: int, triangle_fraction: float):
    """Vertex-disjoint blocks: a triangle_fraction share of triangles, the
    rest 2-edge paths; each block occupies 3 fresh vertices."""
    triangles = round(blocks * triangle_fraction)
    edges = []
    for b in range(blocks):
        x = 3 * b
        edges.append([x, x + 1])
        edges.append([x + 1, x + 2])
        if b < triangles:
            edges.append([x, x + 2])
    return new_simple_graph(3 * blocks, edges)


def _pattern(p, where: str):
    """The graph of a pattern object {"num_vertices": k, "edges": [[u, v], ...]}."""
    if not isinstance(p, dict) or not _is_int(p.get("num_vertices")):
        raise ValidationError(f"{where}.num_vertices: integer required")
    edges = p.get("edges")
    if not isinstance(edges, list) or not all(isinstance(e, (list, tuple)) for e in edges):
        raise ValidationError(f"{where}.edges: list of vertex pairs required")
    return _prefixed(where, new_pattern_graph, p["num_vertices"], edges)


def _multiplex_scenario(n: int, layers: list[UniformHypergraph]) -> MultiplexScenario:
    M = new_multiplex(layers)
    return MultiplexScenario(n, M.num_layers, layers[0].uniformity, layers[0].num_edges, M)


def _build_complete_graph(params: dict, n: int) -> BuiltScenario:
    return _multiplex_scenario(n, [complete_graph(n)])


def _build_pattern_copies(params: dict, n: int) -> BuiltScenario:
    patterns = params.get("patterns")
    if not isinstance(patterns, list) or not patterns:
        raise ValidationError("params.patterns: nonempty list required")
    G = complete_graph(n)
    layers = [
        copies_hypergraph(G, _pattern(p, f"params.patterns[{i}]")).hypergraph
        for i, p in enumerate(patterns)
    ]
    return _multiplex_scenario(n, layers)


def _build_ap(params: dict, n: int) -> BuiltScenario:
    r = _param(params, "r", 3, low=3)
    return ApScenario(n, 1, r, ap_count_closed_form(n, r))


def _build_corr_er(params: dict, n: int) -> BuiltScenario:
    r = _param(params, "r", 2, low=2)
    ep = new_correlated_er_params(n, r, _param(params, "p"), _param(params, "rho"))
    return CorrErScenario(n, 2, r, ep.p * comb(n, r), ep)


def _build_weighted_blocks(params: dict, n: int) -> BuiltScenario:
    frac = _param(params, "triangle_fraction", 0.3)
    if not 0 <= frac <= 1:
        raise ValidationError(f"params.triangle_fraction: must be in [0, 1], got {frac}")
    path3 = new_pattern_graph(3, [[0, 1], [1, 2]])
    WH = vertex_copy_weighted_hypergraph(_blocks_graph(n, frac), path3)
    return WeightedScenario(n, 1, 3, sum(WH.weights), WH)


def _build_appendix_a(params: dict, n: int) -> BuiltScenario:
    return _multiplex_scenario(n, [appendix_star_hypergraph(n)])


def _build_appendix_b(params: dict, n: int) -> BuiltScenario:
    lam = _param(params, "lam", 0.2)
    if not 0 < lam < 0.25:
        raise ValidationError(f"params.lam: must be in (0, 1/4), got {lam}")
    variants = {v: appendix_three_multiplex(n, lam, v) for v in ("nested", "pairwise")}
    return AppendixBScenario(n, 3, 2, comb(n, 2), lam, variants)


# scenario name -> builder(params, n)
SCENARIOS = {
    "complete-graph": _build_complete_graph,
    "pattern-copies": _build_pattern_copies,
    "ap": _build_ap,
    "corr-er": _build_corr_er,
    "weighted-blocks": _build_weighted_blocks,
    "appendix-a": _build_appendix_a,
    "appendix-b": _build_appendix_b,
}


def build_scenario(spec: ExperimentSpec, n: int) -> BuiltScenario:
    return SCENARIOS[spec.scenario](spec.params, n)


def resolve_colors(c_rule: dict, built: BuiltScenario) -> int:
    kind = c_rule["kind"]
    if kind == "fixed":
        return c_rule["value"]
    if kind == "power":
        lam, a = c_rule["lam"], c_rule["a"]
        try:
            c = lam * float(built.n) ** a
        except OverflowError:
            c = inf
        if not isfinite(c):
            raise ValidationError(f"c_rule: lam * n^a is past float range at n = {built.n}")
        if c > 1 and float(a).is_integer():
            # exact from lam's decimal value, so 1.1 * 100 gives 110, not
            # 110.00000000000001; c > 1 keeps n^|a| within float range
            c = Fraction(repr(lam)) * Fraction(built.n) ** int(a)
        return max(1, ceil(c))
    # mean: the smallest c with c^(r-1) >= ref_count / lam, so the leading
    # count over c^(r-1) lands near lam; int ** int vs float compares exactly
    base = built.ref_count / c_rule["lam"]
    if not isfinite(base):
        raise ValidationError(f"c_rule: ref_count / lam is past float range at n = {built.n}")
    k = built.uniformity - 1
    c = max(1, int(base ** (1.0 / k)))
    while c > 1 and (c - 1) ** k >= base:
        c -= 1
    while c**k < base:
        c += 1
    return c


# ---------------------------------------------------------------------------
# the compare runner


def _gaps(a: DiscreteLaw, b: DiscreteLaw) -> tuple[float, float]:
    ma, mb = law_moments(a), law_moments(b)
    mean_gap = max(
        abs(float(x) - float(y)) for x, y in zip(ma.means, mb.means)
    )
    var_gap = max(
        abs(float(ma.covariance[i][i]) - float(mb.covariance[i][i]))
        for i in range(a.dimension)
    )
    return mean_gap, var_gap


def _compare_row(n: int, c: int, label: str, emp: DiscreteLaw, target: DiscreteLaw, counting: dict) -> dict:
    """One comparison row; counting, the record of how emp was counted,
    goes to the manifest and never to the CSV."""
    tv = float(tv_distance(emp, target))
    mean_gap, var_gap = _gaps(emp, target)
    return {
        "n": n,
        "c": c,
        "label": label,
        "tv": tv,
        "mean_gap": mean_gap,
        "var_gap": var_gap,
        "counting": counting,
    }


def run_compare(spec: ExperimentSpec) -> list[dict]:
    """All comparison rows for the sweep, in size order."""
    built_by_n, build_s = {}, {}
    for n in spec.sizes:
        t0 = time.perf_counter()
        built_by_n[n] = build_scenario(spec, n)
        build_s[n] = round(time.perf_counter() - t0, 3)
    c_by_n = {n: resolve_colors(spec.c_rule, built_by_n[n]) for n in spec.sizes}
    for n in spec.sizes:  # every size's c fits a simulated law's draw before any law runs
        built_by_n[n].law(spec, c_by_n[n], spec.seed)
    n_largest = max(spec.sizes)
    rows: list[dict] = []
    for n in spec.sizes:
        t0 = time.perf_counter()
        size_rows = built_by_n[n].rows(spec, c_by_n[n], built_by_n[n_largest], c_by_n[n_largest])
        runtime = round(time.perf_counter() - t0, 3)
        rows.extend(dict(row, build_s=build_s[n], runtime_s=runtime) for row in size_rows)
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    out = ["n,c,label,tv,mean_gap,var_gap"]
    for row in rows:
        out.append(
            f"{row['n']},{row['c']},{row['label']},"
            f"{row['tv']:.12g},{row['mean_gap']:.12g},{row['var_gap']:.12g}"
        )
    return "\n".join(out) + "\n"


def write_run(spec: ExperimentSpec, rows: list[dict], out: Path, fmt: str) -> dict:
    """Write the table and manifest into the existing directory out."""
    if fmt == "csv":
        table = out / "results.csv"
        table.write_text(rows_to_csv(rows))
    else:
        table = out / "results.json"
        write_json(table, {"kind": "results", "rows": rows})
    manifest_path = out / "manifest.json"
    write_json(
        manifest_path,
        {
            "kind": "run_manifest",
            "artifact_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "platform": {"python": platform.python_version(), "numpy": np.__version__, "cpus": os.cpu_count()},
            "spec": spec_to_obj(spec),
            "results": list(rows),
            "outputs": {"table": str(table)},
        },
    )
    return {"table": str(table), "manifest": str(manifest_path)}


# ---------------------------------------------------------------------------
# presets


# preset name -> new_experiment_spec arguments; every preset draws from seed
# 20260816
PRESETS = {
    "birthday": dict(
        scenario="complete-graph",
        params={},
        c_rule={"kind": "mean", "lam": 1.0},
        sizes=(50, 100, 200),
        replicates=100_000,
        targets=({"kind": "poisson", "rate": 1.0, "label": "pois-1"},),
    ),
    "edge-color": dict(
        scenario="pattern-copies",
        params={
            "patterns": [
                {"num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]},  # path P4
                {"num_vertices": 4, "edges": [[0, 1], [0, 2], [0, 3]]},  # star K1,3
            ]
        },
        c_rule={"kind": "mean", "lam": 0.3},
        sizes=(10, 14),
        replicates=100_000,
        targets=({"kind": "derived", "label": "product-pois"},),
    ),
    "ap": dict(
        scenario="ap",
        params={"r": 3},
        c_rule={"kind": "power", "lam": 1.0, "a": 1.0},
        sizes=(100, 300, 1000),
        replicates=1_000_000,
        targets=({"kind": "derived", "label": "pois-mean-largest"},),
    ),
    "corr-er": dict(
        scenario="corr-er",
        params={"r": 2, "p": 0.02, "rho": 0.0056},
        c_rule={"kind": "mean", "lam": 1.0},
        sizes=(100, 300),
        replicates=100_000,
        targets=(
            {
                "kind": "shared",
                "label": "shared-joint",
                "rates": [
                    {"subset": [1], "rate": 0.7},
                    {"subset": [2], "rate": 0.7},
                    {"subset": [1, 2], "rate": 0.3},
                ],
            },
        ),
    ),
    "weighted": dict(
        scenario="weighted-blocks",
        params={"triangle_fraction": 0.3},
        c_rule={"kind": "mean", "lam": 0.55},
        sizes=(250, 500),
        replicates=100_000,
        targets=({"kind": "derived", "label": "compound"},),
    ),
    "appendix-a": dict(
        scenario="appendix-a",
        params={},
        c_rule={"kind": "power", "lam": 1.0, "a": 1.0},
        sizes=(100, 200, 500),
        replicates=100_000,
        targets=(
            {"kind": "binom2-poisson", "rate": 1.0, "label": "binom2-pois-1"},
            {"kind": "poisson", "rate": 0.5, "label": "pois-half"},
        ),
    ),
    "appendix-b": dict(
        scenario="appendix-b",
        params={"lam": 0.2},
        c_rule={"kind": "power", "lam": 1.0, "a": 2.0},
        sizes=(200, 400),
        replicates=100_000,
        targets=({"kind": "derived", "label": "shared-own"},),
    ),
}


def preset_spec(name: str) -> ExperimentSpec:
    if name not in PRESETS:
        raise ValidationError(
            f"preset: unknown preset {name!r} (expected one of {', '.join(PRESETS)})"
        )
    return new_experiment_spec(seed=20260816, **copy.deepcopy(PRESETS[name]))


# ---------------------------------------------------------------------------
# commands


def cmd_construct(args) -> int:
    name = args.name
    if name == "ap":
        _check_int(args.n, 0, "n")
        structure = ap_hypergraph(range(1, args.n + 1), args.r)
    elif name == "complete":
        structure = complete_graph(args.n)
    elif name == "appendix-a":
        structure = appendix_star_hypergraph(args.n)
    elif name == "appendix-b":
        structure = appendix_three_multiplex(args.n, args.lam, args.variant)
    elif name == "corr-er":
        params = new_correlated_er_params(args.n, args.r, args.p, args.rho)
        _check_seed(args.seed)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=args.seed)))
        structure = sample_correlated_er(params, rng)
    else:
        raise ValidationError(
            f"construct: unknown construction {name!r} "
            "(expected ap, complete, appendix-a, appendix-b, corr-er)"
        )
    out = args.out or f"{name}-n{args.n}.json"
    if isinstance(structure, Multiplex):
        write_json(out, multiplex_to_obj(structure))
        layers = structure.layers
    else:
        write_json(out, hypergraph_to_obj(structure))
        layers = (structure,)
    sizes = "+".join(str(layer.num_edges) for layer in layers)
    print(f"wrote {out} ({sizes} edges)")
    return 0


def _moment_report(structure, c: int, rational: bool) -> dict:
    """The exact report, as "p/q" strings when rational, else each value rounded once."""
    if isinstance(structure, Multiplex):
        kind, rep = "moment_matrix", moment_matrix(structure, c, rational=True)
    elif isinstance(structure, WeightedUniformHypergraph):
        kind, rep = "weighted_moments", variance_W(structure, c, rational=True)
    else:
        kind, rep = "moments", variance_T(structure, c, rational=True)
    report = {("condition_ratios" if k == "ratios" else k): v for k, v in asdict(rep).items()}
    number = (lambda x: f"{x.numerator}/{x.denominator}") if rational else float
    return {"kind": kind, "c": c, **_each(report, number)}


def _emit(obj, out) -> int:
    """Write obj as JSON to the file out, or print it when out is not given."""
    if out:
        write_json(out, obj)
        print(f"wrote {out}")
    else:
        print(dumps(obj))
    return 0


def cmd_moments(args) -> int:
    return _emit(_moment_report(load_structure(args.file), args.c, args.rational), args.out)


def cmd_preset(args) -> int:
    return _emit(spec_to_obj(preset_spec(args.name)), args.out)


def cmd_compare(args) -> int:
    if bool(args.config) == bool(args.preset):
        raise ValidationError("compare: exactly one of --config or --preset is required")
    if args.config:
        spec = spec_from_obj(read_json(args.config), str(args.config))
    else:
        spec = preset_spec(args.preset)
    overrides = {
        key: getattr(args, key)
        for key in ("seed", "replicates")
        if getattr(args, key) is not None
    }
    if overrides:
        spec = spec_from_obj({**spec_to_obj(spec), **overrides})
    out = Path(args.out)
    try:  # before any law runs, so an unusable --out costs nothing
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"{args.out}: cannot make the output directory ({exc.strerror})") from exc
    rows = run_compare(spec)
    outputs = write_run(spec, rows, out, args.format)
    for row in rows:
        print(
            f"n={row['n']} c={row['c']} {row['label']}: tv={row['tv']:.6g} "
            f"mean_gap={row['mean_gap']:.6g} var_gap={row['var_gap']:.6g}"
        )
    print(f"wrote {outputs['table']} and {outputs['manifest']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoplex",
        description="Monochromatic-count experiments on uniform hypergraph multiplexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a construction to a JSON file")
    p.add_argument("name", help="ap | complete | appendix-a | appendix-b | corr-er")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--lam", type=float, default=0.2)
    p.add_argument("--variant", choices=("nested", "pairwise"), default="nested")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("moments", help="JSON moment report for a structure file")
    p.add_argument("file")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--rational", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("preset", help="emit a ready-made experiment spec")
    p.add_argument("name", help=" | ".join(PRESETS))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("compare", help="run an experiment spec and report TV distances")
    p.add_argument("--config", default=None, help="experiment spec JSON file")
    p.add_argument("--preset", default=None, help="run a named preset directly")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--replicates", type=int, default=None)
    # Accepted and ignored: the benchmark under bench/ still passes it.
    p.add_argument("--shards", type=int, help=argparse.SUPPRESS)
    p.add_argument("--out", default="runs")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBoundError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
