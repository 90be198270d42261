"""Batch experiment runner.

Subcommands: construct (write structure files), moments (JSON moment report
for a structure file), preset (emit a ready-made experiment spec), compare
(run a spec: build instances over a size sweep, compute empirical or exact
laws, and report total variation distances against target limit laws).

Comparison output is a CSV table plus a JSON manifest. The CSV depends only
on the spec (seed included), so reruns are byte-identical; wall-clock
timings and timestamps live in the manifest only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from math import ceil, comb
from pathlib import Path

import numpy as np

from monoplex import __version__
from monoplex.core import (
    Multiplex,
    ResourceBoundError,
    UniformHypergraph,
    ValidationError,
    WeightedUniformHypergraph,
    new_hypergraph,
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
    DiscreteLaw,
    binom2_poisson_law,
    compound_weighted_law,
    law_moments,
    new_shared_component_spec,
    poisson_law,
    shared_component_law,
    tv_distance,
)
from monoplex.moments import (
    condition_ratios,
    mean_T,
    moment_matrix,
    variance_T,
    variance_W,
    mean_W,
)
from monoplex.serialize import (
    hypergraph_to_obj,
    load_structure,
    multiplex_to_obj,
    read_json,
    write_json,
)
from monoplex.simulate import (
    exact_law,
    exact_law_weighted,
    new_simulation_config,
    simulate_ap_T,
    simulate_correlated_er_T,
    simulate_T,
    simulate_W,
)

SCENARIOS = (
    "complete-graph",
    "pattern-copies",
    "ap",
    "corr-er",
    "weighted-blocks",
    "appendix-a",
    "appendix-b",
)

PRESETS = (
    "birthday",
    "edge-color",
    "ap",
    "corr-er",
    "weighted",
    "appendix-a",
    "appendix-b",
)

_PATH3 = {"num_vertices": 3, "edges": [[0, 1], [1, 2]]}


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
    shards: int
    law: str
    targets: tuple[dict, ...]
    tail_tol: float


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a compare run plus its summary rows."""

    artifact_version: str
    created_utc: str
    spec: dict
    results: tuple[dict, ...]
    outputs: dict


def new_experiment_spec(
    scenario: str,
    params: dict,
    c_rule: dict,
    sizes,
    replicates: int,
    seed: int,
    shards: int = 1,
    law: str = "simulate",
    targets=(),
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ExperimentSpec:
    if scenario not in SCENARIOS:
        raise ValidationError(
            f"scenario: unknown scenario {scenario!r} (expected one of {', '.join(SCENARIOS)})"
        )
    sizes = tuple(sizes)
    if not sizes:
        raise ValidationError("sizes: must be nonempty")
    for i, n in enumerate(sizes):
        if not isinstance(n, int) or n < 1:
            raise ValidationError(f"sizes[{i}]: must be an integer >= 1, got {n!r}")
    if law not in ("simulate", "exact"):
        raise ValidationError(f"law: expected 'simulate' or 'exact', got {law!r}")
    kind = c_rule.get("kind")
    if kind == "fixed":
        if not isinstance(c_rule.get("value"), int) or c_rule["value"] < 1:
            raise ValidationError("c_rule.value: must be an integer >= 1")
    elif kind in ("power", "mean"):
        lam = c_rule.get("lam")
        if not isinstance(lam, (int, float)) or lam <= 0:
            raise ValidationError("c_rule.lam: must be a positive number")
        if kind == "power" and not isinstance(c_rule.get("a"), (int, float)):
            raise ValidationError("c_rule.a: must be a number")
    else:
        raise ValidationError(f"c_rule.kind: expected fixed/power/mean, got {kind!r}")
    targets = tuple(dict(t) for t in targets)
    if not targets:
        raise ValidationError("targets: at least one target law required")
    for i, t in enumerate(targets):
        if t.get("kind") not in ("poisson", "binom2-poisson", "shared", "compound", "derived"):
            raise ValidationError(f"targets[{i}].kind: unknown target kind {t.get('kind')!r}")
        if not isinstance(t.get("label"), str) or not t["label"]:
            raise ValidationError(f"targets[{i}].label: required")
    new_simulation_config(1, replicates, seed, shards)
    if not isinstance(tail_tol, float) or not 0 < tail_tol < 1:
        raise ValidationError(f"tail_tol: must be in (0, 1), got {tail_tol!r}")
    return ExperimentSpec(
        scenario, dict(params), dict(c_rule), sizes, replicates, seed, shards, law, targets, tail_tol
    )


def spec_to_obj(spec: ExperimentSpec) -> dict:
    return {
        "kind": "experiment_spec",
        "scenario": spec.scenario,
        "params": spec.params,
        "c_rule": spec.c_rule,
        "sizes": list(spec.sizes),
        "replicates": spec.replicates,
        "seed": spec.seed,
        "shards": spec.shards,
        "law": spec.law,
        "targets": [dict(t) for t in spec.targets],
        "tail_tol": spec.tail_tol,
    }


def spec_from_obj(obj: dict, where: str = "spec") -> ExperimentSpec:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    if obj.get("kind") != "experiment_spec":
        raise ValidationError(f"{where}.kind: expected 'experiment_spec', got {obj.get('kind')!r}")
    required = ("scenario", "params", "c_rule", "sizes", "replicates", "seed", "targets")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{where}: missing field {key!r}")
    return new_experiment_spec(
        obj["scenario"],
        obj["params"],
        obj["c_rule"],
        obj["sizes"],
        obj["replicates"],
        obj["seed"],
        obj.get("shards", 1),
        obj.get("law", "simulate"),
        obj["targets"],
        obj.get("tail_tol", DEFAULT_TAIL_TOL),
    )


# ---------------------------------------------------------------------------
# scenario construction


@dataclass(frozen=True)
class BuiltScenario:
    kind: str  # multiplex | weighted | ap | corr-er | pair
    n: int
    dimension: int
    uniformity: int
    ref_count: float  # reference edge/weight total driving the mean color rule
    multiplex: Multiplex | None = None
    weighted: WeightedUniformHypergraph | None = None
    ap_r: int | None = None
    er_params: CorrelatedErParams | None = None
    variants: dict | None = None  # appendix-b: name -> Multiplex


def _param(params: dict, key: str, default=None):
    if key in params:
        return params[key]
    if default is None:
        raise ValidationError(f"params.{key}: required for this scenario")
    return default


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


def build_scenario(spec: ExperimentSpec, n: int) -> BuiltScenario:
    params = spec.params
    if spec.scenario == "complete-graph":
        if n < 2:
            raise ValidationError(f"sizes: complete-graph needs n >= 2, got {n}")
        H = new_hypergraph(2, n, [[i, j] for i in range(n) for j in range(i + 1, n)])
        return BuiltScenario(
            "multiplex", n, 1, 2, H.num_edges, multiplex=new_multiplex([H])
        )
    if spec.scenario == "pattern-copies":
        patterns = _param(params, "patterns")
        if not isinstance(patterns, list) or not patterns:
            raise ValidationError("params.patterns: nonempty list required")
        G = complete_graph(n)
        layers = []
        for i, p in enumerate(patterns):
            F = new_pattern_graph(p["num_vertices"], p["edges"])
            layers.append(copies_hypergraph(G, F).hypergraph)
        M = new_multiplex(layers)
        return BuiltScenario(
            "multiplex",
            n,
            M.num_layers,
            layers[0].uniformity,
            layers[0].num_edges,
            multiplex=M,
        )
    if spec.scenario == "ap":
        r = _param(params, "r", 3)
        return BuiltScenario("ap", n, 1, r, ap_count_closed_form(n, r), ap_r=r)
    if spec.scenario == "corr-er":
        r = _param(params, "r", 2)
        p = _param(params, "p")
        rho = _param(params, "rho")
        ep = new_correlated_er_params(n, r, float(p), float(rho))
        return BuiltScenario("corr-er", n, 2, r, ep.p * comb(n, r), er_params=ep)
    if spec.scenario == "weighted-blocks":
        frac = float(_param(params, "triangle_fraction", 0.3))
        if not 0 <= frac <= 1:
            raise ValidationError(f"params.triangle_fraction: must be in [0, 1], got {frac}")
        G = _blocks_graph(n, frac)
        F = new_pattern_graph(_PATH3["num_vertices"], _PATH3["edges"])
        WH = vertex_copy_weighted_hypergraph(G, F)
        return BuiltScenario("weighted", n, 1, 3, sum(WH.weights), weighted=WH)
    if spec.scenario == "appendix-a":
        H = appendix_star_hypergraph(n)
        return BuiltScenario("multiplex", n, 1, 3, H.num_edges, multiplex=new_multiplex([H]))
    if spec.scenario == "appendix-b":
        lam = float(_param(params, "lam", 0.2))
        variants = {
            "nested": appendix_three_multiplex(n, lam, "nested"),
            "pairwise": appendix_three_multiplex(n, lam, "pairwise"),
        }
        return BuiltScenario("pair", n, 3, 2, comb(n, 2), variants=variants)
    raise ValidationError(f"scenario: unknown scenario {spec.scenario!r}")


def resolve_colors(c_rule: dict, built: BuiltScenario) -> int:
    kind = c_rule["kind"]
    if kind == "fixed":
        return c_rule["value"]
    if kind == "power":
        return max(1, ceil(c_rule["lam"] * built.n ** c_rule["a"]))
    # mean: the smallest c with c^(r-1) >= ref_count / lam, so the leading
    # count over c^(r-1) lands near lam; int ** int vs float compares exactly
    base = built.ref_count / c_rule["lam"]
    k = built.uniformity - 1
    c = max(1, int(base ** (1.0 / k)))
    while c > 1 and (c - 1) ** k >= base:
        c -= 1
    while c**k < base:
        c += 1
    return c


# ---------------------------------------------------------------------------
# target laws


def _shared_law_from_rates(dimension: int, rate_items, tail_tol: float) -> DiscreteLaw:
    rates = {}
    for item in rate_items:
        subset = frozenset(int(i) for i in item["subset"])
        rates[subset] = float(item["rate"])
    return shared_component_law(new_shared_component_spec(dimension, rates), tail_tol)


def _weight_class_rates(WH: WeightedUniformHypergraph, c: int) -> list[float]:
    """Rates for weights 1..K, zero where no edge carries that weight."""
    counts: dict[int, int] = {}
    for w in WH.weights:
        counts[w] = counts.get(w, 0) + 1
    inv = float(Fraction(1, c ** (WH.base.uniformity - 1)))
    return [counts.get(w, 0) * inv for w in range(1, max(counts) + 1)]


def _derived_target(built: BuiltScenario, largest: BuiltScenario, c_largest: int, c: int, tail_tol: float) -> DiscreteLaw:
    """Limit law with rates read off the largest instance in the sweep (the
    per-size instance for weighted scenarios, whose class rates move with c)."""
    if built.kind == "multiplex":
        rates = {
            frozenset({i + 1}): mean_T(layer, c_largest)
            for i, layer in enumerate(largest.multiplex.layers)
        }
        return shared_component_law(
            new_shared_component_spec(built.dimension, rates), tail_tol
        )
    if built.kind == "ap":
        rate = ap_count_closed_form(largest.n, largest.ap_r) / c_largest ** (largest.ap_r - 1)
        return poisson_law(rate, tail_tol)
    if built.kind == "weighted":
        return compound_weighted_law(_weight_class_rates(built.weighted, c), tail_tol)
    if built.kind == "corr-er":
        ep = largest.er_params
        subsets = comb(largest.n, largest.uniformity)
        lam = ep.p * subsets / c_largest
        lam12 = ep.p12 * subsets / c_largest
        rates = {
            frozenset({1}): lam - lam12,
            frozenset({2}): lam - lam12,
            frozenset({1, 2}): lam12,
        }
        return shared_component_law(new_shared_component_spec(2, rates), tail_tol)
    raise ValidationError(f"targets: derived target unsupported for scenario kind {built.kind!r}")


def resolve_target(
    tspec: dict,
    built: BuiltScenario,
    largest: BuiltScenario,
    c_largest: int,
    c: int,
    tail_tol: float,
) -> DiscreteLaw:
    kind = tspec["kind"]
    if kind == "poisson":
        return poisson_law(float(tspec["rate"]), tail_tol)
    if kind == "binom2-poisson":
        return binom2_poisson_law(float(tspec["rate"]), tail_tol)
    if kind == "shared":
        return _shared_law_from_rates(built.dimension, tspec["rates"], tail_tol)
    if kind == "compound":
        by_weight = {int(w): float(rate) for w, rate in tspec["rates"].items()}
        dense = [by_weight.get(w, 0.0) for w in range(1, max(by_weight) + 1)]
        return compound_weighted_law(dense, tail_tol)
    return _derived_target(built, largest, c_largest, c, tail_tol)


def appendix_b_limit_laws(n: int, lam: float, c: int, tail_tol: float) -> dict[str, DiscreteLaw]:
    """Triple-overlap vs pairwise-overlap limit laws at the finite-n rates."""
    m = int(lam * n)
    li = comb(n, 2) / c
    lp = comb(m, 2) / c
    nested = {
        frozenset({1}): li - lp,
        frozenset({2}): li - lp,
        frozenset({3}): li - lp,
        frozenset({1, 2, 3}): lp,
    }
    pairwise = {
        frozenset({1}): li - 2 * lp,
        frozenset({2}): li - 2 * lp,
        frozenset({3}): li - 2 * lp,
        frozenset({1, 2}): lp,
        frozenset({1, 3}): lp,
        frozenset({2, 3}): lp,
    }
    return {
        "nested": shared_component_law(new_shared_component_spec(3, nested), tail_tol),
        "pairwise": shared_component_law(new_shared_component_spec(3, pairwise), tail_tol),
    }


# ---------------------------------------------------------------------------
# the compare runner


def _law_for(built: BuiltScenario, spec: ExperimentSpec, c: int, seed: int) -> DiscreteLaw:
    cfg = new_simulation_config(c, spec.replicates, seed, spec.shards)
    if spec.law == "exact":
        if built.kind == "multiplex":
            return exact_law(built.multiplex, c)
        if built.kind == "weighted":
            return exact_law_weighted(built.weighted, c)
        if built.kind == "ap":
            M = new_multiplex([ap_hypergraph(range(1, built.n + 1), built.ap_r)])
            return exact_law(M, c)
        raise ValidationError(
            f"law: exact enumeration unavailable for scenario kind {built.kind!r}"
        )
    if built.kind == "multiplex":
        return simulate_T(built.multiplex, cfg).law
    if built.kind == "weighted":
        return simulate_W(built.weighted, cfg).law
    if built.kind == "ap":
        return simulate_ap_T(built.n, built.ap_r, cfg).law
    if built.kind == "corr-er":
        return simulate_correlated_er_T(built.er_params, cfg).law
    raise ValidationError(f"law: no single law for scenario kind {built.kind!r}")


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


def _compare_row(n: int, c: int, label: str, emp: DiscreteLaw, target: DiscreteLaw) -> dict:
    if emp.dimension != target.dimension:
        raise ValidationError(
            f"targets[{label}]: dimension {target.dimension} != scenario dimension {emp.dimension}"
        )
    tv = float(tv_distance(emp, target))
    mean_gap, var_gap = _gaps(emp, target)
    return {
        "n": n,
        "c": c,
        "label": label,
        "tv": tv,
        "mean_gap": mean_gap,
        "var_gap": var_gap,
    }


def run_compare(spec: ExperimentSpec) -> list[dict]:
    """All comparison rows for the sweep, in size order."""
    built_by_n = {n: build_scenario(spec, n) for n in spec.sizes}
    c_by_n = {n: resolve_colors(spec.c_rule, built_by_n[n]) for n in spec.sizes}
    n_largest = max(spec.sizes)
    rows: list[dict] = []
    for n in spec.sizes:
        built = built_by_n[n]
        c = c_by_n[n]
        t0 = time.perf_counter()
        if built.kind == "pair":
            lam = float(_param(spec.params, "lam", 0.2))
            limits = appendix_b_limit_laws(n, lam, c, spec.tail_tol)
            emp = {}
            for offset, name in enumerate(sorted(built.variants)):
                cfg = new_simulation_config(
                    c, spec.replicates, (spec.seed + offset) % 2**64, spec.shards
                )
                M = built.variants[name]
                if spec.law == "exact":
                    emp[name] = exact_law(M, c)
                else:
                    emp[name] = simulate_T(M, cfg).law
                rows.append(_compare_row(n, c, name, emp[name], limits[name]))
            cross = _compare_row(n, c, "cross", emp["nested"], emp["pairwise"])
            rows.append(cross)
        else:
            emp = _law_for(built, spec, c, spec.seed)
            for tspec in spec.targets:
                target = resolve_target(
                    tspec, built, built_by_n[n_largest], c_by_n[n_largest], c, spec.tail_tol
                )
                rows.append(_compare_row(n, c, tspec["label"], emp, target))
        runtime = time.perf_counter() - t0
        for row in rows:
            if row["n"] == n and "runtime_s" not in row:
                row["runtime_s"] = round(runtime, 3)
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    out = ["n,c,label,tv,mean_gap,var_gap"]
    for row in rows:
        out.append(
            f"{row['n']},{row['c']},{row['label']},"
            f"{row['tv']:.12g},{row['mean_gap']:.12g},{row['var_gap']:.12g}"
        )
    return "\n".join(out) + "\n"


def write_run(spec: ExperimentSpec, rows: list[dict], out_dir: str | Path, fmt: str) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {}
    if fmt == "csv":
        table = out / "results.csv"
        table.write_text(rows_to_csv(rows))
    else:
        table = out / "results.json"
        write_json(table, {"kind": "results", "rows": rows})
    outputs["table"] = str(table)
    manifest = RunManifest(
        artifact_version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(),
        spec=spec_to_obj(spec),
        results=tuple(rows),
        outputs=dict(outputs),
    )
    manifest_path = out / "manifest.json"
    write_json(
        manifest_path,
        {
            "kind": "run_manifest",
            "artifact_version": manifest.artifact_version,
            "created_utc": manifest.created_utc,
            "spec": manifest.spec,
            "results": list(manifest.results),
            "outputs": manifest.outputs,
        },
    )
    outputs["manifest"] = str(manifest_path)
    return outputs


# ---------------------------------------------------------------------------
# presets


def preset_spec(name: str) -> ExperimentSpec:
    if name == "birthday":
        return new_experiment_spec(
            "complete-graph",
            {},
            {"kind": "mean", "lam": 1.0},
            (50, 100, 200),
            100_000,
            20260816,
            targets=({"kind": "poisson", "rate": 1.0, "label": "pois-1"},),
        )
    if name == "edge-color":
        path4 = {"num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
        star3 = {"num_vertices": 4, "edges": [[0, 1], [0, 2], [0, 3]]}
        return new_experiment_spec(
            "pattern-copies",
            {"patterns": [path4, star3]},
            {"kind": "mean", "lam": 0.3},
            (10, 14),
            100_000,
            20260816,
            targets=({"kind": "derived", "label": "product-pois"},),
        )
    if name == "ap":
        return new_experiment_spec(
            "ap",
            {"r": 3},
            {"kind": "power", "lam": 1.0, "a": 1.0},
            (100, 300, 1000),
            1_000_000,
            20260816,
            targets=({"kind": "derived", "label": "pois-mean-largest"},),
        )
    if name == "corr-er":
        return new_experiment_spec(
            "corr-er",
            {"r": 2, "p": 0.02, "rho": 0.0056},
            {"kind": "mean", "lam": 1.0},
            (100, 300),
            100_000,
            20260816,
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
        )
    if name == "weighted":
        return new_experiment_spec(
            "weighted-blocks",
            {"triangle_fraction": 0.3},
            {"kind": "mean", "lam": 0.55},
            (250, 500),
            100_000,
            20260816,
            targets=({"kind": "derived", "label": "compound"},),
        )
    if name == "appendix-a":
        return new_experiment_spec(
            "appendix-a",
            {},
            {"kind": "power", "lam": 1.0, "a": 1.0},
            (100, 200, 500),
            100_000,
            20260816,
            targets=(
                {"kind": "binom2-poisson", "rate": 1.0, "label": "binom2-pois-1"},
                {"kind": "poisson", "rate": 0.5, "label": "pois-half"},
            ),
        )
    if name == "appendix-b":
        return new_experiment_spec(
            "appendix-b",
            {"lam": 0.2},
            {"kind": "power", "lam": 1.0, "a": 2.0},
            (200, 400),
            100_000,
            20260816,
            targets=({"kind": "derived", "label": "shared-own"},),
        )
    raise ValidationError(
        f"preset: unknown preset {name!r} (expected one of {', '.join(PRESETS)})"
    )


# ---------------------------------------------------------------------------
# commands


def cmd_construct(args) -> int:
    name = args.name
    if name == "ap":
        H = ap_hypergraph(range(1, args.n + 1), args.r)
        obj = hypergraph_to_obj(H)
    elif name == "complete":
        if args.n < 2:
            raise ValidationError(f"--n: complete graph needs n >= 2, got {args.n}")
        obj = hypergraph_to_obj(
            new_hypergraph(2, args.n, [[i, j] for i in range(args.n) for j in range(i + 1, args.n)])
        )
    elif name == "appendix-a":
        obj = hypergraph_to_obj(appendix_star_hypergraph(args.n))
    elif name == "appendix-b":
        obj = multiplex_to_obj(appendix_three_multiplex(args.n, args.lam, args.variant))
    elif name == "corr-er":
        params = new_correlated_er_params(args.n, args.r, args.p, args.rho)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=args.seed)))
        obj = multiplex_to_obj(sample_correlated_er(params, rng))
    else:
        raise ValidationError(
            f"construct: unknown construction {name!r} "
            "(expected ap, complete, appendix-a, appendix-b, corr-er)"
        )
    out = args.out or f"{name}-n{args.n}.json"
    write_json(out, obj)
    if obj["kind"] == "multiplex":
        sizes = "+".join(str(len(layer["edges"])) for layer in obj["layers"])
    else:
        sizes = str(len(obj["edges"]))
    print(f"wrote {out} ({sizes} edges)")
    return 0


def _rational_obj(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _moment_report(structure, c: int, rational: bool) -> dict:
    conv = _rational_obj if rational else float
    if isinstance(structure, Multiplex):
        mm = moment_matrix(structure, c, rational=rational)
        return {
            "kind": "moment_matrix",
            "c": c,
            "means": [conv(x) for x in mm.means],
            "covariance": [[conv(x) for x in row] for row in mm.covariance],
        }
    if isinstance(structure, WeightedUniformHypergraph):
        rep = variance_W(structure, c, rational=rational)
        return {
            "kind": "weighted_moments",
            "c": c,
            "mean": conv(mean_W(structure, c, rational=rational)),
            "variance": conv(rep.variance),
            "u1_term": conv(rep.u1_term),
            "u2_terms": {str(t): conv(x) for t, x in sorted(rep.u2_terms.items())},
        }
    if isinstance(structure, UniformHypergraph):
        rep = variance_T(structure, c, rational=rational)
        ratios = condition_ratios(structure, c, rational=rational)
        return {
            "kind": "moments",
            "c": c,
            "mean": conv(mean_T(structure, c, rational=rational)),
            "variance": conv(rep.variance),
            "r1_term": conv(rep.r1_term),
            "r2_terms": {str(t): conv(x) for t, x in sorted(rep.r2_terms.items())},
            "condition_ratios": {str(t): conv(x) for t, x in sorted(ratios.ratios.items())},
        }
    raise ValidationError("moments: file must hold a hypergraph, multiplex, or weighted hypergraph")


def cmd_moments(args) -> int:
    structure = load_structure(args.file)
    report = _moment_report(structure, args.c, args.rational)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_preset(args) -> int:
    spec = preset_spec(args.name)
    obj = spec_to_obj(spec)
    if args.out:
        write_json(args.out, obj)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    if bool(args.config) == bool(args.preset):
        raise ValidationError("compare: exactly one of --config or --preset is required")
    if args.config:
        spec = spec_from_obj(read_json(args.config), str(args.config))
    else:
        spec = preset_spec(args.preset)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.shards is not None:
        overrides["shards"] = args.shards
    if overrides:
        obj = spec_to_obj(spec)
        obj.update(overrides)
        spec = spec_from_obj(obj)
    rows = run_compare(spec)
    outputs = write_run(spec, rows, args.out, args.format)
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
    p.add_argument("--shards", type=int, default=None)
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
