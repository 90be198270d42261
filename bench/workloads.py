"""The three workloads: their inputs, their operations and their checks.

An operation is one law (one `compare` size point, or one appendix-b
variant) or one moment report. Each workload is a fixed list of
`monoplex.cli.main` calls; one pass makes every call once, in order, each
waiting for the previous one.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import checks
from checks import CheckError

SEED_BASE = 20260816

AP_REPLICATES = 16384
PRESET_REPLICATES = 4096
SWEEP_PRESETS = ("birthday", "edge-color", "corr-er", "weighted", "appendix-a", "appendix-b")

# At PRESET_REPLICATES each preset-sweep law is one 4096-row block, so its
# --shards 2 rerun has no blocks to reorder. The verification therefore also
# runs one size point of each preset at three blocks, the last one short,
# with --shards 1 and 2 (which takes the blocks in the order 0, 2, 1).
SHARD_CHECK_REPLICATES = 2 * 4096 + 1024
SHARD_CHECK_POINTS = (  # (preset, size): the counting path auto picks there
    ("birthday", 50),  # dense
    ("edge-color", 10),  # leading-pair
    ("corr-er", 100),  # corr-er kernel
    ("weighted", 250),  # weighted, dense
    ("appendix-a", 100),  # leading-pair
    ("appendix-b", 400),  # pair-class
)

PATH4 = {"num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
STAR3 = {"num_vertices": 4, "edges": [[0, 1], [0, 2], [0, 3]]}

# Exact specs: (scenario, params, c, n, target label); each has c^n
# colorings between 10^5 and 10^6.
EXACT_SPECS = {
    "exact-ap": ("ap", {"r": 3}, 3, 11, "pois-mean-largest"),
    "exact-copies": ("pattern-copies", {"patterns": [PATH4, STAR3]}, 7, 4, "product-pois"),
    "exact-weighted": ("weighted-blocks", {"triangle_fraction": 0.3}, 3, 4, "compound"),
}

# Moment reports on mid-size preset instances: (name, construct argv or
# None for the weighted-blocks file, c, check). The largest instances (ap
# n=1000, appendix-b n=400) make a pass of about 10 s, too few passes in a
# run for a steady median.
REPORTS = (
    ("ap-n300", ["ap", "--n", "300", "--r", "3"], 300,
     lambda rep, where: checks.check_ap_report(rep, 300, 300, where)),
    ("star-n200", ["appendix-a", "--n", "200"], 200,
     lambda rep, where: checks.check_star_report(rep, 200, 200, where)),
    ("appendix-b-nested-n200", ["appendix-b", "--n", "200", "--lam", "0.2", "--variant", "nested"], 40000,
     lambda rep, where: checks.check_appendix_b_report(rep, 200, 0.2, 40000, where)),
    ("appendix-b-pairwise-n200", ["appendix-b", "--n", "200", "--lam", "0.2", "--variant", "pairwise"], 40000,
     lambda rep, where: checks.check_appendix_b_report(rep, 200, 0.2, 40000, where)),
    ("weighted-blocks-n500", None, 39,
     lambda rep, where: checks.check_weighted_blocks_report(rep, 500, 0.3, 39, where)),
)

WORKLOADS = ("ap-sweep", "preset-sweep", "exact-oracle")


@dataclass
class Op:
    name: str
    argv: list[str]
    ops: int  # laws or reports the call produces
    colorings: int  # colorings its laws cover; 0 for a moment report
    output: Path  # results.csv of a compare, report JSON of a moments call
    spec: dict | None = None  # compare only
    check: Callable | None = None  # moments only: check(report, where)
    shards_argv: list[str] = field(default_factory=list)  # compare only: the --shards 2 rerun


def spec_seed(seed: int) -> int:
    return (SEED_BASE + seed) % 2**64


def quiet(cli, argv: list[str]) -> int:
    """cli.main with its stdout and stderr kept out of the benchmark's output."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def setup(workload: str, inputs: Path, seed: int) -> None:
    """Write the workload's specs and structure files into inputs."""
    from monoplex import cli
    from monoplex.serialize import weighted_to_obj, write_json

    inputs.mkdir(parents=True, exist_ok=True)
    presets = {"ap-sweep": ("ap",), "preset-sweep": SWEEP_PRESETS}.get(workload, ())
    for name in presets:
        if quiet(cli, ["preset", name, "--out", inputs / f"{name}.json"]) != 0:
            raise RuntimeError(f"preset {name} failed")
    if workload != "exact-oracle":
        return
    for name, (scenario, params, c, n, label) in EXACT_SPECS.items():
        _write(inputs / f"{name}.json", {
            "kind": "experiment_spec",
            "scenario": scenario,
            "params": params,
            "c_rule": {"kind": "fixed", "value": c},
            "sizes": [n],
            "replicates": 1,
            "seed": spec_seed(seed),
            "law": "exact",
            "targets": [{"kind": "derived", "label": label}],
        })
    for name, construct, _, _ in REPORTS:
        path = inputs / f"{name}.json"
        if construct is None:
            spec = cli.new_experiment_spec(
                "weighted-blocks", {"triangle_fraction": 0.3}, {"kind": "fixed", "value": 39},
                (500,), 1, spec_seed(seed), targets=({"kind": "derived", "label": "compound"},),
            )
            write_json(path, weighted_to_obj(cli.build_scenario(spec, 500).weighted))
        elif quiet(cli, ["construct", *construct, "--out", path]) != 0:
            raise RuntimeError(f"construct {name} failed")


def _exact_colorings(scenario: str, c: int, n: int) -> int:
    vertices = {"ap": n, "pattern-copies": comb(n, 2), "weighted-blocks": 3 * n}[scenario]
    return c**vertices


def operations(workload: str, inputs: Path, outputs: Path, seed: int) -> list[Op]:
    ops = []
    if workload in ("ap-sweep", "preset-sweep"):
        names, reps = (("ap",), AP_REPLICATES) if workload == "ap-sweep" else (SWEEP_PRESETS, PRESET_REPLICATES)
        for name in names:
            spec_path = inputs / f"{name}.json"
            spec = json.loads(spec_path.read_text())
            laws = sum(len(_mc_expectations(spec, n)) for n in spec["sizes"])
            argv = ["compare", "--config", spec_path, "--replicates", reps, "--seed", spec_seed(seed)]
            ops.append(Op(
                name, [*argv, "--shards", 1, "--out", outputs / name], laws, laws * reps,
                outputs / name / "results.csv", spec=spec,
                shards_argv=[*argv, "--shards", 2, "--out", outputs / f"{name}-shards2"],
            ))
    else:
        for name, (scenario, _, c, n, _) in EXACT_SPECS.items():
            spec_path = inputs / f"{name}.json"
            argv = ["compare", "--config", spec_path]
            ops.append(Op(
                name, [*argv, "--shards", 1, "--out", outputs / name], 1, _exact_colorings(scenario, c, n),
                outputs / name / "results.csv", spec=json.loads(spec_path.read_text()),
                shards_argv=[*argv, "--shards", 2, "--out", outputs / f"{name}-shards2"],
            ))
        for name, _, c, check in REPORTS:
            report = outputs / f"{name}-moments.json"
            ops.append(Op(
                name, ["moments", inputs / f"{name}.json", "--c", c, "--rational", "--out", report],
                1, 0, report, check=check,
            ))
    for op in ops:
        op.argv = [str(a) for a in op.argv]
        op.shards_argv = [str(a) for a in op.shards_argv]
    return ops


def multi_block_shard_runs(workload: str, inputs: Path, outputs: Path, seed: int) -> list[tuple[str, list, list]]:
    """(name, --shards 1 argv, --shards 2 argv) per SHARD_CHECK_POINTS entry,
    each on a copy of the preset spec cut to one size; preset-sweep only."""
    if workload != "preset-sweep":
        return []
    runs = []
    for name, n in SHARD_CHECK_POINTS:
        spec = json.loads((inputs / f"{name}.json").read_text())
        spec["sizes"] = [n]
        path = outputs / f"{name}-n{n}-spec.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        _write(path, spec)
        argv = ["compare", "--config", path, "--replicates", SHARD_CHECK_REPLICATES, "--seed", spec_seed(seed)]
        runs.append((f"{name} n={n}", *(
            [str(a) for a in (*argv, "--shards", k, "--out", outputs / f"{name}-n{n}-shards{k}")] for k in (1, 2)
        )))
    return runs


# ---------------------------------------------------------------------------
# expectations, from the spec alone


def _mc_expectations(spec: dict, n: int) -> list[list[tuple]]:
    """Per law at size n (in the order compare computes them): per layer,
    (edge count or weight total, uniformity); the layer mean is
    total / c^(r-1)."""
    scenario, params = spec["scenario"], spec["params"]
    if scenario == "ap":
        return [[(checks.ap_count(n, params["r"]), params["r"])]]
    if scenario == "complete-graph":
        return [[(comb(n, 2), 2)]]
    if scenario == "pattern-copies":
        return [[(len(checks.pattern_copies(n, p)), len(p["edges"])) for p in params["patterns"]]]
    if scenario == "corr-er":
        total = Fraction(str(params["p"])) * comb(n, params["r"])
        return [[(total, params["r"])] * 2]
    if scenario == "weighted-blocks":
        _, weights = checks.weighted_blocks(n, params["triangle_fraction"])
        return [[(sum(weights), 3)]]
    if scenario == "appendix-a":
        return [[(comb(n - 1, 2), 3)]]
    if scenario == "appendix-b":
        return [[(comb(n, 2), 2)] * 3] * 2  # nested, pairwise
    raise CheckError(f"no expectation for scenario {scenario!r}")


def _exact_expectation(spec: dict, n: int, c: int) -> dict:
    scenario, params = spec["scenario"], spec["params"]
    if scenario == "ap":
        return checks.enumerate_law([checks.ap_edges(n, params["r"])], n, c)
    if scenario == "pattern-copies":
        layers = [checks.pattern_copies(n, p) for p in params["patterns"]]
        return checks.enumerate_law(layers, comb(n, 2), c)
    if scenario == "weighted-blocks":
        edges, weights = checks.weighted_blocks(n, params["triangle_fraction"])
        return checks.enumerate_law([edges], 3 * n, c, weights)
    raise CheckError(f"no exact expectation for scenario {scenario!r}")


def check_compare(op: Op, captured: list, where: str) -> None:
    """Check the laws one compare call produced, in call order."""
    spec = op.spec
    exact = spec.get("law") == "exact"
    expected = [(n, want) for n in spec["sizes"] for want in ([None] if exact else _mc_expectations(spec, n))]
    if len(captured) != len(expected):
        raise CheckError(f"{where}: {len(captured)} laws, expected {len(expected)}")
    for i, ((n, want), (fn_name, args, out)) in enumerate(zip(expected, captured)):
        law = getattr(out, "law", out)
        at = f"{where} law {i + 1} (n={n}, {fn_name})"
        checks.check_sums_to_one(law.pmf, law.tail_mass, at)
        if exact:
            checks.check_same_law(dict(law.pmf), _exact_expectation(spec, n, args[1]), at)
        else:
            cfg = next(a for a in args if hasattr(a, "replicates"))
            means = [Fraction(total) / cfg.c ** (r - 1) for total, r in want]
            checks.check_mean_within_se(law.pmf, means, cfg.replicates, at)
