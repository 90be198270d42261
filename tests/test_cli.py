"""Command-line interface: construct, moments, preset, compare."""

import base64
import importlib.util
import json
import os
import platform
import struct
import sys
from collections import Counter
from fractions import Fraction
from math import exp
from pathlib import Path

import numpy as np
import pytest

import monoplex.core
import monoplex.moments
from monoplex import cli, simulate
from monoplex.cli import (
    PRESETS,
    SCENARIOS,
    BuiltScenario,
    build_scenario,
    main,
    new_experiment_spec,
    preset_spec,
    resolve_colors,
    run_compare,
    spec_from_obj,
    spec_to_obj,
)
from monoplex.core import Multiplex, ValidationError, new_hypergraph
from monoplex.families import ap_hypergraph, appendix_star_hypergraph, appendix_three_multiplex
from monoplex.laws import MAX_LAW_CELLS, law_moments
from monoplex.serialize import hypergraph_to_obj, load_structure, read_json, weighted_to_obj, write_json
from monoplex.simulate import BLOCK_SIZE, CHUNK, _choose_backend, new_simulation_config, simulate_T


GOLDEN = Path(__file__).parent / "data" / "golden"
BENCH = Path(__file__).parent.parent / "bench"
SPANS = BENCH / "spans.py"


# Inputs of the moments goldens, moments-NAME.rational.json: (file object, c).
TRIPLES = {
    "kind": "uniform_hypergraph",
    "uniformity": 3,
    "num_vertices": 6,
    "edges": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [2, 3, 4], [3, 4, 5]],
}
PATH5 = {"kind": "uniform_hypergraph", "uniformity": 2, "num_vertices": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}
MOMENT_INPUTS = {
    "uniform": (TRIPLES, 3),
    "multiplex": ({"kind": "multiplex", "num_vertices": 6, "layers": [PATH5, TRIPLES]}, 4),
    "weighted": ({**TRIPLES, "kind": "weighted_hypergraph", "weights": [1, 2, 3, 1, 2]}, 5),
}


def run_cli(*argv):
    return main([str(a) for a in argv])


def edge_data(rows):
    """The "edge_data" field of an edge list, valid or not."""
    return base64.b64encode(b"".join(struct.pack("<i", v) for e in rows for v in e)).decode("ascii")


def packed(H):
    """The "edge_data" field of H, packed vertex by vertex from its edge tuples."""
    return edge_data(H.edges)


def file_objects(structure, edges):
    """The structure's file object, with edges(H) giving each layer's edge
    fields."""

    def layer(H):
        return {"kind": "uniform_hypergraph", "uniformity": H.uniformity, "num_vertices": H.num_vertices, **edges(H)}

    if isinstance(structure, Multiplex):
        return {"kind": "multiplex", "num_vertices": structure.num_vertices, "layers": [layer(H) for H in structure.layers]}
    return layer(structure)


def json_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def bench_workloads(monkeypatch):
    """bench/workloads.py, imported from its file as the benchmark imports it."""
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports checks
    loader = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, "bench_workloads", workloads)  # for its dataclasses
    loader.loader.exec_module(workloads)
    return workloads


class TestConstruct:
    def test_ap_example(self, tmp_path, capsys):
        out = tmp_path / "ap.json"
        assert run_cli("construct", "ap", "--n", 10, "--r", 3, "--out", out) == 0
        H = load_structure(out)
        assert H.num_edges == 20
        assert "20 edges" in capsys.readouterr().out

    def test_star_example(self, tmp_path):
        out = tmp_path / "star.json"
        assert run_cli("construct", "appendix-a", "--n", 10, "--out", out) == 0
        assert load_structure(out).num_edges == 36

    def test_corr_er_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("construct", "corr-er", "--n", 20, "--r", 2, "--p", 0.1, "--rho", 0.05, "--seed", 7)
        assert run_cli(*args, "--out", a) == 0
        assert run_cli(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        M = load_structure(a)
        assert M.num_layers == 2

    def test_appendix_b_multiplex(self, tmp_path):
        out = tmp_path / "m.json"
        assert run_cli("construct", "appendix-b", "--n", 20, "--lam", 0.2, "--variant", "pairwise", "--out", out) == 0
        assert load_structure(out).num_layers == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("ap", "--n", 30, "--r", 3),
            ("ap", "--n", 12, "--r", 4),
            ("complete", "--n", 15),
            ("appendix-a", "--n", 20),
            ("appendix-b", "--n", 30, "--lam", 0.2),
            ("appendix-b", "--n", 30, "--lam", 0.2, "--variant", "pairwise"),
            ("corr-er", "--n", 20, "--r", 3, "--p", 0.1, "--rho", 0.05, "--seed", 7),
        ],
    )
    def test_bytes_match_tuple_encoding(self, tmp_path, argv):
        # Files encode edges from the layers' arrays; the bytes are those of
        # packing each edge tuple. The list form the files had before
        # edge_data, with each edge tuple listed, loads to the same structure.
        out, listed = tmp_path / "s.json", tmp_path / "listed.json"
        assert run_cli("construct", *argv, "--out", out) == 0
        structure = load_structure(out)
        assert out.read_bytes() == json_bytes(file_objects(structure, lambda H: {"edge_data": packed(H)}))
        listed.write_bytes(json_bytes(file_objects(structure, lambda H: {"edges": [list(e) for e in H.edges]})))
        assert load_structure(listed) == structure

    def test_weighted_bytes_match_tuple_encoding(self, tmp_path):
        spec = new_experiment_spec(
            "weighted-blocks", {"triangle_fraction": 0.3}, {"kind": "fixed", "value": 39}, (50,), 1, 1,
            targets=({"kind": "derived", "label": "compound"},),
        )
        WH = build_scenario(spec, 50).weighted
        out, listed = tmp_path / "w.json", tmp_path / "listed.json"
        write_json(out, weighted_to_obj(WH))
        obj = {
            "kind": "weighted_hypergraph",
            "uniformity": WH.base.uniformity,
            "num_vertices": WH.base.num_vertices,
            "edge_data": packed(WH.base),
            "weights": list(WH.weights),
            "weight_bound": WH.weight_bound,
        }
        assert out.read_bytes() == json_bytes(obj)
        assert load_structure(out) == WH
        del obj["edge_data"]
        listed.write_bytes(json_bytes({**obj, "edges": [list(e) for e in WH.base.edges]}))
        assert load_structure(listed) == WH

    def test_unknown_exits_2(self, tmp_path, capsys):
        assert run_cli("construct", "moebius", "--n", 5) == 2
        assert "unknown construction" in capsys.readouterr().err

    @pytest.mark.parametrize("n", (0, 2))
    def test_ap_with_fewer_vertices_than_r_exits_2(self, n, tmp_path, capsys):
        out = tmp_path / "ap.json"
        assert run_cli("construct", "ap", "--n", n, "--r", 3, "--out", out) == 2
        assert f"n: must be >= r = 3, got {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_into_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "ap.json"
        assert run_cli("construct", "ap", "--n", 10, "--r", 3, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{out}: cannot write" in err and "Traceback" not in err

    def test_corr_er_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "er.json"
        assert run_cli("construct", "corr-er", "--n", 20, "--r", 2, "--seed", -1, "--out", out) == 2
        err = capsys.readouterr().err
        assert "seed:" in err and "Traceback" not in err
        assert not out.exists()


class TestMoments:
    def test_single_edge_mean(self, tmp_path, capsys):
        f = tmp_path / "h.json"
        write_json(f, {"kind": "uniform_hypergraph", "uniformity": 3, "num_vertices": 3, "edges": [[0, 1, 2]]})
        assert run_cli("moments", f, "--c", 2) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean"] == 0.25

    def test_fixture_variance_rational(self, tmp_path, capsys):
        f = tmp_path / "h.json"
        write_json(
            f,
            {
                "kind": "uniform_hypergraph",
                "uniformity": 3,
                "num_vertices": 5,
                "edges": [[0, 1, 2], [0, 1, 3], [2, 3, 4]],
            },
        )
        assert run_cli("moments", f, "--c", 2, "--rational") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["variance"] == "11/16"
        assert report["r1_term"] == "9/16"
        assert report["r2_terms"]["2"] == "1/8"

    @pytest.mark.parametrize("bound", ["3", [2], 2.5, True, 0])
    def test_bad_weight_bound_exits_2(self, tmp_path, capsys, bound):
        f = tmp_path / "w.json"
        write_json(
            f,
            {
                "kind": "weighted_hypergraph",
                "uniformity": 2,
                "num_vertices": 3,
                "edges": [[0, 1], [1, 2]],
                "weights": [1, 2],
                "weight_bound": bound,
            },
        )
        assert run_cli("moments", f, "--c", 2) == 2
        err = capsys.readouterr().err
        assert "weight_bound" in err and "Traceback" not in err

    @pytest.mark.parametrize("n", [99, 2, "3"])
    def test_multiplex_num_vertices_must_match_layers(self, tmp_path, capsys, n):
        layer = {"kind": "uniform_hypergraph", "uniformity": 2, "num_vertices": 3, "edges": [[0, 1]]}
        f = tmp_path / "m.json"
        write_json(f, {"kind": "multiplex", "num_vertices": n, "layers": [layer, layer]})
        assert run_cli("moments", f, "--c", 2) == 2
        err = capsys.readouterr().err
        assert "num_vertices" in err and "Traceback" not in err

    def test_multiplex_symmetric(self, tmp_path, capsys):
        layer = {"kind": "uniform_hypergraph", "uniformity": 2, "num_vertices": 4, "edges": [[0, 1], [2, 3]]}
        other = dict(layer, edges=[[0, 1], [1, 2]])
        f = tmp_path / "m.json"
        write_json(f, {"kind": "multiplex", "num_vertices": 4, "layers": [layer, other]})
        assert run_cli("moments", f, "--c", 3) == 0
        report = json.loads(capsys.readouterr().out)
        cov = report["covariance"]
        assert cov[0][1] == cov[1][0]

    def test_missing_file_exits_2(self, capsys):
        assert run_cli("moments", "/nonexistent.json", "--c", 2) == 2

    def test_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("moments", tmp_path, "--c", 3) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path}: cannot read" in err and "Traceback" not in err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        f = tmp_path / "h.json"
        f.write_bytes(b'{"kind": "uniform_hypergraph\xff"}')
        assert run_cli("moments", f, "--c", 3) == 2
        err = capsys.readouterr().err
        assert f"{f}: invalid JSON" in err and "Traceback" not in err

    def test_utf16_file(self, tmp_path, capsys):
        f = tmp_path / "h.json"
        obj = {"kind": "uniform_hypergraph", "uniformity": 3, "num_vertices": 3, "edges": [[0, 1, 2]]}
        f.write_text(json.dumps(obj), encoding="utf-16")
        assert run_cli("moments", f, "--c", 2) == 0
        assert json.loads(capsys.readouterr().out)["mean"] == 0.25

    @pytest.mark.parametrize("rational", [(), ("--rational",)], ids=["float", "rational"])
    def test_stdout_matches_out_file(self, tmp_path, capsys, rational):
        f, out = tmp_path / "m.json", tmp_path / "report.json"
        assert run_cli("construct", "appendix-b", "--n", 12, "--lam", 0.2, "--out", f) == 0
        capsys.readouterr()
        assert run_cli("moments", f, "--c", 7, *rational) == 0
        printed = capsys.readouterr().out
        assert run_cli("moments", f, "--c", 7, *rational, "--out", out) == 0
        assert out.read_text() == printed

    def test_simple_graph_file_exits_2(self, tmp_path, capsys):
        f = tmp_path / "g.json"
        write_json(f, {"kind": "simple_graph", "num_vertices": 3, "edges": [[0, 1]]})
        assert run_cli("moments", f, "--c", 2) == 2
        err = capsys.readouterr().err
        assert "unknown kind 'simple_graph'" in err and "Traceback" not in err

    @pytest.mark.parametrize("edges, where", [([[0, 1], 5], "edges[1]"), (7, "edges")])
    @pytest.mark.parametrize("kind", ["uniform_hypergraph", "weighted_hypergraph"])
    def test_edges_not_lists_exit_2(self, tmp_path, capsys, edges, where, kind):
        obj = {"kind": kind, "uniformity": 2, "num_vertices": 3, "edges": edges}
        if kind == "weighted_hypergraph":
            obj["weights"] = [1, 1]
        f = tmp_path / "h.json"
        write_json(f, obj)
        assert run_cli("moments", f, "--c", 2) == 2
        err = capsys.readouterr().err
        assert f"{where}: expected a list" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"edge_data": 5}, "layers[1].edge_data: expected a base64 string, got int"),
            ({"edge_data": [[0, 1]]}, "layers[1].edge_data: expected a base64 string, got list"),
            ({"edge_data": "AAAA!AAAAAAA"}, "layers[1].edge_data: invalid base64"),
            ({"edge_data": "AAAAAAEA\nAAA="}, "layers[1].edge_data: invalid base64"),
            ({"edge_data": "AAAAAAEAAAA"}, "layers[1].edge_data: invalid base64"),
            ({"edge_data": "AAAAAAEAAAACAAAA"}, "layers[1].edge_data: 12 bytes is not a whole number of 2-vertex int32 rows"),
            ({"edge_data": "AAAAAAEAAAA=", "edges": [[0, 1]]}, "layers[1]: holds both 'edges' and 'edge_data'"),
            ({}, "layers[1]: missing field 'edges' or 'edge_data'"),
        ],
        ids=["int", "list", "bad-character", "newline", "bad-padding", "partial-row", "both", "neither"],
    )
    def test_malformed_edge_data_exits_2(self, tmp_path, capsys, fields, message):
        layer = hypergraph_to_obj(new_hypergraph(2, 3, [[0, 1]]))
        bad = {"kind": "uniform_hypergraph", "uniformity": 2, "num_vertices": 3, **fields}
        f = tmp_path / "m.json"
        write_json(f, {"kind": "multiplex", "num_vertices": 3, "layers": [layer, bad]})
        assert run_cli("moments", f, "--c", 2) == 2
        err = capsys.readouterr().err
        assert f"{f}.{message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("form", ["edges", "edge_data"])
    @pytest.mark.parametrize(
        "kind, layer, edges, weights, message",
        [
            ("multiplex", 2, [[-1, 1]], None, "layers[1].edges[0][0]: vertex -1 out of range [0, 3)"),
            ("multiplex", 1, [[0], [1]], None, "layers[1].uniformity: must be an integer >= 2, got 1"),
            ("weighted_hypergraph", 2, [[0, 1], [1, 2]], [0, 1], "weights[0]: weight must be an integer >= 1, got 0"),
            # the index is the file's, not that of the sorted edges
            ("weighted_hypergraph", 2, [[1, 2], [0, 1]], [1, 0], "weights[1]: weight must be an integer >= 1, got 0"),
        ],
        ids=["vertex", "uniformity", "weight", "weight-unsorted"],
    )
    def test_structure_errors_name_file_and_field(self, tmp_path, capsys, form, kind, layer, edges, weights, message):
        fields = {"edges": edges} if form == "edges" else {"edge_data": edge_data(edges)}
        bad = {"kind": "uniform_hypergraph", "uniformity": layer, "num_vertices": 3, **fields}
        if kind == "multiplex":
            good = {"kind": "uniform_hypergraph", "uniformity": 2, "num_vertices": 3, "edges": [[0, 1]]}
            obj = {"kind": "multiplex", "num_vertices": 3, "layers": [good, bad]}
        else:
            obj = {**bad, "kind": kind, "weights": weights}
        f = tmp_path / "s.json"
        write_json(f, obj)
        assert run_cli("moments", f, "--c", 2) == 2
        err = capsys.readouterr().err
        assert err == f"error: {f}.{message}\n"

    @pytest.mark.parametrize("c", [10**155, 10**200], ids=["10^155", "10^200"])
    def test_colors_past_float_range(self, tmp_path, capsys, c):
        # c^2 is past float range: the float report holds the exact values
        # rounded once, 3e-309 and smaller at c = 10^155, 0.0 at c = 10^200
        f = tmp_path / "ap.json"
        assert run_cli("construct", "ap", "--n", 12, "--r", 3, "--out", f) == 0
        capsys.readouterr()
        assert run_cli("moments", f, "--c", c) == 0
        approx = json.loads(capsys.readouterr().out)
        assert run_cli("moments", f, "--c", c, "--rational") == 0
        exact = json.loads(capsys.readouterr().out)
        assert Fraction(exact["mean"]) == Fraction(30, c**2)  # 30 three-term APs in [1, 12]
        for field in ("mean", "variance", "r1_term"):
            assert approx[field] == float(Fraction(exact[field]))
        for field in ("r2_terms", "condition_ratios"):
            assert approx[field] == {t: float(Fraction(x)) for t, x in exact[field].items()}

    def test_overlaps_counted_once_per_report(self, tmp_path, monkeypatch, capsys):
        calls = Counter()

        def count_calls(module, name):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count_calls(monoplex.moments, "k_exact_all")
        count_calls(monoplex.core, "_subset_sums")
        ap, three = tmp_path / "ap.json", tmp_path / "three.json"
        assert run_cli("construct", "ap", "--n", 30, "--r", 3, "--out", ap) == 0
        assert run_cli("construct", "appendix-b", "--n", 30, "--lam", 0.2, "--out", three) == 0
        assert run_cli("moments", ap, "--c", 30, "--rational") == 0
        assert calls["k_exact_all"] == 1
        calls.clear()
        assert run_cli("moments", three, "--c", 900, "--rational") == 0
        assert calls["_subset_sums"] == 6  # subset sizes 1 and 2 of each 2-uniform layer


class TestPreset:
    @pytest.mark.parametrize("name", PRESETS)
    def test_round_trip(self, name):
        spec = preset_spec(name)
        obj = spec_to_obj(spec)
        again = spec_to_obj(spec_from_obj(json.loads(json.dumps(obj))))
        assert again == obj

    # TestGoldenOutputs overrides the replicate count, so it is pinned here
    @pytest.mark.parametrize(
        "name, scenario, sizes, replicates",
        [
            ("birthday", "complete-graph", (50, 100, 200), 100_000),
            ("edge-color", "pattern-copies", (10, 14), 100_000),
            ("ap", "ap", (100, 300, 1000), 1_000_000),
            ("corr-er", "corr-er", (100, 300), 100_000),
            ("weighted", "weighted-blocks", (250, 500), 100_000),
            ("appendix-a", "appendix-a", (100, 200, 500), 100_000),
            ("appendix-b", "appendix-b", (200, 400), 100_000),
        ],
    )
    def test_run_settings(self, name, scenario, sizes, replicates):
        obj = spec_to_obj(preset_spec(name))
        assert obj["scenario"] == scenario
        assert tuple(obj["sizes"]) == sizes
        assert obj["replicates"] == replicates
        assert (obj["seed"], obj["law"]) == (20260816, "simulate")
        assert "shards" not in obj

    def test_unknown_lists_presets(self, capsys):
        assert run_cli("preset", "party") == 2
        err = capsys.readouterr().err
        for name in PRESETS:
            assert name in err

    def test_writes_file(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run_cli("preset", "ap", "--out", out) == 0
        spec = spec_from_obj(read_json(out))
        assert spec.scenario == "ap"
        assert spec.c_rule["kind"] == "power"

    def test_out_into_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "spec.json"
        assert run_cli("preset", "ap", "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{out}: cannot write" in err and "Traceback" not in err


def make_spec(**kw):
    base = dict(
        scenario="ap",
        params={"r": 3},
        c_rule={"kind": "fixed", "value": 2},
        sizes=(3,),
        replicates=100,
        seed=1,
        law="exact",
        targets=({"kind": "poisson", "rate": 0.25, "label": "pois-quarter"},),
    )
    base.update(kw)
    return new_experiment_spec(**base)


class TestCompare:
    def test_exact_single_edge_matches_hand_value(self, tmp_path):
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_to_obj(make_spec()))
        out = tmp_path / "run"
        assert run_cli("compare", "--config", cfg, "--out", out) == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert rows[0] == "n,c,label,tv,mean_gap,var_gap"
        tv = float(rows[1].split(",")[3])
        p0 = exp(-0.25)
        hand = 0.5 * (abs(0.75 - p0) + abs(0.25 - 0.25 * p0) + (1 - p0 - 0.25 * p0))
        assert abs(tv - hand) <= 1e-9

    def test_out_under_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a law ran before --out was made")

        monkeypatch.setattr(cli, "simulate_T", refuse)
        cfg = tmp_path / "spec.json"
        spec = make_spec(scenario="complete-graph", params={}, sizes=(6,), law="simulate")
        write_json(cfg, spec_to_obj(spec))
        out = cfg / "run"
        assert run_cli("compare", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{out}: cannot make the output directory" in err and "Traceback" not in err

    def test_rerun_bytes_identical(self, tmp_path):
        spec = preset_spec("birthday")
        obj = spec_to_obj(spec)
        obj["sizes"] = [20, 40]
        obj["replicates"] = 3000
        cfg = tmp_path / "spec.json"
        write_json(cfg, obj)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("compare", "--config", cfg, "--out", out) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_results_independent_of_slices_and_shards(self, tmp_path, monkeypatch):
        # A spec file's shards field and the --shards flag are accepted and
        # ignored: neither changes the run or reaches the manifest.
        obj = spec_to_obj(preset_spec("birthday"))
        obj["sizes"] = [20, 40]
        obj["replicates"] = BLOCK_SIZE + 700
        obj["shards"] = 3
        cfg = tmp_path / "spec.json"
        write_json(cfg, obj)
        outs = []
        for chunk, shards in ((CHUNK, ()), (300, ()), (CHUNK, ("--shards", 1)), (CHUNK, ("--shards", 2))):
            monkeypatch.setattr(simulate, "CHUNK", chunk)
            out = tmp_path / f"k{chunk}s{len(outs)}"
            assert run_cli("compare", "--config", cfg, *shards, "--out", out) == 0
            outs.append((out / "results.csv").read_bytes())
            manifest = read_json(out / "manifest.json")
            assert "shards" not in manifest["spec"]
            rows = manifest["results"]
            assert [r["counting"] for r in rows] == [
                {
                    "law": "simulate",
                    "blocks": 2,
                    "chunk": chunk,
                    "layers": [
                        {
                            "backend": backend,
                            "requested": "auto",
                            "edges": n * (n - 1) // 2,
                            "vertices": n,
                            "uniformity": 2,
                            "c": c,
                            "expected_subsets": 1.0,
                        }
                    ],
                }
                # birthday's c = C(n, 2), so a row expects one same-color
                # pair; K20 holds under 500 edges, K40 over
                for n, c, backend in ((20, 190, "dense"), (40, 780, "pair-class"))
            ]
        assert len(set(outs)) == 1
        assert b"counting" not in outs[0]

    def test_manifest_records_layer_backends(self, tmp_path):
        # edge-color's P4 and K1,3 layers at n = 10 (c = 92) go to pair-class;
        # the ap and corr-er rows name their own kernels. Every scenario's
        # simulate record is pinned: blocks, chunk and one record per layer.
        small = dict(law="simulate", replicates=700, targets=({"kind": "derived", "label": "d"},))
        runs = {
            "edge-color": dict(spec_to_obj(preset_spec("edge-color")), sizes=[10], replicates=600),
            "ap": spec_to_obj(make_spec(law="simulate", sizes=(20,))),
            "corr-er": spec_to_obj(make_spec(scenario="corr-er", params={"r": 2, "p": 0.2, "rho": 0.05}, sizes=(12,), **small)),
        }
        for scenario, (params, n) in EXACT_PARAMS.items():
            if scenario not in ("ap", "corr-er"):
                rule = {"kind": "fixed", "value": 3}
                runs[scenario] = spec_to_obj(make_spec(scenario=scenario, params=params, sizes=(n,), c_rule=rule, **small))
        records = {}
        for name, obj in runs.items():
            cfg = tmp_path / f"{name}.json"
            write_json(cfg, obj)
            out = tmp_path / name
            assert run_cli("compare", "--config", cfg, "--out", out) == 0
            records[name] = [row["counting"] for row in read_json(out / "manifest.json")["results"]]
        backends = {name: [layer["backend"] for layer in recs[0]["layers"]] for name, recs in records.items()}
        assert {name: backends[name] for name in ("edge-color", "ap", "corr-er")} == {
            "edge-color": ["pair-class", "pair-class"],
            "ap": ["ap"],
            "corr-er": ["class-sizes", "class-sizes"],
        }

        def simulated(*layers):
            return {"law": "simulate", "blocks": 1, "chunk": CHUNK, "layers": list(layers)}

        def dense(edges, vertices, r, expected, c=3):
            keys = ("backend", "requested", "edges", "vertices", "uniformity", "c", "expected_subsets")
            return dict(zip(keys, ("dense", "auto", edges, vertices, r, c, expected)))

        kernel = {"backend": "ap", "vertices": 20, "uniformity": 3, "c": 2}
        classes = {"backend": "class-sizes", "vertices": 12, "uniformity": 2, "c": 2}
        nested, pairwise = simulated(*[dense(10, 13, 2, 26.0)] * 3), simulated(*[dense(10, 12, 2, 22.0)] * 3)
        assert {name: recs for name, recs in records.items() if name != "edge-color"} == {
            "ap": [simulated(kernel)],
            "corr-er": [simulated(classes, classes)],
            "complete-graph": [simulated(dense(10, 5, 2, 10 / 3))],
            "pattern-copies": [simulated(dense(12, 6, 2, 5.0))],
            "weighted-blocks": [simulated(dense(2, 6, 3, 20 / 9))],
            "appendix-a": [simulated(dense(6, 5, 3, 10 / 9))],
            "appendix-b": [nested, pairwise, nested],  # the cross row carries nested's record
        }
        assert [r["blocks"] for r in records["edge-color"]] == [1]

    def test_manifest_records_exact_counting(self, tmp_path):
        records = {}
        for scenario, (params, n) in EXACT_PARAMS.items():
            if scenario != "corr-er":  # no exact law (TestScenarioLaws::test_exact_law)
                cfg = tmp_path / f"{scenario}.json"
                write_json(cfg, spec_to_obj(make_spec(scenario=scenario, params=params, sizes=(n,))))
                out = tmp_path / scenario
                assert run_cli("compare", "--config", cfg, "--out", out) == 0
                records[scenario] = [r["counting"] for r in read_json(out / "manifest.json")["results"]]
        rows = {scenario: 3 if scenario == "appendix-b" else 1 for scenario in records}
        assert records == {scenario: [{"law": "exact"}] * k for scenario, k in rows.items()}

    def test_manifest_reconstructs_run(self, tmp_path):
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_to_obj(make_spec()))
        out = tmp_path / "run"
        assert run_cli("compare", "--config", cfg, "--out", out) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["platform"] == {"python": platform.python_version(), "numpy": np.__version__, "cpus": os.cpu_count()}
        assert "platform" not in (out / "results.csv").read_text()
        respec = tmp_path / "respec.json"
        write_json(respec, manifest["spec"])
        again = tmp_path / "again"
        assert run_cli("compare", "--config", respec, "--out", again) == 0
        assert (out / "results.csv").read_bytes() == (again / "results.csv").read_bytes()

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = cli.simulate_correlated_er_T

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_correlated_er_T", counting)
        spec_obj = spec_to_obj(
            make_spec(
                scenario="corr-er",
                params={"r": 2, "p": 0.2, "rho": 0.05},
                sizes=(12,),
                law="simulate",
            )
        )
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_obj)
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "run") == 2
        assert "dimension" in capsys.readouterr().err
        assert calls == []  # refused before the law is simulated

    def test_color_limit_checked_before_the_first_law(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = cli.simulate_ap_T

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_ap_T", counting)
        # c = n^6: 10^6 colors at n = 10 fit the draw, 1.56e10 at n = 50 do not
        rule = {"kind": "power", "lam": 1, "a": 6}
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_to_obj(make_spec(c_rule=rule, sizes=(10, 50), law="simulate")))
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "run") == 3
        err = capsys.readouterr().err
        assert f"c: {50**6}" in err and "Traceback" not in err
        assert calls == []  # refused before the n = 10 law is simulated

    @pytest.mark.parametrize(
        "c_rule, size, law, code, message",
        [
            ({"kind": "power", "lam": 1.0, "a": 1000}, 100, "simulate", 2, "c_rule"),
            ({"kind": "power", "lam": 1.0, "a": 200.5}, 100, "simulate", 2, "c_rule"),
            ({"kind": "fixed", "value": 2**31}, 3, "simulate", 3, f"c: {2**31}"),
            ({"kind": "fixed", "value": 10**30}, 3, "simulate", 3, f"c: {10**30}"),
            ({"kind": "fixed", "value": 2**31}, 3, "exact", 0, ""),
            ({"kind": "mean", "lam": 1e-320}, 100, "simulate", 2, "c_rule: ref_count / lam is past float range"),
        ],
        ids=["power-int-overflow", "power-float-overflow", "fixed-2^31", "fixed-10^30", "exact-2^31", "mean-tiny-lam"],
    )
    def test_color_count_extremes(self, c_rule, size, law, code, message, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_to_obj(make_spec(c_rule=c_rule, sizes=(size,), law=law)))
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "run") == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_exact_law_with_colors_past_float_range(self, tmp_path):
        # the derived target reads each layer's mean |E| / c^2 = 10 / 10^400
        spec = make_spec(
            scenario="appendix-a",
            params={},
            c_rule={"kind": "fixed", "value": 10**200},
            sizes=(6,),
            targets=({"kind": "derived", "label": "pois-mean"},),
        )
        cfg, out = tmp_path / "spec.json", tmp_path / "run"
        write_json(cfg, spec_to_obj(spec))
        assert run_cli("compare", "--config", cfg, "--out", out) == 0
        row = (out / "results.csv").read_text().splitlines()[1].split(",")
        assert row[:3] == ["6", str(10**200), "pois-mean"]

    def test_degenerate_point_mass(self, tmp_path):
        spec_obj = spec_to_obj(
            make_spec(
                scenario="complete-graph",
                params={},
                c_rule={"kind": "fixed", "value": 1_000_000},
                sizes=(12,),
                law="simulate",
                replicates=2000,
                targets=({"kind": "poisson", "rate": 0.0, "label": "pois-0"},),
            )
        )
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_obj)
        out = tmp_path / "run"
        assert run_cli("compare", "--config", cfg, "--out", out) == 0
        tv = float((out / "results.csv").read_text().strip().splitlines()[1].split(",")[3])
        assert tv < 0.001

    def test_resource_bound_exits_3(self, tmp_path, capsys):
        spec_obj = spec_to_obj(
            make_spec(
                scenario="complete-graph",
                params={},
                c_rule={"kind": "fixed", "value": 50},
                sizes=(40,),
                law="exact",
            )
        )
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_obj)
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "run") == 3
        assert "resource bound" in capsys.readouterr().err

    def test_poisson_rate_past_underflow_exits_3(self, tmp_path, capsys):
        # K200 at c = 10 has mean 19900 / 10 = 1990: exp(-1990) is 0.0 in floats
        spec_obj = spec_to_obj(
            make_spec(
                scenario="complete-graph",
                params={},
                c_rule={"kind": "fixed", "value": 10},
                sizes=(200,),
                law="simulate",
                targets=({"kind": "derived", "label": "product-pois"},),
            )
        )
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_obj)
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "run") == 3
        err = capsys.readouterr().err
        assert "targets[product-pois]" in err and "rate 1990.0" in err
        assert "Traceback" not in err

    def test_manifest_records_build_time(self, tmp_path):
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_to_obj(make_spec(sizes=(3, 4))))
        out = tmp_path / "run"
        assert run_cli("compare", "--config", cfg, "--out", out) == 0
        rows = read_json(out / "manifest.json")["results"]
        assert len(rows) == 2
        assert all(row["build_s"] >= 0 and row["runtime_s"] >= 0 for row in rows)

    def test_json_format(self, tmp_path):
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_to_obj(make_spec()))
        out = tmp_path / "run"
        assert run_cli("compare", "--config", cfg, "--out", out, "--format", "json") == 0
        rows = read_json(out / "results.json")["rows"]
        assert rows[0]["label"] == "pois-quarter"

    def test_appendix_b_rows(self, tmp_path, monkeypatch):
        # variant i in name order draws with seed + i, wrapping at 2^64;
        # TestGoldenOutputs pins the preset's results.csv
        seeds = []
        original = cli.simulate_T

        def recording(M, cfg, *args, **kwargs):
            seeds.append(cfg.seed)
            return original(M, cfg, *args, **kwargs)

        monkeypatch.setattr(cli, "simulate_T", recording)
        spec = preset_spec("appendix-b")
        obj = spec_to_obj(spec)
        obj["sizes"] = [60]
        obj["replicates"] = 2000
        obj["seed"] = 2**64 - 1
        cfg = tmp_path / "spec.json"
        write_json(cfg, obj)
        out = tmp_path / "run"
        assert run_cli("compare", "--config", cfg, "--out", out) == 0
        labels = [line.split(",")[2] for line in (out / "results.csv").read_text().strip().splitlines()[1:]]
        assert labels == ["nested", "pairwise", "cross"]
        assert seeds == [2**64 - 1, 0]

    def test_config_and_preset_mutually_exclusive(self, capsys):
        assert run_cli("compare", "--preset", "birthday", "--config", "x.json") == 2

    def _corr_er_spec(self, tmp_path, r):
        spec_obj = spec_to_obj(
            make_spec(
                scenario="corr-er",
                params={"r": r, "p": 0.2, "rho": 0.05},
                c_rule={"kind": "fixed", "value": 1},
                sizes=(200,),
                law="simulate",
                targets=(
                    {"kind": "shared", "label": "joint", "rates": [{"subset": [1, 2], "rate": 1.0}]},
                ),
            )
        )
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_obj)
        return cfg

    def test_corr_er_class_binomial_near_int64_limit(self, tmp_path):
        # C(200, 12) = 6107693672247476400 fits in int64 but m^12 does not
        cfg = self._corr_er_spec(tmp_path, 12)
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "run") == 0

    def test_corr_er_class_binomial_overflow_exits_3(self, tmp_path, capsys):
        cfg = self._corr_er_spec(tmp_path, 13)
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "run") == 3
        err = capsys.readouterr().err
        assert "resource bound" in err and "Traceback" not in err


class TestGoldenOutputs:
    """results.csv pinned byte for byte. The files in tests/data/golden came
    from `monoplex compare --preset NAME --replicates 4096` and from
    `monoplex compare --config SPEC` on the exact-law specs stored beside them;
    the moments-NAME.rational.json reports from `monoplex moments FILE --c C
    --rational` on MOMENT_INPUTS."""

    @pytest.mark.parametrize("name", PRESETS)
    def test_preset(self, name, tmp_path):
        out = tmp_path / "run"
        assert run_cli("compare", "--preset", name, "--replicates", 4096, "--out", out) == 0
        assert (out / "results.csv").read_bytes() == (GOLDEN / f"preset-{name}.csv").read_bytes()

    @pytest.mark.parametrize("name", ("exact-ap", "exact-copies", "exact-weighted"))
    def test_exact_spec(self, name, tmp_path):
        out = tmp_path / "run"
        assert run_cli("compare", "--config", GOLDEN / f"{name}.json", "--out", out) == 0
        assert (out / "results.csv").read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


    @pytest.mark.parametrize("name", MOMENT_INPUTS)
    def test_rational_moment_report(self, name, tmp_path, capsys):
        obj, c = MOMENT_INPUTS[name]
        f = tmp_path / "in.json"
        write_json(f, obj)
        assert run_cli("moments", f, "--c", c, "--rational") == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / f"moments-{name}.rational.json").read_bytes()


class TestSpecValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ValidationError):
            make_spec(scenario="galaxy")

    def test_empty_sizes(self):
        with pytest.raises(ValidationError):
            make_spec(sizes=())

    def test_bad_c_rule(self):
        with pytest.raises(ValidationError):
            make_spec(c_rule={"kind": "golden"})
        with pytest.raises(ValidationError):
            make_spec(c_rule={"kind": "mean", "lam": 0})

    def test_bad_target(self):
        with pytest.raises(ValidationError):
            make_spec(targets=({"kind": "cauchy", "label": "x"},))
        with pytest.raises(ValidationError):
            make_spec(targets=())

    def test_bad_law(self):
        with pytest.raises(ValidationError):
            make_spec(law="guess")

    PATH3 = {"num_vertices": 3, "edges": [[0, 1], [1, 2]]}

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"targets": [{"kind": "poisson", "label": "p"}]}, "targets[0].rate"),
            ({"targets": [{"kind": "poisson", "label": "p", "rate": "abc"}]}, "targets[0].rate"),
            ({"targets": [{"kind": "shared", "label": "s"}]}, "targets[0].rates"),
            ({"targets": [{"kind": "compound", "label": "w", "rates": {}}]}, "targets[0].rates"),
            ({"params": 5}, "params"),
            ({"c_rule": [1]}, "c_rule"),
            (
                {"scenario": "pattern-copies", "params": {"patterns": [{"edges": PATH3["edges"]}]}},
                "params.patterns[0].num_vertices",
            ),
            ({"params": {"r": "3"}}, "params.r"),
            ({"c_rule": {"kind": "mean", "lam": float("nan")}}, "c_rule.lam"),
            ({"c_rule": {"kind": "power", "lam": 1.0, "a": float("inf")}}, "c_rule.a"),
            ({"targets": [{"kind": "poisson", "label": "p", "rate": float("-inf")}]}, "targets[0].rate"),
            ({"scenario": "corr-er", "params": {"p": float("nan"), "rho": 0.1}}, "params.p"),
            ({"sizes": [True]}, "sizes[0]"),
            ({"c_rule": {"kind": "fixed", "value": True}}, "c_rule.value"),
            ({"replicates": True}, "replicates"),
            ({"seed": True}, "seed"),
            (
                {"targets": [{"kind": "shared", "label": "s", "rates": [{"subset": [True], "rate": 0.5}]}]},
                "targets[0].rates[0].subset",
            ),
            (
                {"scenario": "pattern-copies", "params": {"patterns": [dict(PATH3, num_vertices=True)]}},
                "params.patterns[0].num_vertices",
            ),
            (
                {"scenario": "pattern-copies", "params": {"patterns": [PATH3, dict(PATH3, edges=[[0, 1], [1, 1]])]}},
                "params.patterns[1].edges[1]: repeated vertex",
            ),
            (
                {"scenario": "pattern-copies", "params": {"patterns": [dict(PATH3, edges=[[0, 1], [1, 3]])]}},
                "params.patterns[0].edges[1][1]: vertex 3 out of range [0, 3)",
            ),
            (
                {"scenario": "pattern-copies", "params": {"patterns": [{"num_vertices": 9, "edges": [[0, 1]]}]}},
                "params.patterns[0].num_vertices: pattern graph has 9 vertices, policy bound is 8",
            ),
            (
                {
                    "targets": [
                        {
                            "kind": "shared",
                            "label": "s",
                            "rates": [{"subset": [1], "rate": 0.3}, {"subset": [1], "rate": 5.0}],
                        }
                    ]
                },
                "targets[0].rates[1]",
            ),
            (
                {"targets": [{"kind": "compound", "label": "w", "rates": {"1": 0.3, "01": 5.0}}]},
                "targets[0].rates[1]: weight 1 is given twice",
            ),
            ({"targets": [{"kind": "poisson", "label": "a,b", "rate": 0.5}]}, "targets[0].label"),
            (
                {"targets": [{"kind": "poisson", "label": "p", "rate": 0.5}, {"kind": "derived", "label": "p"}]},
                "targets[1].label: 'p' is given twice",
            ),
            ({"targets": [{"kind": "shared", "label": "s", "rates": [{"subset": [], "rate": 0.5}]}]}, "targets[0].rates[0].subset"),
            ({"targets": [{"kind": "shared", "label": "s", "rates": [{"subset": [0], "rate": 0.5}]}]}, "targets[0].rates[0].subset"),
            (
                {"targets": [{"kind": "shared", "label": "s", "rates": [{"subset": [3], "rate": 0.5}]}]},
                "targets[s]: rates: subset [3] not within [1, 1]",
            ),
            ({"scenario": "appendix-b", "params": {"lam": 0.4}}, "params.lam: must be in (0, 1/4), got 0.4"),
        ],
        ids=[
            "poisson-without-rate",
            "rate-not-a-number",
            "shared-without-rates",
            "compound-empty-rates",
            "params-not-an-object",
            "c_rule-not-an-object",
            "pattern-without-num_vertices",
            "ap-r-a-string",
            "lam-nan",
            "power-a-infinity",
            "rate-minus-infinity",
            "corr-er-p-nan",
            "size-true",
            "c-value-true",
            "replicates-true",
            "seed-true",
            "subset-layer-true",
            "pattern-num_vertices-true",
            "pattern-repeated-vertex",
            "pattern-vertex-out-of-range",
            "pattern-nine-vertices",
            "shared-subset-twice",
            "compound-weight-twice",
            "label-with-comma",
            "label-twice",
            "shared-subset-empty",
            "shared-subset-layer-0",
            "shared-subset-past-dimension",
            "appendix-b-lam-out-of-range",
        ],
    )
    def test_malformed_spec_file_exits_2(self, change, field, tmp_path, capsys):
        obj = spec_to_obj(make_spec())
        obj.update(change)
        cfg = tmp_path / "spec.json"
        write_json(cfg, obj)
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    # A law holding weight K has more than K states, so a weight at the law
    # bound is refused before its key is read as an int or a rate list is built.
    @pytest.mark.parametrize("weight", ["1" + "0" * 4999, str(MAX_LAW_CELLS)], ids=["5000-digits", "law-bound"])
    def test_compound_weight_at_law_bound_exits_3(self, weight, tmp_path, capsys):
        obj = spec_to_obj(make_spec())
        obj["targets"] = [{"kind": "compound", "label": "w", "rates": {weight: 0.5}}]
        cfg = tmp_path / "spec.json"
        write_json(cfg, obj)
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "run") == 3
        err = capsys.readouterr().err
        assert "targets[0].rates: weight" in err and str(MAX_LAW_CELLS) in err and "Traceback" not in err


class TestScenarioPlumbing:
    def test_mean_rule_birthday(self):
        spec = preset_spec("birthday")
        built = build_scenario(spec, 50)
        assert resolve_colors(spec.c_rule, built) == 1225

    def test_mean_rule_exact_powers(self):
        rule = {"kind": "mean", "lam": 1.0}
        assert resolve_colors(rule, BuiltScenario(6, 1, 6, 3125)) == 5
        assert resolve_colors(rule, BuiltScenario(11, 1, 11, 5**10)) == 5
        assert resolve_colors(rule, BuiltScenario(6, 1, 6, 3126)) == 6

    def test_power_rule(self):
        spec = preset_spec("appendix-b")
        built = build_scenario(spec, 200)
        assert resolve_colors(spec.c_rule, built) == 40000

    def test_power_rule_exact_in_decimal(self):
        # 1.1 * 100 is 110.00000000000001 in floats
        built = BuiltScenario(100, 1, 2, 4950)
        assert resolve_colors({"kind": "power", "lam": 1.1, "a": 1}, built) == 110
        assert resolve_colors({"kind": "power", "lam": 1.1, "a": 1.0}, built) == 110
        assert resolve_colors({"kind": "power", "lam": 1.1, "a": 2}, built) == 11000
        assert resolve_colors({"kind": "power", "lam": 1.1, "a": -1}, built) == 1

    def test_auto_backend_for_preset_graph_layers(self):
        picks = {}
        for name in PRESETS:
            spec = preset_spec(name)
            for n in spec.sizes:
                built = build_scenario(spec, n)
                c = resolve_colors(spec.c_rule, built)
                if hasattr(built, "multiplex"):
                    layers = built.multiplex.layers
                elif hasattr(built, "weighted"):
                    layers = [built.weighted.base]
                else:  # appendix-b's variants; ap and corr-er count no layer
                    layers = [layer for M in getattr(built, "variants", {}).values() for layer in M.layers]
                for layer in layers:
                    pick = (layer.uniformity, _choose_backend(layer, c, "auto"))
                    picks.setdefault((name, n, c), set()).add(pick)
        assert picks == {
            ("birthday", 50, 1225): {(2, "pair-class")},
            ("birthday", 100, 4950): {(2, "pair-class")},
            ("birthday", 200, 19900): {(2, "pair-class")},
            ("edge-color", 10, 92): {(3, "pair-class")},
            ("edge-color", 14, 201): {(3, "pair-class")},
            ("weighted", 250, 27): {(3, "dense")},
            ("weighted", 500, 39): {(3, "dense")},
            ("appendix-a", 100, 100): {(3, "pair-class")},
            ("appendix-a", 200, 200): {(3, "pair-class")},
            ("appendix-a", 500, 500): {(3, "pair-class")},
            ("appendix-b", 200, 40000): {(2, "pair-class")},
            ("appendix-b", 400, 160000): {(2, "pair-class")},
        }
        k30 = build_scenario(preset_spec("birthday"), 30).multiplex.layers[0]
        assert _choose_backend(k30, 30, "auto") == "dense"
        k35 = build_scenario(preset_spec("birthday"), 35).multiplex.layers[0]
        assert _choose_backend(k35, 35, "auto") == "pair-class"

    def test_auto_backend_same_law_on_birthday_k200(self):
        M = build_scenario(preset_spec("birthday"), 200).multiplex
        cfg = new_simulation_config(19900, 5000, 7)
        auto = simulate_T(M, cfg).law
        assert auto == simulate_T(M, cfg, backend="dense").law
        assert auto == simulate_T(M, cfg, backend="pair-class").law

    def test_corr_er_derived_rates_scale_with_uniformity(self):
        # per-layer mean p * C(n, r) / c^(r-1): 0.2 * 120 / 16 at n=10, r=3, c=4
        spec = make_spec(
            scenario="corr-er",
            params={"r": 3, "p": 0.2, "rho": 0.05},
            c_rule={"kind": "fixed", "value": 4},
            sizes=(10,),
            law="simulate",
        )
        built = build_scenario(spec, 10)
        means = law_moments(built.derived(built, 4, 4, spec.tail_tol)).means
        assert means == pytest.approx([1.5, 1.5], abs=1e-9)

    def test_weighted_blocks_classes(self):
        spec = preset_spec("weighted")
        built = build_scenario(spec, 20)
        weights = sorted(set(built.weighted.weights))
        assert weights == [1, 3]
        assert built.weighted.base.num_edges == 20

    def test_run_compare_rows_in_size_order(self):
        spec = make_spec(sizes=(4, 3))
        rows = run_compare(spec)
        assert [r["n"] for r in rows] == [4, 3]
        assert all("runtime_s" in r for r in rows)


EXACT_PARAMS = {
    "complete-graph": ({}, 5),
    "pattern-copies": ({"patterns": [TestSpecValidation.PATH3]}, 4),
    "ap": ({"r": 3}, 7),
    "corr-er": ({"r": 2, "p": 0.2, "rho": 0.05}, 5),
    "weighted-blocks": ({"triangle_fraction": 0.5}, 2),
    "appendix-a": ({}, 5),
    "appendix-b": ({"lam": 0.2}, 5),
}


class TestScenarioLaws:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_exact_law(self, scenario, tmp_path, capsys):
        params, n = EXACT_PARAMS[scenario]
        spec = make_spec(
            scenario=scenario,
            params=params,
            sizes=(n,),
            targets=({"kind": "derived", "label": "limit"},),
        )
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_to_obj(spec))
        out = tmp_path / "run"
        code = run_cli("compare", "--config", cfg, "--out", out)
        if scenario == "corr-er":
            err = capsys.readouterr().err
            assert code == 2
            assert "error: law: exact enumeration unavailable for scenario 'corr-er'" in err
        else:
            assert code == 0
            rows = (out / "results.csv").read_text().strip().splitlines()[1:]
            assert len(rows) == (3 if scenario == "appendix-b" else 1)

    def test_bench_layers_are_cli_attributes(self):
        loader = importlib.util.spec_from_file_location("bench_spans", SPANS)
        spans = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(spans)
        assert [a for a in spans.CLI_LAYERS if not hasattr(cli, a)] == []
        assert [a for a in spans.MOMENTS_LAYERS if not hasattr(monoplex.moments, a)] == []

    @pytest.mark.parametrize("workload", ("ap-sweep", "preset-sweep", "exact-oracle"))
    def test_bench_argv_parses(self, workload, tmp_path, monkeypatch):
        # The benchmark drives cli.main with these argument lists; a flag
        # the parser no longer takes would end its run with SystemExit.
        workloads = bench_workloads(monkeypatch)
        assert workload in workloads.WORKLOADS
        inputs, outputs = tmp_path / "inputs", tmp_path / "outputs"
        workloads.setup(workload, inputs, 1)
        argvs = []
        for op in workloads.operations(workload, inputs, outputs, 1):
            argvs += [op.argv, op.shards_argv] if op.shards_argv else [op.argv]
        for _, *runs in workloads.multi_block_shard_runs(workload, inputs, outputs, 1):
            argvs += runs
        parser = cli.build_parser()
        for argv in argvs:
            parser.parse_args([str(a) for a in argv])
        assert argvs

    def test_bench_reports_read_edge_data(self, tmp_path, monkeypatch):
        # The exact-oracle moment reports read their structures from
        # edge_data, which loads at array speed.
        workloads = bench_workloads(monkeypatch)
        workloads.setup("exact-oracle", tmp_path, 1)
        weighted = new_experiment_spec(
            "weighted-blocks", {"triangle_fraction": 0.3}, {"kind": "fixed", "value": 39}, (500,), 1, 1,
            targets=({"kind": "derived", "label": "compound"},),
        )
        built = {
            "ap-n300": ap_hypergraph(range(1, 301), 3),
            "star-n200": appendix_star_hypergraph(200),
            "appendix-b-nested-n200": appendix_three_multiplex(200, 0.2, "nested"),
            "appendix-b-pairwise-n200": appendix_three_multiplex(200, 0.2, "pairwise"),
            "weighted-blocks-n500": build_scenario(weighted, 500).weighted,
        }
        assert [name for name, *_ in workloads.REPORTS] == list(built)
        for name, structure in built.items():
            obj = read_json(tmp_path / f"{name}.json")
            assert all("edge_data" in layer and "edges" not in layer for layer in obj.get("layers", [obj])), name
            assert load_structure(tmp_path / f"{name}.json") == structure, name

    @pytest.mark.parametrize("name, law", [("simulate_T", "simulate"), ("exact_law", "exact")])
    def test_law_calls_go_through_module_globals(self, name, law, monkeypatch, tmp_path):
        calls = []
        original = getattr(cli, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        spec = make_spec(scenario="complete-graph", params={}, sizes=(5,), law=law)
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_to_obj(spec))
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "run") == 0
        assert calls == [name]
