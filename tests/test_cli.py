"""Command-line interface: construct, moments, preset, compare."""

import importlib.util
import json
from collections import Counter
from math import exp
from pathlib import Path

import pytest

import monoplex.core
import monoplex.moments
from monoplex import cli
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
from monoplex.core import ValidationError
from monoplex.laws import law_moments
from monoplex.serialize import load_structure, read_json, write_json
from monoplex.simulate import _choose_backend, new_simulation_config, simulate_T


GOLDEN = Path(__file__).parent / "data" / "golden"
SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def run_cli(*argv):
    return main([str(a) for a in argv])


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

    def test_unknown_exits_2(self, tmp_path, capsys):
        assert run_cli("construct", "moebius", "--n", 5) == 2
        assert "unknown construction" in capsys.readouterr().err


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

    def test_simple_graph_file_exits_2(self, tmp_path, capsys):
        f = tmp_path / "g.json"
        write_json(f, {"kind": "simple_graph", "num_vertices": 3, "edges": [[0, 1]]})
        assert run_cli("moments", f, "--c", 2) == 2
        err = capsys.readouterr().err
        assert "unknown kind 'simple_graph'" in err and "Traceback" not in err

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
        assert (obj["seed"], obj["shards"], obj["law"]) == (20260816, 1, "simulate")

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


def make_spec(**kw):
    base = dict(
        scenario="ap",
        params={"r": 3},
        c_rule={"kind": "fixed", "value": 2},
        sizes=(3,),
        replicates=100,
        seed=1,
        shards=1,
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

    def test_rerun_bytes_identical(self, tmp_path):
        spec = preset_spec("birthday")
        obj = spec_to_obj(spec)
        obj["sizes"] = [20, 40]
        obj["replicates"] = 3000
        cfg = tmp_path / "spec.json"
        write_json(cfg, obj)
        outs = []
        for name, shards in (("a", 1), ("b", 1), ("c", 3)):
            out = tmp_path / name
            assert run_cli("compare", "--config", cfg, "--shards", shards, "--out", out) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_manifest_reconstructs_run(self, tmp_path):
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_to_obj(make_spec()))
        out = tmp_path / "run"
        assert run_cli("compare", "--config", cfg, "--out", out) == 0
        manifest = read_json(out / "manifest.json")
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

    @pytest.mark.parametrize(
        "c_rule, size, law, code, message",
        [
            ({"kind": "power", "lam": 1.0, "a": 1000}, 100, "simulate", 2, "c_rule"),
            ({"kind": "power", "lam": 1.0, "a": 200.5}, 100, "simulate", 2, "c_rule"),
            ({"kind": "fixed", "value": 2**31}, 3, "simulate", 3, f"c: {2**31}"),
            ({"kind": "fixed", "value": 10**30}, 3, "simulate", 3, f"c: {10**30}"),
            ({"kind": "fixed", "value": 2**31}, 3, "exact", 0, ""),
        ],
        ids=["power-int-overflow", "power-float-overflow", "fixed-2^31", "fixed-10^30", "exact-2^31"],
    )
    def test_color_count_extremes(self, c_rule, size, law, code, message, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_to_obj(make_spec(c_rule=c_rule, sizes=(size,), law=law)))
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "run") == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

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

    def test_json_format(self, tmp_path):
        cfg = tmp_path / "spec.json"
        write_json(cfg, spec_to_obj(make_spec()))
        out = tmp_path / "run"
        assert run_cli("compare", "--config", cfg, "--out", out, "--format", "json") == 0
        rows = read_json(out / "results.json")["rows"]
        assert rows[0]["label"] == "pois-quarter"

    def test_appendix_b_rows(self, tmp_path):
        spec = preset_spec("appendix-b")
        obj = spec_to_obj(spec)
        obj["sizes"] = [60]
        obj["replicates"] = 2000
        cfg = tmp_path / "spec.json"
        write_json(cfg, obj)
        out = tmp_path / "run"
        assert run_cli("compare", "--config", cfg, "--out", out) == 0
        labels = [line.split(",")[2] for line in (out / "results.csv").read_text().strip().splitlines()[1:]]
        assert labels == ["nested", "pairwise", "cross"]

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
    `monoplex compare --config SPEC` on the exact-law specs stored beside them."""

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
                variants = getattr(built, "variants", {})
                for M in [built.multiplex] if hasattr(built, "multiplex") else variants.values():
                    for layer in M.layers:
                        if layer.uniformity == 2:
                            pick = _choose_backend(layer, c, "auto")
                            picks.setdefault((name, n, c), set()).add(pick)
        assert picks == {
            ("birthday", 50, 1225): {"pair-class"},
            ("birthday", 100, 4950): {"pair-class"},
            ("birthday", 200, 19900): {"pair-class"},
            ("appendix-b", 200, 40000): {"pair-class"},
            ("appendix-b", 400, 160000): {"pair-class"},
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
            assert "exact" in err and "unavailable" in err
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
