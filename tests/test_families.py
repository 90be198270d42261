"""Hypergraph family builders."""

import itertools
import json
from math import comb, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoplex.core import (
    ResourceBoundError,
    ValidationError,
    layer_intersection,
    m_t,
    new_hypergraph,
)
from monoplex import cli, families
from monoplex.core import UniformHypergraph
from monoplex.families import (
    _copy_maps,
    ap_count_closed_form,
    ap_hypergraph,
    appendix_star_hypergraph,
    appendix_three_multiplex,
    automorphism_count,
    clique_hypergraph,
    complete_graph,
    copies_hypergraph,
    cycle_graph,
    new_correlated_er_params,
    new_pattern_graph,
    new_simple_graph,
    path_graph,
    sample_correlated_er,
    sample_er_graph,
    vertex_copy_weighted_hypergraph,
    _unrank_pairs,
)
from monoplex.serialize import (
    hypergraph_from_obj,
    hypergraph_to_obj,
    load_structure,
    weighted_to_obj,
    write_json,
)
from oracles import (
    ap_hypergraph_reference,
    copies_edges_recursive,
    copy_maps_recursive,
    vertex_copy_weights_recursive,
)

TRIANGLE = new_pattern_graph(3, [[0, 1], [1, 2], [0, 2]])
PATH3 = new_pattern_graph(3, [[0, 1], [1, 2]])


class TestSimpleGraph:
    def test_canonical(self):
        G = new_simple_graph(4, [[3, 1], [0, 2]])
        assert G.edges == ((0, 2), (1, 3))

    def test_rejects_loop_and_duplicate(self):
        with pytest.raises(ValidationError, match="repeated vertex"):
            new_simple_graph(3, [[1, 1]])
        with pytest.raises(ValidationError, match="duplicate"):
            new_simple_graph(3, [[0, 1], [1, 0]])

    def test_pattern_policy(self):
        with pytest.raises(ValidationError, match="policy"):
            new_pattern_graph(9, [])

    def test_generators(self):
        assert complete_graph(4).num_edges == 6
        assert path_graph(5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert cycle_graph(4).num_edges == 4

    @pytest.mark.parametrize(
        "build, n, edges",
        [
            (lambda: complete_graph(5), 5, list(itertools.combinations(range(5), 2))),
            (lambda: complete_graph(2), 2, [[0, 1]]),
            (lambda: path_graph(4), 4, [[0, 1], [1, 2], [2, 3]]),
            (lambda: path_graph(2), 2, [[0, 1]]),
            (lambda: cycle_graph(3), 3, [[0, 1], [1, 2], [0, 2]]),
            (lambda: cycle_graph(6), 6, [[5, 0], *([i, i + 1] for i in range(5))]),
            (lambda: new_simple_graph(6, [[5, 2], [0, 4], [1, 0]]), 6, [[0, 1], [0, 4], [2, 5]]),
            (lambda: new_pattern_graph(4, [[3, 1], [2, 0]]), 4, [[0, 2], [1, 3]]),
            (lambda: new_pattern_graph(8, []), 8, []),
        ],
        ids=["complete-5", "complete-2", "path-4", "path-2", "cycle-3", "cycle-6", "simple", "pattern", "pattern-edgeless"],
    )
    def test_builders_return_graph_layers(self, build, n, edges):
        # every graph is the 2-uniform layer new_hypergraph makes of its edges
        G = build()
        assert type(G) is UniformHypergraph and G.edge_array.dtype == np.int32
        assert G == new_hypergraph(2, n, edges)

    def test_er_graph_keeps_its_stream(self):
        # one draw per pair, pairs in lexicographic order
        u = np.random.default_rng(7).random(comb(12, 2))
        pairs = itertools.combinations(range(12), 2)
        expected = tuple(e for e, ui in zip(pairs, u) if ui < 0.4)
        assert sample_er_graph(12, 0.4, np.random.default_rng(7)).edges == expected

    def test_fewer_than_two_vertices(self):
        assert new_simple_graph(0, []) == UniformHypergraph(2, 0, ())
        assert new_simple_graph(1, []) == UniformHypergraph(2, 1, ())
        with pytest.raises(ValidationError, match=r"^edges\[0\]\[1\]: vertex 1 out of range \[0, 1\)$"):
            new_simple_graph(1, [[0, 1]])
        with pytest.raises(ValidationError, match="num_vertices: must be an integer >= 0"):
            new_simple_graph(-1, [])

    @pytest.mark.parametrize(
        "call",
        [
            lambda H: clique_hypergraph(H, 3),
            lambda H: copies_hypergraph(H, PATH3),
            lambda H: copies_hypergraph(complete_graph(4), H),
            lambda H: vertex_copy_weighted_hypergraph(H, PATH3),
            lambda H: vertex_copy_weighted_hypergraph(complete_graph(4), H),
            lambda H: automorphism_count(H),
        ],
        ids=["clique-host", "copies-host", "copies-pattern", "weighted-host", "weighted-pattern", "automorphisms"],
    )
    def test_graph_entry_points_refuse_other_uniformities(self, call):
        H = new_hypergraph(3, 4, [[0, 1, 2], [1, 2, 3]])
        with pytest.raises(ValidationError, match="2-uniform, got uniformity 3"):
            call(H)


class TestCliqueHypergraph:
    def test_k4_triangles(self):
        H = clique_hypergraph(complete_graph(4), 3)
        assert H.num_edges == 4
        assert H.edges == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

    def test_triangle_r3(self):
        H = clique_hypergraph(cycle_graph(3), 3)
        assert H.edges == ((0, 1, 2),)

    def test_edgeless(self):
        H = clique_hypergraph(new_simple_graph(5, []), 2)
        assert H.num_edges == 0

    def test_r2_returns_graph_edges(self):
        G = sample_er_graph(12, 0.4, np.random.default_rng(7))
        H = clique_hypergraph(G, 2)
        assert H.edges == G.edges

    def test_complete_counts(self):
        for n in range(3, 7):
            for r in range(2, n + 1):
                assert clique_hypergraph(complete_graph(n), r).num_edges == comb(n, r)

    def test_path_has_no_triangles(self):
        assert clique_hypergraph(path_graph(6), 3).num_edges == 0


class TestCopiesHypergraph:
    def test_k4_triangle(self):
        res = copies_hypergraph(complete_graph(4), TRIANGLE)
        H = res.hypergraph
        assert H.uniformity == 3
        assert H.num_vertices == 6
        assert H.num_edges == 4
        assert res.edge_labels == complete_graph(4).edges

    def test_single_edge_pattern(self):
        F = new_pattern_graph(2, [[0, 1]])
        res = copies_hypergraph(path_graph(4), F)
        assert res.hypergraph.uniformity == 1
        assert res.hypergraph.edges == ((0,), (1,), (2,))

    def test_no_copies(self):
        res = copies_hypergraph(path_graph(3), TRIANGLE)
        assert res.hypergraph.num_edges == 0

    def test_clique_pattern_counts(self):
        # K_r copies in K_n: one per r-subset of vertices.
        for n in range(3, 8):
            for r in range(2, min(n, 4) + 1):
                F = new_pattern_graph(r, list(itertools.combinations(range(r), 2)))
                res = copies_hypergraph(complete_graph(n), F)
                assert res.hypergraph.num_edges == comb(n, r)

    def test_path3_copies_in_k4(self):
        # Paths on 3 vertices in K_4: 4 choices of middle times C(3,2) ends.
        res = copies_hypergraph(complete_graph(4), PATH3)
        assert res.hypergraph.num_edges == 12

    def test_requires_pattern_edge(self):
        with pytest.raises(ValidationError, match="at least one edge"):
            copies_hypergraph(complete_graph(3), new_pattern_graph(2, []))

    def test_pattern_policy_bound(self):
        # the bound holds for a pattern built without new_pattern_graph
        with pytest.raises(ValidationError, match="9 vertices, policy bound is 8"):
            copies_hypergraph(complete_graph(10), complete_graph(9))


class TestApHypergraph:
    def test_small_example(self):
        H = ap_hypergraph(range(1, 6), 3)
        assert H.num_vertices == 5
        assert set(H.edges) == {(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 2, 4)}

    def test_ten_elements(self):
        assert ap_hypergraph(range(1, 11), 3).num_edges == 20

    def test_closed_form(self):
        for n in (5, 10, 37, 200, 915, 2000):
            assert ap_hypergraph(range(1, n + 1), 3).num_edges == ap_count_closed_form(n, 3)
        for n in (10, 57, 301):
            assert ap_hypergraph(range(1, n + 1), 4).num_edges == ap_count_closed_form(n, 4)

    def test_sparse_set(self):
        # Odd numbers up to 9: APs must have even difference.
        H = ap_hypergraph([1, 3, 5, 7, 9], 3)
        assert set(H.edges) == {(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 2, 4)}

    def test_too_small(self):
        assert ap_hypergraph([1, 5], 3).num_edges == 0

    # A budget of 7 candidate pairs splits every set past 7 elements into blocks.
    @pytest.mark.parametrize("budget", [families.AP_PAIR_BUDGET, 7], ids=["default-budget", "budget-7"])
    @pytest.mark.parametrize("r", (3, 4, 5))
    def test_ranges_match_reference(self, r, budget, monkeypatch):
        monkeypatch.setattr(families, "AP_PAIR_BUDGET", budget)
        for n in range(61):
            assert ap_hypergraph(range(1, n + 1), r) == ap_hypergraph_reference(range(1, n + 1), r)

    @given(
        st.sets(st.integers(1, 400), max_size=40),
        st.sampled_from([3, 4, 5]),
        st.sampled_from([families.AP_PAIR_BUDGET, 7]),
    )
    @settings(max_examples=200, deadline=None)
    def test_sparse_sets_match_reference(self, elems, r, budget):
        A = sorted(elems)
        with mock.patch.object(families, "AP_PAIR_BUDGET", budget):
            assert ap_hypergraph(A, r) == ap_hypergraph_reference(A, r)

    def test_validation(self):
        with pytest.raises(ValidationError, match="increasing"):
            ap_hypergraph([3, 1, 2], 3)
        with pytest.raises(ValidationError, match=">= 3"):
            ap_hypergraph([1, 2, 3], 2)
        with pytest.raises(ValidationError, match=">= 1"):
            ap_hypergraph([0, 1, 2], 3)
        with pytest.raises(ValidationError, match="< 2\\^63"):
            ap_hypergraph([1, 2, 1 << 63], 3)
        with pytest.raises(ValidationError, match="^r: must be an integer >= 3, got 3.0$"):
            ap_hypergraph(range(1, 10), 3.0)
        for n in (-1, -5, 10.0, True, None):
            with pytest.raises(ValidationError, match="^n: must be an integer >= 0"):
                ap_count_closed_form(n, 3)
        for r in (2, 3.0, True, None):
            with pytest.raises(ValidationError, match="^r: must be an integer >= 3"):
                ap_count_closed_form(10, r)
        assert ap_count_closed_form(0, 3) == ap_count_closed_form(2, 3) == 0


class TestAutomorphisms:
    def test_triangle(self):
        assert automorphism_count(TRIANGLE) == 6

    def test_path3(self):
        assert automorphism_count(PATH3) == 2

    def test_cycle4(self):
        F = new_pattern_graph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        assert automorphism_count(F) == 8

    def test_edgeless(self):
        assert automorphism_count(new_pattern_graph(3, [])) == 6

    def test_complete(self):
        F = new_pattern_graph(5, list(itertools.combinations(range(5), 2)))
        assert automorphism_count(F) == 120


class TestVertexCopyWeighted:
    def test_k4_path3(self):
        WH = vertex_copy_weighted_hypergraph(complete_graph(4), PATH3)
        assert WH.base.num_edges == 4
        assert WH.weights == (3, 3, 3, 3)
        assert WH.weight_bound == 3

    def test_clique_pattern_weights_one(self):
        G = sample_er_graph(10, 0.5, np.random.default_rng(3))
        WH = vertex_copy_weighted_hypergraph(G, TRIANGLE)
        assert all(w == 1 for w in WH.weights)
        assert WH.base.edges == clique_hypergraph(G, 3).edges

    def test_edgeless_host(self):
        WH = vertex_copy_weighted_hypergraph(new_simple_graph(5, []), PATH3)
        assert WH.base.num_edges == 0

    def test_injective_map_total(self):
        # Sum of weights times |Aut| = number of injective edge-preserving maps.
        G = sample_er_graph(7, 0.6, np.random.default_rng(11))
        WH = vertex_copy_weighted_hypergraph(G, PATH3)
        total_maps = 0
        adj = {v: set() for v in range(7)}
        for u, v in G.edges:
            adj[u].add(v)
            adj[v].add(u)
        for a, b, c in itertools.permutations(range(7), 3):
            if b in adj[a] and c in adj[b]:
                total_maps += 1
        assert sum(WH.weights) * automorphism_count(PATH3) == total_maps


class TestStarHypergraph:
    def test_counts(self):
        assert appendix_star_hypergraph(4).num_edges == 3
        assert appendix_star_hypergraph(10).num_edges == 36

    def test_all_through_zero(self):
        H = appendix_star_hypergraph(7)
        assert m_t([0], H) == H.num_edges
        assert all(e[0] == 0 for e in H.edges)

    def test_minimum(self):
        with pytest.raises(ValidationError):
            appendix_star_hypergraph(2)


class TestThreeMultiplex:
    def test_nested_overlaps(self):
        M = appendix_three_multiplex(20, 0.2, "nested")
        assert M.num_layers == 3
        assert M.num_vertices == 3 * 20 - 2 * 4
        for layer in M.layers:
            assert layer.num_edges == comb(20, 2)
        pair = layer_intersection(M.layers[0], M.layers[1])
        triple = layer_intersection(pair, M.layers[2])
        assert pair.num_edges == comb(4, 2)
        # Any two layers meet exactly in the triple overlap.
        assert triple.edges == pair.edges
        other = layer_intersection(M.layers[1], M.layers[2])
        assert other.edges == triple.edges

    def test_pairwise_overlaps(self):
        M = appendix_three_multiplex(20, 0.2, "pairwise")
        assert M.num_vertices == 3 * 20 - 3 * 4
        for layer in M.layers:
            assert layer.num_edges == comb(20, 2)
        pair = layer_intersection(M.layers[0], M.layers[1])
        assert pair.num_edges == comb(4, 2)
        triple = layer_intersection(pair, M.layers[2])
        assert triple.num_edges == 0

    def test_lambda_range(self):
        with pytest.raises(ValidationError):
            appendix_three_multiplex(20, 0.25, "nested")
        with pytest.raises(ValidationError):
            appendix_three_multiplex(20, 0.0, "nested")
        with pytest.raises(ValidationError):
            appendix_three_multiplex(20, 0.2, "stacked")


class TestCorrelatedEr:
    def test_params_validation(self):
        with pytest.raises(ValidationError):
            new_correlated_er_params(10, 2, 0.0, 0.0)
        with pytest.raises(ValidationError):
            new_correlated_er_params(10, 2, 0.3, 0.21)  # rho >= p(1-p)
        params = new_correlated_er_params(10, 2, 0.3, 0.0)
        assert params.p12 == pytest.approx(0.09)

    def test_determinism(self):
        params = new_correlated_er_params(15, 2, 0.3, 0.1)
        M1 = sample_correlated_er(params, np.random.default_rng(5))
        M2 = sample_correlated_er(params, np.random.default_rng(5))
        assert M1 == M2

    def test_cell_frequencies_dense(self):
        # n=40, r=2: 780 slots per draw; aggregate 200 draws and check each
        # cell frequency within 4 standard errors.
        params = new_correlated_er_params(40, 2, 0.3, 0.12)
        p, p12 = params.p, params.p12
        probs = {
            "both": p12,
            "only1": p - p12,
            "only2": p - p12,
            "neither": 1 - 2 * p + p12,
        }
        rng = np.random.default_rng(99)
        slots = comb(40, 2)
        draws = 200
        counts = dict.fromkeys(probs, 0)
        for _ in range(draws):
            M = sample_correlated_er(params, rng)
            s1, s2 = set(M.layers[0].edges), set(M.layers[1].edges)
            counts["both"] += len(s1 & s2)
            counts["only1"] += len(s1 - s2)
            counts["only2"] += len(s2 - s1)
            counts["neither"] += slots - len(s1 | s2)
        total = slots * draws
        for cell, q in probs.items():
            se = sqrt(q * (1 - q) / total)
            assert abs(counts[cell] / total - q) < 4 * se, cell

    def test_rho_zero_independent_product(self):
        params = new_correlated_er_params(30, 2, 0.4, 0.0)
        assert params.p12 == pytest.approx(0.16)

    def test_triples(self):
        params = new_correlated_er_params(12, 3, 0.2, 0.05)
        M = sample_correlated_er(params, np.random.default_rng(1))
        assert M.layers[0].uniformity == 3
        assert all(len(e) == 3 for e in M.layers[0].edges)

    def test_unrank_matches_lex(self):
        n = 9
        idx = np.arange(comb(n, 2), dtype=np.int64)
        pairs = _unrank_pairs(idx, n)
        assert pairs.dtype == np.int64
        assert pairs.tolist() == [list(e) for e in itertools.combinations(range(n), 2)]

    def test_sparse_matches_dense_stats(self, monkeypatch):
        monkeypatch.setattr(families, "ER_SUBSET_BUDGET", 1000)
        params = new_correlated_er_params(60, 2, 0.25, 0.08)
        rng = np.random.default_rng(42)
        slots = comb(60, 2)
        tot1 = tot2 = tot_both = 0
        draws = 150
        for _ in range(draws):
            # C(60, 2) = 1770 pairs pass the budget, so pairs are drawn sparsely
            M = sample_correlated_er(params, rng)
            s1, s2 = set(M.layers[0].edges), set(M.layers[1].edges)
            tot1 += len(s1)
            tot2 += len(s2)
            tot_both += len(s1 & s2)
        total = slots * draws
        for observed, q in ((tot1, params.p), (tot2, params.p), (tot_both, params.p12)):
            se = sqrt(q * (1 - q) / total)
            assert abs(observed / total - q) < 4 * se

    def test_sparse_draw_bound(self, monkeypatch):
        # rho = 0 gives p12 = p^2: C(60, 2) * (2p - p12) = 1770 * 0.99 pairs exceed 1000
        monkeypatch.setattr(families, "ER_SUBSET_BUDGET", 1000)
        params = new_correlated_er_params(60, 2, 0.9, 0.0)
        with pytest.raises(ResourceBoundError, match="bound 1000"):
            sample_correlated_er(params, np.random.default_rng(0))

    def test_resource_bound(self, monkeypatch):
        monkeypatch.setattr(families, "ER_SUBSET_BUDGET", 1000)
        params = new_correlated_er_params(200, 3, 0.01, 0.0)
        with pytest.raises(Exception, match="bound"):
            sample_correlated_er(params, np.random.default_rng(0))


@st.composite
def host_and_pattern(draw):
    """A host graph on <= 9 vertices and a pattern on 2..5 vertices with at
    least one edge; pattern vertices may be isolated."""
    n = draw(st.integers(1, 9))
    host = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    k = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(k), 2))
    pattern = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    return new_simple_graph(n, host), new_pattern_graph(k, pattern)


class TestCopyMapsOracle:
    """The level-wise copy-map join against the recursive search."""

    @settings(max_examples=150, deadline=None)
    @given(host_and_pattern())
    @example((complete_graph(6), new_pattern_graph(4, [[0, 1], [1, 2]])))  # vertex 3 isolated
    @example((new_simple_graph(5, []), new_pattern_graph(3, [[0, 1]])))
    def test_matches_recursive_search(self, case):
        G, F = case
        expected = [[phi[u] for u in range(F.num_vertices)] for phi in copy_maps_recursive(G, F)]
        assert _copy_maps(G, F).tolist() == expected
        copies = copies_hypergraph(G, F)
        assert copies.hypergraph.edges == copies_edges_recursive(G, F)
        assert copies.edge_labels == G.edges
        # a host smaller than the pattern gives the empty weighted layer
        weighted = vertex_copy_weighted_hypergraph(G, F)
        assert (weighted.base.edges, weighted.weights) == vertex_copy_weights_recursive(G, F)


def _complete_tuples(vertices):
    return tuple(itertools.combinations(vertices, 2))


class TestArrayLayers:
    """Family builders keep their int32 edge arrays and build edge tuples
    only on first use."""

    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_complete(self, n):
        H = complete_graph(n)
        assert H.edges == _complete_tuples(range(n))
        assert H == UniformHypergraph(2, n, _complete_tuples(range(n)))

    @pytest.mark.parametrize("n, lam", [(4, 0.2), (20, 0.2), (21, 0.11), (60, 0.24)])
    def test_appendix_b(self, n, lam):
        m = int(lam * n)
        nested = appendix_three_multiplex(n, lam, "nested")
        private = n - m
        for i, layer in enumerate(nested.layers):
            block = [*range(m), *range(m + i * private, m + (i + 1) * private)]
            assert layer.edges == _complete_tuples(block)
        pairwise = appendix_three_multiplex(n, lam, "pairwise")
        shared = [range(i * m, (i + 1) * m) for i in range(3)]
        own = [range(3 * m + i * (n - 2 * m), 3 * m + (i + 1) * (n - 2 * m)) for i in range(3)]
        blocks = [(0, 1), (0, 2), (1, 2)]
        for i, layer in enumerate(pairwise.layers):
            block = [*shared[blocks[i][0]], *shared[blocks[i][1]], *own[i]]
            assert layer.edges == _complete_tuples(block)
        assert pairwise.num_vertices == 3 * n - 3 * m

    def test_star(self):
        H = appendix_star_hypergraph(9)
        assert H.edges == tuple((0, a, b) for a, b in itertools.combinations(range(1, 9), 2))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: complete_graph(30),
            lambda: appendix_star_hypergraph(12),
            lambda: appendix_three_multiplex(30, 0.2, "pairwise").layers[2],
            lambda: copies_hypergraph(complete_graph(7), new_pattern_graph(4, [[0, 1], [1, 2], [2, 3]])).hypergraph,
        ],
    )
    def test_array_storage_and_round_trip(self, build):
        H = build()
        arr = H.edge_array
        assert arr.dtype == np.int32 and arr.shape == (H.num_edges, H.uniformity)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1
        text = json.dumps(hypergraph_to_obj(H), sort_keys=True)
        again = hypergraph_from_obj(json.loads(text))
        assert json.dumps(hypergraph_to_obj(again), sort_keys=True) == text
        assert again == H and hash(again) == hash(H)

    def test_compare_builds_no_edge_tuples(self, tmp_path, monkeypatch):
        built = []
        original = cli.build_scenario

        def keep(spec, n):
            built.append(original(spec, n))
            return built[-1]

        monkeypatch.setattr(cli, "build_scenario", keep)
        argv = ["compare", "--preset", "appendix-b", "--replicates", "64", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        layers = [layer for b in built for M in b.variants.values() for layer in M.layers]
        assert len(layers) == 12  # two sizes, two variants, three layers
        assert all(layer._edges is None for layer in layers)


P4 = new_pattern_graph(4, [[0, 1], [1, 2], [2, 3]])


class TestSmallestSizes:
    """A layer may have fewer vertices than its uniformity; it then has no
    edges, and every builder's smallest layers write and read back."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: complete_graph(0),
            lambda: complete_graph(1),
            lambda: path_graph(1),
            lambda: new_simple_graph(0, []),
            lambda: new_simple_graph(1, []),
            lambda: ap_hypergraph(range(1, 3), 3),
            lambda: clique_hypergraph(complete_graph(4), 5),
            lambda: copies_hypergraph(complete_graph(2), P4).hypergraph,
            lambda: vertex_copy_weighted_hypergraph(complete_graph(2), PATH3),
        ],
        ids=["complete-0", "complete-1", "path-1", "simple-0", "simple-1", "ap-2-r3", "clique-4-r5", "copies-K2-P4", "weighted-K2-P3"],
    )
    def test_round_trip(self, build, tmp_path):
        layer = build()
        base = getattr(layer, "base", layer)
        assert base.num_edges == 0
        to_obj = weighted_to_obj if base is not layer else hypergraph_to_obj
        write_json(tmp_path / "s.json", to_obj(layer))
        assert load_structure(tmp_path / "s.json") == layer

    @pytest.mark.parametrize("bad", [2.5, True, -1], ids=["float", "bool", "negative"])
    @pytest.mark.parametrize(
        "build, field, low",
        [
            (complete_graph, "n", 0),
            (path_graph, "n", 0),
            (cycle_graph, "n", 3),
            (lambda n: sample_er_graph(n, 0.5, np.random.default_rng(0)), "n", 0),
            (lambda r: clique_hypergraph(complete_graph(4), r), "r", 2),
            (appendix_star_hypergraph, "n", 3),
            (lambda n: appendix_three_multiplex(n, 0.2, "nested"), "n", 2),
            (lambda r: new_correlated_er_params(10, r, 0.3, 0.0), "r", 2),
            (lambda n: new_correlated_er_params(n, 2, 0.3, 0.0), "n", 2),
        ],
        ids=["complete", "path", "cycle", "er", "clique-r", "star", "three-multiplex", "corr-er-r", "corr-er-n"],
    )
    def test_sizes_must_be_integers(self, build, field, low, bad):
        with pytest.raises(ValidationError) as exc:
            build(bad)
        assert str(exc.value) == f"{field}: must be an integer >= {low}, got {bad!r}"
