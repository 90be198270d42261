"""Simulation engine: reproducibility, backend agreement, exactness."""

import itertools
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, exp, factorial, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoplex import simulate
from monoplex.core import (
    ResourceBoundError,
    ValidationError,
    count_monochromatic,
    count_monochromatic_vector,
    count_weighted,
    new_coloring,
    new_hypergraph,
    new_multiplex,
    new_weighted_hypergraph,
)
from monoplex.families import (
    ap_hypergraph,
    appendix_star_hypergraph,
    complete_graph,
    copies_hypergraph,
    new_correlated_er_params,
    new_pattern_graph,
    vertex_copy_weighted_hypergraph,
)
from monoplex.laws import law_moments, new_shared_component_spec, poisson_law, tv_distance
from monoplex.moments import covariance_T, mean_T, mean_W, variance_T, variance_W
from monoplex.simulate import (
    BLOCK_SIZE,
    CHUNK,
    _binomial_array,
    _choose_backend,
    _color_walk,
    _layer_counter,
    _monochromatic_subsets,
    _partition_count,
    _partitions,
    _sorted_keys,
    exact_law,
    exact_law_weighted,
    new_simulation_config,
    sample_coloring,
    simulate_ap_T,
    simulate_correlated_er_T,
    simulate_T,
    simulate_W,
)

H3 = new_hypergraph(3, 5, [[0, 1, 2], [0, 1, 3], [2, 3, 4]])


class TestSampleColoring:
    def test_single_color(self):
        x = sample_coloring(8, 1, np.random.default_rng(0))
        assert x.colors == (1,) * 8

    def test_determinism(self):
        a = sample_coloring(10, 4, np.random.default_rng(123))
        b = sample_coloring(10, 4, np.random.default_rng(123))
        assert a == b

    def test_uniform_frequencies(self):
        c, draws = 4, 100_000
        rng = np.random.default_rng(7)
        values = np.concatenate([sample_coloring(10, c, rng).colors for _ in range(draws // 10)])
        se = sqrt((1 / c) * (1 - 1 / c) / draws)
        for a in range(1, c + 1):
            freq = np.mean(values == a)
            assert abs(freq - 1 / c) < 4 * se

    def test_validation(self):
        with pytest.raises(ValidationError):
            sample_coloring(5, 0, np.random.default_rng(0))


class TestExactLaw:
    def test_single_triple(self):
        M = new_multiplex([new_hypergraph(3, 3, [[0, 1, 2]])])
        law = exact_law(M, 2)
        assert law.pmf == {(0,): Fraction(3, 4), (1,): Fraction(1, 4)}
        assert law.tail_mass == 0

    def test_fixture_variance(self):
        law = exact_law(new_multiplex([H3]), 2)
        mom = law_moments(law)
        assert mom.covariance[0][0] == Fraction(11, 16)

    def test_identical_layers_diagonal(self):
        M = new_multiplex([H3, H3])
        law = exact_law(M, 2)
        assert all(a == b for a, b in law.support)

    def test_c1_point_mass(self):
        M = new_multiplex([H3, new_hypergraph(2, 5, [[0, 1]])])
        law = exact_law(M, 1)
        assert law.pmf == {(3, 1): Fraction(1)}

    def test_bound(self):
        # max_states bounds the color partitions enumerated: H3 has n = 5
        # vertices and c = 100 > n, so all B_5 = 52 partitions are needed.
        M = new_multiplex([H3])
        with pytest.raises(ResourceBoundError):
            exact_law(M, 100, max_states=51)
        assert exact_law(M, 100, max_states=52) == exact_law(M, 100)

    def test_counts_match_direct_enumeration(self):
        H = new_hypergraph(2, 4, [[0, 1], [1, 2], [2, 3]])
        law = exact_law(new_multiplex([H]), 3)
        direct = {}
        for colors in itertools.product(range(1, 4), repeat=4):
            t = count_monochromatic(H, new_coloring(colors, 3))
            direct[(t,)] = direct.get((t,), 0) + 1
        assert law.pmf == {k: Fraction(v, 81) for k, v in direct.items()}


@st.composite
def small_instances(draw):
    r = draw(st.integers(2, 3))
    n = draw(st.integers(r, 6))
    c = draw(st.integers(2, 3))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    return new_hypergraph(r, n, [list(e) for e in edges]), c


class TestOracleEquivalence:
    @given(small_instances())
    @settings(max_examples=30, deadline=None)
    def test_exact_law_moments_match_closed_forms(self, inst):
        H, c = inst
        law = exact_law(new_multiplex([H]), c)
        mom = law_moments(law)
        assert mom.means[0] == mean_T(H, c, rational=True)
        assert mom.covariance[0][0] == variance_T(H, c, rational=True).variance

    @given(small_instances(), st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_exact_joint_covariance_matches(self, inst, rnd):
        H1, c = inst
        pool = list(itertools.combinations(range(H1.num_vertices), H1.uniformity))
        edges = [list(e) for e in pool if rnd.random() < 0.5] or [list(pool[0])]
        H2 = new_hypergraph(H1.uniformity, H1.num_vertices, edges)
        law = exact_law(new_multiplex([H1, H2]), c)
        mom = law_moments(law)
        assert mom.covariance[0][1] == covariance_T(H1, H2, c, rational=True).covariance


def brute_force_pmf(count, n, c):
    """Reference law, independent of the simulate module: visit all c^n
    colorings and count each one with count(coloring) -> tuple."""
    counts = Counter(
        count(new_coloring(colors, c)) for colors in itertools.product(range(1, c + 1), repeat=n)
    )
    return {key: Fraction(k, c**n) for key, k in counts.items()}


def colors_for(draw, n):
    """c in 1..4, or c > n when c^n stays small enough to brute-force."""
    return draw(st.sampled_from([1, 2, 3, 4] + ([n + 1] if n <= 5 else [])))


@st.composite
def multiplexes(draw):
    n = draw(st.integers(4, 6))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(2, 4))
        pool = list(itertools.combinations(range(n), r))
        edges = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
        layers.append(new_hypergraph(r, n, [list(e) for e in edges]))
    return new_multiplex(layers), colors_for(draw, n)


@st.composite
def weighted_instances(draw):
    n = draw(st.integers(4, 6))
    r = draw(st.integers(2, 4))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(edges), max_size=len(edges)))
    return new_weighted_hypergraph(r, n, [list(e) for e in edges], weights), colors_for(draw, n)


def admissible_backends(H):
    return ("dense", "pair-class") if H.uniformity == 2 else ("dense", "leading-pair", "pair-class")


class TestBruteForceReference:
    @given(multiplexes())
    @settings(max_examples=30, deadline=None)
    def test_exact_law_matches(self, inst):
        M, c = inst
        expect = brute_force_pmf(lambda x: count_monochromatic_vector(M, x), M.num_vertices, c)
        assert exact_law(M, c).pmf == expect

    @given(weighted_instances())
    @settings(max_examples=30, deadline=None)
    def test_exact_law_weighted_matches(self, inst):
        WH, c = inst
        expect = brute_force_pmf(lambda x: (count_weighted(WH, x),), WH.base.num_vertices, c)
        assert exact_law_weighted(WH, c).pmf == expect

    @given(multiplexes())
    @settings(max_examples=20, deadline=None)
    def test_counters_match_row_by_row(self, inst):
        M, c = inst
        colorings = list(itertools.product(range(1, c + 1), repeat=M.num_vertices))
        expect = np.array([count_monochromatic_vector(M, new_coloring(x, c)) for x in colorings])
        colors = np.array(colorings, dtype=np.int32)
        for i, layer in enumerate(M.layers):
            for backend in admissible_backends(layer):
                count, _ = _layer_counter([layer], [None], M.num_vertices, c, backend)
                assert np.array_equal(count(colors)[:, 0], expect[:, i]), backend

    @given(weighted_instances())
    @settings(max_examples=20, deadline=None)
    def test_weighted_counters_match_row_by_row(self, inst):
        WH, c = inst
        colorings = list(itertools.product(range(1, c + 1), repeat=WH.base.num_vertices))
        expect = np.array([count_weighted(WH, new_coloring(x, c)) for x in colorings])
        colors = np.array(colorings, dtype=np.int32)
        for backend in admissible_backends(WH.base):
            count, _ = _layer_counter([WH.base], [WH.weights], WH.base.num_vertices, c, backend)
            assert np.array_equal(count(colors)[:, 0], expect), backend


@st.composite
def color_blocks(draw):
    """A (B, n) int32 label block: labels from 0 (partition labels) or from 1
    (drawn colors) up to c, some rows all one color, and few distinct labels
    per row so that classes of several vertices occur at every c. Labels up
    to 2^31 - 1 push the packed keys past uint32, so both sort dtypes run."""
    B = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    c = draw(st.sampled_from([1, 2, 5, 65535, 65536, 2**31 - 1]))
    low = draw(st.sampled_from([0, 1]))
    label = st.sampled_from([low, low + c - 1]) | st.integers(low, low + c - 1)
    rows = []
    for _ in range(B):
        pool = draw(st.lists(label, min_size=1, max_size=4))
        if draw(st.booleans()):
            pool = pool[:1]
        rows.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return np.array(rows, dtype=np.int32).reshape(B, n)


def same_color_pairs(colors):
    """(rows, u, v) with u < v for every same-color pair of every row, read
    from the one listing of monochromatic subsets at r = 2."""
    rows, (u, v) = _monochromatic_subsets(colors.shape[1], 2, *_color_walk(colors))
    return rows, u, v


class TestSameColorPairs:
    @given(color_blocks())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, colors):
        B, n = colors.shape
        expect = {
            (b, u, v)
            for b in range(B)
            for u in range(n)
            for v in range(u + 1, n)
            if colors[b, u] == colors[b, v]
        }
        rows, u, v = same_color_pairs(colors)
        got = list(zip(rows.tolist(), u.tolist(), v.tolist()))
        assert len(got) == len(set(got))
        assert set(got) == expect

    def test_key_dtype_boundary(self):
        # (top label + 1) * n = 2^32 is the widest block sorted as uint32.
        top = 2**31 - 1
        for n, dtype in ((2, np.uint32), (3, np.int64)):
            colors = np.full((1, n), top, dtype=np.int32)
            assert _sorted_keys(colors)[0].dtype == dtype
            rows, u, v = same_color_pairs(colors)
            expect = {(a, b) for a in range(n) for b in range(a + 1, n)}
            assert set(zip(u.tolist(), v.tolist())) == expect

    def test_pair_budget(self, monkeypatch):
        # one call lists one slice, which may hold PAIR_BUDGET * CHUNK // BLOCK_SIZE pairs
        monkeypatch.setattr(simulate, "PAIR_BUDGET", 10 * BLOCK_SIZE // CHUNK)
        assert len(same_color_pairs(np.full((1, 5), 3, dtype=np.int32))[0]) == 10
        with pytest.raises(ResourceBoundError):
            same_color_pairs(np.full((1, 6), 3, dtype=np.int32))
        with pytest.raises(ResourceBoundError):
            same_color_pairs(np.full((2, 5), 70_000, dtype=np.int32))

    def test_pair_budget_fits_in_2_gib(self):
        # A 4096-row block on 100 vertices at c = 20 holds about 10^6 pairs;
        # its color matrix is small next to them, so peak bytes over pairs is
        # the per-pair cost of listing pairs and of the AP kernel. Slices are
        # counted one at a time, so one slice alone gives the cost of a
        # slice; the pairs of one slice never exceed PAIR_BUDGET, nor do its
        # r-subsets, so pair-class pays per listed subset: on K100 and on
        # every triple of 40 vertices at c = 4 each one is an edge.
        n, c, seed = 100, 20, 5
        colors = simulate._block_rng(seed, 0).integers(1, c + 1, size=(BLOCK_SIZE, n), dtype=np.int32)
        pairs = sum(int(k) * (int(k) - 1) // 2 for row in colors for k in np.bincount(row))
        assert 900_000 < pairs < 1_100_000
        slice_pairs = sum(int(k) * (int(k) - 1) // 2 for row in colors[:CHUNK] for k in np.bincount(row))
        k100, _ = _layer_counter([complete_graph(n)], [None], n, c, "pair-class")
        few = simulate._block_rng(seed, 1).integers(1, 5, size=(CHUNK, 40), dtype=np.int32)
        triples = sum(comb(int(k), 3) for row in few for k in np.bincount(row))
        every_triple = new_hypergraph(3, 40, itertools.combinations(range(40), 3))
        k40, _ = _layer_counter([every_triple], [None], 40, 4, "pair-class")
        per_pair = []
        for run, held in (
            (lambda: same_color_pairs(colors), pairs),
            (lambda: simulate_ap_T(n, 3, new_simulation_config(c, BLOCK_SIZE, seed)), pairs),
            (lambda: simulate_ap_T(n, 3, new_simulation_config(c, CHUNK, seed)), slice_pairs),
            (lambda: k100(colors), pairs),
            (lambda: k40(few), triples),
        ):
            tracemalloc.start()
            try:
                run()
                per_pair.append(tracemalloc.get_traced_memory()[1] / held)
            finally:
                tracemalloc.stop()
        assert simulate._slice_pair_budget() <= simulate.PAIR_BUDGET
        assert simulate.PAIR_BUDGET * max(per_pair) <= 2 * 2**30

    @given(color_blocks(), st.sampled_from([2, 3, 4]))
    @settings(max_examples=100, deadline=None)
    def test_subsets_match_brute_force(self, colors, r):
        B, n = colors.shape
        expect = []
        for b in range(B):
            for color in set(colors[b].tolist()):
                members = np.flatnonzero(colors[b] == color).tolist()
                expect += [(b, subset) for subset in itertools.combinations(members, r)]
        rows, columns = _monochromatic_subsets(n, r, *_color_walk(colors))
        assert len(columns) == r and all(column.dtype == np.int64 for column in columns)
        got = list(zip(rows.tolist(), zip(*(column.tolist() for column in columns))))
        # each subset once, in ascending vertex order
        assert sorted(got) == sorted(expect)

    def test_subset_budget(self, monkeypatch):
        # One row of 7 vertices in one color: 21 pairs, 35 triples and 35
        # 4-subsets. A slice share of 30 admits the pairs, not the subsets,
        # whichever of them are edges.
        monkeypatch.setattr(simulate, "PAIR_BUDGET", 30 * BLOCK_SIZE // CHUNK)
        colors = np.full((1, 7), 3, dtype=np.int32)
        assert len(same_color_pairs(colors)[0]) == 21
        for r in (3, 4):
            for edges in ([list(range(r))], list(itertools.combinations(range(7), r))):
                count, _ = _layer_counter([new_hypergraph(r, 7, edges)], [None], 7, 3, "pair-class")
                with pytest.raises(ResourceBoundError, match=f"{r}-subsets"):
                    count(colors)
        # 6 vertices: 15 pairs and 20 triples, inside the share
        count, _ = _layer_counter([new_hypergraph(3, 6, [[0, 1, 2], [1, 4, 5]])], [None], 6, 3, "pair-class")
        assert count(np.full((1, 6), 3, dtype=np.int32)).tolist() == [[2]]

    def test_subset_keys_fit_in_int64(self):
        # pair-class packs an r-subset into an int64 key base n: n^r < 2^63
        edges = [[0, 1, 2], [3, 4, 5]]
        assert _choose_backend(new_hypergraph(3, 2**21 - 1, edges), 5, "pair-class") == "pair-class"
        wide = new_hypergraph(3, 2**21, edges)
        with pytest.raises(ValidationError, match=f"n = {2**21}, r = 3"):
            simulate_T(new_multiplex([wide]), new_simulation_config(5, 1, 0), backend="pair-class")
        assert _choose_backend(wide, 5, "auto") == "dense"
        # 30^12 < 2^63 <= 30^13
        assert _choose_backend(new_hypergraph(12, 30, [list(range(12))]), 5, "pair-class") == "pair-class"
        with pytest.raises(ValidationError, match="n = 30, r = 13"):
            _choose_backend(new_hypergraph(13, 30, [list(range(13))]), 5, "pair-class")

    def test_auto_keeps_subsets_inside_budget(self, monkeypatch):
        # Every triple of 30 vertices at c = 5: a row expects 4060 / 25 =
        # 162.4 triples and 87 pairs, so a slice expects 512 * 162.4 =
        # 83148.8 triples, and auto wants a share of at least twice that.
        k30 = new_hypergraph(3, 30, itertools.combinations(range(30), 3))
        assert _choose_backend(k30, 5, "auto") == "pair-class"
        monkeypatch.setattr(simulate, "PAIR_BUDGET", 2 * 83149 * BLOCK_SIZE // CHUNK)
        assert _choose_backend(k30, 5, "auto") == "pair-class"
        monkeypatch.setattr(simulate, "PAIR_BUDGET", 2 * 83148 * BLOCK_SIZE // CHUNK)
        assert _choose_backend(k30, 5, "auto") == "leading-pair"

    def test_auto_keeps_blocks_inside_pair_budget(self, monkeypatch):
        k35 = new_hypergraph(2, 35, itertools.combinations(range(35), 2))
        assert simulate._choose_backend(k35, 35, "auto") == "pair-class"
        # a slice of K35 at c = 35 expects 512 * 17 = 8704 pairs, so auto
        # wants a slice budget of at least 2 * 8704
        assert CHUNK * 17 == 8704
        monkeypatch.setattr(simulate, "PAIR_BUDGET", 2 * 8704 * BLOCK_SIZE // CHUNK)
        assert simulate._choose_backend(k35, 35, "auto") == "pair-class"
        monkeypatch.setattr(simulate, "PAIR_BUDGET", 100_000)  # 12500 pairs per slice
        assert simulate._choose_backend(k35, 35, "auto") == "dense"


class TestColorPartitions:
    def test_each_partition_once_in_bounded_chunks(self):
        for n, kmax in ((1, 1), (5, 5), (7, 3), (8, 1), (10, 10)):
            chunks = list(_partitions(n, kmax))
            assert all(len(rgs) == len(blocks) <= BLOCK_SIZE for rgs, blocks in chunks)
            rows = np.concatenate([rgs for rgs, _ in chunks])
            assert len({tuple(row) for row in rows}) == len(rows) == _partition_count(n, kmax)
            blocks = np.concatenate([b for _, b in chunks])
            assert np.array_equal(blocks, rows.max(axis=1) + 1)

    def test_partition_counts(self):
        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
        assert [_partition_count(n, n) for n in range(13)] == bell
        assert _partition_count(11, 3) == 29525  # S(11,1) + S(11,2) + S(11,3)
        assert _partition_count(5, 100) == 52

    def test_large_c_moments(self):
        # c^n = 10^60 colorings, 115975 partitions: the Poisson regime.
        H = new_hypergraph(3, 10, [[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 4, 8], [5, 6, 7], [7, 8, 9], [1, 5, 9]])
        c = 10**6
        mom = law_moments(exact_law(new_multiplex([H]), c))
        assert mom.means[0] == mean_T(H, c, rational=True)
        assert mom.covariance[0][0] == variance_T(H, c, rational=True).variance


class TestBinomialArray:
    def test_exact_near_int64_limit(self):
        assert int(_binomial_array(np.array([200]), 12)[0]) == comb(200, 12)
        assert _binomial_array(np.array([3, 0, 5]), 2).tolist() == [3, 0, 10]

    def test_overflow_raises(self):
        with pytest.raises(ResourceBoundError):
            _binomial_array(np.array([200]), 13)


class TestExactLawWeighted:
    def test_weight_one_reduction(self):
        WH = new_weighted_hypergraph(3, 5, [list(e) for e in H3.edges], [1, 1, 1])
        assert exact_law_weighted(WH, 2).pmf == exact_law(new_multiplex([H3]), 2).pmf

    def test_single_edge_weight_three(self):
        WH = new_weighted_hypergraph(3, 3, [[0, 1, 2]], [3])
        law = exact_law_weighted(WH, 3)
        assert law.pmf == {(0,): Fraction(8, 9), (3,): Fraction(1, 9)}

    def test_monochromatic_triangle_count_law(self):
        # Weighted subset count for triangles in K4 must match counting
        # monochromatic triangles directly, coloring by coloring.
        WH = vertex_copy_weighted_hypergraph(complete_graph(4), new_pattern_graph(3, [[0, 1], [1, 2], [0, 2]]))
        law = exact_law_weighted(WH, 2)
        direct = {}
        triangles = list(itertools.combinations(range(4), 3))
        for colors in itertools.product((1, 2), repeat=4):
            q = sum(1 for tri in triangles if len({colors[v] for v in tri}) == 1)
            direct[(q,)] = direct.get((q,), 0) + 1
        assert law.pmf == {k: Fraction(v, 16) for k, v in direct.items()}


class TestSimulateT:
    def test_single_triple_frequency(self):
        M = new_multiplex([new_hypergraph(3, 3, [[0, 1, 2]])])
        cfg = new_simulation_config(2, 100_000, 11)
        emp = simulate_T(M, cfg)
        assert float(emp.law.pmf[(1,)]) == pytest.approx(0.25, abs=0.006)

    def test_graph_builder_layer(self):
        # a graph builder's output is a layer like any other
        cfg = new_simulation_config(40, 4_000, 5)
        built = simulate_T(new_multiplex([complete_graph(20)]), cfg)
        K20 = new_hypergraph(2, 20, list(itertools.combinations(range(20), 2)))
        assert built.law == simulate_T(new_multiplex([K20]), cfg).law

    def test_empty_layer_point_mass(self):
        M = new_multiplex([new_hypergraph(3, 4, [])])
        emp = simulate_T(M, new_simulation_config(3, 500, 0))
        assert emp.law.pmf == {(0,): Fraction(1)}

    def test_slice_invariance(self, monkeypatch):
        M = new_multiplex([H3, new_hypergraph(2, 5, [[0, 1], [3, 4]])])
        cfg = new_simulation_config(2, 10_000, 42)
        laws = []
        for chunk in (CHUNK, 300, 64):
            monkeypatch.setattr(simulate, "CHUNK", chunk)
            laws.append(simulate_T(M, cfg).law)
        assert laws[0] == laws[1] == laws[2]

    def test_seed_determinism(self):
        M = new_multiplex([H3])
        a = simulate_T(M, new_simulation_config(2, 5_000, 9))
        b = simulate_T(M, new_simulation_config(2, 5_000, 9))
        assert a == b
        c = simulate_T(M, new_simulation_config(2, 5_000, 10))
        assert a.law != c.law

    def test_backends_bitwise_equal_r3(self):
        H = appendix_star_hypergraph(12)
        M = new_multiplex([H])
        cfg = new_simulation_config(4, 8_000, 3)
        dense = simulate_T(M, cfg, backend="dense")
        lp = simulate_T(M, cfg, backend="leading-pair")
        assert dense.law == lp.law
        assert simulate_T(M, cfg, backend="pair-class").law == dense.law

    def test_pair_class_bitwise_equal_r3_r4(self):
        # P4 copies in K7 (3-uniform on 21 edge-vertices) and 4-subsets of 12
        # vertices with a mixed 2-uniform layer: every layer by subset keys.
        paths = copies_hypergraph(complete_graph(7), new_pattern_graph(4, [[0, 1], [1, 2], [2, 3]])).hypergraph
        quads = new_hypergraph(4, 12, [q for q in itertools.combinations(range(12), 4) if sum(q) % 3])
        pairs = new_hypergraph(2, 12, [p for p in itertools.combinations(range(12), 2) if sum(p) % 2])
        for M, c in ((new_multiplex([paths]), 6), (new_multiplex([quads, pairs]), 3)):
            cfg = new_simulation_config(c, 6_000, 29)
            dense = simulate_T(M, cfg, backend="dense")
            pc = simulate_T(M, cfg, backend="pair-class")
            assert pc.law == dense.law
            assert [rec["backend"] for rec in pc.layers] == ["pair-class"] * M.num_layers

    def test_backends_bitwise_equal_r2(self):
        G = new_hypergraph(2, 30, [[i, j] for i in range(30) for j in range(i + 1, 30) if (i + j) % 3])
        M = new_multiplex([G])
        cfg = new_simulation_config(6, 8_000, 13)
        dense = simulate_T(M, cfg, backend="dense")
        pc = simulate_T(M, cfg, backend="pair-class")
        assert dense.law == pc.law

    def test_mixed_layer_backends(self):
        M = new_multiplex([H3, new_hypergraph(2, 5, [[0, 1], [2, 4]])])
        cfg = new_simulation_config(3, 4_000, 21)
        auto = simulate_T(M, cfg)
        dense = simulate_T(M, cfg, backend="dense")
        assert auto.law == dense.law

    def test_backend_validation(self):
        M = new_multiplex([H3])
        cfg = new_simulation_config(2, 100, 0)
        assert simulate_T(M, cfg, backend="pair-class").law == simulate_T(M, cfg, backend="dense").law
        with pytest.raises(ValidationError):
            simulate_T(
                new_multiplex([new_hypergraph(2, 3, [[0, 1]])]),
                new_simulation_config(2, 100, 0),
                backend="leading-pair",
            )

    def test_close_to_exact_law(self):
        M = new_multiplex([H3])
        exact = exact_law(M, 2)
        emp = simulate_T(M, new_simulation_config(2, 100_000, 5))
        assert tv_distance(emp.law, exact) <= 0.01

    def test_c1_shortcut(self):
        M = new_multiplex([H3])
        emp = simulate_T(M, new_simulation_config(1, 1_000, 77))
        assert emp.law.pmf == {(3,): Fraction(1)}

    def test_star_rarely_hits_two(self):
        H = appendix_star_hypergraph(500)
        cfg = new_simulation_config(500, 20_000, 1)
        emp = simulate_T(new_multiplex([H]), cfg)
        assert float(emp.law.pmf.get((2,), Fraction(0))) < 0.01
        assert poisson_law(0.5).pmf[(2,)] == pytest.approx(0.0758, abs=1e-3)


class TestSimulateW:
    def test_weight_one_matches_T(self):
        WH = new_weighted_hypergraph(3, 5, [list(e) for e in H3.edges], [1, 1, 1])
        cfg = new_simulation_config(2, 20_000, 8)
        w = simulate_W(WH, cfg)
        t = simulate_T(new_multiplex([H3]), cfg)
        assert w.law == t.law

    def test_single_edge_weight_two_support(self):
        WH = new_weighted_hypergraph(2, 2, [[0, 1]], [2])
        emp = simulate_W(WH, new_simulation_config(2, 5_000, 4))
        assert set(emp.law.support) <= {(0,), (2,)}

    def test_mean_matches_moments(self):
        WH = new_weighted_hypergraph(
            3, 6, [[0, 1, 2], [0, 1, 3], [3, 4, 5]], [2, 3, 1]
        )
        cfg = new_simulation_config(2, 200_000, 15)
        emp = simulate_W(WH, cfg)
        mom = law_moments(emp.law)
        expect = mean_W(WH, 2)
        sd = sqrt(variance_W(WH, 2).variance / cfg.replicates)
        assert abs(float(mom.means[0]) - expect) < 5 * sd

    def test_backends_match(self):
        WH = new_weighted_hypergraph(3, 8, [[0, 1, 2], [0, 1, 3], [0, 1, 7], [4, 5, 6]], [2, 1, 3, 2])
        cfg = new_simulation_config(3, 10_000, 30)
        assert simulate_W(WH, cfg, backend="dense").law == simulate_W(WH, cfg, backend="leading-pair").law
        assert simulate_W(WH, cfg, backend="dense").law == simulate_W(WH, cfg, backend="pair-class").law
        G = new_hypergraph(2, 25, [[i, i + 1] for i in range(24)])
        WG = new_weighted_hypergraph(2, 25, [list(e) for e in G.edges], list(range(1, 25)))
        assert (
            simulate_W(WG, cfg, backend="dense").law
            == simulate_W(WG, cfg, backend="pair-class").law
        )


class TestWeightSums:
    def path(self, w):
        return new_weighted_hypergraph(2, 3, [[0, 1], [1, 2]], [w, w])

    def test_above_float_precision_stays_exact(self):
        # A float64 sum would round 2^53 + 1; every backend sums in int64.
        w = 2**53 + 1
        WH = self.path(w)
        cfg = new_simulation_config(2, 2000, 3)
        auto = simulate_W(WH, cfg)
        assert auto.law == simulate_W(WH, cfg, backend="dense").law
        assert auto.law == simulate_W(WH, cfg, backend="pair-class").law
        assert set(auto.law.support) == {(0,), (w,), (2 * w,)}
        assert exact_law_weighted(WH, 2).pmf == {
            (0,): Fraction(1, 4), (w,): Fraction(1, 2), (2 * w,): Fraction(1, 4)
        }
        star = new_weighted_hypergraph(3, 4, [[0, 1, 2], [0, 1, 3]], [w, 1])
        star_law = simulate_W(star, cfg, backend="leading-pair").law
        for backend in ("auto", "dense", "pair-class"):
            assert simulate_W(star, cfg, backend=backend).law == star_law
        assert set(star_law.support) == {(0,), (1,), (w,), (w + 1,)}

    @pytest.mark.parametrize("w", (2**62, 2**63))
    def test_past_int64_raises(self, w):
        cfg = new_simulation_config(2, 100, 3)
        for backend in ("auto", "dense", "pair-class"):
            with pytest.raises(ResourceBoundError):
                simulate_W(self.path(w), cfg, backend=backend)
        with pytest.raises(ResourceBoundError):
            exact_law_weighted(self.path(w), 2)


class TestSimulateAp:
    def test_bitwise_matches_generic(self, monkeypatch):
        # 9216 replicates: three blocks, the last one short. c = 2^31 - 1
        # puts the packed keys past uint32, so the int64 sort runs.
        for n, r, c in ((20, 3, 5), (17, 4, 5), (26, 5, 2), (200, 3, 2**31 - 1)):
            H = ap_hypergraph(range(1, n + 1), r)
            cfg = new_simulation_config(c, 9216, 19)
            monkeypatch.setattr(simulate, "CHUNK", CHUNK)
            fast = simulate_ap_T(n, r, cfg)
            generic = simulate_T(new_multiplex([H]), cfg)
            assert fast.law == generic.law, (n, r, c)
            # the AP kernel and pair-class read the same subset listing
            pair_class = simulate_T(new_multiplex([H]), cfg, backend="pair-class")
            assert pair_class.law == fast.law, (n, r, c)
            monkeypatch.setattr(simulate, "CHUNK", 300)
            assert simulate_ap_T(n, r, cfg).law == fast.law, (n, r, c)

    def test_r_validation(self):
        with pytest.raises(ValidationError):
            simulate_ap_T(10, 2, new_simulation_config(2, 100, 0))


def exact_correlated_er_law(params, c):
    """Exact unconditional joint law of (T1, T2) on a tiny instance:
    enumerate colorings, then convolve the multinomial cell split exactly."""
    n, r = params.n, params.r
    p12 = Fraction(params.p12).limit_denominator(10**12)
    p = Fraction(params.p).limit_denominator(10**12)
    only = p - p12
    rest = 1 - 2 * p + p12
    pmf = {}
    subsets = list(itertools.combinations(range(n), r))
    for colors in itertools.product(range(1, c + 1), repeat=n):
        mono = sum(1 for s in subsets if len({colors[v] for v in s}) == 1)
        for nb in range(mono + 1):
            for n1 in range(mono - nb + 1):
                for n2 in range(mono - nb - n1 + 1):
                    n0 = mono - nb - n1 - n2
                    coef = (
                        factorial(mono)
                        // (factorial(nb) * factorial(n1) * factorial(n2) * factorial(n0))
                    )
                    mass = coef * p12**nb * only**n1 * only**n2 * rest**n0
                    key = (nb + n1, nb + n2)
                    pmf[key] = pmf.get(key, Fraction(0)) + mass
    assert sum(pmf.values()) == c**n
    return {k: v / c**n for k, v in pmf.items()}


class TestCorrelatedErSimulation:
    def test_matches_exact_unconditional_law(self):
        params = new_correlated_er_params(4, 2, 0.25, 0.0625)
        c = 2
        exact_pmf = exact_correlated_er_law(params, c)
        cfg = new_simulation_config(c, 200_000, 23)
        emp = simulate_correlated_er_T(params, cfg)
        keys = set(exact_pmf) | set(emp.law.pmf)
        tv = sum(abs(float(exact_pmf.get(k, 0)) - float(emp.law.pmf.get(k, 0))) for k in keys) / 2
        assert tv < 0.01

    def test_marginal_mean(self):
        params = new_correlated_er_params(30, 2, 0.1, 0.02)
        cfg = new_simulation_config(10, 100_000, 31)
        emp = simulate_correlated_er_T(params, cfg)
        mom = law_moments(emp.law)
        # E T_i = p * E[monochromatic pairs] = p * C(n,2)/c
        expect = params.p * comb(30, 2) / 10
        assert float(mom.means[0]) == pytest.approx(expect, rel=0.05)
        assert float(mom.means[1]) == pytest.approx(expect, rel=0.05)

    def test_determinism_across_slices(self, monkeypatch):
        params = new_correlated_er_params(12, 2, 0.3, 0.1)
        cfg = new_simulation_config(3, 8_192, 2)
        a = simulate_correlated_er_T(params, cfg)
        monkeypatch.setattr(simulate, "CHUNK", 300)
        b = simulate_correlated_er_T(params, cfg)
        assert a.law == b.law

    def test_memory_does_not_grow_with_colors(self):
        # One slice of 512 rows on 20 vertices at c = 20,000: a (rows, c)
        # array of class sizes alone would take 78 MiB.
        params = new_correlated_er_params(20, 2, 0.3, 0.1)
        cfg = new_simulation_config(20_000, CHUNK, 3)
        tracemalloc.start()
        try:
            simulate_correlated_er_T(params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def schedule_cases():
    """name -> (c, call(cfg)) for every counter the Monte Carlo loop runs."""
    G = new_hypergraph(2, 30, [[i, j] for i in range(30) for j in range(i + 1, 30) if (i + j) % 3])
    star = new_multiplex([appendix_star_hypergraph(12)])
    WG = new_weighted_hypergraph(2, 25, [[i, i + 1] for i in range(24)], list(range(1, 25)))
    W3 = new_weighted_hypergraph(3, 12, [[i, i + 1, i + 3] for i in range(9)], list(range(1, 10)))
    er = new_correlated_er_params(12, 2, 0.3, 0.1)
    return {
        "dense": (3, lambda cfg: simulate_T(new_multiplex([H3]), cfg, backend="dense")),
        "leading-pair": (4, lambda cfg: simulate_T(star, cfg, backend="leading-pair")),
        "pair-class": (6, lambda cfg: simulate_T(new_multiplex([G]), cfg, backend="pair-class")),
        "weighted": (3, lambda cfg: simulate_W(WG, cfg, backend="pair-class")),
        "pair-class-r3": (3, lambda cfg: simulate_T(star, cfg, backend="pair-class")),
        "weighted-r3": (2, lambda cfg: simulate_W(W3, cfg, backend="pair-class")),
        "ap": (5, lambda cfg: simulate_ap_T(20, 3, cfg)),
        "corr-er": (3, lambda cfg: simulate_correlated_er_T(er, cfg)),
    }


class TestSchedule:
    """The law never depends on the slice size, and counting starts no thread."""

    @pytest.mark.parametrize("replicates", (BLOCK_SIZE + 700, 9216))
    @pytest.mark.parametrize("name", list(schedule_cases()))
    def test_law_is_independent_of_slices(self, name, replicates, monkeypatch):
        c, call = schedule_cases()[name]
        cfg = new_simulation_config(c, replicates, 17)
        threads = threading.active_count()
        # One slice per block: the block counted whole.
        monkeypatch.setattr(simulate, "CHUNK", BLOCK_SIZE)
        reference = call(cfg).law
        blocks = -(-replicates // BLOCK_SIZE)
        for chunk in (CHUNK, 300, 64):  # 300 divides neither a block nor 700
            monkeypatch.setattr(simulate, "CHUNK", chunk)
            emp = call(cfg)
            assert emp.law == reference, chunk
            assert (emp.blocks, emp.chunk) == (blocks, chunk)
        assert threading.active_count() == threads

    def test_exact_law_is_independent_of_slices(self, monkeypatch):
        # 9 vertices at c = 4: 11,051 partitions in chunks of up to 4096 rows.
        triples = new_hypergraph(3, 9, [[0, 1, 2], [0, 1, 3], [2, 3, 4], [4, 6, 8]])
        M = new_multiplex([triples, new_hypergraph(2, 9, itertools.combinations(range(9), 2))])
        assert _partition_count(9, 4) == 11051
        monkeypatch.setattr(simulate, "CHUNK", BLOCK_SIZE)
        reference = exact_law(M, 4)
        # Every partition slice is counted on the calling thread.
        layer_counter = simulate._layer_counter
        threads = set()

        def recording_counter(*args):
            count, layers = layer_counter(*args)

            def recorded(rows):
                threads.add(threading.get_ident())
                return count(rows)

            return recorded, layers

        monkeypatch.setattr(simulate, "_layer_counter", recording_counter)
        for chunk in (CHUNK, 300):
            monkeypatch.setattr(simulate, "CHUNK", chunk)
            assert exact_law(M, 4) == reference, chunk
        assert threads == {threading.get_ident()}

    def test_refusal_by_slice_budget(self, monkeypatch):
        # One 512-row slice on 100 vertices at c = 20 holds about 125,000
        # pairs; a slice budget of 200,000 admits every slice, 100,000 none.
        cfg = new_simulation_config(20, BLOCK_SIZE, 5)
        monkeypatch.setattr(simulate, "PAIR_BUDGET", 200_000 * BLOCK_SIZE // CHUNK)
        simulate_ap_T(100, 3, cfg)
        monkeypatch.setattr(simulate, "PAIR_BUDGET", 100_000 * BLOCK_SIZE // CHUNK)
        with pytest.raises(ResourceBoundError):
            simulate_ap_T(100, 3, cfg)

    def test_blocks_recorded(self):
        M = new_multiplex([H3])
        assert simulate_T(M, new_simulation_config(2, 700, 1)).blocks == 1
        assert simulate_T(M, new_simulation_config(2, 3 * BLOCK_SIZE, 1)).blocks == 3
        assert simulate_T(M, new_simulation_config(1, 700, 1)).blocks == 0


class TestConfigValidation:
    def test_fields(self):
        with pytest.raises(ValidationError):
            new_simulation_config(0, 10, 0)
        with pytest.raises(ValidationError):
            new_simulation_config(2, 0, 0)
        with pytest.raises(ValidationError):
            new_simulation_config(2, 10, -1)
        # a boolean is not an integer, and the message names the field
        for field, args in (("c", (True, 10, 0)), ("replicates", (2, True, 0)), ("seed", (2, 10, True))):
            with pytest.raises(ValidationError, match=f"^{field}:"):
                new_simulation_config(*args)

    @pytest.mark.parametrize(
        "call, error, field",
        [
            (lambda: new_shared_component_spec(2, {frozenset({True}): 0.5}), ValidationError, "rates"),
            (lambda: mean_T(H3, True), ValidationError, "c"),
            (lambda: exact_law(new_multiplex([H3]), 2.0), ValidationError, "c"),
            (lambda: exact_law(new_multiplex([H3]), True), ValidationError, "c"),
            (lambda: sample_coloring(5, 2**31, np.random.default_rng(0)), ResourceBoundError, "c"),
            (lambda: new_coloring([1, 1, 1], True), ValidationError, "c"),
            (lambda: new_coloring([1, 1, 1], 2.5), ValidationError, "c"),
            (lambda: new_coloring([1, 1, 1], "3"), ValidationError, "c"),
        ],
        ids=[
            "layer-true",
            "moments-c-true",
            "exact-c-float",
            "exact-c-true",
            "draw-c-past-int32",
            "coloring-c-true",
            "coloring-c-float",
            "coloring-c-string",
        ],
    )
    def test_library_integers(self, call, error, field):
        # a bool or a float is not a layer number or a color count, and a
        # draw takes at most MAX_COLORS colors
        with pytest.raises(error, match=f"^{field}"):
            call()

    def test_colors_fit_the_int32_draw(self):
        assert new_simulation_config(2**31 - 1, 10, 0).c == 2**31 - 1
        with pytest.raises(ResourceBoundError, match=f"c: {2**31}"):
            new_simulation_config(2**31, 10, 0)
