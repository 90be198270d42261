"""Types, validation, and exact pair/monochromatic counting."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoplex.core import (
    Coloring,
    ValidationError,
    connected_components,
    count_monochromatic,
    count_monochromatic_split,
    count_monochromatic_vector,
    count_weighted,
    k_cross,
    k_cross_all,
    k_exact,
    k_exact_all,
    layer_difference,
    layer_intersection,
    layer_union,
    m_t,
    new_coloring,
    new_hypergraph,
    new_multiplex,
    new_weighted_hypergraph,
    truncation_split,
)
from oracles import k_cross_pairwise, k_exact_pairwise

# Shared small fixture: 3-uniform, 5 vertices, 3 edges.
H3 = new_hypergraph(3, 5, [[0, 1, 2], [0, 1, 3], [2, 3, 4]])


def random_hypergraph(draw, st):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 8))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=12, unique=True))
    return new_hypergraph(r, n, [list(e) for e in edges]) if edges else new_hypergraph(
        r, n, []
    )


@st.composite
def hypergraphs(draw):
    return random_hypergraph(draw, st)


class TestConstruction:
    def test_canonical_order(self):
        H = new_hypergraph(2, 4, [[3, 2], [1, 0]])
        assert H.edges == ((0, 1), (2, 3))

    def test_rejects_duplicate(self):
        with pytest.raises(ValidationError, match=r"edges\[1\]"):
            new_hypergraph(2, 3, [[0, 1], [1, 0]])

    def test_rejects_wrong_size(self):
        with pytest.raises(ValidationError, match="expected 3"):
            new_hypergraph(3, 5, [[0, 1]])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValidationError, match="repeated"):
            new_hypergraph(3, 5, [[0, 1, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            new_hypergraph(2, 3, [[0, 3]])

    def test_rejects_small_r(self):
        with pytest.raises(ValidationError):
            new_hypergraph(1, 3, [])

    def test_multiplex_shared_n(self):
        H1 = new_hypergraph(2, 4, [[0, 1]])
        H2 = new_hypergraph(3, 5, [[0, 1, 2]])
        with pytest.raises(ValidationError, match=r"layers\[1\]"):
            new_multiplex([H1, H2])
        M = new_multiplex([H1, new_hypergraph(3, 4, [[1, 2, 3]])])
        assert M.num_layers == 2 and M.num_vertices == 4

    def test_weighted_alignment_follows_canonical_order(self):
        WH = new_weighted_hypergraph(2, 4, [[3, 2], [1, 0]], [7, 5])
        assert WH.base.edges == ((0, 1), (2, 3))
        assert WH.weights == (5, 7)
        assert WH.weight_bound == 7

    def test_weighted_bound_enforced(self):
        with pytest.raises(ValidationError, match="exceeds bound"):
            new_weighted_hypergraph(2, 4, [[0, 1]], [5], weight_bound=4)
        with pytest.raises(ValidationError, match=r"weights\[0\]"):
            new_weighted_hypergraph(2, 4, [[0, 1]], [0])

    def test_coloring_range(self):
        with pytest.raises(ValidationError, match=r"colors\[2\]"):
            new_coloring([1, 2, 3], 2)
        x = new_coloring([1, 2, 2], 2)
        assert x.num_colors == 2


class TestLayerOps:
    def test_union_intersection_difference(self):
        A = new_hypergraph(2, 4, [[0, 1], [1, 2]])
        B = new_hypergraph(2, 4, [[1, 2], [2, 3]])
        assert layer_union(A, B).edges == ((0, 1), (1, 2), (2, 3))
        assert layer_intersection(A, B).edges == ((1, 2),)
        assert layer_difference(A, B).edges == ((0, 1),)

    def test_mismatch_rejected(self):
        A = new_hypergraph(2, 4, [[0, 1]])
        with pytest.raises(ValidationError, match="uniformity mismatch"):
            layer_union(A, new_hypergraph(3, 4, [[0, 1, 2]]))
        with pytest.raises(ValidationError, match="num_vertices mismatch"):
            layer_union(A, new_hypergraph(2, 5, [[0, 1]]))


class TestSubsetCounts:
    def test_m_t_fixture(self):
        assert m_t([0, 1], H3) == 2
        assert m_t([2], H3) == 2
        assert m_t([0, 1, 2], H3) == 1
        assert m_t([4], H3) == 1

    def test_m_t_monotone(self):
        # s ⊆ s' implies m(s) >= m(s')
        for e in H3.edges:
            for t in range(1, 3):
                for s in itertools.combinations(e, t):
                    for sp in itertools.combinations(e, t + 1):
                        if set(s) <= set(sp):
                            assert m_t(s, H3) >= m_t(sp, H3)

    def test_m_t_validation(self):
        with pytest.raises(ValidationError):
            m_t([], H3)
        with pytest.raises(ValidationError):
            m_t([0, 1, 2, 3], H3)
        with pytest.raises(ValidationError):
            m_t([9], H3)


class TestKExact:
    def test_fixture_values(self):
        # {0,1,2}&{0,1,3} share 2; {0,1,2}&{2,3,4} share 1; {0,1,3}&{2,3,4} share 1.
        assert k_exact(2, H3) == 2
        assert k_exact(1, H3) == 4
        assert k_exact(0, H3) == 0

    def test_empty_and_single(self):
        E = new_hypergraph(3, 5, [])
        assert k_exact_all(E) == {0: 0, 1: 0, 2: 0}
        S = new_hypergraph(3, 5, [[0, 1, 2]])
        assert k_exact_all(S) == {0: 0, 1: 0, 2: 0}

    def test_t_out_of_range(self):
        with pytest.raises(ValidationError):
            k_exact(3, H3)
        with pytest.raises(ValidationError):
            k_exact(-1, H3)

    @given(hypergraphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_oracle(self, H):
        for t in range(0, H.uniformity):
            assert k_exact(t, H) == k_exact_pairwise(t, H)

    @given(hypergraphs())
    @settings(max_examples=100, deadline=None)
    def test_total_identity(self, H):
        m = H.num_edges
        assert sum(k_exact_all(H).values()) == m * (m - 1)


class TestKCross:
    def test_diagonal_matches_k_exact(self):
        for t in range(0, 3):
            assert k_cross(t, H3, H3) == k_exact(t, H3)
        assert k_cross(3, H3, H3) == H3.num_edges

    def test_fixture_cross(self):
        A = new_hypergraph(3, 4, [[0, 1, 2]])
        B = new_hypergraph(3, 4, [[0, 1, 3]])
        assert k_cross(2, A, B) == 1
        assert k_cross(3, A, B) == 0

    def test_mixed_uniformity_containment(self):
        A = new_hypergraph(2, 5, [[0, 1]])
        B = new_hypergraph(3, 5, [[0, 1, 2], [2, 3, 4]])
        assert k_cross(2, A, B) == 1
        assert k_cross(1, A, B) == 0
        assert k_cross(0, A, B) == 1

    @given(hypergraphs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_oracle(self, H1, rnd):
        # Second hypergraph: thin H1 and/or reuse its vertex set at same r.
        pool = list(itertools.combinations(range(H1.num_vertices), H1.uniformity))
        edges = [list(e) for e in pool if rnd.random() < 0.3]
        H2 = new_hypergraph(H1.uniformity, H1.num_vertices, edges)
        total = 0
        for t in range(0, min(H1.uniformity, H2.uniformity) + 1):
            v = k_cross(t, H1, H2)
            assert v == k_cross_pairwise(t, H1, H2)
            total += v
        assert total == H1.num_edges * H2.num_edges

    def test_vertex_mismatch(self):
        A = new_hypergraph(2, 4, [[0, 1]])
        B = new_hypergraph(2, 5, [[0, 1]])
        with pytest.raises(ValidationError):
            k_cross_all(A, B)


class TestTruncationSplit:
    def test_fixture_all_removed(self):
        split = truncation_split(H3, 0.1, 2)
        assert split.kept == ()
        assert set(split.removed) == set(H3.edges)
        assert split.defined

    def test_large_eps_keeps_all(self):
        split = truncation_split(H3, 100.0, 2)
        assert split.kept == H3.edges and split.removed == ()

    def test_single_edge_kept(self):
        S = new_hypergraph(3, 3, [[0, 1, 2]])
        split = truncation_split(S, 0.5, 2)
        # threshold at t=2 is 0.5*2 = 1 >= m_2 = 1
        assert split.kept == S.edges

    def test_r2_flagged_undefined(self):
        G = new_hypergraph(2, 3, [[0, 1], [1, 2]])
        split = truncation_split(G, 0.01, 2)
        assert not split.defined
        assert split.kept == G.edges and split.removed == ()

    def test_validation(self):
        with pytest.raises(ValidationError):
            truncation_split(H3, 0.0, 2)
        with pytest.raises(ValidationError):
            truncation_split(H3, 0.1, 0)

    @given(hypergraphs(), st.floats(0.01, 10.0), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_partition_and_count_identity(self, H, eps, c):
        split = truncation_split(H, eps, c)
        assert set(split.kept) | set(split.removed) == set(H.edges)
        assert set(split.kept) & set(split.removed) == set()
        # T = T+ + T- exactly, for an arbitrary deterministic coloring.
        x = new_coloring([v % 2 + 1 for v in range(H.num_vertices)], 2)
        plus, minus = count_monochromatic_split(split.kept, split.removed, x)
        assert plus + minus == count_monochromatic(H, x)


class TestCounting:
    def test_constant_coloring(self):
        x = new_coloring([1] * 5, 3)
        assert count_monochromatic(H3, x) == H3.num_edges

    def test_rainbow(self):
        x = new_coloring([1, 2, 3, 4, 5], 5)
        assert count_monochromatic(H3, x) == 0

    def test_one_mismatch(self):
        H = new_hypergraph(3, 3, [[0, 1, 2]])
        assert count_monochromatic(H, new_coloring([1, 1, 2], 2)) == 0
        assert count_monochromatic(H, new_coloring([2, 2, 2], 2)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            count_monochromatic(H3, new_coloring([1, 1], 2))

    def test_multiplex_vector(self):
        M = new_multiplex(
            [H3, new_hypergraph(2, 5, [[0, 1], [3, 4]])]
        )
        x = new_coloring([1, 1, 1, 2, 2], 2)
        assert count_monochromatic_vector(M, x) == (1, 2)

    def test_weighted_all_ones_reduces(self):
        WH = new_weighted_hypergraph(3, 5, [list(e) for e in H3.edges], [1, 1, 1])
        for bits in itertools.product([1, 2], repeat=5):
            x = Coloring(bits, 2)
            assert count_weighted(WH, x) == count_monochromatic(H3, x)

    def test_weighted_values(self):
        WH = new_weighted_hypergraph(3, 5, [list(e) for e in H3.edges], [2, 3, 5])
        assert count_weighted(WH, new_coloring([1] * 5, 2)) == 10
        x = new_coloring([1, 1, 1, 2, 2], 2)  # only {0,1,2} monochromatic
        assert count_weighted(WH, x) == 2


class TestComponents:
    def test_shared_vertex(self):
        assert connected_components([[0, 1, 2], [2, 3, 4]]) == [frozenset(range(5))]

    def test_disjoint(self):
        parts = connected_components([[0, 1, 2], [3, 4, 5]])
        assert parts == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]

    def test_empty(self):
        assert connected_components([]) == []

    def test_isolated_vertices_not_covered(self):
        parts = connected_components([[5, 6]])
        assert parts == [frozenset({5, 6})]
