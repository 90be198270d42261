"""Types, validation, and exact pair/monochromatic counting."""

import base64
import itertools
import struct
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoplex.core import (
    MAX_VERTICES,
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
    weighted_pair_sums_all,
)
from monoplex.serialize import structure_from_obj
from oracles import (
    k_cross_pairwise,
    k_exact_pairwise,
    new_hypergraph_reference,
    weighted_pair_sums_pairwise,
)

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

    def test_multiplex_takes_only_layers(self):
        WH = new_weighted_hypergraph(2, 4, [[0, 1]], [3])
        with pytest.raises(ValidationError, match=r"^layers\[0\]: expected a UniformHypergraph, got int$"):
            new_multiplex([5])
        with pytest.raises(ValidationError, match=r"^layers\[1\]: .* got WeightedUniformHypergraph$"):
            new_multiplex([WH.base, WH])

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


# Vertex values that break the rules: bools, floats and other types, and
# integers just outside [0, n) or past the int64 and uint64 ranges.
def bad_vertices(n):
    return st.one_of(
        st.booleans(),
        st.floats(allow_nan=True),
        st.sampled_from([None, "0", (0,)]),
        st.sampled_from([-1, n, n + 1, 2**31, 2**63 - 1, 2**63, 2**64, 2**70, -(2**63) - 1]),
        st.integers(-(2**80), 2**80),
    )


@st.composite
def edge_lists(draw):
    """(r, n, rows): mostly valid edge lists, some with a few rule-breaking
    edits (bad vertices, wrong sizes, repeated vertices, repeated edges)."""
    r = draw(st.sampled_from([1] + [2, 3, 4, 5] * 3))
    n = draw(st.integers(max(0, r - 1), 9))
    pool = list(itertools.combinations(range(n), r))
    picked = draw(st.lists(st.sampled_from(pool), max_size=10, unique=True)) if pool else []
    rows = [list(draw(st.permutations(e))) for e in picked]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["vertex", "size", "repeat", "copy", "extra"]))
        if edit == "extra" or not rows:
            rows.insert(draw(st.integers(0, len(rows))), draw(st.lists(st.integers(-1, n), max_size=6)))
            continue
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if edit == "vertex" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(bad_vertices(n))
        elif edit == "size":
            if draw(st.booleans()):
                row.append(draw(st.integers(0, max(0, n - 1))))
            elif row:
                row.pop()
        elif edit == "repeat" and len(row) >= 2:
            a, b = draw(st.lists(st.integers(0, len(row) - 1), min_size=2, max_size=2, unique=True))
            row[a] = row[b]
        elif edit == "copy":
            rows.insert(draw(st.integers(0, len(rows))), list(draw(st.permutations(row))))
    if draw(st.booleans()):
        rows = [tuple(row) for row in rows]
    return r, n, rows


def load_outcome(load, r, n, edges):
    """The hypergraph a loader returns, or the message of its ValidationError."""
    try:
        return load(r, n, edges)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@st.composite
def int32_edge_lists(draw):
    """(r, n, rows): rows of exactly r int32 vertices, in any order within a
    row, some with a vertex outside [0, n), a repeated vertex or a repeat of
    another row; the list may be empty."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 9))
    pool = list(itertools.combinations(range(n), r))
    rows = [list(draw(st.permutations(e))) for e in draw(st.lists(st.sampled_from(pool), max_size=10, unique=True))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        edit = draw(st.sampled_from(["vertex", "repeat", "copy"]))
        if edit == "vertex":
            row[draw(st.integers(0, r - 1))] = draw(st.sampled_from([-1, n, n + 1, -(2**31), 2**31 - 1]))
        elif edit == "repeat":
            a, b = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
            row[a] = row[b]
        else:
            rows.insert(draw(st.integers(0, len(rows))), list(draw(st.permutations(row))))
    return r, n, rows


def edge_data(rows):
    """The "edge_data" field of rows, packed vertex by vertex."""
    return base64.b64encode(b"".join(struct.pack("<i", v) for row in rows for v in row)).decode("ascii")


class TestArrayLoader:
    @given(edge_lists(), st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_matches_reference_validator(self, case, as_generator):
        r, n, rows = case
        feed = (lambda: (row for row in rows)) if as_generator else (lambda: rows)
        got = load_outcome(new_hypergraph, r, n, feed())
        want = load_outcome(new_hypergraph_reference, r, n, feed())
        assert got == want
        if not isinstance(want, str):
            assert got.edges == want.edges
            weights = list(range(1, len(rows) + 1))
            WH = new_weighted_hypergraph(r, n, feed(), weights)
            by_edge = {tuple(sorted(e)): w for e, w in zip(rows, weights)}
            assert WH.base == want
            assert WH.weights == tuple(by_edge[e] for e in want.edges)

    @given(int32_edge_lists())
    @settings(max_examples=600, deadline=None)
    def test_edge_data_loads_like_edge_list(self, case):
        # Both file forms give the reference's layer or its message, led by
        # the file's name; a weighted file keeps each weight with its edge.
        r, n, rows = case
        want = load_outcome(new_hypergraph_reference, r, n, rows)
        if isinstance(want, str):
            want = want.replace("ValidationError: ", "ValidationError: f.json.", 1)
        weights = list(range(1, len(rows) + 1))
        by_edge = {tuple(sorted(e)): w for e, w in zip(rows, weights)}
        for key, value in (("edges", rows), ("edge_data", edge_data(rows))):

            def read(kind, **extra):
                obj = {"kind": kind, "uniformity": r, "num_vertices": n, key: value, **extra}
                return load_outcome(lambda *_: structure_from_obj(obj, "f.json"), r, n, rows)

            assert read("uniform_hypergraph") == want
            WH = read("weighted_hypergraph", weights=weights)
            if isinstance(want, str):
                assert WH == want
            else:
                assert WH.base == want
                assert WH.weights == tuple(by_edge[e] for e in want.edges)

    @pytest.mark.parametrize(
        "edges",
        [np.zeros((2, 3), dtype=np.int32), np.zeros(4, dtype=np.int64), np.zeros((2, 2)), np.zeros((2, 2), dtype=bool)],
        ids=["width-3", "one-dimensional", "float", "bool"],
    )
    def test_array_of_wrong_shape_or_type(self, edges):
        with pytest.raises(ValidationError, match=r"^edges: expected an \(E, 2\) integer array, got "):
            new_hypergraph(2, 3, edges)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([[0, 1], [1, True]], r"edges\[1\]\[1\]: vertex must be an integer, got True"),
            ([[0, 1.0]], r"edges\[0\]\[1\]: vertex must be an integer, got 1.0"),
            ([[0, 2**64], [0, 1.5]], r"edges\[0\]\[1\]: vertex 18446744073709551616 out of range"),
            ([[0, -(2**63) - 1]], r"vertex -9223372036854775809 out of range \[0, 3\)"),
            ([[0, 1, 2], [0, 3]], r"edges\[0\]: expected 2 vertices, got 3"),
            ([[0, 1, 2], [0, 1.5]], r"edges\[0\]: expected 2 vertices"),
            ([[1, 1], [0, 1], [1, 0]], r"edges\[0\]: repeated vertex in \[1, 1\]"),
            ([[0, 1], [2, 1], [1, 0], [1, 2]], r"edges\[2\]: duplicate edge \[0, 1\]"),
        ],
    )
    def test_first_offending_index(self, edges, message):
        with pytest.raises(ValidationError, match=message):
            new_hypergraph(2, 3, edges)

    @pytest.mark.parametrize(
        "edges, message",
        [
            (7, r"^edges: expected a list, got int$"),
            ([[0, 1], 5], r"^edges\[1\]: expected a list of vertices, got int$"),
            ([[0, 1], [1, 2], "01"], r"^edges\[2\]\[0\]: vertex must be an integer, got '0'$"),
            ([[0, 1], "01", 5], r"^edges\[1\]\[0\]: vertex must be an integer, got '0'$"),
            ([[0, 1], None, [0, 1.5]], r"^edges\[1\]: expected a list of vertices, got NoneType$"),
            # a fault in an earlier edge is named first
            ([[0, 1.5], 5], r"^edges\[0\]\[1\]: vertex must be an integer"),
            ([[0, 1], [1, 0], 5], r"^edges\[1\]: duplicate edge \[0, 1\]$"),
        ],
    )
    def test_edges_not_lists(self, edges, message):
        with pytest.raises(ValidationError, match=message):
            new_hypergraph(2, 3, edges)
        weights = [1] * len(edges) if isinstance(edges, list) else 7
        with pytest.raises(ValidationError, match=message):
            new_weighted_hypergraph(2, 3, edges, weights)
        with pytest.raises(ValidationError, match=r"^weights: expected a list, got int$"):
            new_weighted_hypergraph(2, 3, [[0, 1]], 7)

    def test_array_backed(self):
        H = new_hypergraph(3, 6, iter([[5, 4, 3], (0, 2, 1)]))
        assert H._edges is None and H.edge_array.dtype == np.int32
        assert H.edge_array.tolist() == [[0, 1, 2], [3, 4, 5]]
        assert new_hypergraph(3, 6, []).edge_array.shape == (0, 3)

    def test_vertex_range_fits_int32(self):
        assert new_hypergraph(2, MAX_VERTICES, [[0, MAX_VERTICES - 1]]).edges == ((0, MAX_VERTICES - 1),)
        with pytest.raises(ValidationError, match="num_vertices: must be at most"):
            new_hypergraph(2, MAX_VERTICES + 1, [])


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


@st.composite
def wide_hypergraphs(draw, r):
    """r-uniform edges on a few vertices spread over [0, n) with n^r past
    2^63, so packed subset keys would overflow."""
    n = {4: 60_000, 5: 10_000}[r]
    spots = draw(st.lists(st.integers(0, n - 1), min_size=r, max_size=r + 3, unique=True))
    pool = list(itertools.combinations(sorted(spots), r))
    edges = draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
    return new_hypergraph(r, n, [list(e) for e in edges])


class TestWideOverlaps:
    @given(st.sampled_from([4, 5]).flatmap(wide_hypergraphs), st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_match_pairwise_oracles(self, H, data):
        assert H.num_vertices ** H.uniformity > 2**63
        counts = k_exact_all(H)
        for t in range(H.uniformity):
            assert counts[t] == k_exact_pairwise(t, H)
        edges = data.draw(st.lists(st.sampled_from(H.edges), unique=True)) if H.num_edges else []
        H2 = new_hypergraph(H.uniformity, H.num_vertices, [list(e) for e in edges])
        cross = k_cross_all(H, H2)
        for t in range(H.uniformity + 1):
            assert cross[t] == k_cross_pairwise(t, H, H2)

    @given(st.sampled_from([4, 5]).flatmap(wide_hypergraphs), st.data())
    @settings(max_examples=60, deadline=None)
    def test_weights_past_int64_stay_exact(self, H, data):
        # 2^24-sized weights: the pair sums pass 2^53 but fit int64; 2^40:
        # the totals fit int64, their products do not; 2^70: no total fits.
        scale = data.draw(st.sampled_from([2**24, 2**40, 2**70]))
        weights = data.draw(st.lists(st.integers(scale, 2 * scale), min_size=H.num_edges, max_size=H.num_edges))
        WH = new_weighted_hypergraph(H.uniformity, H.num_vertices, [list(e) for e in H.edges], weights)
        sums = weighted_pair_sums_all(WH)
        for t in range(H.uniformity):
            assert sums[t] == weighted_pair_sums_pairwise(t, WH)


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
    def test_matches_subset_count_rule(self, H, eps, c):
        r = H.uniformity
        split = truncation_split(H, eps, c)
        kept = tuple(
            e
            for e in H.edges
            if all(
                m_t(s, H) <= eps * c ** (r - t)
                for t in range(2, r)
                for s in itertools.combinations(e, t)
            )
        )
        assert split.kept == kept
        assert split.removed == tuple(e for e in H.edges if e not in set(kept))

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
