"""Closed-form moments vs exact enumeration over all colorings."""

import itertools
from dataclasses import fields, is_dataclass
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoplex.core import (
    ValidationError,
    count_monochromatic,
    count_weighted,
    new_coloring,
    new_hypergraph,
    new_multiplex,
    new_weighted_hypergraph,
    weighted_pair_sums_all,
)
from monoplex.families import ap_hypergraph, appendix_star_hypergraph, appendix_three_multiplex
from monoplex.moments import (
    condition_ratios,
    covariance_T,
    mean_T,
    mean_W,
    moment_matrix,
    variance_T,
    variance_W,
)
from oracles import weighted_pair_sums_pairwise

H3 = new_hypergraph(3, 5, [[0, 1, 2], [0, 1, 3], [2, 3, 4]])


def enumerate_moments(H, c):
    """Exact (mean, variance) of the monochromatic count, by brute force."""
    n = H.num_vertices
    total = Fraction(0)
    total_sq = Fraction(0)
    count = 0
    for colors in itertools.product(range(1, c + 1), repeat=n):
        x = new_coloring(colors, c)
        t = count_monochromatic(H, x)
        total += t
        total_sq += t * t
        count += 1
    mean = total / count
    return mean, total_sq / count - mean * mean


def enumerate_cross(H1, H2, c):
    """Exact covariance of the two counts under one shared coloring."""
    n = H1.num_vertices
    s1 = s2 = s12 = Fraction(0)
    count = 0
    for colors in itertools.product(range(1, c + 1), repeat=n):
        x = new_coloring(colors, c)
        t1 = count_monochromatic(H1, x)
        t2 = count_monochromatic(H2, x)
        s1 += t1
        s2 += t2
        s12 += t1 * t2
        count += 1
    return s12 / count - (s1 / count) * (s2 / count)


def enumerate_weighted(WH, c):
    n = WH.base.num_vertices
    total = Fraction(0)
    total_sq = Fraction(0)
    count = 0
    for colors in itertools.product(range(1, c + 1), repeat=n):
        x = new_coloring(colors, c)
        w = count_weighted(WH, x)
        total += w
        total_sq += w * w
        count += 1
    mean = total / count
    return mean, total_sq / count - mean * mean


@st.composite
def small_hypergraphs(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 6))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    return new_hypergraph(r, n, [list(e) for e in edges])


class TestMeanT:
    def test_single_triple(self):
        H = new_hypergraph(3, 3, [[0, 1, 2]])
        assert mean_T(H, 2) == 0.25

    def test_r2_lambda_one(self):
        H = new_hypergraph(2, 5, [[0, 1], [1, 2], [2, 3]])
        assert mean_T(H, 3) == 1.0

    def test_empty(self):
        assert mean_T(new_hypergraph(3, 4, []), 7) == 0.0

    def test_rational(self):
        assert mean_T(H3, 2, rational=True) == Fraction(3, 4)


class TestVarianceT:
    def test_single_triple_bernoulli(self):
        H = new_hypergraph(3, 3, [[0, 1, 2]])
        rep = variance_T(H, 2, rational=True)
        assert rep.variance == Fraction(3, 16)
        assert rep.r1_term == Fraction(3, 16)
        assert rep.r2_terms == {2: Fraction(0)}

    def test_fixture_decomposition(self):
        rep = variance_T(H3, 2, rational=True)
        assert rep.r1_term == Fraction(9, 16)
        assert rep.r2_terms[2] == Fraction(1, 8)
        assert rep.variance == Fraction(11, 16)

    def test_r2_graph_closed_form(self):
        G = new_hypergraph(2, 6, [[0, 1], [1, 2], [2, 3], [3, 4]])
        rep = variance_T(G, 3, rational=True)
        assert rep.r2_terms == {}
        assert rep.variance == Fraction(4, 3) * (1 - Fraction(1, 3))

    def test_c_one_degenerate(self):
        rep = variance_T(H3, 1, rational=True)
        assert rep.variance == 0

    def test_no_overlap_reduces_to_binomial(self):
        H = new_hypergraph(3, 6, [[0, 1, 2], [3, 4, 5]])
        rep = variance_T(H, 2, rational=True)
        assert rep.variance == mean_T(H, 2, rational=True) * (1 - Fraction(1, 4))

    @given(small_hypergraphs(), st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration(self, H, c):
        mean, var = enumerate_moments(H, c)
        rep = variance_T(H, c, rational=True)
        assert mean_T(H, c, rational=True) == mean
        assert rep.variance == var

    def test_float_close_to_rational(self):
        rep_f = variance_T(H3, 7)
        rep_q = variance_T(H3, 7, rational=True)
        assert rep_f.variance == pytest.approx(float(rep_q.variance), rel=1e-14)


class TestCovarianceT:
    def test_two_triples_sharing_pair(self):
        A = new_hypergraph(3, 4, [[0, 1, 2]])
        B = new_hypergraph(3, 4, [[0, 1, 3]])
        rep = covariance_T(A, B, 2, rational=True)
        assert rep.covariance == Fraction(1, 16)
        assert rep.q1_term == 0
        assert enumerate_cross(A, B, 2) == Fraction(1, 16)

    def test_self_covariance_is_variance(self):
        rep = covariance_T(H3, H3, 2, rational=True)
        assert rep.covariance == variance_T(H3, 2, rational=True).variance

    def test_disjoint_layers(self):
        A = new_hypergraph(3, 6, [[0, 1, 2]])
        B = new_hypergraph(3, 6, [[3, 4, 5]])
        assert covariance_T(A, B, 3, rational=True).covariance == 0

    def test_symmetry(self):
        A = new_hypergraph(3, 5, [[0, 1, 2], [1, 2, 3]])
        B = new_hypergraph(3, 5, [[0, 1, 4], [2, 3, 4]])
        assert (
            covariance_T(A, B, 3, rational=True).covariance
            == covariance_T(B, A, 3, rational=True).covariance
        )

    def test_mixed_uniformity_vs_enumeration(self):
        A = new_hypergraph(2, 5, [[0, 1], [2, 3]])
        B = new_hypergraph(3, 5, [[0, 1, 2], [1, 3, 4]])
        rep = covariance_T(A, B, 2, rational=True)
        assert rep.q1_term == 0
        assert rep.covariance == enumerate_cross(A, B, 2)

    @given(small_hypergraphs(), st.integers(2, 3), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_matches_enumeration(self, H1, c, rnd):
        pool = list(itertools.combinations(range(H1.num_vertices), H1.uniformity))
        edges = [list(e) for e in pool if rnd.random() < 0.4]
        if not edges:
            edges = [list(pool[0])]
        H2 = new_hypergraph(H1.uniformity, H1.num_vertices, edges)
        rep = covariance_T(H1, H2, c, rational=True)
        assert rep.covariance == enumerate_cross(H1, H2, c)

    def test_n_mismatch(self):
        with pytest.raises(ValidationError):
            covariance_T(
                new_hypergraph(2, 4, [[0, 1]]), new_hypergraph(2, 5, [[0, 1]]), 2
            )


class TestMomentMatrix:
    def test_single_layer(self):
        M = new_multiplex([H3])
        rep = moment_matrix(M, 2, rational=True)
        assert rep.covariance == ((Fraction(11, 16),),)
        assert rep.means == (Fraction(3, 4),)

    def test_symmetric_and_consistent(self):
        M = new_multiplex(
            [
                new_hypergraph(3, 6, [[0, 1, 2], [1, 2, 3]]),
                new_hypergraph(3, 6, [[0, 1, 3], [3, 4, 5]]),
                new_hypergraph(2, 6, [[0, 1], [4, 5]]),
            ]
        )
        rep = moment_matrix(M, 2, rational=True)
        for i in range(3):
            for j in range(3):
                assert rep.covariance[i][j] == rep.covariance[j][i]
        assert rep.covariance[0][0] == variance_T(M.layers[0], 2, rational=True).variance
        assert (
            rep.covariance[0][1]
            == covariance_T(M.layers[0], M.layers[1], 2, rational=True).covariance
        )

    def test_disjoint_layers_diagonal(self):
        M = new_multiplex(
            [new_hypergraph(3, 6, [[0, 1, 2]]), new_hypergraph(3, 6, [[3, 4, 5]])]
        )
        rep = moment_matrix(M, 2, rational=True)
        assert rep.covariance[0][1] == 0

    def test_overlap_multiplex_symmetry(self):
        M = appendix_three_multiplex(30, 0.2, "nested")
        rep = moment_matrix(M, 900, rational=True)
        off = {rep.covariance[i][j] for i in range(3) for j in range(3) if i != j}
        assert len(off) == 1

    def test_nested_equals_pairwise_exactly(self):
        # The two overlap layouts have identical finite-size moment matrices:
        # every pairwise edge intersection is the complete graph on an
        # overlap block of the same size, and 2-uniform layers have no
        # non-identical pair terms.
        for n in (100, 200, 400):
            c = n * n
            a = moment_matrix(appendix_three_multiplex(n, 0.2, "nested"), c, rational=True)
            b = moment_matrix(appendix_three_multiplex(n, 0.2, "pairwise"), c, rational=True)
            assert a.covariance == b.covariance
            assert a.means == b.means


class TestWeighted:
    def test_all_ones_reduces(self):
        WH = new_weighted_hypergraph(3, 5, [list(e) for e in H3.edges], [1, 1, 1])
        rep_w = variance_W(WH, 2, rational=True)
        rep_t = variance_T(H3, 2, rational=True)
        assert rep_w.variance == rep_t.variance
        assert rep_w.u1_term == rep_t.r1_term
        assert rep_w.u2_terms == rep_t.r2_terms
        assert mean_W(WH, 2, rational=True) == mean_T(H3, 2, rational=True)

    def test_single_edge_weight_three(self):
        WH = new_weighted_hypergraph(3, 3, [[0, 1, 2]], [3])
        assert mean_W(WH, 2, rational=True) == Fraction(3, 4)
        assert variance_W(WH, 2, rational=True).variance == Fraction(27, 16)

    def test_weight_layer_mean_identity(self):
        WH = new_weighted_hypergraph(
            3, 6, [[0, 1, 2], [1, 2, 3], [3, 4, 5]], [2, 1, 2]
        )
        by_weight = {}
        for e, w in zip(WH.base.edges, WH.weights):
            by_weight.setdefault(w, []).append(list(e))
        total = sum(
            i * mean_T(new_hypergraph(3, 6, edges), 2, rational=True)
            for i, edges in by_weight.items()
        )
        assert mean_W(WH, 2, rational=True) == total

    def test_matches_enumeration(self):
        WH = new_weighted_hypergraph(
            3, 6, [[0, 1, 2], [0, 1, 3], [2, 3, 4], [3, 4, 5]], [2, 3, 1, 2]
        )
        for c in (2, 3):
            mean, var = enumerate_weighted(WH, c)
            assert mean_W(WH, c, rational=True) == mean
            assert variance_W(WH, c, rational=True).variance == var

    @given(small_hypergraphs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_pair_sums_match_oracle(self, H, data):
        weights = data.draw(
            st.lists(
                st.integers(1, 5), min_size=H.num_edges, max_size=H.num_edges
            )
        )
        WH = new_weighted_hypergraph(
            H.uniformity, H.num_vertices, [list(e) for e in H.edges], weights
        )
        sums = weighted_pair_sums_all(WH)
        for t in range(0, H.uniformity):
            assert sums[t] == weighted_pair_sums_pairwise(t, WH)


class TestConditionRatios:
    def test_single_edge(self):
        H = new_hypergraph(3, 3, [[0, 1, 2]])
        assert condition_ratios(H, 5).ratios == {2: 0.0}

    def test_r2_empty(self):
        G = new_hypergraph(2, 4, [[0, 1], [2, 3]])
        assert condition_ratios(G, 5).ratios == {}

    def test_star_family_does_not_vanish(self):
        # Ordered pairs of triples through vertex 0 sharing one extra vertex:
        # (n-1)(n-2)(n-3); over c^3 = n^3 this tends to 1.
        values = []
        for n in (20, 40, 80):
            H = appendix_star_hypergraph(n)
            rep = condition_ratios(H, n, rational=True)
            assert rep.ratios[2] == Fraction((n - 1) * (n - 2) * (n - 3), n**3)
            values.append(rep.ratios[2])
        assert values[0] < values[1] < values[2]
        assert values[2] > Fraction(9, 10)

    def test_ap_family_vanishes(self):
        values = []
        for n in (100, 200, 400):
            H = ap_hypergraph(range(1, n + 1), 3)
            values.append(condition_ratios(H, n).ratios[2])
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.02
        # Roughly halves per doubling.
        assert values[2] < 0.6 * values[1]


def _leaves(x):
    """The numbers of a report, field by field, through dicts and tuples."""
    if is_dataclass(x):
        for f in fields(x):
            yield from _leaves(getattr(x, f.name))
    elif isinstance(x, dict):
        for t in sorted(x):
            yield from _leaves(x[t])
    elif isinstance(x, tuple):
        for v in x:
            yield from _leaves(v)
    else:
        yield x


STAR200 = appendix_star_hypergraph(200)
MIXED = new_multiplex(
    [new_hypergraph(2, 5, [[0, 1], [1, 2], [2, 3]]), new_hypergraph(3, 5, [[0, 1, 2], [1, 2, 3], [2, 3, 4]])]
)
WEIGHTED = new_weighted_hypergraph(3, 5, [[0, 1, 2], [0, 1, 3], [2, 3, 4], [1, 2, 3]], [1, 2, 3, 7])


class TestRoundedOnce:
    """rational=False gives the exact moments each rounded once: every float
    field is float() of the same field with rational=True."""

    @pytest.mark.parametrize("c", [7, 200, 2**60], ids=["7", "200", "2^60"])  # c^(r-1) > 2^53 at 2^60
    @pytest.mark.parametrize(
        "moment, structure",
        [
            (mean_T, STAR200),
            (variance_T, STAR200),
            (condition_ratios, STAR200),
            (moment_matrix, MIXED),
            (lambda M, c, **kw: covariance_T(*M.layers, c, **kw), MIXED),
            (mean_W, WEIGHTED),
            (variance_W, WEIGHTED),
        ],
        ids=["mean_T", "variance_T", "condition_ratios", "moment_matrix", "covariance_T", "mean_W", "variance_W"],
    )
    def test_float_fields_are_the_rounded_fractions(self, moment, structure, c):
        approx = list(_leaves(moment(structure, c)))
        exact = list(_leaves(moment(structure, c, rational=True)))
        assert all(type(x) is float for x in approx)
        assert all(type(x) is Fraction for x in exact)
        assert approx == [float(x) for x in exact]
