"""Limit-law construction, TV distance, law moments."""

import itertools
import random
from fractions import Fraction
from math import exp, fsum

import pytest

from monoplex.core import ResourceBoundError, ValidationError
from monoplex.laws import (
    MAX_POISSON_RATE,
    _NORMALIZATION_SLACK,
    binom2_poisson_law,
    compound_weighted_law,
    law_from_pmf,
    law_moments,
    new_shared_component_spec,
    poisson_law,
    shared_component_law,
    tv_distance,
)
from oracles import compound_weighted_law_dict, shared_component_law_dict, tv_distance_union


def check_normalized(P):
    total = fsum(float(p) for p in P.pmf.values()) + float(P.tail_mass)
    assert abs(total - 1.0) <= 1e-12
    assert all(float(p) >= 0 for p in P.pmf.values())


class TestPoissonLaw:
    def test_zero_rate_point_mass(self):
        P = poisson_law(0.0)
        assert P.pmf == {(0,): 1.0}
        assert P.tail_mass == 0.0

    def test_half_rate_values(self):
        P = poisson_law(0.5)
        assert P.pmf[(0,)] == pytest.approx(exp(-0.5), abs=1e-12)
        assert P.pmf[(1,)] == pytest.approx(0.5 * exp(-0.5), abs=1e-12)
        check_normalized(P)

    def test_mean_close(self):
        for lam in (0.3, 1.0, 2.5):
            P = poisson_law(lam)
            mom = law_moments(P)
            assert mom.means[0] == pytest.approx(lam, abs=1e-8)
            assert mom.covariance[0][0] == pytest.approx(lam, abs=1e-8)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            poisson_law(-0.1)

    def test_tail_below_tol(self):
        P = poisson_law(1.5, tail_tol=1e-6)
        assert 0 <= P.tail_mass < 1e-6

    @pytest.mark.parametrize("lam", [740.0, 1990.0, 1e9])
    def test_rates_past_float_underflow_refused(self, lam):
        with pytest.raises(ResourceBoundError, match=f"rate {lam}"):
            poisson_law(lam)

    def test_largest_rate_keeps_its_mass(self):
        check_normalized(poisson_law(700.0))
        check_normalized(poisson_law(MAX_POISSON_RATE))


class TestSharedComponentLaw:
    def test_independent_product(self):
        spec = new_shared_component_spec(2, {(1,): 0.4, (2,): 0.7})
        P = shared_component_law(spec)
        A = poisson_law(0.4)
        B = poisson_law(0.7)
        for (i,), pa in A.pmf.items():
            for (j,), pb in B.pmf.items():
                assert P.pmf.get((i, j), 0.0) == pytest.approx(pa * pb, abs=1e-10)
        check_normalized(P)

    def test_covariance_equals_shared_rate(self):
        spec = new_shared_component_spec(2, {(1,): 0.5, (2,): 0.3, (1, 2): 0.25})
        mom = law_moments(shared_component_law(spec))
        assert mom.covariance[0][1] == pytest.approx(0.25, abs=1e-8)
        assert mom.means[0] == pytest.approx(0.75, abs=1e-8)
        assert mom.means[1] == pytest.approx(0.55, abs=1e-8)

    def test_marginal_is_poisson(self):
        spec = new_shared_component_spec(2, {(1,): 0.5, (2,): 0.3, (1, 2): 0.25})
        P = shared_component_law(spec, tail_tol=1e-10)
        marg = {}
        for (i, j), p in P.pmf.items():
            marg[i] = marg.get(i, 0.0) + p
        Q = poisson_law(0.75)
        gap = fsum(
            abs(marg.get(k, 0.0) - Q.pmf.get((k,), 0.0))
            for k in set(marg) | {x[0] for x in Q.pmf}
        )
        assert gap / 2 <= 2e-10

    def test_three_layer_variants_same_moments_positive_tv(self):
        lam_p = 0.02
        nested = shared_component_law(
            new_shared_component_spec(
                3, {(1,): 0.5 - lam_p, (2,): 0.5 - lam_p, (3,): 0.5 - lam_p, (1, 2, 3): lam_p}
            )
        )
        pairwise = shared_component_law(
            new_shared_component_spec(
                3,
                {
                    (1,): 0.5 - 2 * lam_p,
                    (2,): 0.5 - 2 * lam_p,
                    (3,): 0.5 - 2 * lam_p,
                    (1, 2): lam_p,
                    (1, 3): lam_p,
                    (2, 3): lam_p,
                },
            )
        )
        m1, m2 = law_moments(nested), law_moments(pairwise)
        for i in range(3):
            assert m1.means[i] == pytest.approx(m2.means[i], abs=1e-9)
            for j in range(3):
                assert m1.covariance[i][j] == pytest.approx(m2.covariance[i][j], abs=1e-9)
        assert tv_distance(nested, pairwise) > 1e-5

    def test_dimension_bound(self):
        spec = new_shared_component_spec(5, {(1,): 0.1})
        with pytest.raises(ValidationError, match="bound"):
            shared_component_law(spec)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            new_shared_component_spec(2, {(): 0.1})
        with pytest.raises(ValidationError):
            new_shared_component_spec(2, {(3,): 0.1})
        with pytest.raises(ValidationError):
            new_shared_component_spec(2, {(1,): -0.1})


def _assert_same_law(P, pmf, tail):
    assert set(P.pmf) == set(pmf)
    assert all(abs(P.pmf[x] - p) <= 1e-18 for x, p in pmf.items())
    assert abs(P.tail_mass - tail) <= _NORMALIZATION_SLACK


class TestConvolutionOracle:
    """The dense-array convolution against the dict convolution."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_shared_component(self, d):
        rng = random.Random(d)
        subsets = [s for r in range(1, d + 1) for s in itertools.combinations(range(1, d + 1), r)]
        for _ in range(12):
            chosen = rng.sample(subsets, rng.randint(1, min(len(subsets), 6)))
            rates = {s: 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 1.0) for s in chosen}
            spec = new_shared_component_spec(d, rates)
            _assert_same_law(shared_component_law(spec), *shared_component_law_dict(spec, 1e-10))

    def test_compound_with_weight_gaps(self):
        rng = random.Random(7)
        for _ in range(40):
            rates = [0.0 if rng.random() < 0.4 else rng.uniform(0.0, 2.0) for _ in range(rng.randint(1, 7))]
            _assert_same_law(compound_weighted_law(rates), *compound_weighted_law_dict(rates, 1e-10))

    def test_state_box_bound(self):
        spec = new_shared_component_spec(4, {(1, 2, 3, 4): 100.0})
        with pytest.raises(ResourceBoundError, match="states"):
            shared_component_law(spec)


class TestCompoundWeightedLaw:
    def test_single_rate_is_poisson(self):
        P = compound_weighted_law([0.8])
        Q = poisson_law(0.8)
        assert tv_distance(P, Q) <= 1e-9

    def test_doubled_support(self):
        P = compound_weighted_law([0.0, 0.6])
        assert all(k % 2 == 0 for (k,) in P.pmf)
        check_normalized(P)

    def test_mean_linearity(self):
        rates = [0.3, 0.2, 0.1]
        P = compound_weighted_law(rates)
        expect = sum((i + 1) * lam for i, lam in enumerate(rates))
        assert law_moments(P).means[0] == pytest.approx(expect, abs=1e-7)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compound_weighted_law([])


class TestBinom2PoissonLaw:
    def test_mu_one_values(self):
        P = binom2_poisson_law(1.0)
        assert P.pmf[(0,)] == pytest.approx(2 * exp(-1), abs=1e-12)
        assert P.pmf[(1,)] == pytest.approx(exp(-1) / 2, abs=1e-12)
        assert P.pmf.get((2,), 0.0) == 0.0

    def test_unreachable_values(self):
        P = binom2_poisson_law(1.0)
        for k in (2, 4, 5):
            assert P.pmf.get((k,), 0.0) == 0.0
        for k in (0, 1, 3, 6):
            assert P.pmf[(k,)] > 0

    def test_mean_half(self):
        # E C(Z,2) = mu^2/2 = 1/2 at mu=1.
        mom = law_moments(binom2_poisson_law(1.0))
        assert mom.means[0] == pytest.approx(0.5, abs=1e-8)

    def test_zero_rate(self):
        P = binom2_poisson_law(0.0)
        assert P.pmf == {(0,): 1.0}


class TestTvDistance:
    def test_self_distance_is_tail(self):
        P = poisson_law(0.7, tail_tol=1e-8)
        assert tv_distance(P, P) == pytest.approx(P.tail_mass, abs=1e-15)

    def test_point_masses(self):
        P = law_from_pmf(1, {(0,): 1.0})
        assert tv_distance(P, poisson_law(0.0)) == 0.0

    def test_hand_computed_value(self):
        P = law_from_pmf(1, {(0,): 0.75, (1,): 0.25})
        Q = poisson_law(0.25)
        expect = (
            abs(0.75 - Q.pmf[(0,)])
            + abs(0.25 - Q.pmf[(1,)])
            + sum(p for x, p in Q.pmf.items() if x[0] >= 2)
        ) / 2 + Q.tail_mass / 2
        assert tv_distance(P, Q) == pytest.approx(expect, abs=1e-14)

    def test_dimension_mismatch(self):
        P = poisson_law(0.3)
        spec = new_shared_component_spec(2, {(1,): 0.1, (2,): 0.1})
        with pytest.raises(ValidationError):
            tv_distance(P, shared_component_law(spec))

    def test_metric_on_exact_laws(self):
        laws = [
            law_from_pmf(1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}),
            law_from_pmf(1, {(0,): Fraction(1, 4), (2,): Fraction(3, 4)}),
            law_from_pmf(1, {(1,): Fraction(2, 3), (3,): Fraction(1, 3)}),
        ]
        for A in laws:
            assert tv_distance(A, A) == 0
            for B in laws:
                assert tv_distance(A, B) == tv_distance(B, A)
                for C in laws:
                    assert tv_distance(A, C) <= tv_distance(A, B) + tv_distance(B, C)

    def test_bit_equal_to_union_oracle(self):
        # Empirical laws (Fractions over N draws) against Poisson targets and
        # against each other; each result must equal the oracle's bit for bit.
        rng = random.Random(5)
        for _ in range(200):
            d = rng.randint(1, 2)
            draws = [tuple(rng.randint(0, 6) for _ in range(d)) for _ in range(rng.randint(1, 40))]
            weights = {x: rng.randint(1, 50) for x in draws}
            total = sum(weights.values())
            P = law_from_pmf(d, {x: Fraction(w, total) for x, w in weights.items()})
            lam = rng.uniform(0.05, 4.0)
            Q = poisson_law(lam) if d == 1 else shared_component_law(
                new_shared_component_spec(2, {(1,): lam, (2,): lam / 2, (1, 2): lam / 3})
            )
            for A, B in ((P, Q), (Q, P), (P, P), (Q, Q)):
                got, want = tv_distance(A, B), tv_distance_union(A, B)
                assert (got, type(got)) == (want, type(want))

    def test_exact_rational_arithmetic(self):
        A = law_from_pmf(1, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
        B = law_from_pmf(1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
        assert tv_distance(A, B) == Fraction(1, 6)


class TestLawMoments:
    def test_exact_rational(self):
        P = law_from_pmf(1, {(0,): Fraction(3, 4), (2,): Fraction(1, 4)})
        mom = law_moments(P)
        assert mom.means[0] == Fraction(1, 2)
        assert mom.covariance[0][0] == Fraction(3, 4)

    def test_rational_equals_fraction_sums(self):
        rng = random.Random(3)
        for d in (1, 2, 3):
            counts = {}
            for _ in range(30):
                x = tuple(rng.randint(0, 20) for _ in range(d))
                counts[x] = counts.get(x, 0) + rng.randint(1, 9)
            total = sum(counts.values())
            pmf = {x: Fraction(k, total) for x, k in counts.items()}
            mom = law_moments(law_from_pmf(d, pmf))
            means = [sum((x[i] * p for x, p in pmf.items()), Fraction(0)) for i in range(d)]
            assert mom.means == tuple(means)
            for i, j in itertools.product(range(d), repeat=2):
                second = sum((x[i] * x[j] * p for x, p in pmf.items()), Fraction(0))
                assert mom.covariance[i][j] == second - means[i] * means[j]

    def test_float_covariance_equals_full_sums(self):
        # each off-diagonal entry is summed once and mirrored; the full d^2
        # sums give the same bits
        rng = random.Random(5)
        raw = {tuple(rng.randint(0, 30) for _ in range(3)): rng.random() for _ in range(40)}
        pmf = {x: w / fsum(raw.values()) for x, w in raw.items()}
        mom = law_moments(law_from_pmf(3, pmf))
        total = fsum(pmf.values())
        means = [fsum(x[i] * p for x, p in pmf.items()) / total for i in range(3)]
        assert list(mom.means) == means
        for i, j in itertools.product(range(3), repeat=2):
            second = fsum(x[i] * x[j] * p for x, p in pmf.items()) / total
            assert mom.covariance[i][j] == second - means[i] * means[j]

    def test_joint_cross_moment(self):
        P = law_from_pmf(
            2,
            {
                (0, 0): Fraction(1, 4),
                (1, 0): Fraction(1, 4),
                (0, 1): Fraction(1, 4),
                (1, 1): Fraction(1, 4),
            },
        )
        mom = law_moments(P)
        assert mom.covariance[0][1] == 0
