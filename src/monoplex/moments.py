"""Exact first and second moments of monochromatic-edge counts.

Every second moment is one sum over ordered edge pairs (e1, e2), grouped by
their overlap t = |e1 & e2|: two edges of uniformities r1, r2 that share
t >= 1 vertices are both monochromatic with probability c^-(r1+r2-t-1), so
the pair adds c^-(r1+r2-t-1)(1 - c^-(t-1)) to the covariance; pairs that
share 0 or 1 vertices add exactly 0. _pair_terms holds that coefficient.
A layer's variance is its covariance with itself, whose t = r term is the
pairs e1 = e2, the single edges; weighted counts weigh each pair by
w(e1)*w(e2).

Each report carries its decomposition (the t = r term plus one term per
smaller overlap) so callers can inspect the pieces. Every moment is computed
once, exactly, in Fractions: rational=True returns those Fractions, and
rational=False rounds each finished field once to the nearest float, so no
step rounds and no c is too large.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from fractions import Fraction
from typing import Mapping, Union

from monoplex.core import (
    Multiplex,
    UniformHypergraph,
    WeightedUniformHypergraph,
    _check_c,
    _layer_sums,
    _pair_sums,
    k_cross_all,
    k_exact_all,
    weighted_pair_sums_all,
)

Real = Union[float, Fraction]


@dataclass(frozen=True)
class MomentReport:
    """Variance decomposition: variance = r1_term + sum of r2_terms.

    r1_term covers single edges; r2_terms[t] covers ordered pairs of distinct
    edges overlapping in exactly t vertices, t in [2, r-1]. ratios are the
    condition ratios of condition_ratios, read from the same pair counts.
    """

    mean: Real
    variance: Real
    r1_term: Real
    r2_terms: Mapping[int, Real]
    ratios: Mapping[int, Real]


@dataclass(frozen=True)
class CovarianceReport:
    """Covariance decomposition: covariance = q1_term + sum of q2_terms.

    q1_term covers identical edge pairs (shared edges; zero when the two
    uniformities differ); q2_terms[t] covers non-identical ordered cross
    pairs overlapping in exactly t vertices, t in [2, min(r1, r2)].
    """

    covariance: Real
    q1_term: Real
    q2_terms: Mapping[int, Real]


@dataclass(frozen=True)
class ConditionReport:
    """ratios[t] = (ordered distinct pairs sharing exactly t vertices) / c^(2r-t-1).

    All entries vanishing as the family grows is the second-moment condition
    for the Poisson limit; a non-vanishing entry flags a violating family.
    """

    ratios: Mapping[int, Real]


@dataclass(frozen=True)
class MomentMatrixReport:
    """Joint mean vector and covariance matrix."""

    means: tuple[Real, ...]
    covariance: tuple[tuple[Real, ...], ...]


@dataclass(frozen=True)
class WeightedMomentReport:
    """Weighted-count analogue: variance = u1_term + sum of u2_terms."""

    mean: Real
    variance: Real
    u1_term: Real
    u2_terms: Mapping[int, Real]


def _each(x, number):
    """number(v) for each value v in x, through a report's fields, dicts and
    tuples; number=float rounds each exact field once."""
    if is_dataclass(x):
        return type(x)(**_each(vars(x), number))
    if isinstance(x, dict):
        return {k: _each(v, number) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(_each(v, number) for v in x)
    return number(x)


def _pair_terms(sums: Mapping[int, int], r1: int, r2: int, c: int) -> dict[int, Fraction]:
    """Covariance contribution of the ordered pairs of an r1-uniform and an
    r2-uniform layer, per overlap t in [2, min(r1, r2)]: sums[t] (pairs, or
    w(e1)*w(e2) sums, at overlap exactly t) * c^-(r1+r2-t-1) * (1 - c^-(t-1)),
    that is sums[t] * (c^(t-1) - 1) / c^(r1+r2-2)."""
    return {t: Fraction(sums[t] * (c ** (t - 1) - 1), c ** (r1 + r2 - 2)) for t in range(2, min(r1, r2) + 1)}


def mean_T(H: UniformHypergraph, c: int, rational: bool = False) -> Real:
    """E T = |E| / c^(r-1) under a uniform random c-coloring."""
    _check_c(c)
    mean = Fraction(H.num_edges, c ** (H.uniformity - 1))
    return mean if rational else float(mean)


def variance_T(H: UniformHypergraph, c: int, rational: bool = False) -> MomentReport:
    """Var T: the pair terms over k_exact_all(H), plus the t = r term of the
    |E| pairs e1 = e2 (r1_term). The report also carries the condition ratios."""
    _check_c(c)
    r = H.uniformity
    kex = k_exact_all(H)
    r2 = _pair_terms({**kex, r: H.num_edges}, r, r, c)
    r1 = r2.pop(r)
    ratios = {t: Fraction(kex[t], c ** (2 * r - t - 1)) for t in range(2, r)}
    report = MomentReport(mean_T(H, c, rational=True), r1 + sum(r2.values()), r1, r2, ratios)
    return report if rational else _each(report, float)


def covariance_T(
    H1: UniformHypergraph, H2: UniformHypergraph, c: int, rational: bool = False
) -> CovarianceReport:
    """Cov(T1, T2) for two layers colored by one shared uniform coloring: the
    pair terms over k_cross_all(H1, H2). The t = r term (r1 = r2 = r) is the
    shared edges, q1_term; it is zero when the uniformities differ."""
    _check_c(c)
    r1, r2 = H1.uniformity, H2.uniformity
    q2 = _pair_terms(k_cross_all(H1, H2), r1, r2, c)
    q1 = q2.pop(r1) if r1 == r2 else Fraction(0)
    report = CovarianceReport(q1 + sum(q2.values()), q1, q2)
    return report if rational else _each(report, float)


def moment_matrix(M: Multiplex, c: int, rational: bool = False) -> MomentMatrixReport:
    """Joint mean vector and covariance matrix over all layers. Each layer's
    subset sums are taken once; entry (i, j), the diagonal included, is the
    sum of the pair terms of layers i and j."""
    _check_c(c)
    layers = M.layers
    sums = [_layer_sums(layer, None, layer.uniformity) for layer in layers]
    matrix = [[None] * len(layers) for _ in layers]
    for i, Hi in enumerate(layers):
        for j in range(i, len(layers)):
            terms = _pair_terms(_pair_sums(sums[i], sums[j]), Hi.uniformity, layers[j].uniformity, c)
            matrix[i][j] = matrix[j][i] = sum(terms.values())
    means = tuple(mean_T(layer, c, rational=True) for layer in layers)
    report = MomentMatrixReport(means, tuple(tuple(row) for row in matrix))
    return report if rational else _each(report, float)


def mean_W(WH: WeightedUniformHypergraph, c: int, rational: bool = False) -> Real:
    """E W = (sum of edge weights) / c^(r-1)."""
    _check_c(c)
    mean = Fraction(sum(WH.weights), c ** (WH.base.uniformity - 1))
    return mean if rational else float(mean)


def variance_W(
    WH: WeightedUniformHypergraph, c: int, rational: bool = False
) -> WeightedMomentReport:
    """Var W: the pair terms over weighted_pair_sums_all(WH), plus the t = r
    term of the pairs e1 = e2, whose weight sum is sum_e w_e^2 (u1_term)."""
    _check_c(c)
    r = WH.base.uniformity
    sums = weighted_pair_sums_all(WH)
    u2 = _pair_terms({**sums, r: sum(w * w for w in WH.weights)}, r, r, c)
    u1 = u2.pop(r)
    report = WeightedMomentReport(mean_W(WH, c, rational=True), u1 + sum(u2.values()), u1, u2)
    return report if rational else _each(report, float)


def condition_ratios(H: UniformHypergraph, c: int, rational: bool = False) -> ConditionReport:
    """ratios[t] = k_exact(t, H) / c^(2r-t-1) for t in [2, r-1]; empty for
    r = 2. variance_T's report carries the same ratios."""
    return ConditionReport(variance_T(H, c, rational=rational).ratios)
