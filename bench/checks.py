"""Output checks for the benchmark, computed apart from monoplex.

Nothing here imports monoplex. Every expected value comes either from a
closed form, from the benchmark's own construction of the instance, or from
a brute-force numpy enumeration of all c^n colorings. Laws are passed in as
plain pmf dicts {tuple: Fraction}; moment reports as the JSON objects that
`monoplex moments --rational` writes.

Each check raises CheckError with a message naming what disagreed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, floor, sqrt

import numpy as np


class CheckError(Exception):
    """A program output disagrees with its independently computed value."""


# ---------------------------------------------------------------------------
# instances, built without the program


def ap_count(n: int, r: int) -> int:
    """Number of r-term arithmetic progressions in [1, n]: sum over d of n - (r-1)d."""
    return sum(n - (r - 1) * d for d in range(1, (n - 1) // (r - 1) + 1))


def ap_edges(n: int, r: int) -> list[tuple[int, ...]]:
    """r-term APs in [0, n) as vertex tuples."""
    return [
        tuple(a + i * d for i in range(r))
        for d in range(1, (n - 1) // (r - 1) + 1)
        for a in range(n - (r - 1) * d)
    ]


def pattern_copies(n: int, pattern: dict) -> list[tuple[int, ...]]:
    """Copies of a pattern graph in K_n, each as the set of K_n edge indices
    it uses (edges of K_n numbered in lexicographic order)."""
    index = {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}
    copies = set()
    for image in itertools.permutations(range(n), pattern["num_vertices"]):
        ids = sorted(index[tuple(sorted((image[u], image[v])))] for u, v in pattern["edges"])
        copies.add(tuple(ids))
    return sorted(copies)


def weighted_blocks(blocks: int, triangle_fraction: float) -> tuple[list[tuple[int, ...]], list[int]]:
    """The weighted-blocks instance: one triple per 3-vertex block, weighted by
    the number of 3-vertex paths inside the block (3 in a triangle block, 1 in
    a path block); the first round(blocks * fraction) blocks are triangles."""
    triangles = round(blocks * triangle_fraction)
    edges = [(3 * b, 3 * b + 1, 3 * b + 2) for b in range(blocks)]
    weights = [3 if b < triangles else 1 for b in range(blocks)]
    return edges, weights


def ap_overlap2_pairs(n: int) -> int:
    """Ordered pairs of distinct 3-APs in [0, n) sharing exactly two elements.

    Two distinct 3-sets share at most two elements, so the count is the sum
    over element pairs {u, v} of m(m - 1), where m counts the APs holding
    both; m comes from one bincount over the packed pair keys.
    """
    e = np.asarray(ap_edges(n, 3), dtype=np.int64)
    keys = np.concatenate([e[:, 0] * n + e[:, 1], e[:, 0] * n + e[:, 2], e[:, 1] * n + e[:, 2]])
    m = np.bincount(keys)
    return int((m * (m - 1)).sum())


# ---------------------------------------------------------------------------
# law checks


def check_sums_to_one(pmf: dict, tail, where: str) -> None:
    total = sum((Fraction(p) for p in pmf.values()), Fraction(tail))
    if total != 1:
        raise CheckError(f"{where}: masses sum to {total}, not exactly 1")


def check_mean_within_se(pmf: dict, expected: list, replicates: int, where: str, z: float = 5.0) -> None:
    """Each coordinate's empirical mean lies within z standard errors of its
    expected value; the standard error comes from the empirical variance."""
    for i, want in enumerate(expected):
        mean = sum((Fraction(p) * x[i] for x, p in pmf.items()), Fraction(0))
        second = sum((Fraction(p) * x[i] * x[i] for x, p in pmf.items()), Fraction(0))
        se = sqrt(float(second - mean * mean) / replicates)
        gap = abs(float(mean) - float(want))
        if gap > z * se:
            raise CheckError(
                f"{where}: layer {i + 1} mean {float(mean):.6g} is {gap:.3g} from "
                f"{float(want):.6g}, more than {z} standard errors ({se:.3g})"
            )


def check_same_law(a: dict, b: dict, where: str) -> None:
    if a != b:
        keys = sorted(set(a) | set(b))
        diff = [k for k in keys if a.get(k) != b.get(k)]
        raise CheckError(f"{where}: laws differ at {len(diff)} points, first {diff[0]}")


def check_same_bytes(a: bytes, b: bytes, where: str) -> None:
    if a != b:
        first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        raise CheckError(f"{where}: outputs differ from byte {first}")


def enumerate_law(layers: list, n: int, c: int, weights: list | None = None) -> dict:
    """Exact joint law of the per-layer (weighted) monochromatic totals over
    all c^n colorings, by brute force. layers is a list of edge lists;
    weights, if given, weights the edges of a single layer."""
    states = c**n
    code = np.arange(states, dtype=np.int64)
    colors = np.empty((states, n), dtype=np.int8)
    for v in range(n):
        colors[:, v] = (code // c**v) % c
    totals = np.zeros((states, len(layers)), dtype=np.int64)
    for i, edges in enumerate(layers):
        w = weights if weights is not None else [1] * len(edges)
        for e, we in zip(edges, w):
            mono = np.ones(states, dtype=bool)
            for v in e[1:]:
                mono &= colors[:, v] == colors[:, e[0]]
            totals[:, i] += we * mono
    keys, counts = np.unique(totals, axis=0, return_counts=True)
    return {tuple(int(x) for x in k): Fraction(int(m), states) for k, m in zip(keys, counts)}


# ---------------------------------------------------------------------------
# rational moment reports


def _expect(report: dict, key: str, want: Fraction, where: str) -> None:
    got = Fraction(report[key])
    if got != want:
        raise CheckError(f"{where}: {key} = {got}, closed form gives {want}")


def check_uniform_report(report: dict, edges: int, r: int, c: int, overlaps: dict, where: str) -> None:
    """A single-layer report against Var T = sum over edges of p(1 - p) plus,
    per overlap size t, (ordered pairs at t) * c^-(2r-t-1) * (1 - c^-(t-1)),
    with p = c^-(r-1). overlaps maps t in [2, r-1] to ordered pair counts."""
    p = Fraction(1, c ** (r - 1))
    r1 = edges * p * (1 - p)
    r2 = {
        t: overlaps.get(t, 0) * Fraction(1, c ** (2 * r - t - 1)) * (1 - Fraction(1, c ** (t - 1)))
        for t in range(2, r)
    }
    _expect(report, "mean", edges * p, where)
    _expect(report, "r1_term", r1, where)
    for t, want in r2.items():
        got = Fraction(report["r2_terms"][str(t)])
        if got != want:
            raise CheckError(f"{where}: r2_terms[{t}] = {got}, closed form gives {want}")
        ratio = Fraction(report["condition_ratios"][str(t)])
        if ratio != overlaps.get(t, 0) * Fraction(1, c ** (2 * r - t - 1)):
            raise CheckError(f"{where}: condition_ratios[{t}] = {ratio} disagrees with the pair count")
    _expect(report, "variance", r1 + sum(r2.values(), Fraction(0)), where)


def check_star_report(report: dict, n: int, c: int, where: str) -> None:
    """All triples through vertex 0: |E| = C(n-1, 2), and each edge {0, a, b}
    meets 2(n - 3) others in two vertices."""
    edges = comb(n - 1, 2)
    check_uniform_report(report, edges, 3, c, {2: edges * 2 * (n - 3)}, where)


def check_ap_report(report: dict, n: int, c: int, where: str) -> None:
    check_uniform_report(report, ap_count(n, 3), 3, c, {2: ap_overlap2_pairs(n)}, where)


def check_appendix_b_report(report: dict, n: int, lam: float, c: int, where: str) -> None:
    """Three K_n layers whose pairwise shared blocks have floor(lam n)
    vertices (both variants): means C(n,2)/c, variances C(n,2)(1/c)(1-1/c),
    covariances C(floor(lam n),2)(1/c)(1-1/c)."""
    q = Fraction(1, c)
    shared = comb(floor(lam * n), 2)
    for i, got in enumerate(report["means"]):
        if Fraction(got) != comb(n, 2) * q:
            raise CheckError(f"{where}: mean[{i}] = {got}, closed form gives {comb(n, 2) * q}")
    for i, row in enumerate(report["covariance"]):
        for j, got in enumerate(row):
            want = (comb(n, 2) if i == j else shared) * q * (1 - q)
            if Fraction(got) != want:
                raise CheckError(f"{where}: covariance[{i}][{j}] = {got}, closed form gives {want}")


def check_weighted_blocks_report(report: dict, blocks: int, triangle_fraction: float, c: int, where: str) -> None:
    """Disjoint weighted triples: mean sum(w)/c^2, variance sum(w^2) p(1-p),
    and no overlapping pairs."""
    _, weights = weighted_blocks(blocks, triangle_fraction)
    p = Fraction(1, c**2)
    _expect(report, "mean", sum(weights) * p, where)
    _expect(report, "variance", sum(w * w for w in weights) * p * (1 - p), where)
    if any(Fraction(x) != 0 for x in report["u2_terms"].values()):
        raise CheckError(f"{where}: disjoint blocks have nonzero overlap terms {report['u2_terms']}")
