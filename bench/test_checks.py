"""Each output check passes on a correct input and fails on a wrong one.

Run with: python3 -m pytest bench -q
Correct inputs come from brute force (enumeration of all colorings, or a
pairwise scan of the edges), not from the closed forms under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

import checks
from checks import CheckError
from workloads import check_compare


def shifted(pmf: dict) -> dict:
    return {tuple(x + 1 for x in k): p for k, p in pmf.items()}


def star_edges(n: int) -> list[tuple[int, ...]]:
    return [(0, a, b) for a, b in itertools.combinations(range(1, n), 2)]


def overlap_pairs(edges, t: int) -> int:
    sets = [set(e) for e in edges]
    return sum(1 for i, a in enumerate(sets) for j, b in enumerate(sets) if i != j and len(a & b) == t)


def moments_of(pmf: dict) -> tuple[Fraction, Fraction]:
    mean = sum(p * k[0] for k, p in pmf.items())
    return mean, sum(p * k[0] ** 2 for k, p in pmf.items()) - mean * mean


def brute_report(edges, n: int, c: int) -> dict:
    """A 3-uniform moments report from exact enumeration and a pairwise scan."""
    mean, var = moments_of(checks.enumerate_law([edges], n, c))
    p = Fraction(1, c**2)
    r1 = len(edges) * p * (1 - p)
    k2 = overlap_pairs(edges, 2)
    return {
        "kind": "moments",
        "mean": str(mean),
        "variance": str(var),
        "r1_term": str(r1),
        "r2_terms": {"2": str(var - r1)},
        "condition_ratios": {"2": str(Fraction(k2, c**3))},
    }


def test_enumeration_matches_hand_value():
    assert checks.enumerate_law([[(0, 1, 2)]], 3, 2) == {(0,): Fraction(3, 4), (1,): Fraction(1, 4)}
    assert checks.enumerate_law([[(0, 1, 2)]], 3, 2, weights=[3]) == {(0,): Fraction(3, 4), (3,): Fraction(1, 4)}


def test_builders_agree_with_brute_force():
    path4, star3 = {"num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}, {"num_vertices": 4, "edges": [[0, 1], [0, 2], [0, 3]]}
    assert len(checks.pattern_copies(5, path4)) == 5 * 4 * 3 * 2 // 2
    assert len(checks.pattern_copies(5, star3)) == 5 * comb(4, 3)
    assert checks.ap_count(20, 3) == len(checks.ap_edges(20, 3))
    assert checks.ap_overlap2_pairs(20) == overlap_pairs(checks.ap_edges(20, 3), 2)


def test_sums_to_one():
    law = checks.enumerate_law([star_edges(5)], 5, 3)
    checks.check_sums_to_one(law, 0, "ok")
    first = next(iter(law))
    with pytest.raises(CheckError):
        checks.check_sums_to_one({k: p for k, p in law.items() if k != first}, 0, "mass dropped")


def test_mean_within_se():
    law = checks.enumerate_law([star_edges(6)], 6, 3)
    want = [Fraction(comb(5, 2), 9)]
    checks.check_mean_within_se(law, want, 3**6, "ok")
    with pytest.raises(CheckError):
        checks.check_mean_within_se(shifted(law), want, 3**6, "law shifted by one")
    with pytest.raises(CheckError):
        checks.check_mean_within_se(law, [want[0] + 1], 3**6, "wrong mean")


def test_same_law_and_bytes():
    law = checks.enumerate_law([star_edges(5)], 5, 3)
    checks.check_same_law(law, dict(law), "ok")
    with pytest.raises(CheckError):
        checks.check_same_law(law, shifted(law), "law shifted by one")
    checks.check_same_bytes(b"n,c\n1,2\n", b"n,c\n1,2\n", "ok")
    with pytest.raises(CheckError):
        checks.check_same_bytes(b"n,c\n1,2\n", b"n,c\n1,3\n", "one byte")


def test_star_report():
    rep = brute_report(star_edges(6), 6, 3)
    checks.check_star_report(rep, 6, 3, "ok")
    with pytest.raises(CheckError):
        checks.check_star_report({**rep, "mean": str(Fraction(rep["mean"]) + 1)}, 6, 3, "wrong mean")
    off = Fraction(rep["condition_ratios"]["2"]) + Fraction(1, 27)
    with pytest.raises(CheckError):
        checks.check_star_report({**rep, "condition_ratios": {"2": str(off)}}, 6, 3, "one pair too many")


def test_ap_report():
    rep = brute_report(checks.ap_edges(9, 3), 9, 3)
    checks.check_ap_report(rep, 9, 3, "ok")
    one_pair = Fraction(1, 27) * Fraction(2, 3)
    wrong = {**rep, "r2_terms": {"2": str(Fraction(rep["r2_terms"]["2"]) + one_pair)}}
    with pytest.raises(CheckError):
        checks.check_ap_report(wrong, 9, 3, "one overlap pair too many")


def test_appendix_b_report():
    n, lam, c = 10, 0.2, 100
    m = int(lam * n)
    blocks = [list(range(m)) + list(range(m + i * (n - m), m + (i + 1) * (n - m))) for i in range(3)]
    layers = [set(itertools.combinations(b, 2)) for b in blocks]
    q = Fraction(1, c)
    rep = {
        "kind": "moment_matrix",
        "means": [str(len(L) * q) for L in layers],
        "covariance": [[str(len(a & b) * q * (1 - q)) for b in layers] for a in layers],
    }
    checks.check_appendix_b_report(rep, n, lam, c, "ok")
    wrong = [row[:] for row in rep["covariance"]]
    wrong[0][1] = str(Fraction(wrong[0][1]) + q * (1 - q))
    with pytest.raises(CheckError):
        checks.check_appendix_b_report({**rep, "covariance": wrong}, n, lam, c, "covariance off by one edge")
    with pytest.raises(CheckError):
        checks.check_appendix_b_report({**rep, "means": [rep["means"][0]] * 2 + ["0"]}, n, lam, c, "wrong mean")


def test_weighted_blocks_report():
    edges, weights = checks.weighted_blocks(3, 0.3)
    mean, var = moments_of(checks.enumerate_law([edges], 9, 3, weights))
    rep = {"kind": "weighted_moments", "mean": str(mean), "variance": str(var), "u2_terms": {"2": "0"}}
    checks.check_weighted_blocks_report(rep, 3, 0.3, 3, "ok")
    with pytest.raises(CheckError):
        checks.check_weighted_blocks_report({**rep, "variance": str(var + 1)}, 3, 0.3, 3, "wrong variance")


def test_check_compare_exact_and_monte_carlo():
    law = checks.enumerate_law([checks.ap_edges(7, 3)], 7, 3)
    exact = SimpleNamespace(spec={"scenario": "ap", "params": {"r": 3}, "sizes": [7], "law": "exact"})
    check_compare(exact, [("exact_law", (None, 3), SimpleNamespace(pmf=law, tail_mass=0))], "ok")
    with pytest.raises(CheckError):
        check_compare(exact, [("exact_law", (None, 3), SimpleNamespace(pmf=shifted(law), tail_mass=0))], "shifted")
    # The exact law read as a 3^7-replicate sample has the exact mean.
    mc = SimpleNamespace(spec={"scenario": "ap", "params": {"r": 3}, "sizes": [7], "law": "simulate"})
    cfg = SimpleNamespace(c=3, replicates=3**7)
    check_compare(mc, [("simulate_ap_T", (7, 3, cfg), SimpleNamespace(law=SimpleNamespace(pmf=law, tail_mass=0)))], "ok")
    with pytest.raises(CheckError):
        bad = SimpleNamespace(law=SimpleNamespace(pmf=shifted(law), tail_mass=0))
        check_compare(mc, [("simulate_ap_T", (7, 3, cfg), bad)], "shifted")
    with pytest.raises(CheckError):
        check_compare(mc, [], "missing law")
