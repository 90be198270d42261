"""Direct O(m^2) pair scans: test oracles for the overlap counters in
monoplex.core."""

from monoplex.core import UniformHypergraph, ValidationError, WeightedUniformHypergraph


def k_exact_pairwise(t: int, H: UniformHypergraph) -> int:
    """Direct O(m^2) scan; test oracle for k_exact."""
    if t < 0 or t > H.uniformity - 1:
        raise ValidationError(f"t={t} out of range [0, {H.uniformity - 1}]")
    sets = [frozenset(e) for e in H.edges]
    count = 0
    for i, e1 in enumerate(sets):
        for j, e2 in enumerate(sets):
            if i != j and len(e1 & e2) == t:
                count += 1
    return count


def k_cross_pairwise(t: int, H1: UniformHypergraph, H2: UniformHypergraph) -> int:
    """Direct O(m1*m2) scan; test oracle for k_cross."""
    if H1.num_vertices != H2.num_vertices:
        raise ValidationError(
            f"num_vertices mismatch: {H1.num_vertices} != {H2.num_vertices}"
        )
    rmin = min(H1.uniformity, H2.uniformity)
    if t < 0 or t > rmin:
        raise ValidationError(f"t={t} out of range [0, {rmin}]")
    sets2 = [frozenset(e) for e in H2.edges]
    count = 0
    for e1 in H1.edges:
        f1 = frozenset(e1)
        for f2 in sets2:
            if len(f1 & f2) == t:
                count += 1
    return count


def weighted_pair_sums_pairwise(t: int, WH: WeightedUniformHypergraph) -> int:
    """Direct O(m^2) scan; test oracle for weighted_pair_sums_all."""
    sets = [frozenset(e) for e in WH.base.edges]
    total = 0
    for i, (e1, w1) in enumerate(zip(sets, WH.weights)):
        for j, (e2, w2) in enumerate(zip(sets, WH.weights)):
            if i != j and len(e1 & e2) == t:
                total += w1 * w2
    return total
