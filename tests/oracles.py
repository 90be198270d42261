"""Reference implementations that tests compare the fast paths against:
the per-edge validator and direct O(m^2) pair scans for the edge loader and
overlap counters in monoplex.core, the depth-first copy-map search and the
start-and-step progression loop for monoplex.families, and dict
convolutions for the Poisson laws in monoplex.laws."""

import itertools
from collections import Counter
from fractions import Fraction
from math import fsum

from monoplex.core import UniformHypergraph, ValidationError, WeightedUniformHypergraph
from monoplex.laws import _poisson_terms


def new_hypergraph_reference(r, n, edges) -> UniformHypergraph:
    """Edge-by-edge validation in input order; test oracle for the array
    loader behind monoplex.core.new_hypergraph. Within an edge it checks each
    vertex's type and range, then the edge size, repeated vertices, and
    repeats of an earlier edge."""
    for value, low, field in ((r, 2, "uniformity"), (n, 0, "num_vertices")):
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            raise ValidationError(f"{field}: must be an integer >= {low}, got {value!r}")
    canon = []
    seen = set()
    for i, raw in enumerate(edges):
        for j, v in enumerate(raw):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"edges[{i}][{j}]: vertex must be an integer, got {v!r}")
            if v < 0 or v >= n:
                raise ValidationError(f"edges[{i}][{j}]: vertex {v} out of range [0, {n})")
        e = tuple(sorted(raw))
        if len(e) != r:
            raise ValidationError(f"edges[{i}]: expected {r} vertices, got {len(e)}")
        if len(set(e)) != r:
            raise ValidationError(f"edges[{i}]: repeated vertex in {list(raw)}")
        if e in seen:
            raise ValidationError(f"edges[{i}]: duplicate edge {list(e)}")
        seen.add(e)
        canon.append(e)
    canon.sort()
    return UniformHypergraph(r, n, tuple(canon))


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


def copy_maps_recursive(G, F):
    """All injective maps V(F) -> V(G) sending F-edges to G-edges, as dicts,
    by depth-first search; test oracle for monoplex.families._copy_maps."""
    k = F.num_vertices
    adj_g = _adjacency(G.num_vertices, G.edges)
    adj_f = _adjacency(k, F.edges)
    # Map high-degree pattern vertices first, preferring those with already
    # mapped neighbors, so adjacency constraints prune early.
    order: list[int] = []
    placed: set[int] = set()
    remaining = set(range(k))
    while remaining:
        best = max(
            remaining,
            key=lambda u: (len(adj_f[u] & placed), len(adj_f[u]), -u),
        )
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    mapped: dict[int, int] = {}
    used: set[int] = set()

    def rec(i: int):
        if i == k:
            yield dict(mapped)
            return
        u = order[i]
        anchors = [w for w in adj_f[u] if w in mapped]
        if anchors:
            cands = set.intersection(*(adj_g[mapped[w]] for w in anchors))
        else:
            cands = set(range(G.num_vertices))
        for g in sorted(cands - used):
            mapped[u] = g
            used.add(g)
            yield from rec(i + 1)
            del mapped[u]
            used.remove(g)

    yield from rec(0)


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def copies_edges_recursive(G, F):
    """Sorted edge-id tuples of the copies of F in G, from the recursive
    maps; test oracle for copies_hypergraph."""
    edge_index = {e: i for i, e in enumerate(G.edges)}
    copies = set()
    for phi in copy_maps_recursive(G, F):
        ids = {edge_index[tuple(sorted((phi[u], phi[v])))] for u, v in F.edges}
        copies.add(tuple(sorted(ids)))
    return tuple(sorted(copies))


def vertex_copy_weights_recursive(G, F):
    """(edges, weights) of vertex_copy_weighted_hypergraph from the
    recursive maps and a k! automorphism count; test oracle."""
    k = F.num_vertices
    edge_set = set(F.edges)
    aut = sum(
        all(((u, v) in edge_set) == ((min(p[u], p[v]), max(p[u], p[v])) in edge_set)
            for u, v in itertools.combinations(range(k), 2))
        for p in itertools.permutations(range(k))
    )
    images = Counter(tuple(sorted(phi.values())) for phi in copy_maps_recursive(G, F))
    edges = tuple(sorted(images))
    return edges, tuple(images[s] // aut for s in edges)


def tv_distance_union(P, Q):
    """tv_distance with the gaps taken per state of a set union of the
    supports, a rational mass minus a float one per state; test oracle for
    monoplex.laws.tv_distance."""
    keys = set(P.pmf) | set(Q.pmf)
    gaps = [abs(P.pmf.get(x, 0) - Q.pmf.get(x, 0)) for x in keys]
    if any(isinstance(g, Fraction) for g in gaps) and not any(isinstance(g, float) for g in gaps):
        core = sum(gaps, Fraction(0)) / 2
        return core + Fraction(P.tail_mass) / 2 + Fraction(Q.tail_mass) / 2
    return fsum(gaps) / 2.0 + (P.tail_mass + Q.tail_mass) / 2.0


# The dict convolutions visit states in sorted order, so each sum adds its
# terms from the largest k down, one fixed order that the array kernel also
# follows; in insertion order the masses would differ in their last bits.


def shared_component_law_dict(spec, tail_tol):
    """(pmf, tail) of shared_component_law by a dict convolution over tuple
    states; test oracle for the array kernel in monoplex.laws."""
    d = spec.dimension
    active = [(s, lam) for s, lam in spec.rates.items() if lam > 0]
    per_comp_tol = tail_tol / max(1, len(active))
    dist = {(0,) * d: 1.0}
    for s, lam in active:
        step = tuple(1 if i + 1 in s else 0 for i in range(d))
        terms, _ = _poisson_terms(lam, per_comp_tol)
        nxt = {}
        for x, px in sorted(dist.items()):
            for k, pk in enumerate(terms):
                y = tuple(a + k * b for a, b in zip(x, step))
                nxt[y] = nxt.get(y, 0.0) + px * pk
        dist = nxt
    return {x: p for x, p in dist.items() if p != 0}, max(1.0 - fsum(dist.values()), 0.0)


def compound_weighted_law_dict(rates, tail_tol):
    """(pmf, tail) of compound_weighted_law by a dict convolution; test
    oracle for the array kernel in monoplex.laws."""
    active = [(i + 1, lam) for i, lam in enumerate(rates) if lam > 0]
    per_comp_tol = tail_tol / max(1, len(active))
    dist = {0: 1.0}
    for i, lam in active:
        terms, _ = _poisson_terms(lam, per_comp_tol)
        nxt = {}
        for x, px in sorted(dist.items()):
            for k, pk in enumerate(terms):
                nxt[x + i * k] = nxt.get(x + i * k, 0.0) + px * pk
        dist = nxt
    return {(x,): p for x, p in dist.items() if p != 0}, max(1.0 - fsum(dist.values()), 0.0)


def ap_hypergraph_reference(A, r) -> UniformHypergraph:
    """The r-term progressions of A by a loop over every start and step;
    test oracle for monoplex.families.ap_hypergraph. A must be strictly
    increasing integers >= 1 and r >= 3."""
    elems = list(A)
    index = {a: i for i, a in enumerate(elems)}
    n = len(elems)
    edges: list[tuple[int, ...]] = []
    if n >= r:
        hi = elems[-1]
        members = set(elems)
        for a in elems:
            for d in range(1, (hi - a) // (r - 1) + 1):
                if all(a + i * d in members for i in range(1, r)):
                    edges.append(tuple(index[a + i * d] for i in range(r)))
    edges.sort()
    return UniformHypergraph(r, n, tuple(edges))
