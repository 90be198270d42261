"""Core types and exact counting for uniform hypergraphs and multiplexes.

Vertices are dense 0-based integers. Hyperedges are stored as sorted tuples and
edge sets are kept in lexicographic order, so equal hypergraphs compare equal
and every iteration is deterministic. All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, ...]


class ValidationError(ValueError):
    """Input violates a documented precondition or file-format rule."""


class ResourceBoundError(RuntimeError):
    """Requested computation exceeds a configured size bound."""


@dataclass(frozen=True)
class UniformHypergraph:
    """r-uniform hypergraph on vertices [0, num_vertices)."""

    uniformity: int
    num_vertices: int
    edges: tuple[Edge, ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


@dataclass(frozen=True)
class Multiplex:
    """Ordered hypergraph layers sharing one vertex set (uniformities may differ)."""

    num_vertices: int
    layers: tuple[UniformHypergraph, ...]

    @property
    def num_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class WeightedUniformHypergraph:
    """Uniform hypergraph with one positive integer weight per edge.

    weights align with base.edges; weight_bound is the cap K with
    1 <= w_e <= K for every edge.
    """

    base: UniformHypergraph
    weights: tuple[int, ...]
    weight_bound: int


@dataclass(frozen=True)
class Coloring:
    """Vertex coloring with colors 1..num_colors."""

    colors: tuple[int, ...]
    num_colors: int


def new_hypergraph(r: int, n: int, edges: Iterable[Sequence[int]]) -> UniformHypergraph:
    """Validate, canonicalize and deduplicate-check an edge list.

    Rejects edges of wrong size, repeated vertices within an edge, vertices
    outside [0, n), and duplicate edges (edge sets are simple).
    """
    if not isinstance(r, int) or r < 2:
        raise ValidationError(f"uniformity: must be an integer >= 2, got {r!r}")
    if not isinstance(n, int) or n < r:
        raise ValidationError(f"num_vertices: must be an integer >= uniformity {r}, got {n!r}")
    canon: list[Edge] = []
    seen: set[Edge] = set()
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


def new_multiplex(layers: Iterable[UniformHypergraph]) -> Multiplex:
    layers = tuple(layers)
    if not layers:
        raise ValidationError("layers: at least one layer required")
    n = layers[0].num_vertices
    for i, layer in enumerate(layers):
        if layer.num_vertices != n:
            raise ValidationError(
                f"layers[{i}]: num_vertices {layer.num_vertices} != shared {n}"
            )
    return Multiplex(n, layers)


def new_weighted_hypergraph(
    r: int,
    n: int,
    edges: Iterable[Sequence[int]],
    weights: Iterable[int],
    weight_bound: int | None = None,
) -> WeightedUniformHypergraph:
    """Pair each input edge with its weight, then canonicalize jointly."""
    edges = list(edges)
    weights = list(weights)
    if len(weights) != len(edges):
        raise ValidationError(
            f"weights: expected {len(edges)} entries to match edges, got {len(weights)}"
        )
    base = new_hypergraph(r, n, edges)
    by_edge = {tuple(sorted(e)): w for e, w in zip(edges, weights)}
    aligned = tuple(by_edge[e] for e in base.edges)
    for i, w in enumerate(aligned):
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ValidationError(f"weights[{i}]: weight must be an integer >= 1, got {w!r}")
    bound = max(aligned, default=1) if weight_bound is None else weight_bound
    if bound < 1:
        raise ValidationError(f"weight_bound: must be >= 1, got {bound}")
    for i, w in enumerate(aligned):
        if w > bound:
            raise ValidationError(f"weights[{i}]: weight {w} exceeds bound {bound}")
    return WeightedUniformHypergraph(base, aligned, bound)


def new_coloring(colors: Sequence[int], c: int) -> Coloring:
    if c < 1:
        raise ValidationError(f"num_colors: must be >= 1, got {c}")
    for i, a in enumerate(colors):
        if not isinstance(a, int) or isinstance(a, bool) or a < 1 or a > c:
            raise ValidationError(f"colors[{i}]: color {a!r} out of range [1, {c}]")
    return Coloring(tuple(colors), c)


def _require_compatible(H1: UniformHypergraph, H2: UniformHypergraph) -> None:
    if H1.num_vertices != H2.num_vertices:
        raise ValidationError(
            f"num_vertices mismatch: {H1.num_vertices} != {H2.num_vertices}"
        )
    if H1.uniformity != H2.uniformity:
        raise ValidationError(f"uniformity mismatch: {H1.uniformity} != {H2.uniformity}")


def layer_union(H1: UniformHypergraph, H2: UniformHypergraph) -> UniformHypergraph:
    _require_compatible(H1, H2)
    edges = sorted(H1.edge_set() | H2.edge_set())
    return UniformHypergraph(H1.uniformity, H1.num_vertices, tuple(edges))


def layer_intersection(H1: UniformHypergraph, H2: UniformHypergraph) -> UniformHypergraph:
    _require_compatible(H1, H2)
    edges = sorted(H1.edge_set() & H2.edge_set())
    return UniformHypergraph(H1.uniformity, H1.num_vertices, tuple(edges))


def layer_difference(H1: UniformHypergraph, H2: UniformHypergraph) -> UniformHypergraph:
    _require_compatible(H1, H2)
    edges = sorted(H1.edge_set() - H2.edge_set())
    return UniformHypergraph(H1.uniformity, H1.num_vertices, tuple(edges))


def m_t(s: Iterable[int], H: UniformHypergraph) -> int:
    """Number of edges of H containing every vertex of s."""
    sub = frozenset(s)
    t = len(sub)
    if t < 1 or t > H.uniformity:
        raise ValidationError(f"subset size {t} out of range [1, {H.uniformity}]")
    for v in sub:
        if v < 0 or v >= H.num_vertices:
            raise ValidationError(f"vertex {v} out of range [0, {H.num_vertices})")
    return sum(1 for e in H.edges if sub.issubset(e))


def _subset_sums(edges: Iterable[Edge], weights: Iterable[int] | None, j: int) -> Counter[Edge]:
    """Weight sum over the edges containing each j-subset, keyed by the
    subset; weights None counts each edge once."""
    subsets = (itertools.combinations(e, j) for e in edges)
    if weights is None:
        return Counter(itertools.chain.from_iterable(subsets))
    sums: Counter[Edge] = Counter()
    for edge_subsets, w in zip(subsets, weights):
        for s in edge_subsets:
            sums[s] += w
    return sums


def _layer_sums(
    H: UniformHypergraph, weights: Sequence[int] | None, top: int
) -> tuple[int, list[Counter[Edge]]]:
    """One layer's side of _pair_sums: its weight total (its edge count when
    weights is None) and its j-subset sums for j = 1..top."""
    total = H.num_edges if weights is None else sum(weights)
    return total, [_subset_sums(H.edges, weights, j) for j in range(1, top + 1)]


def _pair_sums(layer1, layer2) -> dict[int, int]:
    """Sum of w(e1)*w(e2) over ordered cross pairs (e1 in H1, e2 in H2) by
    exact intersection size t in [0, top], from the two layers' _layer_sums;
    top is the smaller of their subset sizes. Pairs with e1 = e2 land at t = r.

    A_j = sum over j-subsets s of S1(s)*S2(s) covers the ordered pairs whose
    intersection contains s, so A_j = sum_{i>=j} C(i,j) P_i, and binomial
    inversion gives P_t = sum_{j>=t} (-1)^(j-t) C(j,t) A_j.
    """
    (total1, sums1), (total2, sums2) = layer1, layer2
    A = [sum(v * s2.get(s, 0) for s, v in s1.items()) for s1, s2 in zip(sums1, sums2)]
    top = len(A)
    out = {
        t: sum((-1) ** (j - t) * comb(j, t) * A[j - 1] for j in range(t, top + 1))
        for t in range(1, top + 1)
    }
    out[0] = total1 * total2 - sum(out.values())
    return out


def _overlap_sums(
    H1: UniformHypergraph,
    w1: Sequence[int] | None,
    H2: UniformHypergraph,
    w2: Sequence[int] | None,
) -> dict[int, int]:
    """_pair_sums of two layers, t in [0, min(r1, r2)]; weights None weigh
    every edge 1, so the sums count pairs."""
    if H1.num_vertices != H2.num_vertices:
        raise ValidationError(
            f"num_vertices mismatch: {H1.num_vertices} != {H2.num_vertices}"
        )
    top = min(H1.uniformity, H2.uniformity)
    layer1 = _layer_sums(H1, w1, top)
    layer2 = layer1 if H2 is H1 and w2 is w1 else _layer_sums(H2, w2, top)
    return _pair_sums(layer1, layer2)


def k_exact_all(H: UniformHypergraph) -> dict[int, int]:
    """Ordered pairs of distinct edges by exact intersection size, t in [0, r-1]."""
    counts = _overlap_sums(H, None, H, None)
    del counts[H.uniformity]  # the pairs e1 = e2
    return counts


def k_exact(t: int, H: UniformHypergraph) -> int:
    """Ordered pairs (e1, e2) of distinct edges with |e1 & e2| = t exactly."""
    if t < 0 or t > H.uniformity - 1:
        raise ValidationError(f"t={t} out of range [0, {H.uniformity - 1}]")
    return k_exact_all(H)[t]


def k_cross_all(H1: UniformHypergraph, H2: UniformHypergraph) -> dict[int, int]:
    """Ordered cross pairs (e1 in E1, e2 in E2) by exact intersection size.

    Keys t in [0, min(r1, r2)]. Pairs with e1 = e2 (possible only when
    r1 = r2) land at t = r and are included.
    """
    return _overlap_sums(H1, None, H2, None)


def k_cross(t: int, H1: UniformHypergraph, H2: UniformHypergraph) -> int:
    rmin = min(H1.uniformity, H2.uniformity)
    if t < 0 or t > rmin:
        raise ValidationError(f"t={t} out of range [0, {rmin}]")
    return k_cross_all(H1, H2)[t]


def weighted_pair_sums_all(WH: WeightedUniformHypergraph) -> dict[int, int]:
    """Sum of w_{e1}*w_{e2} over ordered pairs of distinct edges with
    |e1 & e2| = t exactly, keyed by t in [0, r-1]. Exact integer arithmetic."""
    sums = _overlap_sums(WH.base, WH.weights, WH.base, WH.weights)
    del sums[WH.base.uniformity]  # the pairs e1 = e2
    return sums


@dataclass(frozen=True)
class TruncationSplit:
    """Edge partition by local overlap thresholds.

    defined is False for 2-uniform input, where the threshold family is
    vacuous; in that case every edge is kept.
    """

    kept: tuple[Edge, ...]
    removed: tuple[Edge, ...]
    defined: bool


def truncation_split(H: UniformHypergraph, eps: float, c: int) -> TruncationSplit:
    """Split edges into kept/removed by the rule: keep e iff every t-subset s
    of e with 2 <= t <= r-1 satisfies m_t(s, H) <= eps * c^(r-t).
    """
    if eps <= 0:
        raise ValidationError(f"eps: must be > 0, got {eps}")
    if c < 1:
        raise ValidationError(f"c: must be >= 1, got {c}")
    r = H.uniformity
    if r == 2:
        return TruncationSplit(H.edges, (), False)
    counts = {t: _subset_sums(H.edges, None, t) for t in range(2, r)}
    kept: list[Edge] = []
    removed: list[Edge] = []
    for e in H.edges:
        ok = True
        for t in range(2, r):
            threshold = eps * c ** (r - t)
            if any(counts[t][s] > threshold for s in itertools.combinations(e, t)):
                ok = False
                break
        (kept if ok else removed).append(e)
    return TruncationSplit(tuple(kept), tuple(removed), True)


def _check_length(H_or_n: int, x: Coloring) -> None:
    if len(x.colors) != H_or_n:
        raise ValidationError(
            f"coloring length {len(x.colors)} != num_vertices {H_or_n}"
        )


def _monochromatic(edges: Iterable[Edge], colors: Sequence[int]) -> Iterator[bool]:
    """Per edge, whether all its vertices share one color."""
    for e in edges:
        a = colors[e[0]]
        yield all(colors[v] == a for v in e[1:])


def count_monochromatic(H: UniformHypergraph, x: Coloring) -> int:
    """Number of edges whose vertices all share one color under x."""
    _check_length(H.num_vertices, x)
    return sum(_monochromatic(H.edges, x.colors))


def count_monochromatic_vector(M: Multiplex, x: Coloring) -> tuple[int, ...]:
    """Per-layer monochromatic edge counts under one shared coloring."""
    _check_length(M.num_vertices, x)
    return tuple(count_monochromatic(layer, x) for layer in M.layers)


def count_weighted(WH: WeightedUniformHypergraph, x: Coloring) -> int:
    """Weight sum over monochromatic edges."""
    _check_length(WH.base.num_vertices, x)
    return sum(itertools.compress(WH.weights, _monochromatic(WH.base.edges, x.colors)))


def count_monochromatic_split(
    kept: Sequence[Edge], removed: Sequence[Edge], x: Coloring
) -> tuple[int, int]:
    """Monochromatic counts over the two parts of a truncation split."""
    return sum(_monochromatic(kept, x.colors)), sum(_monochromatic(removed, x.colors))


def connected_components(edges: Iterable[Sequence[int]]) -> list[frozenset[int]]:
    """Partition of covered vertices; edges sharing a vertex are linked."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        vs = list(e)
        for v in vs:
            parent.setdefault(v, v)
        for v in vs[1:]:
            ra, rb = find(vs[0]), find(v)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, set[int]] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in sorted(groups.values(), key=min)]


@dataclass(frozen=True)
class OrderingResult:
    """Result of order_connected_edges.

    order is a permutation of edge positions. applicable is False at the
    boundary where no admissible order exists; the attached order is then a
    plain connectivity order.
    """

    applicable: bool
    order: tuple[int, ...]


def ordering_profile(S: Sequence[Iterable[int]], order: Sequence[int]) -> tuple[int, ...]:
    """t_i = |e_{order[i]} & union of earlier edges| for each position i (t_0 = 0)."""
    edges = [frozenset(e) for e in S]
    prof: list[int] = []
    union: set[int] = set()
    for i, idx in enumerate(order):
        prof.append(len(edges[idx] & union) if i else 0)
        union |= edges[idx]
    return tuple(prof)


def ordering_is_admissible(S: Sequence[Iterable[int]], order: Sequence[int]) -> bool:
    """True iff every later edge meets the running union (t_i >= 1) and some
    position has t_i in [2, r-1]."""
    r = len(frozenset(S[0]))
    prof = ordering_profile(S, order)
    if any(t < 1 for t in prof[1:]):
        return False
    return any(2 <= t <= r - 1 for t in prof[1:])


def _extend_order(prefix: list[int], edges: list[frozenset[int]]) -> list[int]:
    order = list(prefix)
    used = set(prefix)
    union: set[int] = set()
    for i in prefix:
        union |= edges[i]
    while len(order) < len(edges):
        for i, e in enumerate(edges):
            if i not in used and e & union:
                order.append(i)
                used.add(i)
                union |= e
                break
        else:
            raise ValidationError("edges do not form one connected union")
    return order


def order_connected_edges(S: Sequence[Iterable[int]]) -> OrderingResult:
    """Order a connected tuple of r-uniform edges (r >= 3, repeats allowed)
    so that every edge meets the union of its predecessors and at least one
    position overlaps that union in between 2 and r-1 vertices.

    Such an order exists exactly when |union| < b*r - b + 1 with b the number
    of distinct edges; at the boundary |union| = b*r - b + 1 every order has
    all overlaps in {1, r} and the result is flagged not applicable.
    """
    edges = [frozenset(e) for e in S]
    if not edges:
        raise ValidationError("S: at least one edge required")
    r = len(edges[0])
    if r < 3:
        raise ValidationError(f"edge size must be >= 3, got {r}")
    for i, e in enumerate(edges):
        if len(e) != r:
            raise ValidationError(f"S[{i}]: edge size {len(e)} != {r}")
    k = len(edges)
    sigma = _extend_order([0], edges)  # raises if disconnected
    union_size = len(set().union(*edges))
    b = len(set(edges))
    bound = b * r - b + 1
    if union_size > bound:
        raise AssertionError("connected union exceeds b*r - b + 1")
    if union_size == bound:
        return OrderingResult(False, tuple(sigma))

    prof = ordering_profile(S, sigma)
    if any(2 <= prof[i] <= r - 1 for i in range(1, k)):
        return OrderingResult(True, tuple(sigma))

    # All overlaps are 1 or r. Were every full-overlap edge a repeat, the
    # union would hit the boundary, so a novel fully-contained edge exists.
    seen: set[frozenset[int]] = set()
    i0 = None
    for i, idx in enumerate(sigma):
        if i > 0 and prof[i] == r and edges[idx] not in seen:
            i0 = i
            break
        seen.add(edges[idx])
    if i0 is None:
        raise AssertionError("no novel fully-contained edge below the boundary")
    e0 = edges[sigma[i0]]
    i1 = next(i for i in range(i0) if edges[sigma[i]] & e0)
    if len(edges[sigma[i1]] & e0) >= 2:
        order = _extend_order([sigma[i0], sigma[i1]], edges)
    else:
        (s,) = edges[sigma[i1]] & e0
        rest = e0 - {s}
        i2 = next(i for i in range(i1 + 1, i0) if edges[sigma[i]] & rest)
        if len(edges[sigma[i2]] & e0) >= 2:
            order = _extend_order([sigma[i0], sigma[i2]], edges)
        else:
            # Insert e0 right after position i2: it then overlaps exactly
            # {s} plus the one rest-vertex supplied by edges[sigma[i2]].
            order = sigma[: i2 + 1] + [sigma[i0]] + [x for x in sigma[i2 + 1 :] if x != sigma[i0]]
    if not ordering_is_admissible(S, order):
        raise AssertionError("constructed order failed admissibility recheck")
    return OrderingResult(True, tuple(order))


def order_connected_edges_bruteforce(S: Sequence[Iterable[int]]) -> OrderingResult:
    """Exhaustive k! search; test oracle for order_connected_edges (k <= 8)."""
    edges = [frozenset(e) for e in S]
    k = len(edges)
    if k > 8:
        raise ResourceBoundError(f"brute-force order search limited to k <= 8, got {k}")
    _extend_order([0], edges)  # connectivity validation
    for perm in itertools.permutations(range(k)):
        if ordering_is_admissible(S, perm):
            return OrderingResult(True, perm)
    return OrderingResult(False, tuple(_extend_order([0], edges)))
