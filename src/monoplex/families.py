"""Builders for the hypergraph families under study.

Clique and subgraph-copy hypergraphs of a host graph, arithmetic-progression
hypergraphs, weighted vertex-subset hypergraphs, two hand-crafted multiplex
families with prescribed overlap structure, and a correlated two-layer
Erdos-Renyi sampler.

A graph is a 2-uniform layer (core.UniformHypergraph), host and pattern
alike; the functions that read a graph refuse any other uniformity. The
graph, copy, progression, appendix and Erdos-Renyi builders make their
layers from numpy edge arrays, which the layers keep; subgraph copies come
from a level-wise join over the host's sorted adjacency lists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

import numpy as np

from monoplex.core import (
    Multiplex,
    ResourceBoundError,
    UniformHypergraph,
    ValidationError,
    WeightedUniformHypergraph,
    _check_int,
    _is_int,
    _row_runs,
    new_hypergraph,
    weighted_layer,
)

PATTERN_MAX_VERTICES = 8
# Memory bound of ap_hypergraph: (first, second) index candidates per block.
AP_PAIR_BUDGET = 1 << 18
# r-subsets, or expected sparse pair draws, sample_correlated_er may hold.
ER_SUBSET_BUDGET = 2_000_000


@dataclass(frozen=True)
class CorrelatedErParams:
    """Two-layer correlated Erdos-Renyi model: each r-subset falls in one of
    four cells (both layers, layer 1 only, layer 2 only, neither) with
    probabilities (p12, p - p12, p - p12, 1 - 2p + p12), p12 = rho + p^2."""

    n: int
    r: int
    p: float
    rho: float
    p12: float


@dataclass(frozen=True)
class CopiesResult:
    """copies_hypergraph output: the hypergraph on E(G) plus the label of each
    re-indexed vertex (position i holds the G-edge that vertex i stands for)."""

    hypergraph: UniformHypergraph
    edge_labels: tuple[tuple[int, int], ...]


def new_simple_graph(n: int, edges: Iterable[Sequence[int]]) -> UniformHypergraph:
    """The graph on [0, n) with the given edges."""
    return new_hypergraph(2, n, edges)


def new_pattern_graph(n: int, edges: Iterable[Sequence[int]]) -> UniformHypergraph:
    """A subgraph pattern: a graph on at most PATTERN_MAX_VERTICES vertices."""
    if _is_int(n) and n > PATTERN_MAX_VERTICES:
        raise ValidationError(
            f"num_vertices: pattern graph has {n} vertices, policy bound is {PATTERN_MAX_VERTICES}"
        )
    return new_simple_graph(n, edges)


def complete_graph(n: int) -> UniformHypergraph:
    _check_int(n, 0, "n")
    return UniformHypergraph(2, n, _pairs(np.arange(n)))


def path_graph(n: int) -> UniformHypergraph:
    _check_int(n, 0, "n")
    return UniformHypergraph(2, n, np.column_stack((np.arange(n - 1), np.arange(1, n))))


def cycle_graph(n: int) -> UniformHypergraph:
    _check_int(n, 3, "n")
    return UniformHypergraph(2, n, np.insert(path_graph(n).edge_array, 1, (0, n - 1), axis=0))


def sample_er_graph(n: int, p: float, rng: np.random.Generator) -> UniformHypergraph:
    """G(n, p): each pair kept independently with probability p, one draw per
    pair in lexicographic order."""
    _check_int(n, 0, "n")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p: must be in [0, 1], got {p}")
    return UniformHypergraph(2, n, _pairs(np.arange(n))[rng.random(comb(n, 2)) < p])


def _check_graph(G: UniformHypergraph, where: str) -> None:
    """G is read as a graph: a 2-uniform layer."""
    if G.uniformity != 2:
        raise ValidationError(f"{where}: a graph must be 2-uniform, got uniformity {G.uniformity}")


def _adjacency(G: UniformHypergraph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(G.num_vertices)]
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def clique_hypergraph(G: UniformHypergraph, r: int) -> UniformHypergraph:
    """r-uniform hypergraph on V(G) whose edges are the r-cliques of G."""
    _check_graph(G, "G")
    _check_int(r, 2, "r")
    adj = _adjacency(G)
    out: list[tuple[int, ...]] = []

    def extend(clique: list[int], cands: set[int]) -> None:
        if len(clique) == r:
            out.append(tuple(clique))
            return
        for v in sorted(cands):
            extend(clique + [v], {u for u in cands if u > v} & adj[v])

    for v in range(G.num_vertices):
        extend([v], {u for u in adj[v] if u > v})
    return UniformHypergraph(r, G.num_vertices, tuple(out))


def _pairs(vertices: np.ndarray) -> np.ndarray:
    """All 2-subsets of an increasing vertex array, in lexicographic order."""
    m = len(vertices)
    counts = np.arange(m - 1, -1, -1)  # the pairs whose first vertex is the i-th
    i = np.repeat(np.arange(m), counts)
    j = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts - np.arange(1, m + 1), counts)
    return np.column_stack((vertices[i], vertices[j]))


# Candidate cells one step of the copy-map join may hold at once (int64 each).
_JOIN_CELLS = 1 << 20


def _copy_maps(G: UniformHypergraph, F: UniformHypergraph) -> np.ndarray:
    """All injective maps V(F) -> V(G) sending F-edges to G-edges, one per
    row; column u holds the image of pattern vertex u. Both are graphs, and
    F has at most PATTERN_MAX_VERTICES vertices, which bounds the join depth.

    Pattern vertices are mapped one level at a time. Each level extends every
    partial map by the neighbours of one mapped pattern neighbour's image
    (by every vertex when there is none), keeps those adjacent to the other
    mapped neighbours' images, and drops the vertices already used. The rows
    come in the order of the depth-first search that tries candidates in
    increasing order (its reference version is in tests/oracles.py).
    """
    _check_graph(F, "pattern")
    _check_graph(G, "host")
    k, n = F.num_vertices, G.num_vertices
    if k > PATTERN_MAX_VERTICES:
        raise ValidationError(
            f"pattern graph has {k} vertices, policy bound is {PATTERN_MAX_VERTICES}"
        )
    adj_f = _adjacency(F)
    # Map high-degree pattern vertices first, preferring those with already
    # mapped neighbors, so adjacency constraints prune early.
    order: list[int] = []
    remaining = set(range(k))
    while remaining:
        best = max(
            remaining,
            key=lambda u: (len(adj_f[u] & set(order)), len(adj_f[u]), -u),
        )
        order.append(best)
        remaining.remove(best)
    # G as sorted arcs: the neighbours of v are nbrs[start[v]:start[v + 1]].
    arcs = G.edge_array.astype(np.int64)
    arcs = np.concatenate((arcs, arcs[:, ::-1]))
    arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
    nbrs, arc_keys = arcs[:, 1], arcs[:, 0] * n + arcs[:, 1]
    start = np.searchsorted(arcs[:, 0], np.arange(n + 1))
    degree = np.diff(start)

    def extend(maps: np.ndarray, anchors: list[int]) -> np.ndarray:
        if anchors:
            first = maps[:, anchors[0]]
            counts, base = degree[first], start[first]
        else:
            counts, base = np.full(len(maps), n), np.zeros(len(maps), dtype=np.int64)
        row = np.repeat(np.arange(len(maps)), counts)
        offset = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
        cand = nbrs[base[row] + offset] if anchors else offset
        keep = np.ones(len(row), dtype=bool)
        for a in anchors[1:]:
            keep &= np.isin(maps[row, a] * n + cand, arc_keys)
        for j in range(maps.shape[1]):
            keep &= maps[row, j] != cand
        return np.column_stack((maps[row[keep]], cand[keep]))

    maps = np.zeros((1, 0), dtype=np.int64)
    for i, u in enumerate(order):
        anchors = [order.index(w) for w in adj_f[u] if order.index(w) < i]
        width = int(degree.max(initial=0)) if anchors else n
        step = max(1, _JOIN_CELLS // max(1, width))
        maps = np.concatenate(
            [extend(maps[lo : lo + step], anchors) for lo in range(0, max(1, len(maps)), step)]
        )
    return maps[:, np.argsort(order)]


def copies_hypergraph(G: UniformHypergraph, F: UniformHypergraph) -> CopiesResult:
    """Hypergraph on the edge set of G whose hyperedges are the edge sets of
    copies of F in G, deduplicated as sets (uniformity |E(F)|).

    Vertex i of the result stands for edge_labels[i] in G.
    """
    if F.num_edges < 1:
        raise ValidationError("pattern must have at least one edge")
    maps, n = _copy_maps(G, F), G.num_vertices
    g_edges, f_edges = (X.edge_array.astype(np.int64) for X in (G, F))
    ends = maps[:, f_edges[:, 0]], maps[:, f_edges[:, 1]]
    edge_ids = np.searchsorted(g_edges @ (n, 1), np.minimum(*ends) * n + np.maximum(*ends))
    copies = np.sort(edge_ids, axis=1)
    order, starts = _row_runs(copies)
    return CopiesResult(UniformHypergraph(F.num_edges, G.num_edges, copies[order[starts]]), G.edges)


def ap_hypergraph(A: Sequence[int], r: int) -> UniformHypergraph:
    """Hypergraph on the re-indexed elements of A whose edges are the r-term
    arithmetic progressions inside A (common difference d >= 1, unordered)."""
    _check_int(r, 3, "r")
    elems = list(A)
    for i, a in enumerate(elems):
        _check_int(a, 1, f"A[{i}]")
    if any(b <= a for a, b in zip(elems, elems[1:])):
        raise ValidationError("A: must be strictly increasing")
    n = len(elems)
    if n and elems[-1] >= 1 << 63:
        raise ValidationError("A: elements must be < 2^63")
    a = np.array(elems, dtype=np.int64)
    # The second index j of a progression starting at i: a[i] < a[j] and
    # a[i] + (r-1)(a[j] - a[i]) <= max A, so j runs from i+1 up to stop[i].
    stop = np.searchsorted(a, a + (a[-1:] - a) // (r - 1), side="right")
    # Blocks of first indices, each with at most AP_PAIR_BUDGET (i, j)
    # candidates, listed by i, then j; a candidate fixes every later term,
    # so the rows come out in lexicographic order.
    step = max(1, AP_PAIR_BUDGET // max(n, 1))
    blocks = [np.empty((0, r), dtype=np.int64)]
    for lo in range(0, n - r + 1, step):
        first = np.arange(lo, min(lo + step, n - r + 1))
        count = stop[first] - first - 1
        i = np.repeat(first, count)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
        terms, base, d = [i, j], a[i], a[j] - a[i]
        for t in range(2, r):
            term = base + t * d
            k = np.searchsorted(a, term)
            hit = a[k] == term
            terms, base, d = [x[hit] for x in terms] + [k[hit]], base[hit], d[hit]
        blocks.append(np.column_stack(terms))
    return UniformHypergraph(r, n, np.concatenate(blocks))


def ap_count_closed_form(n: int, r: int) -> int:
    """Number of r-term APs in [1, n]: sum over d >= 1 of (n - (r-1)d)."""
    _check_int(n, 0, "n")
    _check_int(r, 3, "r")
    dmax = (n - 1) // (r - 1)
    return dmax * n - (r - 1) * dmax * (dmax + 1) // 2


def automorphism_count(F: UniformHypergraph) -> int:
    """Order of the automorphism group: the copy maps of F into itself."""
    return len(_copy_maps(F, F))


def vertex_copy_weighted_hypergraph(
    G: UniformHypergraph, F: UniformHypergraph, weight_bound: int | None = None
) -> WeightedUniformHypergraph:
    """|V(F)|-uniform weighted hypergraph on V(G): hyperedges are the
    |V(F)|-subsets s spanning at least one copy of F, with weight the number
    of copies of F in the induced subgraph G[s]."""
    k = F.num_vertices
    if k < 2:
        raise ValidationError(f"pattern must have >= 2 vertices, got {k}")
    aut = automorphism_count(F)
    images = np.sort(_copy_maps(G, F), axis=1)
    order, starts = _row_runs(images)
    maps = np.diff(starts, append=len(images))
    if np.any(maps % aut):
        raise AssertionError(f"map counts not divisible by |Aut| = {aut}")
    base = UniformHypergraph(k, G.num_vertices, images[order[starts]])
    return weighted_layer(base, (maps // aut).tolist(), weight_bound)


def appendix_star_hypergraph(n: int) -> UniformHypergraph:
    """3-uniform hypergraph on n vertices whose edges are all triples through
    vertex 0; C(n-1, 2) edges."""
    _check_int(n, 3, "n")
    pairs = _pairs(np.arange(1, n))
    return UniformHypergraph(3, n, np.column_stack((np.zeros(len(pairs), dtype=np.int64), pairs)))


def appendix_three_multiplex(n: int, lam: float, variant: str) -> Multiplex:
    """Three complete-graph layers on blocks of size n in one shared universe.

    nested: all three blocks share one common sub-block of size floor(lam*n);
    universe [0, 3n - 2*overlap). Block i = [0, overlap) plus the i-th private
    range, consecutive after the common block.

    pairwise: each pair of blocks shares its own sub-block of size
    floor(lam*n), the triple intersection is empty; universe
    [0, 3n - 3*overlap) laid out as the three shared sub-blocks [0, overlap),
    [overlap, 2*overlap), [2*overlap, 3*overlap) (shared by blocks 1&2, 1&3,
    2&3) followed by three private ranges.
    """
    if not 0.0 < lam < 0.25:
        raise ValidationError(f"lambda: must be in (0, 1/4), got {lam}")
    _check_int(n, 2, "n")
    if variant not in ("nested", "pairwise"):
        raise ValidationError(f"variant: must be 'nested' or 'pairwise', got {variant!r}")
    m = math.floor(lam * n)
    if variant == "nested":
        universe = 3 * n - 2 * m
        blocks = [np.r_[0:m, m + i * (n - m) : m + (i + 1) * (n - m)] for i in range(3)]
    else:
        universe = 3 * n - 3 * m
        b12, b13, b23 = (np.arange(i * m, (i + 1) * m) for i in range(3))
        priv = n - 2 * m
        p1, p2, p3 = (np.arange(3 * m + i * priv, 3 * m + (i + 1) * priv) for i in range(3))
        blocks = [np.concatenate(parts) for parts in ((b12, b13, p1), (b12, b23, p2), (b13, b23, p3))]
    return Multiplex(universe, tuple(UniformHypergraph(2, universe, _pairs(b)) for b in blocks))


def new_correlated_er_params(n: int, r: int, p: float, rho: float) -> CorrelatedErParams:
    _check_int(r, 2, "r")
    _check_int(n, r, "n")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p: must be in (0, 1), got {p}")
    if not 0.0 <= rho < p * (1.0 - p):
        raise ValidationError(f"rho: must be in [0, p(1-p)) = [0, {p * (1 - p)}), got {rho}")
    p12 = rho + p * p
    if p12 > p or 1.0 - 2.0 * p + p12 < 0.0:
        raise ValidationError(f"cell probabilities invalid for p={p}, rho={rho}")
    return CorrelatedErParams(n, r, p, rho, p12)


def _unrank_pairs(positions: np.ndarray, n: int) -> np.ndarray:
    """The pairs at the given lexicographic indices among the 2-subsets of
    [0, n), as rows (i, j) with i < j of a (k, 2) int64 array."""
    i_range = np.arange(n, dtype=np.int64)
    row_start = i_range * (n - 1) - i_range * (i_range - 1) // 2
    i = np.searchsorted(row_start, positions, side="right") - 1
    j = positions - row_start[i] + i + 1
    return np.column_stack((i, j))


def _sparse_positions(M: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of an iid Bernoulli(q) process over M slots via geometric gaps."""
    if q <= 0.0:
        return np.empty(0, dtype=np.int64)
    chunks = []
    pos = -1
    batch = max(1024, int(M * q * 1.2) + 16)
    while pos < M:
        gaps = rng.geometric(q, size=batch).astype(np.int64)
        idx = pos + np.cumsum(gaps)
        chunks.append(idx)
        pos = int(idx[-1])
    all_idx = np.concatenate(chunks)
    return all_idx[all_idx < M]


def sample_correlated_er(params: CorrelatedErParams, rng: np.random.Generator) -> Multiplex:
    """Draw one two-layer multiplex: independently for each r-subset of [n],
    place it in both layers w.p. p12, layer 1 only w.p. p - p12, layer 2 only
    w.p. p - p12, neither otherwise.

    Up to ER_SUBSET_BUDGET subsets are enumerated in full. Past it, pairs
    (r = 2) are drawn sparsely, skipping between present pairs with geometric
    jumps and assigning cells only to those, which yields the same law;
    larger r-subset counts, and pair draws expected to hold more than
    ER_SUBSET_BUDGET pairs (C(n, 2) * (2p - p12)), are refused before any draw.
    """
    n, r, p, p12 = params.n, params.r, params.p, params.p12
    M = comb(n, r)
    if M <= ER_SUBSET_BUDGET:
        u = rng.random(M)
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), r))
        subsets = np.fromiter(flat, dtype=np.int64, count=M * r).reshape(M, r)
        e1 = subsets[u < p]
        e2 = subsets[(u < p12) | ((u >= p) & (u < 2.0 * p - p12))]
    elif r == 2:
        q_any = 2.0 * p - p12
        if M * q_any > ER_SUBSET_BUDGET:
            raise ResourceBoundError(
                f"C({n},2) * (2p - p12) = {M * q_any:.4g} expected pairs exceed bound {ER_SUBSET_BUDGET}"
            )
        positions = _sparse_positions(M, q_any, rng)
        v = rng.random(len(positions))
        pairs = _unrank_pairs(positions, n)
        e1 = pairs[v < p / q_any]
        e2 = pairs[(v < p12 / q_any) | (v >= p / q_any)]
    else:
        raise ResourceBoundError(f"C({n},{r}) = {M} exceeds enumeration bound {ER_SUBSET_BUDGET}")
    return Multiplex(n, (UniformHypergraph(r, n, e1), UniformHypergraph(r, n, e2)))
