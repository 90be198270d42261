"""Core types and exact counting for uniform hypergraphs and multiplexes.

Vertices are dense 0-based integers. Hyperedges are sorted vertex tuples and
edge sets are kept in lexicographic order, held as an int32 array (see
UniformHypergraph), so equal hypergraphs compare equal and every
iteration is deterministic. All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sized
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Edge = tuple[int, ...]


class ValidationError(ValueError):
    """Input violates a documented precondition or file-format rule."""


class ResourceBoundError(RuntimeError):
    """Requested computation exceeds a configured size bound."""


def _is_int(value) -> bool:
    """An integer field of a spec or config: an int, and not a JSON boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_c(c) -> None:
    """c colors: an integer >= 1."""
    if not _is_int(c) or c < 1:
        raise ValidationError(f"c: must be an integer >= 1, got {c!r}")


def _prefixed(where: str, build: Callable, *args):
    """build(*args), its ValidationError led by where and a "." as a file's
    own field checks lead theirs; args are built first, so no message is led twice."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise ValidationError(f"{where}.{exc}") from None


# Vertices are held as int32.
MAX_VERTICES = 1 << 31


class UniformHypergraph:
    """r-uniform hypergraph on vertices [0, num_vertices).

    edges is a tuple of sorted vertex tuples, or an (E, r) integer array of
    the same rows; either way in lexicographic order. The hypergraph holds
    them as edge_array, a read-only int32 array, and builds the tuples of
    edges on first use when it was given an array. Equality and hashing
    compare contents, so both forms of one edge set are equal.
    """

    def __init__(
        self, uniformity: int, num_vertices: int, edges: tuple[Edge, ...] | np.ndarray
    ) -> None:
        tuples = None if isinstance(edges, np.ndarray) else tuple(edges)
        array = np.array(edges if tuples is None else tuples, dtype=np.int32).reshape(-1, uniformity)
        array.flags.writeable = False
        fields = {"uniformity": uniformity, "num_vertices": num_vertices, "_edges": tuples, "edge_array": array}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"UniformHypergraph is immutable: cannot set {name!r}")

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            object.__setattr__(self, "_edges", tuple(map(tuple, self.edge_array.tolist())))
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniformHypergraph):
            return NotImplemented
        return (
            (self.uniformity, self.num_vertices) == (other.uniformity, other.num_vertices)
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __hash__(self) -> int:
        return hash((self.uniformity, self.num_vertices, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return (
            f"UniformHypergraph(uniformity={self.uniformity}, "
            f"num_vertices={self.num_vertices}, num_edges={self.num_edges})"
        )


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


def new_hypergraph(
    r: int, n: int, edges: Iterable[Sequence[int]] | np.ndarray
) -> UniformHypergraph:
    """Validate, canonicalize and deduplicate-check an edge list, or an
    (E, r) integer array of edges.

    Rejects edges of wrong size, repeated vertices within an edge, vertices
    outside [0, n), and duplicate edges (edge sets are simple).
    """
    return _canonical(r, n, edges)[0]


def _check_sizes(r, n) -> None:
    """uniformity r >= 2 and num_vertices n in [r, MAX_VERTICES], as integers."""
    if not isinstance(r, int) or r < 2:
        raise ValidationError(f"uniformity: must be an integer >= 2, got {r!r}")
    if not isinstance(n, int) or n < r:
        raise ValidationError(f"num_vertices: must be an integer >= uniformity {r}, got {n!r}")
    if n > MAX_VERTICES:
        raise ValidationError(f"num_vertices: must be at most {MAX_VERTICES} (int32 vertices), got {n}")


def _canonical(
    r: int, n: int, edges: Iterable[Sequence[int]] | np.ndarray
) -> tuple[UniformHypergraph, np.ndarray]:
    """new_hypergraph's layer, and per edge of it the index of its input edge.

    An (E, r) integer array goes to _checked_rows as it is. An edge list
    first gets an exact-type scan; its edges before the first one with a
    wrong size or a vertex that is not an int go to _checked_rows as an
    array, and that edge's own fault is named only when none of them has
    one. So the error names the first offending edges[i] (or edges[i][j])
    in input order, with the checks in that order within an edge."""
    _check_sizes(r, n)
    if isinstance(edges, np.ndarray):
        if edges.ndim != 2 or edges.shape[1] != r or not np.issubdtype(edges.dtype, np.integer):
            raise ValidationError(f"edges: expected an (E, {r}) integer array, got {edges.dtype} of shape {edges.shape}")
        return _checked_rows(r, n, edges)
    rows = _listed(edges, "edges")
    try:
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    except TypeError:  # an edge that is not a list, such as a number
        i = next(i for i, row in enumerate(rows) if not isinstance(row, Sized))
        _canonical(r, n, rows[:i])  # a fault in an earlier edge is named first
        raise ValidationError(f"edges[{i}]: expected a list of vertices, got {type(rows[i]).__name__}") from None
    flat = list(itertools.chain.from_iterable(rows))
    # k is the index in flat of the first bool or non-integer.
    bad_types = {t for t in set(map(type, flat)) if t is bool or not issubclass(t, int)}
    marks = map(bad_types.__contains__, map(type, flat))
    k = next(itertools.compress(itertools.count(), marks), len(flat)) if bad_types else len(flat)
    stop = min(np.searchsorted(np.cumsum(lengths), k, side="right"), np.argmax(np.append(lengths != r, True)))
    # Edges before stop are r ints each; ints past int64 are kept exact.
    try:
        values = np.array(flat[: stop * r], dtype=np.int64)
    except OverflowError:
        values = np.array(flat[: stop * r], dtype=object)
    layer, order = _checked_rows(r, n, values.reshape(stop, r))
    if stop < len(rows):
        for j, v in enumerate(rows[stop]):
            if not _is_int(v):
                raise ValidationError(f"edges[{stop}][{j}]: vertex must be an integer, got {v!r}")
            if not 0 <= v < n:
                raise ValidationError(f"edges[{stop}][{j}]: vertex {v} out of range [0, {n})")
        raise ValidationError(f"edges[{stop}]: expected {r} vertices, got {lengths[stop]}")
    return layer, order


def _checked_rows(r: int, n: int, rows: np.ndarray) -> tuple[UniformHypergraph, np.ndarray]:
    """_canonical for an (E, r) array of ints: a range check, a row sort, a
    repeated-vertex check and a _row_runs duplicate check. Within a row the
    checks run in that order; the error names the first offending row."""
    bad, j = divmod(_first(((rows < 0) | (rows >= n)).ravel()), r)
    block = np.sort(rows[:bad].astype(np.int32), axis=1)
    order, starts = _row_runs(block)
    repeated = _first((block[:, 1:] == block[:, :-1]).ravel()) // (r - 1)
    duplicate = np.delete(order, starts).min(initial=bad)  # a run's later rows
    if repeated < min(bad, duplicate):
        raise ValidationError(f"edges[{repeated}]: repeated vertex in {rows[repeated].tolist()}")
    if duplicate < bad:
        raise ValidationError(f"edges[{duplicate}]: duplicate edge {block[duplicate].tolist()}")
    if bad < len(rows):
        raise ValidationError(f"edges[{bad}][{j}]: vertex {rows[bad, j]} out of range [0, {n})")
    return UniformHypergraph(r, n, block[order]), order


def _first(marks: np.ndarray) -> int:
    """The index of the first True in a 1-d bool array, or its length."""
    return int(marks.argmax()) if marks.any() else len(marks)


def _listed(values, where: str) -> list | tuple | np.ndarray:
    """values as a list (a list, tuple or array is kept as it is); a value
    that is not iterable raises ValidationError naming where."""
    if isinstance(values, (list, tuple, np.ndarray)):
        return values
    if not isinstance(values, Iterable):
        raise ValidationError(f"{where}: expected a list, got {type(values).__name__}")
    return list(values)


def _row_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic order of the rows of a 2-d array, stable so that equal
    rows keep their input order, and the start in that order of each run of
    equal rows; a run ends where the next begins."""
    order = np.lexsort(rows.T[::-1])
    first = np.zeros(len(rows), dtype=bool)
    first[:1] = True
    for column in rows.T:  # column by column: a gather of whole rows is slower
        ranked = column[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    return order, np.flatnonzero(first)


def new_multiplex(layers: Iterable[UniformHypergraph]) -> Multiplex:
    layers = tuple(layers)
    if not layers:
        raise ValidationError("layers: at least one layer required")
    for i, layer in enumerate(layers):
        if not isinstance(layer, UniformHypergraph):
            raise ValidationError(f"layers[{i}]: expected a UniformHypergraph, got {type(layer).__name__}")
        if layer.num_vertices != layers[0].num_vertices:
            raise ValidationError(
                f"layers[{i}]: num_vertices {layer.num_vertices} != shared {layers[0].num_vertices}"
            )
    return Multiplex(layers[0].num_vertices, layers)


def new_weighted_hypergraph(
    r: int,
    n: int,
    edges: Iterable[Sequence[int]] | np.ndarray,
    weights: Iterable[int],
    weight_bound: int | None = None,
) -> WeightedUniformHypergraph:
    """Pair each input edge (a list, or a row of an (E, r) integer array)
    with its weight, then canonicalize jointly."""
    _check_sizes(r, n)
    edges = _listed(edges, "edges")
    weights = _listed(weights, "weights")
    if len(weights) != len(edges):
        raise ValidationError(
            f"weights: expected {len(edges)} entries to match edges, got {len(weights)}"
        )
    base, order = _canonical(r, n, edges)
    return weighted_layer(base, weights, weight_bound, order)


def weighted_layer(
    base: UniformHypergraph, weights: Sequence[int], weight_bound: int | None = None, order=None
) -> WeightedUniformHypergraph:
    """Pair edge j of base.edges with weights[order[j]], or with weights[j]
    when order is None; the weights are integers in [1, weight_bound], and
    weight_bound None takes the largest weight. Messages index weights as given."""
    weights = tuple(weights)
    for i, w in enumerate(weights):
        if not _is_int(w) or w < 1:
            raise ValidationError(f"weights[{i}]: weight must be an integer >= 1, got {w!r}")
    if weight_bound is not None and (not _is_int(weight_bound) or weight_bound < 1):
        raise ValidationError(f"weight_bound: must be an integer >= 1, got {weight_bound!r}")
    bound = max(weights, default=1) if weight_bound is None else weight_bound
    for i, w in enumerate(weights):
        if w > bound:
            raise ValidationError(f"weights[{i}]: weight {w} exceeds bound {bound}")
    aligned = weights if order is None else tuple(weights[i] for i in order.tolist())
    return WeightedUniformHypergraph(base, aligned, bound)


def new_coloring(colors: Sequence[int], c: int) -> Coloring:
    _check_c(c)
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


def _subset_sums(
    edges: np.ndarray, weights: np.ndarray | None, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct j-subsets of the rows of edges, as rows in lexicographic
    order, and per subset the weight sum over the edges that contain it;
    weights None counts each edge once."""
    picks = list(itertools.combinations(range(edges.shape[1]), j))
    subsets = edges[:, picks].reshape(-1, j)
    order, starts = _row_runs(subsets)
    if weights is None:
        sums = np.diff(starts, append=len(subsets))
    else:
        sums = np.add.reduceat(np.repeat(weights, len(picks))[order], starts)
    return subsets[order[starts]], sums


def _lookup(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Per row of queries, the index of the equal row of keys (whose rows are
    distinct), or -1 where there is none."""
    both = np.concatenate([keys, queries])
    order, starts = _row_runs(both)
    head = order[starts]  # a run's key row comes first, the sort being stable
    at = np.empty(len(both), dtype=np.int64)
    at[order] = np.repeat(np.where(head < len(keys), head, -1), np.diff(starts, append=len(both)))
    return at[len(keys) :]


def _layer_sums(
    H: UniformHypergraph, weights: Sequence[int] | None, top: int
) -> tuple[int, list[tuple[np.ndarray, np.ndarray]]]:
    """One layer's side of _pair_sums: its weight total (its edge count when
    weights is None) and its _subset_sums for j = 1..top. Weights are summed
    in int64 when their total fits, else as Python ints."""
    total = H.num_edges if weights is None else sum(weights)
    if weights is not None:
        weights = np.array(weights, dtype=np.int64 if total < 2**63 else object)
    return total, [_subset_sums(H.edge_array, weights, j) for j in range(1, top + 1)]


def _pair_sums(layer1, layer2) -> dict[int, int]:
    """Sum of w(e1)*w(e2) over ordered cross pairs (e1 in H1, e2 in H2) by
    exact intersection size t in [0, top], from the two layers' _layer_sums;
    top is the smaller of their subset sizes. Pairs with e1 = e2 land at t = r.

    A_j = sum over j-subsets s of S1(s)*S2(s) covers the ordered pairs whose
    intersection contains s, so A_j = sum_{i>=j} C(i,j) P_i, and binomial
    inversion gives P_t = sum_{j>=t} (-1)^(j-t) C(j,t) A_j. Two edges share
    at most C(top, j) j-subsets, so A_j <= C(top, j)*total1*total2; below
    2^63 it is an int64 dot product, else a sum of Python int products.
    """
    (total1, sums1), (total2, sums2) = layer1, layer2
    top = min(len(sums1), len(sums2))
    A = []
    for j, ((rows1, s1), (rows2, s2)) in enumerate(zip(sums1, sums2), start=1):
        at = _lookup(rows2, rows1)
        hit = at >= 0
        a, b = s1[hit], s2[at[hit]]
        if comb(top, j) * total1 * total2 < 2**63:
            A.append(int(a @ b))
        else:
            A.append(sum(map(operator.mul, a.tolist(), b.tolist())))
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
    _check_c(c)
    r = H.uniformity
    if r == 2:
        return TruncationSplit(H.edges, (), False)
    edges = H.edge_array
    heavy = np.zeros(H.num_edges, dtype=bool)
    for t in range(2, r):
        rows, counts = _subset_sums(edges, None, t)
        picks = list(itertools.combinations(range(r), t))
        at = _lookup(rows, edges[:, picks].reshape(-1, t))
        heavy |= (counts[at] > eps * c ** (r - t)).reshape(-1, len(picks)).any(axis=1)
    kept = tuple(itertools.compress(H.edges, ~heavy))
    return TruncationSplit(kept, tuple(itertools.compress(H.edges, heavy)), True)


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
