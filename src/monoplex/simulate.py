"""Seeded Monte Carlo over colorings and the exact law over color partitions.

Replicates are drawn in fixed-size blocks of 4096; block b draws its whole
color matrix with one call on a Philox substream derived from (seed, b).
Each block is counted in slices of CHUNK = 512 rows, one after the other on
the calling thread, and its row counts are merged in block order. Counters
are pure functions of a slice's rows, so the law depends only on
(c, replicates, seed), never on the slice size. Every
backend consumes the block's color matrix identically, so backend choice
never changes results either.

One listing gives the monochromatic r-subsets of every r >= 2: each row's
packed keys color*n + v are sorted once (unique keys, so this is the stable
argsort's permutation) and walked by span; a position whose s predecessors
share its color is a subset's last vertex, the position s back its first
and any r - 2 between its middle. The AP kernel reads the pairs at span
r - 1 or more as a progression's first and last terms; the pair-class
backend packs each r-subset into a base-n key and tests it against the
layer's sorted edge keys. One slice may hold PAIR_BUDGET * CHUNK //
BLOCK_SIZE pairs, and as many r-subsets, so whether a run is refused
depends on its inputs alone. Auto sends a layer of at
least 500 edges to pair-class when the expected monochromatic r-subsets of
a row, C(n, r) / c^(r-1), are below an eighth of its edges.
Every backend sums weighted totals exactly in int64; a layer whose weight
sum does not fit in int64 is refused.

The exact law runs through the same per-layer counters and the same
slicing. Colors are exchangeable, so the counts depend only on
the partition of the vertices into color classes, and a partition with k
blocks stands for (c)_k colorings. Partitions into at most c blocks are
enumerated as restricted growth strings in chunks of at most BLOCK_SIZE
rows, and each chunk is counted like a block of colorings.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterator, Sequence

import numpy as np

from monoplex.core import (
    Coloring,
    Multiplex,
    ResourceBoundError,
    UniformHypergraph,
    ValidationError,
    WeightedUniformHypergraph,
    _check_c,
    _check_int,
    _is_int,
    _row_runs,
)
from monoplex.families import CorrelatedErParams, ap_count_closed_form
from monoplex.laws import DiscreteLaw, law_from_pmf

BLOCK_SIZE = 4096

# Rows per slice: small enough that a slice's sort and gap walk stay in
# cache.
CHUNK = BLOCK_SIZE // 8

# Same-color pairs the slices of one block may hold together; one slice may
# hold PAIR_BUDGET * CHUNK // BLOCK_SIZE of them. Listing them peaks near 30
# bytes per pair, testing them against a layer near 35 (41 per triple), the
# AP kernel near 34, so even a whole block at the budget stays under 2 GiB.
PAIR_BUDGET = 40_000_000

# Color partitions an exact law may enumerate.
MAX_PARTITIONS = 10_000_000

# Colors are drawn as int32 in [1, c], so c + 1 must fit in int32; a wider
# draw would change the random stream.
MAX_COLORS = 2**31 - 1


@dataclass(frozen=True)
class SimulationConfig:
    """c colors, total replicates and RNG seed."""

    c: int
    replicates: int
    seed: int


@dataclass(frozen=True)
class EmpiricalLaw:
    """Empirical distribution with exact rational masses count/replicates,
    and how it was counted: blocks drawn, rows per slice and one record per
    counted layer naming its backend (0 blocks and no layer records when
    c = 1 leaves nothing to draw)."""

    law: DiscreteLaw
    blocks: int
    chunk: int
    layers: tuple[dict, ...] = ()


def new_simulation_config(c: int, replicates: int, seed: int) -> SimulationConfig:
    _check_drawn_c(c)
    _check_int(replicates, 1, "replicates")
    _check_seed(seed)
    return SimulationConfig(c, replicates, seed)


def _check_drawn_c(c) -> None:
    """c colors drawn at random: an integer in [1, MAX_COLORS]."""
    _check_c(c)
    if c > MAX_COLORS:
        raise ResourceBoundError(f"c: {c} colors exceed {MAX_COLORS}, the most a Monte Carlo draw takes")


def _check_seed(seed) -> None:
    """A seed is a 64-bit unsigned integer: 0 <= seed < 2^64."""
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed: must be a 64-bit integer, got {seed!r}")


def _slice_pair_budget() -> int:
    """Same-color pairs one slice may hold."""
    return PAIR_BUDGET * CHUNK // BLOCK_SIZE


def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


def sample_coloring(n: int, c: int, rng: np.random.Generator) -> Coloring:
    """One uniform coloring: i.i.d. colors in [1, c]."""
    _check_drawn_c(c)
    colors = rng.integers(1, c + 1, size=n, dtype=np.int32)
    return Coloring(tuple(int(a) for a in colors), c)


def _dense_T(colors: np.ndarray, edges: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Per-replicate monochromatic totals by direct edge evaluation."""
    B = colors.shape[0]
    E, r = edges.shape
    out = np.zeros(B, dtype=np.int64)
    # about 10^6 endpoint colors (4 MB) per pass: a slice's working set stays
    # in cache
    chunk = max(1, 1_000_000 // max(1, B * r))
    for lo in range(0, E, chunk):
        sub = edges[lo : lo + chunk]
        cols = colors[:, sub]
        mono = (cols == cols[:, :, :1]).all(axis=2)
        if weights is None:
            out += mono.sum(axis=1)
        else:
            out += mono.astype(np.int64) @ weights[lo : lo + chunk]
    return out


def _packed_keys(columns: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Vertex columns packed base n into one int64 key per row: u*n + v for
    a pair, ((u*n + v)*n + w) for a triple. Rows in ascending vertex order
    give keys in lexicographic row order."""
    keys = columns[0].astype(np.int64)
    for column in columns[1:]:
        keys *= n
        keys += column
    return keys


def _keys_fit(n: int, r: int) -> bool:
    """Whether base-n keys of r vertices fit in int64 (n^r < 2^63); r < 64
    spares building n^r for a large r, since n >= 2."""
    return r < 64 and n**r < 2**63


def _leading_pair_tables(edges: np.ndarray):
    """Group edges by their first two vertices for two-stage evaluation: the
    distinct leading pairs in order, the edge ids grouped by pair, and each
    group's start and length."""
    order, starts = _row_runs(edges[:, :2])
    return edges[order[starts], :2], order, starts, np.diff(starts, append=len(edges))


def _row_totals(rows: np.ndarray, weights: np.ndarray | None, B: int) -> np.ndarray:
    """Per-row hit counts, or per-row weight totals summed in int64, exact
    because every layer's weight sum fits in int64."""
    if weights is None:
        return np.bincount(rows, minlength=B).astype(np.int64)
    out = np.zeros(B, dtype=np.int64)
    np.add.at(out, rows, weights)
    return out


def _leading_pair_T(
    colors: np.ndarray, edges: np.ndarray, tables, weights: np.ndarray | None
) -> np.ndarray:
    """Stage 1 tests the shared leading pair per bucket; stage 2 expands only
    surviving (replicate, bucket) cells to their full edges."""
    B = colors.shape[0]
    uniq, order, bstart, blen = tables
    eq = colors[:, uniq[:, 0]] == colors[:, uniq[:, 1]]
    rows, pids = np.nonzero(eq)
    cnt = blen[pids]
    tot = int(cnt.sum())
    rows_exp = np.repeat(rows, cnt)
    starts = np.repeat(bstart[pids], cnt)
    csum = np.cumsum(cnt) - cnt
    offs = np.arange(tot, dtype=np.int64) - np.repeat(csum, cnt)
    eids = order[starts + offs]
    ref = colors[rows_exp, edges[eids, 0]]
    ok = np.ones(tot, dtype=bool)
    for k in range(2, edges.shape[1]):
        ok &= colors[rows_exp, edges[eids, k]] == ref
    return _row_totals(rows_exp[ok], None if weights is None else weights[eids[ok]], B)


def _sorted_keys(colors: np.ndarray) -> tuple[np.ndarray, np.integer]:
    """Each row's packed keys color*n + v, sorted: the row's vertices in
    color order, ids ascending inside each color class. The keys are unique,
    so this is the stable argsort of colors; the sort runs on uint32 when
    every key fits, where NumPy's sort is far faster, else on int64."""
    n = colors.shape[1]
    narrow = colors.min(initial=0) >= 0 and (int(colors.max(initial=0)) + 1) * n <= 2**32
    dtype = np.uint32 if narrow else np.int64
    keys = colors.astype(dtype) * dtype(n) + np.arange(n, dtype=dtype)
    keys.sort(axis=1)
    return keys, dtype(n)


def _color_walk(colors: np.ndarray) -> tuple[np.ndarray, np.integer, Iterator[tuple[int, np.ndarray]]]:
    """Walk every row, sorted by color, by span.

    Returns (keys, width, spans): the rows' sorted keys color*width + v,
    flattened, and an iterator of (s, idx) for s = 1, 2, ..., where idx holds
    the flat sorted positions whose s predecessors all share their color.
    Each (p - s, p) is one same-color pair, so the walk runs (largest class
    size - 1) times; idx at span s + 1 is found from idx at span s with one
    mask. The iterator refuses a slice once its pairs pass the slice's share
    of PAIR_BUDGET.
    """
    B, n = colors.shape
    keys, width = _sorted_keys(colors)
    sc = keys // width
    same = np.zeros((B, n), dtype=bool)
    same[:, 1:] = sc[:, 1:] == sc[:, :-1]
    return keys.ravel(), width, _spans(same.ravel(), B, n)


def _spans(same: np.ndarray, B: int, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """_color_walk's (s, idx) per span, from the flat mask of positions that
    share their predecessor's color."""
    budget = _slice_pair_budget()
    held = 0
    idx = np.flatnonzero(same)
    s = 1
    while len(idx):
        held += len(idx)
        if held > budget:
            raise ResourceBoundError(
                f"same-color pairs of {B} replicates on {n} vertices exceed "
                f"the budget of {budget} pairs per slice"
            )
        yield s, idx
        # Selecting through flatnonzero, not a boolean mask: on masks of
        # mixed bits NumPy's boolean indexing is about twice as slow.
        idx = idx[np.flatnonzero(same[idx - s])]
        s += 1


def _monochromatic_subsets(n: int, r: int, keys: np.ndarray, width, spans) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Every monochromatic r-subset (r >= 2) of a color walk's rows, each
    once: (rows, columns), the replicate row of each subset and r int64
    vertex arrays, columns[k] holding the k-th smallest vertex of each.

    At span s, a position p whose s predecessors share its color is the last
    element, p - s the first, and any r - 2 of the s - 1 positions between
    are the middle (none for a pair). Inside a color class positions ascend
    with vertex ids, so each subset comes once, in ascending order. A span's
    subsets are counted before they are listed, and a slice is refused once
    they pass its share of PAIR_BUDGET.
    """
    budget = _slice_pair_budget()
    held = 0
    parts = [[np.empty(0, dtype=np.int64)] for _ in range(r + 1)]  # r columns, then rows
    for s, idx in spans:
        if s < r - 1:
            continue
        held += len(idx) * comb(s - 1, r - 2)
        if held > budget:
            raise ResourceBoundError(
                f"monochromatic {r}-subsets of {len(keys) // n} replicates on {n} vertices "
                f"exceed the budget of {budget} per slice"
            )
        middles = np.array(list(itertools.combinations(range(1, s), r - 2)), dtype=np.int64)
        first = idx - s
        between = [(first[:, None] + middles[:, k]).ravel() for k in range(r - 2)]
        if len(middles) > 1:  # a pair, or one choice of middle, needs no repeat
            first, idx = np.repeat(first, len(middles)), np.repeat(idx, len(middles))
        for part, pos in zip(parts, (first, *between, idx)):
            part.append(keys[pos] % width)
        parts[r].append(idx // n)
    rows = np.concatenate(parts.pop(), dtype=np.int64)  # popped pieces are freed once joined
    return rows, tuple(np.concatenate(parts.pop(0), dtype=np.int64) for _ in range(r))


def _pair_class_tables(edges: np.ndarray, n: int, weights: np.ndarray | None):
    """A layer's edges as sorted packed keys, with their weights in the same
    order."""
    keys = _packed_keys(edges.T, n)
    ksort = np.argsort(keys)
    return keys[ksort], None if weights is None else weights[ksort]


def _edge_hits(tables, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Which packed r-subsets are edges of the layer: a mask over keys, and
    the weights of the hits (None when the layer has no weights)."""
    sorted_keys, sorted_weights = tables
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    ok = sorted_keys[pos] == keys
    return ok, None if sorted_weights is None else sorted_weights[pos[ok]]


def _expected_subsets(n: int, r: int, c: int) -> float | None:
    """C(n, r) / c^(r-1), the expected monochromatic r-subsets of one row;
    None where packed r-subset keys do not fit in int64."""
    return comb(n, r) / c ** (r - 1) if _keys_fit(n, r) else None


def _choose_backend(H: UniformHypergraph, c: int, requested: str) -> str:
    r, E, n = H.uniformity, H.num_edges, H.num_vertices
    if requested != "auto":
        if requested == "pair-class" and not _keys_fit(n, r):
            raise ValidationError(
                f"pair-class backend packs each {r}-subset into an int64 key: "
                f"n = {n}, r = {r} gives n^r >= 2^63"
            )
        if requested == "leading-pair" and r < 3:
            raise ValidationError("leading-pair backend requires uniformity >= 3")
        if requested not in ("dense", "leading-pair", "pair-class"):
            raise ValidationError(f"backend: unknown choice {requested!r}")
        return requested if E else "dense"  # an edgeless layer has no tables
    # pair-class pays a row sort, the walk's same-color pairs and the
    # expected monochromatic r-subsets; dense pays E edge tests, leading-pair
    # one test per distinct leading pair. Forced timings on K_n layers that
    # pass the ratio test cross near 500 edges: K30 at c=30 (435 edges) runs
    # faster dense, K35 at c=35 (595 edges) faster through pair-class. On
    # 3-uniform layers pair-class ran 2-15x faster than leading-pair on
    # edge-color's P4 and K1,3 copies and about even on appendix-a's stars.
    # A slice whose expected pairs or subsets come near its share of
    # PAIR_BUDGET could be refused by pair-class; dense has no such bound.
    expected = _expected_subsets(n, r, max(1, c))
    if expected is not None and E >= 500 and expected < E / 8:
        pairs = comb(n, 2) / max(1, c)
        if CHUNK * max(pairs, expected) <= _slice_pair_budget() / 2:
            return "pair-class"
    if r > 2 and E >= 32 and len(_row_runs(H.edge_array[:, :2])[1]) <= E // 2:
        return "leading-pair"
    return "dense"


def _layer_counter(
    layers: Sequence[UniformHypergraph],
    weight_lists: Sequence[Sequence[int] | None],
    n: int,
    c: int,
    backend: str,
) -> tuple[Callable[[np.ndarray], np.ndarray], tuple[dict, ...]]:
    """Per-layer counting plan: count(colors) -> (B, d) int64 array of
    per-row monochromatic totals (weighted where weights are given), a pure
    function of the rows it is given; and per layer a record of the backend
    it runs and the auto rule's inputs."""
    plans, records = [], []
    for layer, weights in zip(layers, weight_lists):
        kind = _choose_backend(layer, c, backend)
        if weights is not None:
            # Weights are >= 1, so every per-row total is at most their sum.
            total = sum(weights)
            if total >= 2**63:
                raise ResourceBoundError(f"weight sum {total} does not fit in int64")
        edges = layer.edge_array
        r = layer.uniformity
        w = None if weights is None else np.asarray(weights, dtype=np.int64)
        tables = None
        if kind == "leading-pair":
            tables = _leading_pair_tables(edges)
        elif kind == "pair-class":
            tables = _pair_class_tables(edges, n, w)
        plans.append((kind, r, edges, w, tables))
        records.append(
            {
                "backend": kind,
                "requested": backend,
                "edges": layer.num_edges,
                "vertices": n,
                "uniformity": r,
                "c": c,
                "expected_subsets": _expected_subsets(n, r, max(1, c)),
            }
        )
    walked = sorted({r for kind, r, *_ in plans if kind == "pair-class"})

    def count(colors: np.ndarray) -> np.ndarray:
        B = colors.shape[0]
        found = {}  # uniformity -> (rows, packed keys) of its subsets
        if walked:
            keys, width, spans = _color_walk(colors)
            if len(walked) > 1:
                spans = list(spans)  # walked once, read per uniformity
            for r in walked:
                rows, columns = _monochromatic_subsets(n, r, keys, width, spans)
                found[r] = rows, _packed_keys(columns, n)
                del columns  # the layers test only the packed keys
        cols = []
        for kind, r, edges, w, tables in plans:
            if kind == "dense":
                cols.append(_dense_T(colors, edges, w))
            elif kind == "leading-pair":
                cols.append(_leading_pair_T(colors, edges, tables, w))
            else:
                rows, packed = found[r]
                ok, hit_weights = _edge_hits(tables, packed)
                cols.append(_row_totals(rows[ok], hit_weights, B))
        return np.stack(cols, axis=1)

    return count, tuple(records)


def _row_counts(out: np.ndarray) -> Iterator[tuple[tuple[int, ...], int]]:
    """(row as a tuple of ints, multiplicity) per distinct row of out, rows
    in lexicographic order. A lexsort of the columns, not np.unique with
    axis=0, whose sort of rows as records is about 30 times slower."""
    order, starts = _row_runs(out)
    counts = np.diff(starts, append=len(out))
    for key, k in zip(out[order[starts]].tolist(), counts.tolist()):
        yield tuple(key), k


def _count_in_slices(rows: np.ndarray, count) -> np.ndarray:
    """count(rows) -> (rows, d), evaluated CHUNK rows at a time, so that a
    slice's sort and gap walk stay in cache and its same-color pairs are
    dropped before the next slice lists its own."""
    return np.concatenate([count(rows[lo : lo + CHUNK]) for lo in range(0, len(rows), CHUNK)])


def _accumulate(
    cfg: SimulationConfig, n_vertices: int, count, d: int, layers: tuple[dict, ...], finish=None
) -> EmpiricalLaw:
    """The empirical law of count(colors) -> (rows, d) over all blocks, with
    the layer records of count. finish(rng, out), when given, maps a whole
    block's counts to its rows of the law, drawing from the block's
    generator after its colors."""
    counts: Counter = Counter()
    blocks = range(-(-cfg.replicates // BLOCK_SIZE))
    for block in blocks:
        rng = _block_rng(cfg.seed, block)
        B = min(BLOCK_SIZE, cfg.replicates - block * BLOCK_SIZE)
        out = _count_in_slices(rng.integers(1, cfg.c + 1, size=(B, n_vertices), dtype=np.int32), count)
        if finish is not None:
            out = finish(rng, out)
        for key, k in _row_counts(out):
            counts[key] += k
    return _empirical(counts, d, cfg, len(blocks), layers)


def _empirical(
    counts: Counter, d: int, cfg: SimulationConfig, blocks: int = 0, layers: tuple[dict, ...] = ()
) -> EmpiricalLaw:
    pmf = {key: Fraction(k, cfg.replicates) for key, k in counts.items()}
    law = law_from_pmf(d, pmf)
    return EmpiricalLaw(law, blocks, CHUNK, layers)


def simulate_T(M: Multiplex, cfg: SimulationConfig, backend: str = "auto") -> EmpiricalLaw:
    """Empirical joint law of per-layer monochromatic counts over
    cfg.replicates colorings. The law depends only on (c, replicates, seed);
    backend and slice size never change it."""
    d = M.num_layers
    if cfg.c == 1:
        key = tuple(layer.num_edges for layer in M.layers)
        return _empirical(Counter({key: cfg.replicates}), d, cfg)
    count, layers = _layer_counter(M.layers, [None] * d, M.num_vertices, cfg.c, backend)
    return _accumulate(cfg, M.num_vertices, count, d, layers)


def simulate_W(
    WH: WeightedUniformHypergraph, cfg: SimulationConfig, backend: str = "auto"
) -> EmpiricalLaw:
    """Empirical law of the weighted monochromatic total (dimension 1)."""
    n = WH.base.num_vertices
    if cfg.c == 1:
        return _empirical(Counter({(sum(WH.weights),): cfg.replicates}), 1, cfg)
    count, layers = _layer_counter([WH.base], [WH.weights], n, cfg.c, backend)
    return _accumulate(cfg, n, count, 1, layers)


def simulate_ap_T(n: int, r: int, cfg: SimulationConfig) -> EmpiricalLaw:
    """Empirical law of the count of monochromatic r-term APs in [1, n].

    A monochromatic AP's r - 2 middle terms share the color of its first
    term u and last term w, so w sits at span r - 1 or more after u in the
    color walk. Only those outer pairs are listed; a pair whose gap w - u is
    a multiple of r - 1 fixes the step, and its middle terms are tested.
    Every monochromatic AP is found exactly once, from its first and last
    terms. Bit-identical to simulate_T on ap_hypergraph(range(1, n+1), r)
    under the same config.
    """
    total = ap_count_closed_form(n, r)  # refuses n and r before any draw
    if cfg.c == 1:
        return _empirical(Counter({(total,): cfg.replicates}), 1, cfg)

    def count(colors):
        keys, width, spans = _color_walk(colors)
        rows, (u, w) = _monochromatic_subsets(n, 2, keys, width, (sp for sp in spans if sp[0] >= r - 1))
        gap = w - u
        fits = np.flatnonzero(gap % (r - 1) == 0)
        rows, step = rows[fits], gap[fits] // (r - 1)
        flat = colors.ravel()
        nxt = rows * n + u[fits]
        ref = flat[nxt]
        ok = np.ones(len(rows), dtype=bool)
        for _ in range(r - 2):
            nxt += step
            ok &= flat[nxt] == ref
        return np.bincount(rows[np.flatnonzero(ok)], minlength=colors.shape[0])[:, None]

    return _accumulate(cfg, n, count, 1, ({"backend": "ap", "vertices": n, "uniformity": r, "c": cfg.c},))


def _binomial_array(m: np.ndarray, r: int) -> np.ndarray:
    """C(m, r) per entry, read from an exact table built with math.comb;
    raises ResourceBoundError when C(max m, r) does not fit in int64."""
    top = int(m.max(initial=0))
    if comb(top, r) >= 2**63:
        raise ResourceBoundError(f"C({top}, {r}) = {comb(top, r)} does not fit in int64")
    return np.array([comb(k, r) for k in range(top + 1)], dtype=np.int64)[m]


def simulate_correlated_er_T(params: CorrelatedErParams, cfg: SimulationConfig) -> EmpiricalLaw:
    """Joint empirical law of the two layer counts when each replicate draws a
    fresh correlated multiplex and a fresh coloring.

    Given the coloring, every monochromatic r-subset lands independently in
    one of the four cells, so the conditional law of (T1, T2) is a multinomial
    over the monochromatic subsets; sampling that multinomial directly is
    exact and avoids materializing the multiplex.
    """
    n, r = params.n, params.r
    p, p12 = params.p, params.p12
    pvals = [p12, p - p12, p - p12, 1.0 - 2.0 * p + p12]
    # The class binomials of one coloring sum to at most C(n, r), so checking
    # that one value bounds every total. Class sizes are the runs of each
    # row's sorted colors: no array of c class sizes per row is built.
    binom = _binomial_array(np.arange(n + 1), r)

    def monochromatic(colors):
        colors = np.sort(colors, axis=1).ravel()
        new = np.concatenate(([True], colors[1:] != colors[:-1]))
        new[::n] = True  # every row starts a class
        starts = np.flatnonzero(new)
        sizes = np.diff(starts, append=len(colors))
        row_starts = np.searchsorted(starts, np.arange(0, len(colors), n))
        return np.add.reduceat(binom[sizes], row_starts)[:, None]

    def thin(rng, mono):
        draws = rng.multinomial(mono[:, 0], pvals)
        return np.stack([draws[:, 0] + draws[:, 1], draws[:, 0] + draws[:, 2]], axis=1)

    record = {"backend": "class-sizes", "vertices": n, "uniformity": r, "c": cfg.c}
    return _accumulate(cfg, n, monochromatic, 2, (record, record), finish=thin)


def _partition_count(n: int, kmax: int) -> int:
    """Set partitions of n elements into at most kmax blocks: the sum of the
    Stirling numbers S(n, k) for k <= kmax."""
    row = [1] + [0] * kmax  # S(0, k)
    for _ in range(n):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, kmax + 1)]
    return sum(row)


def _partitions(n: int, kmax: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(rgs, blocks) chunks of at most BLOCK_SIZE rows covering every set
    partition of n elements into at most kmax blocks, each once. A row of
    rgs is a restricted growth string: element j gets label 0..max+1 where
    max is the largest label before it, capped at kmax - 1; blocks holds
    each row's block count."""

    def expand(prefix: np.ndarray, blocks: np.ndarray):
        if prefix.shape[1] == n:
            yield prefix, blocks
            return
        opts = blocks + (blocks < kmax)
        parent = np.repeat(np.arange(len(prefix)), opts)
        label = np.arange(len(parent)) - np.repeat(np.cumsum(opts) - opts, opts)
        rows = np.concatenate([prefix[parent], label[:, None].astype(np.int32)], axis=1)
        grown = np.maximum(blocks[parent], label + 1)
        for lo in range(0, len(rows), BLOCK_SIZE):
            yield from expand(rows[lo : lo + BLOCK_SIZE], grown[lo : lo + BLOCK_SIZE])

    yield from expand(np.zeros((1, 0), dtype=np.int32), np.zeros(1, dtype=np.int64))


def _exact(
    layers: Sequence[UniformHypergraph],
    weight_lists: Sequence[Sequence[int] | None],
    n: int,
    c: int,
) -> DiscreteLaw:
    """Exact joint pmf over all c^n colorings, counted partition by
    partition; masses integer/c^n, tail 0. At most MAX_PARTITIONS color
    partitions are enumerated."""
    _check_c(c)
    kmax = min(c, n)
    states = _partition_count(n, kmax)
    if states > MAX_PARTITIONS:
        raise ResourceBoundError(
            f"{states} partitions of {n} vertices into at most {kmax} color classes "
            f"exceed enumeration bound {MAX_PARTITIONS}"
        )
    falling = [1]  # falling[k] = (c)_k, the colorings that realize a k-block partition
    for k in range(kmax):
        falling.append(falling[-1] * (c - k))
    count, _ = _layer_counter(layers, weight_lists, n, c, "auto")
    counts: Counter = Counter()
    for rgs, blocks in _partitions(n, kmax):
        out = np.concatenate([_count_in_slices(rgs, count), blocks[:, None]], axis=1)
        for key, k in _row_counts(out):
            counts[key[:-1]] += k * falling[key[-1]]
    pmf = {key: Fraction(total, c**n) for key, total in counts.items()}
    return law_from_pmf(len(layers), pmf)


def exact_law(M: Multiplex, c: int) -> DiscreteLaw:
    """Exact joint pmf of the layer counts, masses integer/c^n, tail 0."""
    return _exact(M.layers, [None] * M.num_layers, M.num_vertices, c)


def exact_law_weighted(WH: WeightedUniformHypergraph, c: int) -> DiscreteLaw:
    """Exact pmf of the weighted monochromatic total."""
    return _exact([WH.base], [WH.weights], WH.base.num_vertices, c)
