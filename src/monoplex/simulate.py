"""Seeded Monte Carlo over colorings and the exact law over color partitions.

Replicates are drawn in fixed-size blocks of 4096; block b draws its whole
color matrix with one call on a Philox substream derived from (seed, b).
Each block is counted in slices of CHUNK = 512 rows, one after the other on
the calling thread, and its row counts are merged in block order. Counters
are pure functions of a slice's rows, so the law does not depend on the
slice size; `shards` is accepted and recorded but schedules nothing. Every
backend consumes the block's color matrix identically, so backend choice
never changes results either.

Same-color vertex pairs are listed by sorting each row's packed keys
color*n + v once (unique keys, so this is the stable argsort's permutation)
and walking the sorted rows by gap: the pairs at gap g are the positions
whose g predecessors share their color. The pair-class backend tests these
pairs against a 2-uniform layer's edge keys and the AP kernel extends them
to progressions. One slice may hold PAIR_BUDGET * CHUNK // BLOCK_SIZE
pairs, so whether a run is refused depends on its inputs alone. Auto sends a 2-uniform layer of at least 500 edges to
pair-class when the expected pair count is below an eighth of its edges.
Weighted totals are summed exactly: in int64 by dense, in float64 by the
other backends, which are refused once the weight sum reaches 2^53.

The exact law runs through the same per-layer counters and the same
slicing. Colors are exchangeable, so the counts depend only on
the partition of the vertices into color classes, and a partition with k
blocks stands for (c)_k colorings. Partitions into at most c blocks are
enumerated as restricted growth strings in chunks of at most BLOCK_SIZE
rows, and each chunk is counted like a block of colorings.
"""

from __future__ import annotations

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
    _row_runs,
)
from monoplex.families import CorrelatedErParams, ap_count_closed_form
from monoplex.laws import DiscreteLaw, law_from_pmf

BLOCK_SIZE = 4096

# Rows per slice: small enough that a slice's sort and gap walk stay in
# cache.
CHUNK = BLOCK_SIZE // 8

# Same-color pairs the slices of one block may hold together; one slice may
# hold PAIR_BUDGET * CHUNK // BLOCK_SIZE of them. Listing them and testing
# them against a layer or extending them to APs peaks near 46 bytes per
# pair, so even a whole block at the budget would stay under 2 GiB.
PAIR_BUDGET = 40_000_000

# Colors are drawn as int32 in [1, c], so c + 1 must fit in int32; a wider
# draw would change the random stream.
MAX_COLORS = 2**31 - 1


@dataclass(frozen=True)
class SimulationConfig:
    """c colors, total replicates, RNG seed, and shard count (accepted and
    recorded; it schedules nothing)."""

    c: int
    replicates: int
    seed: int
    shards: int = 1


@dataclass(frozen=True)
class EmpiricalLaw:
    """Empirical distribution with exact rational masses count/replicates,
    and how it was counted: blocks drawn and rows per slice (0 blocks when
    c = 1 leaves nothing to draw)."""

    law: DiscreteLaw
    replicates: int
    seed: int
    shards: int
    blocks: int
    chunk: int


def new_simulation_config(c: int, replicates: int, seed: int, shards: int = 1) -> SimulationConfig:
    if not isinstance(c, int) or c < 1:
        raise ValidationError(f"c: must be an integer >= 1, got {c!r}")
    if c > MAX_COLORS:
        raise ResourceBoundError(f"c: {c} colors exceed {MAX_COLORS}, the most a Monte Carlo draw takes")
    if not isinstance(replicates, int) or replicates < 1:
        raise ValidationError(f"replicates: must be >= 1, got {replicates!r}")
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed: must be a 64-bit integer, got {seed!r}")
    if not isinstance(shards, int) or shards < 1:
        raise ValidationError(f"shards: must be >= 1, got {shards!r}")
    return SimulationConfig(c, replicates, seed, shards)


def _slice_pair_budget() -> int:
    """Same-color pairs one slice may hold."""
    return PAIR_BUDGET * CHUNK // BLOCK_SIZE


def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


def sample_coloring(n: int, c: int, rng: np.random.Generator) -> Coloring:
    """One uniform coloring: i.i.d. colors in [1, c]."""
    if c < 1:
        raise ValidationError(f"c: must be >= 1, got {c}")
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


def _pair_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """Each edge's first two vertices packed as u*n + v."""
    return edges[:, 0].astype(np.int64) * n + edges[:, 1].astype(np.int64)


def _leading_pair_tables(edges: np.ndarray, n: int):
    """Group edges by their first two vertices for two-stage evaluation: the
    distinct leading pairs in order, the edge ids grouped by pair, and each
    group's start and length. Sorting packed keys, not np.unique with axis=0,
    whose sort of rows as records is about 30 times slower."""
    keys = _pair_keys(edges, n)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    bucket_start = np.flatnonzero(first)
    bucket_len = np.diff(np.append(bucket_start, len(keys)))
    return edges[order[bucket_start], :2], order, bucket_start, bucket_len


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
    hits = rows_exp[ok]
    if weights is None:
        return np.bincount(hits, minlength=B).astype(np.int64)
    acc = np.bincount(hits, weights=weights[eids[ok]].astype(np.float64), minlength=B)
    return np.rint(acc).astype(np.int64)


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


def _same_color_pairs(colors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All unordered same-color vertex pairs of every replicate row.

    Returns (rows, u, v) with u < v. After sorting each row by color, the
    pairs at gap g are the sorted positions p whose g predecessors all share
    p's color; they are found from the gap g-1 positions with one mask, so
    the walk runs (largest class size - 1) times.
    """
    B, n = colors.shape
    budget = _slice_pair_budget()
    keys, width = _sorted_keys(colors)
    sc = keys // width
    same = np.zeros((B, n), dtype=bool)
    same[:, 1:] = sc[:, 1:] == sc[:, :-1]
    same = same.ravel()
    keys = keys.ravel()
    rows_parts, u_parts, v_parts = [], [], []
    held = 0
    idx = np.flatnonzero(same)
    g = 1
    while len(idx):
        held += len(idx)
        if held > budget:
            raise ResourceBoundError(
                f"same-color pairs of {B} replicates on {n} vertices exceed "
                f"the budget of {budget} pairs per slice"
            )
        rows_parts.append(idx // n)
        u_parts.append(keys[idx - g])
        v_parts.append(keys[idx])
        # Selecting through flatnonzero, not a boolean mask: on masks of
        # mixed bits NumPy's boolean indexing is about twice as slow.
        idx = idx[np.flatnonzero(same[idx - g])]
        g += 1
    if not rows_parts:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    u = (np.concatenate(u_parts) % width).astype(np.int64)
    v = (np.concatenate(v_parts) % width).astype(np.int64)
    return np.concatenate(rows_parts), u, v


def _pair_class_tables(edges: np.ndarray, n: int, weights: np.ndarray | None):
    keys = _pair_keys(edges, n)
    ksort = np.argsort(keys)
    sorted_keys = keys[ksort]
    sorted_weights = None if weights is None else weights[ksort]
    return sorted_keys, sorted_weights


def _pair_class_T(
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    tables,
    n: int,
    B: int,
) -> np.ndarray:
    """Count which same-color pairs are edges, per replicate row."""
    sorted_keys, sorted_weights = tables
    rows, u, v = pairs
    pk = u * n + v
    pos = np.searchsorted(sorted_keys, pk)
    pos_safe = np.minimum(pos, len(sorted_keys) - 1)
    ok = sorted_keys[pos_safe] == pk
    hits = rows[ok]
    if sorted_weights is None:
        return np.bincount(hits, minlength=B).astype(np.int64)
    acc = np.bincount(hits, weights=sorted_weights[pos_safe[ok]].astype(np.float64), minlength=B)
    return np.rint(acc).astype(np.int64)


def _choose_backend(H: UniformHypergraph, c: int, requested: str) -> str:
    r, E, n = H.uniformity, H.num_edges, H.num_vertices
    if requested != "auto":
        if requested == "pair-class" and r != 2:
            raise ValidationError("pair-class backend requires 2-uniform layers")
        if requested == "leading-pair" and r < 3:
            raise ValidationError("leading-pair backend requires uniformity >= 3")
        if requested not in ("dense", "leading-pair", "pair-class"):
            raise ValidationError(f"backend: unknown choice {requested!r}")
        return requested
    if r == 2:
        # pair-class pays a row sort plus the expected pair count, dense pays
        # E edge tests. Forced timings on K_n layers that pass the ratio test
        # cross near 500 edges: K30 at c=30 (435 edges) runs faster dense,
        # K35 at c=35 (595 edges) faster through pair-class.
        # A slice whose expected pairs come near its share of PAIR_BUDGET
        # could be refused by pair-class; dense has no such bound.
        expected_pairs = n * (n - 1) / (2 * max(1, c))
        if E >= 500 and expected_pairs < E / 8 and CHUNK * expected_pairs <= _slice_pair_budget() / 2:
            return "pair-class"
        return "dense"
    if E >= 32 and len(np.unique(_pair_keys(H.edge_array, n))) <= E // 2:
        return "leading-pair"
    return "dense"


def _layer_counter(
    layers: Sequence[UniformHypergraph],
    weight_lists: Sequence[Sequence[int] | None],
    n: int,
    c: int,
    backend: str,
) -> Callable[[np.ndarray], np.ndarray]:
    """Per-layer counting plan: returns count(colors) -> (B, d) int64 array
    of per-row monochromatic totals (weighted where weights are given), a
    pure function of the rows it is given."""
    plans = []
    for layer, weights in zip(layers, weight_lists):
        kind = _choose_backend(layer, c, backend)
        if weights is not None:
            # Weights are >= 1, so every per-row total is at most their sum.
            total = sum(weights)
            if total >= 2**63:
                raise ResourceBoundError(f"weight sum {total} does not fit in int64")
            if total >= 2**53 and kind != "dense":
                if backend != "auto":
                    raise ResourceBoundError(
                        f"{kind} backend sums weights in float64, exact only below 2^53; "
                        f"weight sum is {total}"
                    )
                kind = "dense"
        edges = layer.edge_array
        w = None if weights is None else np.asarray(weights, dtype=np.int64)
        if kind == "leading-pair" and len(edges):
            plans.append((kind, edges, w, _leading_pair_tables(edges, n)))
        elif kind == "pair-class" and len(edges):
            plans.append((kind, edges, w, _pair_class_tables(edges, n, w)))
        else:  # dense, also for an edgeless layer under any backend
            plans.append(("dense", edges, w, None))
    any_pairs = any(kind == "pair-class" for kind, *_ in plans)

    def count(colors: np.ndarray) -> np.ndarray:
        B = colors.shape[0]
        pairs = _same_color_pairs(colors) if any_pairs else None
        cols = []
        for kind, edges, w, tables in plans:
            if kind == "dense":
                cols.append(_dense_T(colors, edges, w))
            elif kind == "leading-pair":
                cols.append(_leading_pair_T(colors, edges, tables, w))
            else:
                cols.append(_pair_class_T(pairs, tables, n, B))
        return np.stack(cols, axis=1)

    return count


def _row_counts(out: np.ndarray) -> Iterator[tuple[tuple[int, ...], int]]:
    """(row as a tuple of ints, multiplicity) per distinct row of out, rows
    in lexicographic order. A lexsort of the columns, not np.unique with
    axis=0, whose sort of rows as records is about 30 times slower."""
    order, starts = _row_runs(out)
    counts = np.diff(starts, append=len(out))
    for key, k in zip(out[order[starts]].tolist(), counts.tolist()):
        yield tuple(key), k


def _block_plan(cfg: SimulationConfig) -> list[tuple[int, int]]:
    """(block index, rows in block) covering all replicates, in block order."""
    total_blocks = -(-cfg.replicates // BLOCK_SIZE)
    return [(b, min(BLOCK_SIZE, cfg.replicates - b * BLOCK_SIZE)) for b in range(total_blocks)]


def _count_in_slices(rows: np.ndarray, count) -> np.ndarray:
    """count(rows) -> (rows, d), evaluated CHUNK rows at a time, so that a
    slice's sort and gap walk stay in cache and its same-color pairs are
    dropped before the next slice lists its own."""
    return np.concatenate([count(rows[lo : lo + CHUNK]) for lo in range(0, len(rows), CHUNK)])


def _accumulate(cfg: SimulationConfig, n_vertices: int, count, d: int, finish=None) -> EmpiricalLaw:
    """The empirical law of count(colors) -> (rows, d) over all blocks.
    finish(rng, out), when given, maps a whole block's counts to its rows of
    the law, drawing from the block's generator after its colors."""
    counts: Counter = Counter()
    plan = _block_plan(cfg)
    for block, B in plan:
        rng = _block_rng(cfg.seed, block)
        out = _count_in_slices(rng.integers(1, cfg.c + 1, size=(B, n_vertices), dtype=np.int32), count)
        if finish is not None:
            out = finish(rng, out)
        for key, k in _row_counts(out):
            counts[key] += k
    return _empirical(counts, d, cfg, len(plan))


def _empirical(counts: Counter, d: int, cfg: SimulationConfig, blocks: int = 0) -> EmpiricalLaw:
    pmf = {key: Fraction(k, cfg.replicates) for key, k in counts.items()}
    law = law_from_pmf(d, pmf, 0)
    return EmpiricalLaw(law, cfg.replicates, cfg.seed, cfg.shards, blocks, CHUNK)


def simulate_T(M: Multiplex, cfg: SimulationConfig, backend: str = "auto") -> EmpiricalLaw:
    """Empirical joint law of per-layer monochromatic counts over
    cfg.replicates colorings. The law depends only on (c, replicates, seed);
    shards, backend and slice size never change it."""
    d = M.num_layers
    if cfg.c == 1:
        key = tuple(layer.num_edges for layer in M.layers)
        return _empirical(Counter({key: cfg.replicates}), d, cfg)
    count = _layer_counter(M.layers, [None] * d, M.num_vertices, cfg.c, backend)
    return _accumulate(cfg, M.num_vertices, count, d)


def simulate_W(
    WH: WeightedUniformHypergraph, cfg: SimulationConfig, backend: str = "auto"
) -> EmpiricalLaw:
    """Empirical law of the weighted monochromatic total (dimension 1)."""
    n = WH.base.num_vertices
    if cfg.c == 1:
        return _empirical(Counter({(sum(WH.weights),): cfg.replicates}), 1, cfg)
    count = _layer_counter([WH.base], [WH.weights], n, cfg.c, backend)
    return _accumulate(cfg, n, count, 1)


def simulate_ap_T(n: int, r: int, cfg: SimulationConfig) -> EmpiricalLaw:
    """Empirical law of the count of monochromatic r-term APs in [1, n].

    Walks each same-color pair (u, v) as the first two AP terms and checks
    the remaining terms; every monochromatic AP is generated exactly once by
    its smallest two elements. Bit-identical to simulate_T on
    ap_hypergraph(range(1, n+1), r) under the same config.
    """
    if r < 3:
        raise ValidationError(f"r: must be >= 3, got {r}")
    if cfg.c == 1:
        return _empirical(Counter({(ap_count_closed_form(n, r),): cfg.replicates}), 1, cfg)

    def count(colors):
        rows, u, v = _same_color_pairs(colors)
        step = v - u
        fits = np.flatnonzero(v + (r - 2) * step < n)
        rows, step = rows[fits], step[fits]
        flat = colors.ravel()
        nxt = rows * n + v[fits]
        ref = flat[nxt]
        ok = np.ones(len(rows), dtype=bool)
        for _ in range(r - 2):
            nxt += step
            ok &= flat[nxt] == ref
        return np.bincount(rows[np.flatnonzero(ok)], minlength=colors.shape[0])[:, None]

    return _accumulate(cfg, n, count, 1)


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
    # that one value bounds every total.
    binom = _binomial_array(np.arange(n + 1), r)

    def monochromatic(colors):
        B = colors.shape[0]
        offsets = np.arange(B, dtype=np.int64)[:, None] * cfg.c
        flat = (colors.astype(np.int64) - 1) + offsets
        class_sizes = np.bincount(flat.ravel(), minlength=B * cfg.c).reshape(B, cfg.c)
        return binom[class_sizes].sum(axis=1)[:, None]

    def thin(rng, mono):
        draws = rng.multinomial(mono[:, 0], pvals)
        return np.stack([draws[:, 0] + draws[:, 1], draws[:, 0] + draws[:, 2]], axis=1)

    return _accumulate(cfg, n, monochromatic, 2, finish=thin)


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
    max_states: int,
) -> DiscreteLaw:
    """Exact joint pmf over all c^n colorings, counted partition by
    partition; masses integer/c^n, tail 0."""
    if c < 1:
        raise ValidationError(f"c: must be >= 1, got {c}")
    kmax = min(c, n)
    states = _partition_count(n, kmax)
    if states > max_states:
        raise ResourceBoundError(
            f"{states} partitions of {n} vertices into at most {kmax} color classes "
            f"exceed enumeration bound {max_states}"
        )
    falling = [1]  # falling[k] = (c)_k, the colorings that realize a k-block partition
    for k in range(kmax):
        falling.append(falling[-1] * (c - k))
    count = _layer_counter(layers, weight_lists, n, c, "auto")
    counts: Counter = Counter()
    for rgs, blocks in _partitions(n, kmax):
        out = np.concatenate([_count_in_slices(rgs, count), blocks[:, None]], axis=1)
        for key, k in _row_counts(out):
            counts[key[:-1]] += k * falling[key[-1]]
    pmf = {key: Fraction(total, c**n) for key, total in counts.items()}
    return law_from_pmf(len(layers), pmf, 0)


def exact_law(M: Multiplex, c: int, max_states: int = 10_000_000) -> DiscreteLaw:
    """Exact joint pmf of the layer counts, masses integer/c^n, tail 0.
    max_states bounds the number of color partitions enumerated."""
    return _exact(M.layers, [None] * M.num_layers, M.num_vertices, c, max_states)


def exact_law_weighted(
    WH: WeightedUniformHypergraph, c: int, max_states: int = 10_000_000
) -> DiscreteLaw:
    """Exact pmf of the weighted monochromatic total."""
    return _exact([WH.base], [WH.weights], WH.base.num_vertices, c, max_states)
