"""Exhaustive small-n search for extremal MIS counts, with witnesses.

The graph scan walks every edge bitmask on n labeled vertices in aligned
chunks of 2^w masks.  Since ``itertools.combinations`` emits the pairs inside
the last few vertices at the end of the pair order, a chunk's high bits fix
the induced subgraph there, and its masks are that fixed prefix plus every
w-bit low pattern.  The per-(n, t, w) clique filter, cached per process,
sorts each forbidden clique by where its edges fall: wholly in the high bits
(a chunk whose prefix holds it is skipped before any other work), wholly in
the low bits (removed once, from a cached ascending array of low patterns),
or straddling (a constraint on the low bits only in chunks whose prefix
holds its high part).  The per-subset independence and domination tests
(cached per (n, sizes)) are settled on the fixed prefix where they can be;
the rest are mask compares vectorized over the chunk's surviving low
patterns.

Witness graphs are deduplicated by a canonical form: the lexicographically
least graph6 string over all relabelings, found by branch-and-bound on
adjacency columns, with orbit pruning from the automorphisms that equal
leaves reveal.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import numpy as np

from .formats import graph6_encode
from .graphs import Graph, Hypergraph

GRAPH_SCAN_CAP = 8
HYPER_SCAN_CAP = 6
CANONICAL_CAP = 10
_CHUNK_EDGE_BITS = 16  # chunks of 2^16 masks at n=8; single chunk below that


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one exhaustive extremal computation.

    ``k`` None means MIS's of every size; ``t`` None means no clique filter
    (for r=3 the filter forbids the complete 3-graph on t vertices).
    """

    n: int
    k: int | None = None
    t: int | None = None
    r: int = 2
    collect_witnesses: bool = False
    witness_cap: int = 64


@dataclass
class SearchReport:
    spec: SearchSpec
    value: int
    witnesses: list[str] = field(default_factory=list)
    formula_value: int | None = None
    graphs_scanned: int = 0
    elapsed: float = 0.0
    truncated: bool = False

    def to_json(self) -> dict:
        # elapsed deliberately excluded: reports must be byte-identical
        # across runs of the same configuration.
        return {
            "spec": {
                "n": self.spec.n,
                "k": self.spec.k,
                "t": self.spec.t,
                "r": self.spec.r,
                "witnesses": self.spec.collect_witnesses,
            },
            "value": self.value,
            "witnesses": sorted(self.witnesses),
            "formula_value": self.formula_value,
            "graphs_scanned": self.graphs_scanned,
            "truncated": self.truncated,
        }


def _pair_masks(n: int) -> list[tuple[int, int]]:
    # bit b of an edge mask <-> pairs[b]; the pairs among the last vertices
    # occupy the top bits, which is what chunk skipping relies on.
    return list(combinations(range(n), 2))


def _subset_pair_masks(n: int, size: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each ``size``-subset of the vertices with the edge mask of its pairs."""
    bit_of = {p: 1 << b for b, p in enumerate(_pair_masks(n))}
    for sub in combinations(range(n), size):
        yield sub, sum(bit_of[p] for p in combinations(sub, 2))


@lru_cache(maxsize=None)
def _subset_tables(n: int, sizes: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per candidate MIS: its inside-pairs mask and one cross mask per outside vertex.

    A subset is an MIS of the graph with edge mask m iff m misses the inside
    mask and hits every cross mask (the pairs joining one outside vertex to
    the subset).
    """
    bit_of = {p: 1 << b for b, p in enumerate(_pair_masks(n))}
    tables = []
    for size in sizes:
        for sub, inside in _subset_pair_masks(n, size):
            crosses = tuple(
                sum(bit_of[(min(u, v), max(u, v))] for u in sub)
                for v in range(n)
                if v not in sub
            )
            tables.append((inside, crosses))
    return tuple(tables)


@lru_cache(maxsize=None)
def _forbidden_masks(n: int, t: int) -> tuple[int, ...]:
    return tuple(m for _, m in _subset_pair_masks(n, t))


@lru_cache(maxsize=1)
def _clique_filter(
    n: int, t: int | None, width: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...], np.ndarray]:
    """Split the K_t filter at bit ``width`` for chunks of 2^width masks.

    Returns (killers, straddlers, base).  A killer is a clique lying wholly in
    the high bits: a chunk whose fixed prefix contains one holds no K_t-free
    graph.  A straddler is a (high, low) clique split; it constrains the low
    bits only in chunks whose prefix contains its high part.  ``base`` is
    every low-bit pattern, ascending, that contains no clique lying wholly in
    the low bits.  Only the last filter is kept: one scan uses one, and at
    n=7 the base is a 16 MB array.
    """
    low_bits = (1 << width) - 1
    killers, straddlers = [], []
    base = np.arange(1 << width, dtype=np.int64)
    for fm in _forbidden_masks(n, t) if t is not None else ():
        high, low = fm & ~low_bits, fm & low_bits
        if not low:
            killers.append(high)
        elif not high:
            base = base[(base & low) != low]
        else:
            straddlers.append((high, low))
    base.flags.writeable = False
    return tuple(killers), tuple(straddlers), base


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    pairs = _pair_masks(n)
    return Graph.from_edges(n, [p for b, p in enumerate(pairs) if mask >> b & 1])


def _chunk_crosses(crosses: tuple[int, ...], fixed: int, low_bits: int) -> tuple[int, list[int]]:
    """Reduce a subset's cross masks to tests on a chunk's low patterns.

    A cross mask meeting the fixed prefix holds in the whole chunk.  Of the
    rest, the single-edge ones merge into ``need`` (every such edge must be
    present) and the others are returned in ``either``.  ``need`` is -1 when
    some outside vertex can reach the subset only through absent fixed edges:
    the subset is then an MIS of no graph in the chunk.
    """
    need = 0
    either = []
    for cm in crosses:
        if cm & fixed:
            continue
        low = cm & low_bits
        if not low:
            return -1, []
        if low & (low - 1):
            either.append(low)
        else:
            need |= low
    return need, either


def _scan_graph_chunk(args: tuple) -> tuple[int, list[int], int, bool]:
    """Scan edge masks in [lo, hi); returns (best, witness masks, scanned, truncated).

    [lo, hi) is an aligned block of 2^width masks, so every mask in it is
    ``lo`` (the chunk's fixed high bits) plus a low pattern below 2^width.
    The work runs on the low patterns only; each test against a mask is
    first settled on the fixed part where it can be.
    """
    n, k, t, lo, hi, collect, raw_cap = args
    width = (hi - lo).bit_length() - 1
    killers, straddlers, base = _clique_filter(n, t, width)
    if any(lo & km == km for km in killers):
        return -1, [], hi - lo, False
    masks = base
    for high, low in straddlers:
        if lo & high == high:
            masks = masks[(masks & low) != low]
    if len(masks) == 0:
        return -1, [], hi - lo, False

    sizes = (k,) if k is not None else tuple(range(n + 1))
    counts = np.zeros(len(masks), dtype=np.int64)
    for inside, crosses in _subset_tables(n, sizes):
        if inside & lo:
            continue  # an inside pair is an edge of every graph in the chunk
        need, either = _chunk_crosses(crosses, lo, (1 << width) - 1)
        if need < 0:
            continue
        ok = (masks & (inside | need)) == need
        for cm in either:
            ok &= (masks & cm) != 0
        counts += ok
    best = int(counts.max())
    witnesses: list[int] = []
    truncated = False
    if collect:
        hits = masks[counts == best]
        if len(hits) > raw_cap:
            truncated = True
            hits = hits[:raw_cap]
        witnesses = [lo + int(x) for x in hits]
    return best, witnesses, hi - lo, truncated


def exhaustive_m(spec: SearchSpec, workers: int = 1) -> SearchReport:
    """Exact maximum MIS count over all (filtered) labeled graphs on n vertices.

    Refuses n beyond the scan caps rather than running forever.  Witness
    graphs, when requested, are deduplicated up to isomorphism and returned
    as canonical graph6 strings (hypergraph witnesses as canonical JSON).
    """
    start = time.time()
    if spec.r == 3:
        report = _exhaustive_hyper(spec)
        report.elapsed = time.time() - start
        return report
    if spec.r != 2:
        raise ValueError(f"unsupported uniformity r={spec.r}")
    if spec.n > GRAPH_SCAN_CAP:
        raise ValueError(f"graph scan capped at n <= {GRAPH_SCAN_CAP}, got {spec.n}")
    if spec.n < 1:
        raise ValueError("need n >= 1")
    if spec.k is not None and not 0 <= spec.k <= spec.n:
        raise ValueError(f"k={spec.k} outside 0..{spec.n}")
    if spec.t is not None and spec.t <= 2:
        raise ValueError("clique filter needs t > 2")

    nbits = comb(spec.n, 2)
    total = 1 << nbits
    chunk = min(total, 1 << _CHUNK_EDGE_BITS)
    # Collect enough raw witnesses per chunk that ties are not silently lost
    # before canonical deduplication.
    raw_cap = max(4 * spec.witness_cap, 4096) if spec.collect_witnesses else 0
    jobs = [
        (spec.n, spec.k, spec.t, lo, min(lo + chunk, total), spec.collect_witnesses, raw_cap)
        for lo in range(0, total, chunk)
    ]
    if workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_scan_graph_chunk, jobs)
    else:
        results = [_scan_graph_chunk(j) for j in jobs]

    best = max(r[0] for r in results)
    if best < 0:
        raise RuntimeError("clique filter eliminated every graph; bad filter?")
    scanned = sum(r[2] for r in results)
    truncated = any(r[3] for r in results)
    witnesses: list[str] = []
    if spec.collect_witnesses:
        seen: set[bytes] = set()
        for b, masks, _, _ in results:
            if b != best:
                continue
            for mask in masks:
                if len(seen) >= spec.witness_cap:
                    truncated = True
                    break
                g = graph_from_edge_mask(spec.n, mask)
                cf = canonical_form(g)
                if cf not in seen:
                    seen.add(cf)
        witnesses = sorted(c.decode("ascii") for c in seen)
    return SearchReport(
        spec=spec,
        value=best,
        witnesses=witnesses,
        graphs_scanned=scanned,
        elapsed=time.time() - start,
        truncated=truncated,
    )


def _exhaustive_hyper(spec: SearchSpec) -> SearchReport:
    """Scan every 3-uniform hypergraph on n labeled vertices."""
    n, k, t = spec.n, spec.k, spec.t
    if n > HYPER_SCAN_CAP:
        raise ValueError(f"hypergraph scan capped at n <= {HYPER_SCAN_CAP}, got {n}")
    if n < 3:
        raise ValueError("need n >= 3 for a 3-uniform scan")
    if k is None:
        raise ValueError("hypergraph scan needs a target size k")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    if t is not None and t <= 3:
        raise ValueError("3-uniform clique filter needs t > 3")
    triples = list(combinations(range(n), 3))
    bit_of = {tr: 1 << b for b, tr in enumerate(triples)}
    total = 1 << len(triples)
    masks = np.arange(total, dtype=np.int64)

    if t is not None:
        # Forbid the complete 3-graph on t vertices.
        for sub in combinations(range(n), t):
            fm = 0
            for tr in combinations(sub, 3):
                fm |= bit_of[tr]
            fm = np.int64(fm)
            masks = masks[(masks & fm) != fm]

    counts = np.zeros(len(masks), dtype=np.int64)
    for sub in combinations(range(n), k):
        inside = 0
        for tr in combinations(sub, 3):
            inside |= bit_of[tr]
        ok = (masks & np.int64(inside)) == 0
        subset = set(sub)
        for w in range(n):
            if w in subset:
                continue
            cm = 0
            for pair in combinations(sub, 2):
                cm |= bit_of[tuple(sorted(pair + (w,)))]
            ok &= (masks & np.int64(cm)) != 0
            if not ok.any():
                break
        counts += ok
    best = int(counts.max())
    witnesses: list[str] = []
    truncated = False
    if spec.collect_witnesses:
        seen: set[str] = set()
        for mask in masks[counts == counts.max()]:
            if len(seen) >= spec.witness_cap:
                truncated = True
                break
            edges = [tr for b, tr in enumerate(triples) if int(mask) >> b & 1]
            h = Hypergraph(n, tuple(edges))
            seen.add(canonical_hypergraph_json(h))
        witnesses = sorted(seen)
    return SearchReport(
        spec=spec,
        value=best,
        witnesses=witnesses,
        graphs_scanned=total,
        truncated=truncated,
    )


def canonical_form(g: Graph) -> bytes:
    """Lexicographically least graph6 encoding over all vertex relabelings.

    Equal outputs characterize isomorphic graphs.  Branch and bound: vertices
    are placed one position at a time, each new position contributing the
    adjacency column against the placed prefix; only candidates achieving
    the minimal column are branched (a non-minimal column loses at this
    position no matter the completion), and prefixes exceeding the best
    known sequence are cut.

    Two leaves with equal columns differ by an automorphism, which fixes
    their common prefix pointwise.  At a node, a tied candidate in the orbit
    of an explored sibling under the automorphisms found so far that fix the
    placed prefix would only replay that sibling's subtree, so it is skipped;
    and the rest of the branch that holds such a leaf, below the common
    prefix, is a replay too, so the search unwinds to that prefix.  This
    keeps symmetric graphs (empty, complete, cycles) from costing n!.
    """
    n = g.n
    if n > CANONICAL_CAP:
        raise ValueError(f"canonical form capped at n <= {CANONICAL_CAP}, got {n}")
    adj = g.adj
    best: tuple[int, ...] | None = None
    best_order: tuple[int, ...] = ()
    autos: list[list[int]] = []

    def rec(order: tuple[int, ...], cols: tuple[int, ...], col_of: dict[int, int]) -> int:
        # col_of: each unplaced vertex's column against the placed prefix.
        # Returns the depth the search unwinds to: n unless an automorphism
        # shows the rest of an ancestor's child subtree is a replay.
        nonlocal best, best_order
        pos = len(order)
        if best is not None and cols > best[:pos]:
            return n
        if pos == n:
            if best is None or cols < best:
                best, best_order = cols, order
                return n
            aut = [0] * n
            for v, w in zip(order, best_order):
                aut[v] = w
            autos.append(aut)
            # The automorphism fixes the common prefix and maps this leaf's
            # branch below it onto the branch explored for the best leaf.
            depth = 0
            while order[depth] == best_order[depth]:
                depth += 1
            return depth
        cmin = min(col_of.values())
        explored: list[int] = []
        # orbit[v]: a label shared by v's orbit under the automorphisms in
        # autos[:seen] that fix the placed prefix pointwise.
        orbit = list(range(n))
        seen = 0
        for v, c in col_of.items():
            if c != cmin:
                continue
            if explored:
                for aut in autos[seen:]:
                    if all(aut[p] == p for p in order):
                        for x in range(n):
                            a, b = orbit[x], orbit[aut[x]]
                            if a != b:
                                orbit = [a if o == b else o for o in orbit]
                seen = len(autos)
                if any(orbit[u] == orbit[v] for u in explored):
                    continue
            explored.append(v)
            row = adj[v]
            rest = {w: cw << 1 | row >> w & 1 for w, cw in col_of.items() if w != v}
            depth = rec(order + (v,), cols + (cmin,), rest)
            if depth < pos:
                return depth
        return n

    rec((), (), dict.fromkeys(range(n), 0))
    # Column j holds the adjacency bits against positions 0..j-1, most
    # significant first: exactly graph6's packing order, so the least column
    # sequence relabels to the least graph6 string.
    position = [0] * n
    for i, v in enumerate(best_order):
        position[v] = i
    return graph6_encode(g.relabel(position))


def canonical_hypergraph_json(h: Hypergraph) -> str:
    """Minimum edge-list JSON over all vertex relabelings (small n only)."""
    if h.n > 8:
        raise ValueError("hypergraph canonical form capped at n <= 8")
    best = None
    for perm in permutations(range(h.n)):
        edges = sorted(tuple(sorted(perm[v] for v in e)) for e in h.edges)
        if best is None or edges < best:
            best = edges
    import json

    return json.dumps({"n": h.n, "edges": best}, separators=(",", ":"))


# Closed forms under verification.


def moon_moser_value(n: int) -> int:
    if n < 2:
        raise ValueError("need n >= 2")
    q, s = divmod(n, 3)
    return {0: 3**q, 1: 4 * 3 ** (q - 1) if q else 1, 2: 2 * 3**q}[s]


def hujter_tuza_value(n: int) -> int:
    if n < 4:
        raise ValueError("need n >= 4")
    return 2 ** (n // 2) if n % 2 == 0 else 5 * 2 ** ((n - 5) // 2)


def nielsen_value(n: int, k: int) -> int:
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    q, s = divmod(n, k)
    return q ** (k - s) * (q + 1) ** s


def m3n2_value(n: int) -> int:
    if n < 3:
        raise ValueError("need n >= 3")
    return {3: 2, 4: 4, 5: 5}.get(n, n // 2)


def mt_n1_value(t: int, n: int) -> int:
    if t < 3 or n < 1:
        raise ValueError("need t >= 3 and n >= 1")
    return n if n < t else t - 2


def hyper_m432_value(n: int) -> int:
    if n < 4:
        raise ValueError("need n >= 4")
    return n - 1


@dataclass(frozen=True)
class VerifyRow:
    params: tuple[tuple[str, int], ...]
    computed: int
    formula: int

    @property
    def match(self) -> bool:
        return self.computed == self.formula


THEOREM_IDS = ("moon-moser", "hujter-tuza", "nielsen", "m3n2", "mt-n1", "hyper-m432")


def verify_theorem(
    theorem: str,
    n_range: range,
    k_range: range | None = None,
    t_range: range | None = None,
    workers: int = 1,
) -> list[VerifyRow]:
    """Compare exhaustive values against a closed form over parameter ranges.

    A mismatching row means a bug in this package, not in the closed form;
    callers flag it rather than suppress it.
    """
    rows: list[VerifyRow] = []

    def run(spec: SearchSpec) -> int:
        return exhaustive_m(spec, workers=workers).value

    if theorem == "moon-moser":
        for n in n_range:
            rows.append(VerifyRow((("n", n),), run(SearchSpec(n)), moon_moser_value(n)))
    elif theorem == "hujter-tuza":
        for n in n_range:
            rows.append(
                VerifyRow((("n", n),), run(SearchSpec(n, t=3)), hujter_tuza_value(n))
            )
    elif theorem == "nielsen":
        if k_range is None:
            raise ValueError("nielsen needs a k range")
        for n in n_range:
            for k in k_range:
                if not 2 <= k < n:
                    continue
                rows.append(
                    VerifyRow(
                        (("n", n), ("k", k)),
                        run(SearchSpec(n, k=k)),
                        nielsen_value(n, k),
                    )
                )
    elif theorem == "m3n2":
        for n in n_range:
            rows.append(
                VerifyRow((("n", n),), run(SearchSpec(n, k=2, t=3)), m3n2_value(n))
            )
    elif theorem == "mt-n1":
        if t_range is None:
            raise ValueError("mt-n1 needs a t range")
        for t in t_range:
            for n in n_range:
                rows.append(
                    VerifyRow(
                        (("t", t), ("n", n)),
                        run(SearchSpec(n, k=1, t=t)),
                        mt_n1_value(t, n),
                    )
                )
    elif theorem == "hyper-m432":
        for n in n_range:
            rows.append(
                VerifyRow(
                    (("n", n),),
                    run(SearchSpec(n, k=2, t=4, r=3)),
                    hyper_m432_value(n),
                )
            )
    else:
        raise ValueError(f"unknown theorem id {theorem!r}; one of {THEOREM_IDS}")
    return rows


def uniqueness_check(
    n: int = 8, k: int = 2, t: int = 3, workers: int = 1, witness_cap: int = 512
) -> SearchReport:
    """Exhaustive witness census for the triangle-free k=2 extremal problem.

    At n=8 this walks all 2^28 edge masks, so it sits behind explicit
    invocation; n=6 and 7 are quick.
    """
    spec = SearchSpec(n=n, k=k, t=t, collect_witnesses=True, witness_cap=witness_cap)
    return exhaustive_m(spec, workers=workers)
