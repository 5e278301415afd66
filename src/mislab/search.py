"""Exhaustive small-n search for extremal MIS counts, with witnesses.

One scan serves graphs (r=2) and 3-uniform hypergraphs (r=3).  Bit b of an
edge mask is the b-th r-subset of the n labeled vertices (a slot), and the
scan walks every edge mask in aligned chunks of 2^w masks.  Past 2^16 masks
the w low bits are the slots meeting vertex 0 or 1, which come first in
``itertools.combinations`` order, so a chunk's high bits fix the r-graph on
vertices 2..n-1, and its masks are that prefix plus every w-bit low pattern.
The per-(n, r, t, w) clique filter, cached per process, sorts each forbidden
complete r-graph on t vertices by where its slots fall: wholly in the high
bits (a chunk whose prefix holds it is skipped before any other work),
wholly in the low bits (removed once, from a cached ascending array of low
patterns), or straddling (a constraint on the low bits only in chunks whose
prefix holds its high part; a chunk's active straddlers build one keep-mask,
their single-slot lows merged into one compare).  A vertex set is an MIS
iff the mask misses its inside slots and, for each outside vertex, hits the
slots joining that vertex to r-1 members of the set.  These tests (cached
per (n, r, sizes)) are settled on the fixed prefix where they can be; the
rest are mask compares over the chunk's surviving low patterns into buffers
made once per chunk, in the narrowest unsigned type (ints meeting them are
cut to the low bits), with uint8 counts: an r-graph's MIS's form an
antichain, so by Sperner's theorem there are at most C(n, n // 2).  numpy
is imported only inside the scan.

Vertex relabellings that keep every low slot low map chunks onto chunks and
keep each graph's MIS count and clique-freeness, so, as in orderly
generation, only the least chunk of each orbit (one per class of r-graphs on
vertices 2..n-1) is scanned; ``graphs_scanned`` still counts every mask.
The caller scans one share of them and a forked child each other share.
With witnesses, each chunk returns its low patterns at its best, and each
process keeps those of its chunks at its own running best: the orbit-least
chunks at the overall best hold the least labelled copy of every class at
the best, and a report lists classes in the order of those copies.

Witnesses are deduplicated up to isomorphism by ``canonical_form``, one
labelling for graphs and 3-graphs, in the caller.  A mask that one adjacent
label swap makes smaller is not the least copy of its class and is skipped
before the labelling runs, so it runs about once per class.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, count, product
from math import comb

from .formats import graph6_encode
from .graphs import Graph, Hypergraph, _link, _rest_masks

# Edge-mask bits per scan: the 2^28 masks of the n=8 graph census, which
# also admits 3-graphs up to n=6 (20 bits).
SCAN_BITS_CAP = 28
CANONICAL_CAP = 10
_CHUNK_EDGE_BITS = 16  # a scan of at most 2^16 masks is a single chunk


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one exhaustive extremal computation.

    ``k`` None means MIS's of every size; ``t`` None means no clique filter
    (otherwise the filter forbids the complete r-graph on t vertices).
    """

    n: int
    k: int | None = None
    t: int | None = None
    r: int = 2
    collect_witnesses: bool = False
    witness_cap: int = 64


@dataclass
class SearchReport:
    """A spec's best count and, if asked for, its witness classes.

    With the classes at the best ordered by least labelled copy (smallest
    edge mask), ``witnesses`` holds the canonical forms of the first
    ``witness_cap`` and ``truncated`` says whether more exist.  Neither
    depends on the chunk width, the worker count or any internal cap.
    """

    spec: SearchSpec
    value: int
    witnesses: list[str] = field(default_factory=list)
    graphs_scanned: int = 0
    truncated: bool = False

    def to_json(self) -> dict:
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
            "graphs_scanned": self.graphs_scanned,
            "truncated": self.truncated,
        }


@lru_cache(maxsize=None)
def _slots(n: int, r: int) -> dict[tuple[int, ...], int]:
    """The bit of each r-subset (slot) in an edge mask, in slot order.

    The slots among the last vertices occupy the top bits, which is what
    chunk skipping relies on.  Shared by every caller: do not modify.
    """
    return {s: 1 << b for b, s in enumerate(combinations(range(n), r))}


def _slot_mask(n: int, r: int, vertices: tuple[int, ...] | list[int]) -> int:
    """The mask of every slot inside the sorted vertex sequence ``vertices``."""
    bit_of = _slots(n, r)
    return sum(bit_of[s] for s in combinations(vertices, r))


@lru_cache(maxsize=None)
def _subset_tables(
    n: int, r: int, sizes: tuple[int, ...]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per candidate MIS: its inside mask and one cross mask per outside vertex.

    A vertex set is an MIS of the r-graph with edge mask m iff m misses the
    inside mask (the set's slots) and hits every cross mask (the slots that
    join one outside vertex to r-1 members of the set).
    """
    tables = []
    for size in sizes:
        for sub in combinations(range(n), size):
            inside = _slot_mask(n, r, sub)
            crosses = tuple(
                _slot_mask(n, r, sorted((*sub, v))) & ~inside
                for v in range(n)
                if v not in sub
            )
            tables.append((inside, crosses))
    return tuple(tables)


@lru_cache(maxsize=1)
def _clique_filter(
    n: int, r: int, t: int | None, width: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...], np.ndarray]:
    """Split the filter against complete r-graphs on t vertices at bit ``width``.

    Returns (killers, straddlers, base) for chunks of 2^width masks.  A
    killer is a clique lying wholly in the high bits: a chunk whose fixed
    prefix contains one holds no clique-free graph.  A straddler is a
    (high, low) clique split; it constrains the low bits only in chunks whose
    prefix contains its high part.  ``base`` is every low-bit pattern,
    ascending, that contains no clique lying wholly in the low bits.  Only
    the last filter is kept: one scan uses one.  Its dtype is the narrowest
    unsigned type that holds a low pattern: uint16 at the real width.
    """
    import numpy as np
    low_bits = (1 << width) - 1
    killers, straddlers = [], []
    base = np.arange(1 << width, dtype=np.min_scalar_type(low_bits))
    for sub in combinations(range(n), t) if t is not None else ():
        fm = _slot_mask(n, r, sub)
        high, low = fm & ~low_bits, fm & low_bits
        if not low:
            killers.append(high)
        elif not high:
            base = base[(base & low) != low]
        else:
            straddlers.append((high, low))
    base.flags.writeable = False
    return tuple(killers), tuple(straddlers), base


def graph_from_edge_mask(n: int, mask: int, r: int = 2) -> Graph | Hypergraph:
    """The r-graph whose edges are the slots set in ``mask``: a Graph for r=2."""
    edges = tuple(s for s, bit in _slots(n, r).items() if mask & bit)
    return Graph.from_edges(n, edges) if r == 2 else Hypergraph(n, edges)


def _chunk_crosses(crosses: tuple[int, ...], fixed: int, low_bits: int) -> tuple[int, list[int]]:
    """Reduce a subset's cross masks to tests on a chunk's low patterns.

    A cross mask meeting the fixed prefix holds in the whole chunk.  Of the
    rest, the single-slot ones merge into ``need`` (every such edge must be
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


def _scan_chunk(args: tuple) -> tuple[int, np.ndarray | list]:
    """Scan edge masks in [lo, hi); returns (best, hits).

    [lo, hi) is an aligned block of 2^width masks, so every mask in it is
    ``lo`` (the chunk's fixed high bits) plus a low pattern below 2^width.
    The work runs on the low patterns only; each test against a mask is
    first settled on the fixed part where it can be.  ``hits`` is, if
    ``collect`` is set, the low pattern of every mask at the chunk's best,
    ascending, in the filter's narrow array type; else it is empty.
    """
    import numpy as np
    n, r, k, t, lo, hi, collect = args
    width = (hi - lo).bit_length() - 1
    low_bits = (1 << width) - 1
    killers, straddlers, base = _clique_filter(n, r, t, width)
    if any(lo & km == km for km in killers):
        return -1, []
    # Single-slot lows merge into one mask; a multi-slot low meeting it removes nothing more.
    lows = [low for high, low in straddlers if lo & high == high]
    single = sum({low for low in lows if not low & (low - 1)})
    masks = base
    if lows:
        tmp, kb = np.empty_like(base), np.empty_like(base, bool)
        keep = np.equal(np.bitwise_and(base, single, out=tmp), 0)
        for low in lows:
            if not low & single:
                keep &= np.not_equal(np.bitwise_and(base, low, out=tmp), low, out=kb)
        masks = base[keep]
        del tmp, kb, keep  # so that the filter and count buffers never coexist
    if len(masks) == 0:
        return -1, []

    sizes = (k,) if k is not None else tuple(range(n + 1))
    # The MIS's of an r-graph form an antichain, so by Sperner's theorem a
    # count is at most C(n, n // 2): 70 at n <= 8, 20 for 3-graphs at n <= 6.
    counts = np.zeros(len(masks), dtype=np.uint8)
    tmp, kb, ok = np.empty_like(masks), np.empty_like(masks, bool), np.empty_like(masks, bool)
    for inside, crosses in _subset_tables(n, r, sizes):
        if inside & lo:
            continue  # an inside slot is an edge of every graph in the chunk
        need, either = _chunk_crosses(crosses, lo, low_bits)
        if need < 0:
            continue
        np.equal(np.bitwise_and(masks, (inside & low_bits) | need, out=tmp), need, out=ok)
        for cm in either:
            ok &= np.not_equal(np.bitwise_and(masks, cm, out=tmp), 0, out=kb)
        np.add(counts, ok.view(np.uint8), out=counts)
    best = int(counts.max())
    return best, masks[counts == best] if collect else []


def _check_spec(spec: SearchSpec) -> None:
    """Raise ValueError for a spec ``exhaustive_m`` cannot scan."""
    n, k, t, r = spec.n, spec.k, spec.t, spec.r
    if r not in (2, 3):
        raise ValueError(f"unsupported uniformity r={r}")
    if n < 1:
        raise ValueError("need n >= 1")
    if comb(n, r) > SCAN_BITS_CAP:
        top = next(m for m in count(r) if comb(m + 1, r) > SCAN_BITS_CAP)
        raise ValueError(f"scan capped at n <= {top} for r={r}, got {n}")
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    if t is not None and t <= r:
        raise ValueError(f"clique filter needs t > {r}")
    if spec.collect_witnesses and spec.witness_cap < 1:
        raise ValueError(f"witness cap must be >= 1, got {spec.witness_cap}")


def _chunk_width(n: int, r: int) -> int:
    """The scan's low bits: every slot up to 2^16 masks, else the slots meeting vertex 0 or 1."""
    bits = comb(n, r)
    return bits if bits <= _CHUNK_EDGE_BITS else bits - comb(n - 2, r)


def _low_swaps(n: int, r: int, width: int) -> list[tuple[int, int]]:
    """The swaps (i, j) of each vertex i with the next vertex j of its block.

    The label swaps that keep every low slot (bit < ``width``) low join the
    vertices into blocks, and the relabellings that do are the permutations
    of each block, which these swaps generate: at the vertex cut the blocks
    are {0, 1} and {2, ..., n-1}, 1440 relabellings at n=8.
    """
    low = set(list(combinations(range(n), r))[:width])
    swaps = [(i, j) for i, j in combinations(range(n), 2) if all(
        tuple(sorted(j if v == i else i if v == j else v for v in s)) in low for s in low)]
    return sorted({i: j for i, j in reversed(swaps)}.items())  # each i's least partner


@lru_cache(maxsize=None)
def _orbit_least(n: int, r: int, width: int) -> tuple[int, ...]:
    """The chunks least in their orbit under ``_low_swaps``, ascending, by index.

    A chunk's index is its fixed prefix shifted down by ``width``.  A swap
    maps each chunk onto one chunk, so minima spread along the swaps until
    nothing changes.  A relabelling keeps every graph's MIS count and
    K_t-freeness, so a chunk reaches the same best as its orbit-least chunk.
    """
    import numpy as np
    slots = list(combinations(range(n), r))
    chunks = np.arange(1 << len(slots) - width)
    chunks = chunks.astype(np.min_scalar_type(chunks[-1]))
    images = []
    for i, j in _low_swaps(n, r, width):
        images.append(np.zeros_like(chunks))
        for b, s in enumerate(slots[width:]):
            to = slots.index(tuple(sorted(j if v == i else i if v == j else v for v in s))) - width
            images[-1] |= (chunks >> b & 1) << to
    least, before = chunks.copy(), None
    while before is None or not np.array_equal(least, before):
        before = least.copy()
        for image in images:
            np.minimum(least, least[image], out=least)
    return tuple(np.flatnonzero(least == chunks).tolist())


@lru_cache(maxsize=None)
def _adjacent_swaps(n: int, r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per i < n-1, the delta-swaps (shift, low bits) that swap labels i and i+1.

    Swapping the labels exchanges each slot holding i but not i+1 with the
    same slot holding i+1 instead, which sits higher in slot order; the pairs
    are grouped by their bit distance.
    """
    bit_of = _slots(n, r)
    swaps = []
    for i in range(n - 1):
        by_shift: dict[int, int] = {}
        for s, bit in bit_of.items():
            if i in s and i + 1 not in s:
                shift = bit_of[tuple(sorted(i + 1 if v == i else v for v in s))].bit_length()
                shift -= bit.bit_length()
                by_shift[shift] = by_shift.get(shift, 0) | bit
        swaps.append(tuple(by_shift.items()))
    return tuple(swaps)


def _swapped(mask: int, swap: tuple[tuple[int, int], ...]) -> int:
    """The edge mask of the r-graph ``mask`` with one adjacent label pair swapped."""
    for shift, low in swap:
        x = (mask >> shift ^ mask) & low
        mask ^= x | x << shift
    return mask


def _dedup_witnesses(n: int, r: int, cap: int, results) -> tuple[list[str], bool]:
    """The first ``cap`` witness classes by least labelled copy, and whether more exist.

    ``results`` are the (lo, hits) pairs of the orbit-least chunks at the
    best, in ascending order, so their masks ``lo + hit`` come in ascending
    order and hold the least copy of every class at the best (see
    ``exhaustive_m``).  A mask that one adjacent label swap makes smaller is
    not the least copy of its class, which came earlier, so it is skipped
    before the labelling runs.  Every other mask is canonicalised; a class is
    first seen at its least copy, and the first class past ``cap`` settles
    the report as truncated without reading further.
    """
    swaps = _adjacent_swaps(n, r)
    seen: set[str] = set()
    for lo, hits in results:
        for x in hits:
            mask = lo + int(x)
            if any(_swapped(mask, swap) < mask for swap in swaps):
                continue
            form = canonical_form(graph_from_edge_mask(n, mask, r)).decode("ascii")
            if form not in seen:
                if len(seen) == cap:
                    return sorted(seen), True
                seen.add(form)
    return sorted(seen), False


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run(spec: SearchSpec, jobs: list[tuple], procs: int) -> SearchReport:
    """Scan the chunk ``jobs`` of ``spec`` in ``procs`` processes, keeping the hits at the best.

    Process i scans ``jobs[i::procs]`` and returns its best and the hits of
    its chunks at that best.  Process 0 is this one; each other is a forked
    child that sends its result or exception through a pipe and leaves by
    ``os._exit``, running no ``atexit`` hook and flushing no inherited buffer.
    """
    import pickle
    import signal

    def share(i: int) -> tuple[int, list]:
        best, at_best = -1, []
        for job in jobs[i::procs]:
            value, hits = _scan_chunk(job)
            if value > best:
                best, at_best = value, []
            if value == best:
                at_best.append((job[4], hits))
        return best, at_best

    children = []
    try:
        for i in range(1, procs):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with open(w, "wb") as out:
                        try:
                            result = share(i)
                        except Exception as exc:
                            result = exc
                        pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        shares = [share(0)]
        for pid, pipe in children:
            try:
                shares.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"scan worker {pid} exited without a result") from None
            if isinstance(shares[-1], Exception):
                raise shares[-1]
    finally:
        for pid, pipe in children:  # a child that sent its result has nothing left to do
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    best = max(value for value, _ in shares)
    if best < 0:
        raise RuntimeError("clique filter eliminated every graph; bad filter?")
    witnesses, truncated = [], False
    if spec.collect_witnesses:
        at_best = [pair for value, pairs in shares if value == best for pair in pairs]
        at_best.sort(key=lambda pair: pair[0])
        witnesses, truncated = _dedup_witnesses(spec.n, spec.r, spec.witness_cap, at_best)
    return SearchReport(spec=spec, value=best, witnesses=witnesses,
                        graphs_scanned=1 << comb(spec.n, spec.r), truncated=truncated)


def exhaustive_m(spec: SearchSpec, workers: int = 1) -> SearchReport:
    """Exact maximum MIS count over all (filtered) labeled r-graphs on n vertices.

    Refuses scans beyond ``SCAN_BITS_CAP`` edge bits rather than running
    forever, and worker counts below 1.  Only the ``_orbit_least`` chunks
    at ``_chunk_width`` are scanned, by ``workers`` processes capped by those
    chunks and the CPUs (one where ``os.fork`` is missing); ``graphs_scanned``
    still counts every mask, as the other chunks are relabelled copies.

    Witnesses, when requested, follow the contract in ``SearchReport``.  The
    least copy M of a class at the best lies in an orbit-least chunk: each
    relabelling g of the group maps M to a copy g(M) >= M and M's chunk onto
    g(M)'s, so no chunk in the orbit of M's chunk is smaller.  So each process
    keeps the hits of its orbit-least chunks at its running best, and the
    deduplication reads those at the overall best in ascending order and
    stops at the first class past the cap.  Proving a report complete costs
    every copy at the best in those chunks: listing all 410 triangle-free
    graphs on 8 vertices (k=0) makes 1,870 ``canonical_form`` calls.
    """
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    _check_spec(spec)
    n, k, t, r = spec.n, spec.k, spec.t, spec.r
    width = _chunk_width(n, r)
    jobs = [(n, r, k, t, c << width, c + 1 << width, spec.collect_witnesses)
            for c in _orbit_least(n, r, width)]  # ascending
    return _run(spec, jobs, min(workers, len(jobs), _cpu_count() if hasattr(os, "fork") else 1))


def canonical_form(obj: Graph | Hypergraph) -> bytes:
    """The text of a graph or uniform hypergraph under its least labelling.

    Equal outputs characterize isomorphic r-graphs.  Branch and bound:
    vertices are placed one position at a time, each new position
    contributing a column with one bit per (r-1)-set of earlier positions,
    set when that set and the new vertex form an edge (for a graph, its
    adjacency against the placed prefix).  Only candidates achieving the
    minimal column are branched (a non-minimal column loses at this position
    no matter the completion), and prefixes exceeding the best known
    sequence are cut.  A graph comes back as graph6, a hypergraph as
    edge-list JSON with sorted edges, under the least labelling.

    Two leaves with equal columns differ by an automorphism, which fixes
    their common prefix pointwise.  At a node, a tied candidate in the orbit
    of an explored sibling under the automorphisms found so far that fix the
    placed prefix would only replay that sibling's subtree, so it is skipped;
    and the rest of the branch that holds such a leaf, below the common
    prefix, is a replay too, so the search unwinds to that prefix.  This
    keeps symmetric graphs (empty, complete, cycles) from costing n!.
    """
    n = obj.n
    if n > CANONICAL_CAP:
        raise ValueError(f"canonical form capped at n <= {CANONICAL_CAP}, got {n}")
    # link: an (r-1)-set's mask -> the vertices completing it to an edge.
    if isinstance(obj, Graph):
        r, link = 2, {1 << v: row for v, row in enumerate(obj.adj)}
    else:
        r = len(obj.edges[0]) if obj.edges else 2
        if not obj.uniform(r):
            raise ValueError("canonical form needs a uniform hypergraph")
        link = _link(_rest_masks(obj))
    best: tuple[int, ...] | None = None
    best_order: tuple[int, ...] = ()
    autos: list[list[int]] = []

    def rec(order: tuple[int, ...], cols: tuple[int, ...], col_of: dict, levels: tuple) -> int:
        # col_of: each unplaced vertex's column against the placed prefix;
        # levels[i]: the prefix's i-sets (i < r-1) as masks, in position order.
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
            rest = col_of
            for s in levels[-1]:  # each new (r-1)-set: v and an (r-2)-set of the prefix
                row = link.get(s | 1 << v, 0)
                rest = {w: cw << 1 | row >> w & 1 for w, cw in rest.items() if w != v}
            if v in rest:  # no (r-1)-set yet: the first r-2 positions
                rest = {w: cw for w, cw in rest.items() if w != v}
            grown = levels if r == 2 else levels[:1] + tuple(  # a graph's never grow
                lv + [s | 1 << v for s in lower] for lower, lv in zip(levels, levels[1:])
            )
            depth = rec(order + (v,), cols + (cmin,), rest, grown)
            if depth < pos:
                return depth
        return n

    rec((), (), dict.fromkeys(range(n), 0), ([0],) + ([],) * (r - 2))
    # For a graph, column j holds the adjacency bits against positions
    # 0..j-1, most significant first: exactly graph6's packing order, so the
    # least column sequence relabels to the least graph6 string.
    position = [0] * n
    for i, v in enumerate(best_order):
        position[v] = i
    if isinstance(obj, Graph):
        return graph6_encode(obj.relabel(position))
    import json
    edges = sorted(sorted(position[v] for v in e) for e in obj.edges)
    return json.dumps({"n": n, "edges": edges}, separators=(",", ":")).encode("ascii")


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


# Theorem id -> (parameter axes, spec builder, closed form).  Rows run over
# the product of the axes' ranges, first axis outermost; the builder and the
# closed form take the parameters in axis order, and the builder returns None
# for parameters outside the theorem's range (their rows are skipped).
THEOREMS: dict[str, tuple[tuple[str, ...], Callable, Callable[..., int]]] = {
    "moon-moser": (("n",), lambda n: SearchSpec(n), moon_moser_value),
    "hujter-tuza": (("n",), lambda n: SearchSpec(n, t=3), hujter_tuza_value),
    "nielsen": (
        ("n", "k"), lambda n, k: SearchSpec(n, k=k) if 2 <= k < n else None, nielsen_value
    ),
    "m3n2": (("n",), lambda n: SearchSpec(n, k=2, t=3), m3n2_value),
    "mt-n1": (("t", "n"), lambda t, n: SearchSpec(n, k=1, t=t), mt_n1_value),
    "hyper-m432": (("n",), lambda n: SearchSpec(n, k=2, t=4, r=3), hyper_m432_value),
}
THEOREM_IDS = tuple(THEOREMS)


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
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}; one of {THEOREM_IDS}")
    axes, build, formula = THEOREMS[theorem]
    ranges = {"n": n_range, "k": k_range, "t": t_range}
    for axis in axes:
        if ranges[axis] is None:
            raise ValueError(f"{theorem} needs a {axis} range")
    # Check every row's spec and closed form before any scan runs.
    planned = []
    for values in product(*(ranges[axis] for axis in axes)):
        spec = build(*values)
        if spec is not None:
            _check_spec(spec)
            planned.append((tuple(zip(axes, values)), spec, formula(*values)))
    if not planned:
        raise ValueError(f"no {theorem} row in the given ranges")
    return [VerifyRow(params, exhaustive_m(spec, workers).value, value)
            for params, spec, value in planned]


def uniqueness_check(
    n: int = 8, k: int = 2, t: int = 3, workers: int = 1, witness_cap: int = 512
) -> SearchReport:
    """Exhaustive witness census for the triangle-free k=2 extremal problem.

    At n=8 this walks all 2^28 edge masks, so it sits behind explicit
    invocation; n=6 and 7 are quick.
    """
    spec = SearchSpec(n=n, k=k, t=t, collect_witnesses=True, witness_cap=witness_cap)
    return exhaustive_m(spec, workers=workers)
