"""Naive reference implementations used to cross-check the fast paths.

Everything here works from explicit edge lists and subset scans and stays
deliberately independent of the package's bitmask machinery, except
``reference_exhaustive_m``: it reuses the scan kernel and the canonical
labelling to check how ``exhaustive_m`` plans its chunks and deduplicates
its witnesses.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

from mislab import Graph, Hypergraph, PartitionedGraph, SearchReport, SearchSpec, canonical_form


def naive_mis_list(g: Graph, k: int) -> list[int]:
    """Size-k MIS's as bitmasks, in lexicographic order of their sorted vertices.

    That is the order in which the backtracking counter visits them: it picks
    vertices in increasing order, depth first.
    """
    return _mis_masks(g, combinations(range(g.n), k))


def _mis_masks(g: Graph, subsets) -> list[int]:
    """The vertex tuples among ``subsets`` that are MIS's of g, as bitmasks, in order."""
    edges = {frozenset(e) for e in g.edges()}
    out = []
    for sub in subsets:
        if any(frozenset(p) in edges for p in combinations(sub, 2)):
            continue
        if all(
            any(frozenset((w, u)) in edges for u in sub)
            for w in range(g.n)
            if w not in sub
        ):
            out.append(sum(1 << v for v in sub))
    return out


def naive_mis_profile(g: Graph) -> dict[int, int]:
    """MIS count by size via a full subset scan."""
    return {
        size: len(found)
        for size in range(g.n + 1)
        if (found := naive_mis_list(g, size))
    }


def naive_count_k_mis(g: Graph, k: int) -> int:
    return naive_mis_profile(g).get(k, 0)


def naive_transversal_mis_list(pg: PartitionedGraph) -> list[int]:
    """MIS's with one vertex per part, as bitmasks, in the counter's order.

    The counter fills the parts in order of size (ties in part order) and
    tries each part's vertices in increasing order, depth first: the order of
    ``itertools.product`` over the parts sorted that way.
    """
    return _mis_masks(pg.graph, product(*sorted(pg.parts, key=len)))


def naive_has_clique(g: Graph, t: int) -> bool:
    if t == 1:
        return g.n >= 1
    edges = {frozenset(e) for e in g.edges()}
    return any(
        all(frozenset(p) in edges for p in combinations(sub, 2))
        for sub in combinations(range(g.n), t)
    )


def naive_hyper_is_mis(h: Hypergraph, s: set[int]) -> bool:
    """No edge inside s, and every outside vertex completes one when added."""
    edge_sets = [set(e) for e in h.edges]
    if any(e <= s for e in edge_sets):
        return False
    return all(
        any(e <= s | {w} for e in edge_sets) for w in range(h.n) if w not in s
    )


def naive_hyper_mis_list(h: Hypergraph, k: int) -> list[int]:
    """Size-k MIS's as bitmasks, in lexicographic order of their sorted vertices.

    That is the order in which the backtracking counter visits them: it picks
    vertices in increasing order, depth first.
    """
    return [
        sum(1 << v for v in sub)
        for sub in combinations(range(h.n), k)
        if naive_hyper_is_mis(h, set(sub))
    ]


def naive_hyper_count_k_mis(h: Hypergraph, k: int) -> int:
    return len(naive_hyper_mis_list(h, k))


def hyper_contains_complete(h: Hypergraph, t: int, r: int) -> bool:
    """True iff some t vertices carry every one of their r-subsets as an edge."""
    edges = {frozenset(e) for e in h.edges}
    return any(
        all(frozenset(sub) in edges for sub in combinations(group, r))
        for group in combinations(range(h.n), t)
    )


def naive_hyper_canonical(h: Hypergraph) -> list[tuple[int, ...]]:
    """The least sorted edge list over all n! relabelings: an isomorphism invariant."""
    return min(
        sorted(tuple(sorted(perm[v] for v in e)) for e in h.edges)
        for perm in permutations(range(h.n))
    )


def has_3term_ap(values: set[int]) -> bool:
    vs = sorted(values)
    for i, x in enumerate(vs):
        for y in vs[i + 1 :]:
            if 2 * y - x in values and 2 * y - x != y:
                return True
    return False


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def _triangles(edges: set[tuple[int, int]], n: int) -> list[tuple[int, int, int]]:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [
        (a, b, c)
        for a in range(n)
        for b in adj[a]
        if b > a
        for c in adj[a] & adj[b]
        if c > b
    ]


def random_triangle_free(rng: random.Random, n: int, p: float) -> Graph:
    """Random graph with an edge deleted from each triangle until none remain."""
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    while True:
        tris = _triangles(edges, n)
        if not tris:
            break
        a, b, c = tris[rng.randrange(len(tris))]
        pick = rng.choice([(a, b), (a, c), (b, c)])
        edges.discard(pick)
    return Graph.from_edges(n, sorted(edges))


def random_tripartite_triangle_free(
    rng: random.Random, n: int, p: float
) -> tuple[Graph, list[list[int]]]:
    """Random triangle-free graph with a designated 3-part vertex partition."""
    assignment = [rng.randrange(3) for _ in range(n)]
    # every part nonempty
    for i in range(3):
        if i not in assignment:
            assignment[rng.randrange(n)] = i
    for i in range(3):
        if i not in assignment:
            return random_tripartite_triangle_free(rng, n, p)
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if assignment[u] != assignment[v] and rng.random() < p
    }
    while True:
        tris = _triangles(edges, n)
        if not tris:
            break
        a, b, c = tris[rng.randrange(len(tris))]
        pick = rng.choice([(a, b), (a, c), (b, c)])
        edges.discard(pick)
    parts = [[v for v in range(n) if assignment[v] == i] for i in range(3)]
    return Graph.from_edges(n, sorted(edges)), parts


def random_hypergraph3(rng: random.Random, n: int, p: float) -> Hypergraph:
    edges = [tr for tr in combinations(range(n), 3) if rng.random() < p]
    return Hypergraph(n, tuple(edges))


def random_mixed_hypergraph(rng: random.Random, n: int, m: int) -> Hypergraph:
    """Up to m distinct random edges of sizes 2..4 (fewer when n is small)."""
    edges = set()
    for _ in range(m):
        size = rng.randint(2, 4)
        if size <= n:
            edges.add(tuple(sorted(rng.sample(range(n), size))))
    return Hypergraph(n, tuple(sorted(edges)))


def reference_exhaustive_m(spec: SearchSpec) -> SearchReport:
    """``exhaustive_m`` as a plain loop: every chunk goes through the scan
    kernel, and every raw witness mask at the best through ``canonical_form``.

    The report is truncated when a chunk at the best was cut by its raw cap,
    or when another raw mask follows the one that filled the witness cap.
    """
    from mislab import search

    n, r = spec.n, spec.r
    total = 1 << comb(n, r)
    chunk = min(total, 1 << search._CHUNK_EDGE_BITS)
    raw_cap = max(4 * spec.witness_cap, 4096) if spec.collect_witnesses else 0
    results = _reference_chunks(n, r, spec.k, spec.t, chunk, spec.collect_witnesses, raw_cap)
    best = max(res[0] for res in results)
    witnesses, truncated = reference_witnesses(
        n, r, spec.witness_cap, [res for res in results if res[0] == best]
    )
    return SearchReport(spec, best, witnesses, sum(res[2] for res in results), truncated)


def reference_witnesses(n: int, r: int, cap: int, results) -> tuple[list[str], bool]:
    """The canonical forms of the raw masks in chunk scan ``results``, in order.

    Canonicalising stops at ``cap`` forms.  The result is truncated when a
    chunk was cut by its raw cap, or when another raw mask follows the one
    that filled the witness cap.
    """
    truncated = any(res[3] for res in results)
    seen: set[str] = set()
    for _, masks, _, _ in results:
        for mask in masks:
            if len(seen) >= cap:
                truncated = True
                break
            seen.add(_reference_form(n, r, mask))
    return sorted(seen), truncated


# Both are pure; the caches only spare repeated work across witness caps.
@lru_cache(maxsize=4)
def _reference_chunks(n, r, k, t, chunk, collect, raw_cap) -> tuple:
    from mislab import search

    return tuple(
        search._scan_chunk((n, r, k, t, lo, lo + chunk, collect, raw_cap))
        for lo in range(0, 1 << comb(n, r), chunk)
    )


@lru_cache(maxsize=1 << 16)
def _reference_form(n: int, r: int, mask: int) -> str:
    from mislab import search

    return canonical_form(search.graph_from_edge_mask(n, mask, r)).decode("ascii")
