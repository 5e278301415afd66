"""Naive reference implementations used to cross-check the fast paths.

Everything here works from explicit edge lists and subset scans and stays
deliberately independent of the package's bitmask machinery.
``reference_exhaustive_m`` uses only ``canonical_form`` from it, to name the
isomorphism class of each graph it reports, and
``reference_transversal_reduction`` only ``engine._random_split``, to draw
the same random splits.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

from mislab import (
    Graph,
    Hypergraph,
    PartitionedGraph,
    ReductionResult,
    SearchReport,
    SearchSpec,
    canonical_form,
    engine,
)


def edges(g: Graph) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, of g in lexicographic order."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]


def is_independent(g: Graph, s) -> bool:
    """True iff no two vertices of s (a bitmask or vertex iterable) are adjacent."""
    m = s if isinstance(s, int) else sum(1 << v for v in set(s))
    if m < 0 or m >> g.n:
        raise ValueError(f"vertex set out of range for n={g.n}")
    members = [v for v in range(g.n) if m >> v & 1]
    return not any(g.adj[u] >> v & 1 for u, v in combinations(members, 2))


def shadow(h: Hypergraph) -> Graph:
    """Graph on the same vertices with uv an edge iff some hyperedge holds both."""
    return Graph.from_edges(h.n, {p for e in h.edges for p in combinations(e, 2)})


def naive_mis_list(g: Graph, k: int) -> list[int]:
    """Size-k MIS's as bitmasks, in lexicographic order of their sorted vertices.

    That is the order in which the backtracking counter visits them: it picks
    vertices in increasing order, depth first.
    """
    return _mis_masks(g, combinations(range(g.n), k))


def _mis_masks(g: Graph, subsets) -> list[int]:
    """The vertex tuples among ``subsets`` that are MIS's of g, as bitmasks, in order."""
    pairs = {frozenset(e) for e in edges(g)}
    out = []
    for sub in subsets:
        if any(frozenset(p) in pairs for p in combinations(sub, 2)):
            continue
        if all(
            any(frozenset((w, u)) in pairs for u in sub)
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


def reference_split_classes(
    g: Graph, mis: list[int]
) -> tuple[tuple[int, ...], Graph, list[list[int]], tuple[int, ...]]:
    """The classes that ``transversal_reduction`` splits, from explicit edge sets.

    ``mis`` lists g's k-MIS's in the counter's order.  The first seeds the
    greedy partition: class j takes the neighbors of the j-th seed vertex that
    no earlier class took, and the seed itself is the last class.  The profile
    is the most common tuple of class meet counts, the least on ties.  Returns
    the kept vertices (classes with a nonzero count), the subgraph they induce
    relabelled in increasing order, the kept classes in new labels and the
    full profile.
    """
    edge_set = set(edges(g))
    first = [v for v in range(g.n) if mis[0] >> v & 1]
    classes, taken = [], set(first)
    for v in first:
        cls = {u for u in range(g.n) if (min(u, v), max(u, v)) in edge_set} - taken
        classes.append(cls)
        taken |= cls
    classes.append(set(first))
    votes: dict[tuple[int, ...], int] = {}
    for m in mis:
        prof = tuple(sum(m >> v & 1 for v in cls) for cls in classes)
        votes[prof] = votes.get(prof, 0) + 1
    profile = min(votes, key=lambda p: (-votes[p], p))
    keep = tuple(sorted(v for cls, c in zip(classes, profile) if c for v in cls))
    new = {v: i for i, v in enumerate(keep)}
    sub = Graph.from_edges(
        len(keep), [(new[u], new[v]) for u, v in edge_set if u in new and v in new]
    )
    kept = [sorted(new[v] for v in cls) for cls, c in zip(classes, profile) if c]
    return keep, sub, kept, profile


def reference_transversal_reduction(
    g: Graph, k: int, retries: int, seed: int, mis: list[int] | None = None
) -> ReductionResult:
    """``transversal_reduction``'s result by its definition, with no early stop.

    ``mis`` defaults to the naive k-MIS list.  Every one of the ``retries``
    splits is drawn with ``engine._random_split`` from one ``Random(seed)``,
    as the engine draws them, and scored by the naive transversal list; the
    first split with the most transversal MIS's wins.
    """
    if mis is None:
        mis = naive_mis_list(g, k)
    keep, sub, kept, profile = reference_split_classes(g, mis)
    counts = [c for c in profile if c]
    rng = random.Random(seed)
    best_T, best_parts, best_attempt = -1, [], 0
    for attempt in range(1, retries + 1):
        parts = [p for vs, c in zip(kept, counts) for p in engine._random_split(vs, c, rng)]
        T = len(naive_transversal_mis_list(PartitionedGraph.from_parts(sub, parts)))
        if T > best_T:
            best_T, best_parts, best_attempt = T, parts, attempt
    return ReductionResult(
        subgraph=PartitionedGraph.from_parts(sub, best_parts),
        vertex_map=keep,
        achieved_T=best_T,
        source_m=len(mis),
        composition=profile,
        retries_used=best_attempt,
        seed=seed,
        bound_met=best_T * (4 * k) ** k >= len(mis),
    )


def naive_has_clique(g: Graph, t: int) -> bool:
    if t == 1:
        return g.n >= 1
    pairs = {frozenset(e) for e in edges(g)}
    return any(
        all(frozenset(p) in pairs for p in combinations(sub, 2))
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


def edge_masks(h: Hypergraph) -> tuple[int, ...]:
    """Each edge of h as a vertex bitmask, in edge order."""
    return tuple(sum(1 << v for v in e) for e in h.edges)


def hypergraph_is_maximal_independent(h: Hypergraph, s) -> bool:
    """True iff s (a bitmask or vertex iterable) is independent and adding
    any outside vertex traps an edge."""
    m = s if isinstance(s, int) else sum(1 << v for v in set(s))
    if m < 0 or m >> h.n:
        raise ValueError(f"vertex set out of range for n={h.n}")
    left = {em & ~m for em in edge_masks(h)}
    return 0 not in left and all(1 << w in left for w in range(h.n) if not m >> w & 1)


class CountingLink(dict):
    """A hypergraph link table that counts its lookups; ``counting_links``
    makes the counter build these, to show whether a count read one."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def counting_links(set_attr) -> list[CountingLink]:
    """Make the hypergraph counter build each link table as a CountingLink,
    and return the list it appends them to.  ``set_attr`` is
    ``monkeypatch.setattr``, or plain ``setattr`` in a child process."""
    build, built = engine._link, []

    def counted(rests):
        built.append(CountingLink(build(rests)))
        return built[-1]

    set_attr(engine, "_link", counted)
    return built


def rec_calls(walk, limit: int = 10**5):
    """walk() and the number of calls of the counters' inner recursion.

    Each call is one search-tree node.  Past ``limit`` calls the profile
    hook raises, so a walk that lost a cut or its memo fails at once
    instead of running for minutes.
    """
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "rec":
            nodes += 1
            if nodes > limit:
                raise RuntimeError(f"more than {limit} search-tree nodes")

    sys.setprofile(profile)
    try:
        return walk(), nodes
    finally:
        sys.setprofile(None)


def c_calls(walk):
    """walk() and a Counter of its builtin calls by qualified name.

    ``int.bit_count`` counts the counters' candidate-loop iterations that
    reach the count cut, so a lost cut that calls no extra node still shows.
    """
    names: Counter[str] = Counter()

    def profile(frame, event, arg):
        if event == "c_call":
            names[arg.__qualname__] += 1

    sys.setprofile(profile)
    try:
        return walk(), names
    finally:
        sys.setprofile(None)


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


def greedy_ap3_free(m: int) -> set[int]:
    """First fit over 0..m-1: keep x unless z, y, x is a progression for kept z < y."""
    kept: set[int] = set()
    for x in range(m):
        if all(2 * y - x not in kept for y in kept):
            kept.add(x)
    return kept


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


def random_mixed_hypergraph(rng: random.Random, n: int, m: int, largest: int = 4) -> Hypergraph:
    """Up to m distinct random edges of sizes 2..largest (fewer when n is small)."""
    edges = set()
    for _ in range(m):
        size = rng.randint(2, largest)
        if size <= n:
            edges.add(tuple(sorted(rng.sample(range(n), size))))
    return Hypergraph(n, tuple(sorted(edges)))


def _naive_profile(n: int, edges) -> tuple[int, ...]:
    """MIS count by size (index 0..n) of the hypergraph with these edges.

    A subset scan over vertex bitmasks: a set is independent when its set
    minus its lowest vertex is and no edge inside it has that vertex as its
    least, and maximal when adding any outside vertex breaks independence.
    """
    by_least: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        by_least[min(e)].append(sum(1 << v for v in e))
    independent = [True] * (1 << n)
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        independent[s] = independent[s & (s - 1)] and all(e & s != e for e in by_least[low])
    counts = [0] * (n + 1)
    for s in range(1 << n):
        if independent[s] and all(s >> v & 1 or not independent[s | 1 << v] for v in range(n)):
            counts[s.bit_count()] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def _reference_profiles(n: int, r: int) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """Every labelled r-graph on n vertices as (edges, MIS profile), by edge mask.

    Bit b of an edge mask is the b-th r-subset in ``combinations`` order.
    """
    slots = list(combinations(range(n), r))
    graphs = []
    for mask in range(1 << len(slots)):
        edges = tuple(s for b, s in enumerate(slots) if mask >> b & 1)
        graphs.append((edges, _naive_profile(n, edges)))
    return tuple(graphs)


@lru_cache(maxsize=None)
def _reference_hits(n: int, r: int, k: int | None, t: int | None) -> tuple[int, tuple[int, ...]]:
    """The best count over the labelled r-graphs with no complete r-graph on t
    vertices, and the edge masks reaching it, ascending."""
    cliques = [set(combinations(group, r)) for group in combinations(range(n), t)] if t else []
    best, hits = -1, []
    for mask, (edges, profile) in enumerate(_reference_profiles(n, r)):
        if any(clique <= set(edges) for clique in cliques):
            continue
        value = sum(profile) if k is None else profile[k]
        if value > best:
            best, hits = value, []
        if value == best:
            hits.append(mask)
    return best, tuple(hits)


def reference_exhaustive_m(spec: SearchSpec) -> SearchReport:
    """``exhaustive_m``'s report by its contract, without its scan or dedup.

    The value is the best count over the naive MIS profiles of every
    labelled r-graph that passes the clique filter.  Every mask at the best
    is canonicalised in ascending order, which orders the classes by least
    labelled copy; the witnesses are the first ``witness_cap`` classes, and
    the report is truncated exactly when another class follows them.
    """
    n, r = spec.n, spec.r
    best, hits = _reference_hits(n, r, spec.k, spec.t)
    classes: dict[str, None] = {}
    if spec.collect_witnesses:
        for mask in hits:
            classes[_reference_form(n, r, mask)] = None
            if len(classes) > spec.witness_cap:
                break
    witnesses = list(classes)[: spec.witness_cap]
    truncated = len(classes) > spec.witness_cap
    return SearchReport(spec, best, witnesses, 1 << comb(n, r), truncated)


@lru_cache(maxsize=None)
def _reference_form(n: int, r: int, mask: int) -> str:
    edges = _reference_profiles(n, r)[mask][0]
    obj = Graph.from_edges(n, edges) if r == 2 else Hypergraph(n, edges)
    return canonical_form(obj).decode("ascii")
