"""Counting and enumeration of maximal independent sets (MIS's).

The graph counter ``enumerate_k_mis`` is one backtracking core for a fixed
size k and for every size (k=None).  It walks vertices in increasing order
and keeps two bitmasks per branch: the closed neighborhood of the chosen set
(its "dominated" region) and the candidate window.  A chosen set is maximal
exactly when its closed neighborhood covers every vertex.  The cuts run in
the parent, before a child is called: a child needs enough candidates left
for its remaining picks, and every vertex passed over and still undominated
needs a neighbor among them.  Once a skipped vertex has no neighbor among
the later candidates, the parent's loop stops.  The last pick of a fixed
size calls no child: it must cover every undominated vertex, so it lies in
the closed neighborhood of the lowest one, and each such candidate is
settled with a single mask compare.

The hypergraph counter keeps a "blocked" mask instead: the outside vertices
that would complete an edge if added.  A new pick v can only block the one
vertex left outside an edge through v, so each vertex keeps its edges' rest
masks ``e & ~(1 << v)``.  The same leaf compare and skipped-vertex prune apply.

The counters build none of these tables themselves: they read them from the
immutable objects, which build each once, on first use (``Graph.closed``,
``Hypergraph.rest_masks``, ``PartitionedGraph.part_masks``).  Counting one
graph at every k, or one subgraph under many random splits, then packs its
masks once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .graphs import (
    Graph,
    Hypergraph,
    PartitionedGraph,
    VertexSet,
    as_mask,
    has_clique,
    induced_subgraph,
    is_maximal_independent,
    iter_bits,
    vertex_mask,
)


def enumerate_k_mis(
    g: Graph,
    k: int | None,
    visitor: Callable[[int], None] | None = None,
    limit: int | None = None,
) -> int:
    """Visit every maximal independent set of size exactly k, as a bitmask.

    ``k=None`` visits the MIS's of every size.  Sets are visited in
    lexicographic order of their sorted vertices.  Returns the number
    visited (all of them when ``limit`` is None).  The visitor may be None
    to just count.  ``limit=0`` visits nothing; a negative limit raises
    ValueError.
    """
    if k is not None and not 0 <= k <= g.n:
        raise ValueError(f"k={k} outside 0..{g.n}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit={limit} is negative")
    if limit == 0:
        return 0
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    if k == 0:
        if n == 0:
            if visitor is not None:
                visitor(0)
            return 1
        return 0
    closed = g.closed
    found = 0

    # need counts the picks still to make; without a size target it starts
    # at 0 and only falls, so the count cuts (>= need) never fire.
    def rec(pos: int, need: int, dom: int, chosen: int) -> bool:
        nonlocal found
        missing = full & ~dom
        fut = missing >> pos << pos
        if need == 1:
            # The last pick must dominate every missing vertex, the lowest
            # one included, so it lies in that vertex's closed neighborhood.
            cand = fut & closed[(missing & -missing).bit_length() - 1]
            while cand:
                low = cand & -cand
                if not missing & ~closed[low.bit_length() - 1]:
                    found += 1
                    if visitor is not None:
                        visitor(chosen | low)
                    if limit is not None and found >= limit:
                        return True
                cand ^= low
            return False
        if not fut:
            # Nothing left to pick: a leaf without a size target, else dead.
            if need > 0 or missing:
                return False
            found += 1
            if visitor is not None:
                visitor(chosen)
            return limit is not None and found >= limit
        cand = fut
        while cand and cand.bit_count() >= need:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low  # now the candidates above v
            rest = cand & ~closed[v]
            if rest.bit_count() >= need - 1:
                # Every vertex passed over and left undominated by v must
                # still be dominatable by a later pick, or no completion of
                # the child is maximal.  A last pick's compare checks this.
                undom = missing & (low - 1) & ~closed[v] if need != 2 else 0
                while undom:
                    u = undom & -undom
                    if not adj[u.bit_length() - 1] & rest:
                        break
                    undom ^= u
                else:
                    if rec(v + 1, need - 1, dom | closed[v], chosen | low):
                        return True
            # v is skipped from here on: a later pick must dominate it.
            if not adj[v] & cand:
                break
        return False

    rec(0, 0 if k is None else k, 0, 0)
    return found


def count_k_mis(g: Graph, k: int) -> int:
    """Exact number of maximal independent sets of size k."""
    return enumerate_k_mis(g, k)


def count_all_mis(g: Graph) -> int:
    """Exact number of maximal independent sets of any size."""
    return enumerate_k_mis(g, None)


def transversal_mis_list(pg: PartitionedGraph) -> list[int]:
    """All transversal MIS's (one vertex per part) of pg, as bitmasks.

    Parts are scanned in size-ascending order so sparse parts prune first.
    """
    g = pg.graph
    full = g.full_mask()
    adj, closed = g.adj, g.closed
    # A part's size is its mask's bit count; the stable sort keeps ties in part order.
    masks = sorted(pg.part_masks(), key=int.bit_count)
    out: list[int] = []

    def rec(depth: int, banned: int, dom: int, chosen: int) -> None:
        if depth == len(masks):
            if dom == full:
                out.append(chosen)
            return
        for rest in masks[depth + 1:]:
            if not rest & ~banned:
                return
        cand = masks[depth] & ~banned
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            rec(depth + 1, banned | adj[v], dom | closed[v], chosen | low)
            cand ^= low

    rec(0, 0, 0, 0)
    return out


def count_transversal_mis(pg: PartitionedGraph) -> int:
    """Number of maximal independent sets using exactly one vertex per part."""
    return len(transversal_mis_list(pg))


def greedy_mis_partition(g: Graph, i: VertexSet) -> list[frozenset[int]]:
    """Partition V(g) into k+1 independent sets from a k-MIS of a triangle-free g.

    Class j collects the vertices adjacent to the j-th MIS vertex but to no
    earlier one; the final class is the MIS itself.  Classes other than the
    last may be empty.
    """
    mask = as_mask(g.n, i)
    if not is_maximal_independent(g, mask):
        raise ValueError("seed set is not a maximal independent set")
    if has_clique(g, 3):
        raise ValueError("graph contains a triangle")
    order = sorted(iter_bits(mask))
    parts: list[frozenset[int]] = []
    assigned = mask
    for v in order:
        cls = g.adj[v] & ~assigned
        parts.append(frozenset(iter_bits(cls)))
        assigned |= cls
    parts.append(frozenset(order))
    return parts


@dataclass(frozen=True)
class ReductionResult:
    """Best random split found when reducing k-MIS counting to transversals.

    ``subgraph`` is the induced k-partite graph (relabelled 0..n'-1;
    ``vertex_map`` sends new labels back to the input graph), ``achieved_T``
    its transversal MIS count under the best split, and ``source_m`` the
    k-MIS count of the input.  ``retries_used`` is the 1-based index of the
    attempt that produced the best split.  ``bound_met`` records whether
    achieved_T >= (4k)^-k * source_m, compared in exact integer arithmetic.
    """

    subgraph: PartitionedGraph
    vertex_map: tuple[int, ...]
    achieved_T: int
    source_m: int
    composition: tuple[int, ...]
    retries_used: int
    seed: int
    bound_met: bool


def _random_split(vs: list[int], blocks: int, rng: random.Random) -> list[list[int]]:
    # Deal one vertex to each block first so no block is empty, then spread
    # the rest uniformly; splits with an empty block can never host a
    # transversal MIS, so they are pure waste.
    vs = vs[:]
    rng.shuffle(vs)
    out = [[vs[b]] for b in range(blocks)]
    for v in vs[blocks:]:
        out[rng.randrange(blocks)].append(v)
    return out


def transversal_reduction(
    g: Graph, k: int, retries: int = 100, seed: int = 0
) -> ReductionResult:
    """Reduce k-MIS counting on a triangle-free graph to transversal counting.

    Classifies every k-MIS by how it meets the greedy independent-set
    partition, keeps the most common profile, and randomly splits each of
    its classes into as many parts as the profile dictates, retrying up to
    ``retries`` times and keeping the split with the most transversal MIS's.
    """
    if has_clique(g, 3):
        raise ValueError("graph contains a triangle")
    if retries < 1:
        raise ValueError("retries must be >= 1")
    all_mis: list[int] = []
    enumerate_k_mis(g, k, all_mis.append)
    if not all_mis:
        raise ValueError(f"graph has no maximal independent set of size {k}")
    source_m = len(all_mis)

    classes = greedy_mis_partition(g, all_mis[0])
    class_masks = [vertex_mask(c) for c in classes]
    profiles: dict[tuple[int, ...], int] = {}
    for mis in all_mis:
        prof = tuple((mis & cm).bit_count() for cm in class_masks)
        profiles[prof] = profiles.get(prof, 0) + 1
    best_profile = min(profiles, key=lambda p: (-profiles[p], p))

    keep_vertices = 0
    for ci, c in enumerate(best_profile):
        if c > 0:
            keep_vertices |= class_masks[ci]
    sub, vmap = induced_subgraph(g, keep_vertices)
    back = {old: new for new, old in enumerate(vmap)}
    sub_classes = [
        [back[v] for v in sorted(classes[ci])]
        for ci, c in enumerate(best_profile)
        if c > 0
    ]
    sub_counts = [c for c in best_profile if c > 0]

    rng = random.Random(seed)
    best_T = -1
    best_parts: list[list[int]] = []
    best_attempt = 0
    for attempt in range(1, retries + 1):
        parts: list[list[int]] = []
        for vs, c in zip(sub_classes, sub_counts):
            parts.extend(_random_split(vs, c, rng))
        T = count_transversal_mis(PartitionedGraph.from_parts(sub, parts))
        if T > best_T:
            best_T, best_parts, best_attempt = T, parts, attempt

    met = best_T * (4 * k) ** k >= source_m
    return ReductionResult(
        subgraph=PartitionedGraph.from_parts(sub, best_parts),
        vertex_map=vmap,
        achieved_T=best_T,
        source_m=source_m,
        composition=tuple(best_profile),
        retries_used=best_attempt,
        seed=seed,
        bound_met=met,
    )


def check_k5_hypothesis(pg: PartitionedGraph) -> bool:
    """For a 5-part graph, check that parts (1,3), (2,4) and (2,5) span no edges.

    Indices are 1-based part positions; "no edges" covers pairs inside each
    part as well as pairs across the two named parts.
    """
    if len(pg.parts) != 5:
        raise ValueError(f"expected 5 parts, got {len(pg.parts)}")
    masks = pg.part_masks()
    for a, b in ((0, 2), (1, 3), (1, 4)):
        union = masks[a] | masks[b]
        for v in iter_bits(union):
            if pg.graph.adj[v] & union:
                return False
    return True


class TBoundCheck(NamedTuple):
    transversal_count: int
    vertex_count: int
    holds: bool


def tripartite_T_bound_check(pg: PartitionedGraph) -> TBoundCheck:
    """Count transversal MIS's of a triangle-free tripartite graph vs |V|."""
    if len(pg.parts) != 3:
        raise ValueError(f"expected 3 parts, got {len(pg.parts)}")
    if has_clique(pg.graph, 3):
        raise ValueError("graph contains a triangle")
    T = count_transversal_mis(pg)
    n = pg.graph.n
    return TBoundCheck(T, n, T <= n)


def hypergraph_enumerate_k_mis(
    h: Hypergraph,
    k: int,
    visitor: Callable[[int], None] | None = None,
) -> int:
    """Count (and optionally visit) size-k maximal independent sets of h.

    Independent means containing no edge; maximal means every outside vertex
    closes some edge when added.
    """
    if not 0 <= k <= h.n:
        raise ValueError(f"k={k} outside 0..{h.n}")
    full = (1 << h.n) - 1
    rests = h.rest_masks
    found = 0

    def rec(pos: int, size: int, chosen: int, blocked: int) -> None:
        nonlocal found
        if size == k:
            if chosen | blocked == full:
                found += 1
                if visitor is not None:
                    visitor(chosen)
            return
        need = k - size
        fut = (full >> pos << pos) & ~blocked
        if fut.bit_count() < need:
            return
        # Each skipped vertex needs an edge that at most `need` future picks complete.
        reach = chosen | fut
        free = ((1 << pos) - 1) & ~(chosen | blocked)
        while free:
            low = free & -free
            for r in rests[low.bit_length() - 1]:
                if not r & ~reach and (r & ~chosen).bit_count() <= need:
                    break
            else:
                return
            free ^= low
        cand = fut
        while cand:
            low = cand & -cand
            grown = chosen | low
            nb = blocked  # only an edge through the pick can newly block a vertex
            for r in rests[low.bit_length() - 1]:
                out = r & ~grown
                if not out & (out - 1):
                    nb |= out
            rec(low.bit_length(), size + 1, grown, nb)
            cand ^= low

    rec(0, 0, 0, 0)
    return found


def hypergraph_count_k_mis(h: Hypergraph, k: int) -> int:
    """Exact number of size-k maximal independent sets of a hypergraph."""
    return hypergraph_enumerate_k_mis(h, k)
