"""Counting and enumeration of maximal independent sets (MIS's).

The graph counter ``enumerate_k_mis`` is one backtracking core for a fixed
size k and for every size (k=None).  It walks vertices in increasing order
and keeps two bitmasks per branch: the closed neighborhood of the chosen set
(its "dominated" region) and the candidate window.  A chosen set is maximal
exactly when its closed neighborhood covers every vertex.  The cuts run in
the parent, before a child is called: a child needs enough candidates left
for its remaining picks, and every vertex passed over and still undominated
needs a neighbor among them.  The parent's loop stops once a skipped vertex
has no neighbor among the candidates after the current pick: the vertex it
has just passed over, or one that fails the skip cut, since then no later
first pick can pass it either.  The last pick of a fixed size calls no
child: it must cover every undominated vertex, so it lies in the closed
neighborhood of the lowest one, and each is settled with one mask compare.

A walk without a visitor also keeps a memo of subtree counts, keyed by a
child's residual subproblem: its candidates ``rest``, the picks it has left
and the set of masks ``adj[u] & rest`` over the vertices u passed over and
still undominated.  These fix the count below the child: a completion is an
independent set of the size left inside rest that dominates all of rest
and meets every mask.  The chosen set reaches rest only through dom, and a
skipped vertex matters only through the candidates that can still dominate
it, so branches that differ in which passed vertex is left undominated, or
in the position they resume at, share an entry.  The parent's skip cut
already computes the masks; it packs a sentinel bit, the picks left in s =
n.bit_length() + 1 bits (0 without a size target), rest in n bits and each
distinct mask in n bits, in sorted order, into one int, and looks the child
up before calling it.  Children with one pick left are not keyed, and one
with no candidates is a leaf, counted in place.  Unlike the one-entry
``_memo`` below, the memo is a local of the call, charged for each entry's
key and never above ``_WALK_MEMO_BYTES`` (512 KiB), so a long count's
memory stays flat.  It starts with an eighth of that, and is judged each
time its room runs out.  With under about 1/8 of its lookups hit it is
dropped for the rest of the walk, since states there seldom repeat; else it
takes the rest of the budget the first time and starts afresh after that.
A walk with a visitor runs the same candidate loop and just calls each child
that passes the cuts, as a walk that has dropped its memo does: same sets,
same order, same nodes.

The hypergraph counter ``hypergraph_enumerate_k_mis`` is likewise one core
for a fixed size k and for every size (k=None).  It keeps a "blocked" mask
instead: the outside vertices that would complete an edge if added.  A pick
p newly blocks ``link[p | S]`` over the chosen subsets S (0 included) of up
to top = largest edge - 2 vertices while sum C(k-1, 1..top) is at most the
longest rest list, else it scans p's edge rests; without a size target the
guard takes the largest chosen set, k = n.  A skipped vertex needs an edge
that the future picks can complete, at most ``need`` of them for size k.
For size k the count cut and the last pick run in the parent: the last pick
is or blocks the lowest open vertex w, so it is in ``w | link[w | S]``.
Without a size target both are off, and a set counts once no unblocked
candidate is left and it and its blocked mask cover every vertex.

Each walk builds the tables it reads once per call, after the k=0 return:
closed neighborhoods, or edge rests, the guard's two inputs and, on the link
path only, the link table, so graphs and hypergraphs hold only their fields.

``count_k_mis``, ``count_all_mis`` (k=None) and ``hypergraph_count_k_mis``
go through ``_count_k``, which keeps a one-entry memo across calls: the last
graph or hypergraph object asked about, the size first asked (None for every
size) and, once a second size of it is asked, its counts at every size.
Later sizes read the memo.  An object of at most ``_LATTICE_MAX_N`` (12)
vertices gets its counts from ``_lattice_profile``, which holds every vertex
set as one bit of a 2^n-bit int and answers every size with a few dozen
big-int ANDs, ORs and shifts (broadword computing on the subset lattice); a
larger one from one all-sizes walk of its type's core that tallies the sets
by size.  A caller that asks one size, or the same size again, keeps the
size-k walk: the tallying walk visits every set, with no walk memo (a
perfect matching on 60 vertices has 2^30 MIS's, none of size 10).  For the
same reason ``count_all_mis`` reads a profile but never fills one; else it
runs the counting walk, which keeps its walk memo.  The memo keys by
identity and holds the object, so an id is never reused while it is held;
an equal but distinct object walks again.  It is not a cached property on
``Graph`` or ``Hypergraph``: callers that keep thousands of small objects
alive would each carry a profile that only the last one needs.

``transversal_reduction`` runs no counter per random split.  Every split's
transversal MIS's come from one list, the k-MIS's of the kept subgraph with
the chosen profile, so it lists those once, scores a split by filtering the
list by its part masks, and stops at the first split that keeps the whole
list, since no later split can beat it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable

from .graphs import (
    Graph,
    Hypergraph,
    PartitionedGraph,
    VertexSet,
    _link,
    _rest_masks,
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
) -> int:
    """Visit every maximal independent set of size exactly k, as a bitmask.

    ``k=None`` visits the MIS's of every size.  Sets are visited in
    lexicographic order of their sorted vertices.  Returns the number
    visited.  The visitor may be None to just count; such a walk reads the
    count below a child from a per-call memo keyed by the child's residual
    subproblem (the module docstring), and drops the memo once it fills
    with under about 1/8 of its lookups hit.
    """
    if k is not None and not 0 <= k <= g.n:
        raise ValueError(f"k={k} outside 0..{g.n}")
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    if k == 0:
        if n == 0:
            if visitor is not None:
                visitor(0)
            return 1
        return 0
    closed = tuple(row | (1 << v) for v, row in enumerate(adj))
    memo = None
    if visitor is None:
        cap = _WALK_MEMO_BYTES
        memo = _WalkMemo(cap // 8, cap - cap // 8)
    s = n.bit_length() + 1

    # need counts the picks still to make; without a size target it starts
    # at 0 and only falls, so the count cuts (>= need) are skipped.
    def rec(pos: int, need: int, dom: int, chosen: int) -> int:
        nonlocal memo
        missing = full & ~dom
        fut = missing >> pos << pos
        if need == 1:
            found = 0
            # The last pick must dominate every missing vertex, the lowest
            # one included, so it lies in that vertex's closed neighborhood.
            cand = fut & closed[(missing & -missing).bit_length() - 1]
            while cand:
                low = cand & -cand
                if not missing & ~closed[low.bit_length() - 1]:
                    found += 1
                    if visitor is not None:
                        visitor(chosen | low)
                cand ^= low
            return found
        if not fut:
            # Nothing left to pick: a leaf without a size target, else dead.
            if need > 0 or missing:
                return 0
            if visitor is not None:
                visitor(chosen)
            return 1
        # A counting walk keys each child by its residual subproblem (module
        # docstring): the picks left, rest and the distinct masks adj[u] & rest
        # that the skip cut finds.  A visitor walk, a call that starts after
        # the memo was dropped and a child with one pick left just call it.
        keyed = memo is not None and need != 2
        cand, found = fut, 0
        while cand and (need <= 0 or cand.bit_count() >= need):
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low  # now the candidates above v
            rest = cand & ~closed[v]
            if need <= 0 or rest.bit_count() >= need - 1:
                # Every vertex passed over and left undominated by v must
                # still be dominatable by a later pick, or no completion
                # of the child is maximal.  A last pick's compare checks it.
                undom = missing & (low - 1) & ~closed[v] if need != 2 else 0
                masks = [] if keyed else None
                while undom:
                    u = undom & -undom
                    a = adj[u.bit_length() - 1] & rest
                    if not a:
                        # Nor does any candidate after v: each later v fails too.
                        if not adj[u.bit_length() - 1] & cand:
                            return found
                        break
                    if keyed:
                        masks.append(a)
                    undom ^= u
                else:
                    if not keyed:
                        found += rec(v + 1, need - 1, dom | closed[v], chosen | low)
                    elif not rest:
                        found += 1  # a leaf: nothing left to pick or dominate
                    else:
                        key = (1 << s | (need - 1 if need > 0 else 0)) << n | rest
                        last = 0
                        for a in sorted(masks):  # every mask is nonzero
                            if a != last:
                                key = key << n | a
                                last = a
                        got = None if memo is None else memo.get(key)
                        if got is None:
                            got = rec(v + 1, need - 1, dom | closed[v], chosen | low)
                            if memo is not None:  # the child may have dropped it
                                memo[key] = got
                                memo.room -= 144 + key.bit_length() // 7
                                if memo.room <= 0:
                                    # Full: about len + hits lookups were made
                                    # since it was new.  Under 1/8 hit, the
                                    # memo goes for the rest of the walk;
                                    # else it takes its reserve, or renews.
                                    if 7 * memo.hits < len(memo):
                                        memo = None
                                    elif memo.more:
                                        memo.room, memo.more = memo.more, 0
                                    else:
                                        memo = _WalkMemo(_WALK_MEMO_BYTES)
                        else:
                            memo.hits += 1
                        found += got
            # v is skipped from here on: a later pick must dominate it.
            if not adj[v] & cand:
                break
        return found

    return rec(0, 0 if k is None else k, 0, 0)


class _WalkMemo(dict):
    """A counting walk's subtree counts by key.

    ``room`` is the budget left, in bytes, ``more`` the bytes held back for
    when it runs out, and ``hits`` counts the lookups that hit since the
    memo was made.  Keeping them here rather than in closure cells keeps
    small the closure that every call of a visitor walk copies.
    """

    __slots__ = ("room", "more", "hits")

    def __init__(self, room: int, more: int = 0) -> None:
        self.room, self.more, self.hits = room, more, 0


# Bytes a counting walk's memo holds at most: 512 KiB for every n, since the
# walk charges each entry for its own key.  An entry (an int key of b = 1 + s
# + n * (1 + masks) bits, a count and a dict slot) takes at most about 144 +
# b // 7 bytes under tracemalloc: 3120 entries of one mask each at 80
# vertices, about 360 at 1512 vertices, where keys carry about five masks.
_WALK_MEMO_BYTES = 1 << 19


# The last graph or hypergraph a counter was asked about, the size first
# asked (None for every size), and its counts at sizes 0..n once a second
# size was asked, else ().  Keyed by identity and holding the object, so its
# id cannot be reused while it is here.
_memo: tuple[Graph | Hypergraph | None, int | None, tuple[int, ...]] = (None, None, ())


def _profile(x: Graph | Hypergraph, walk: Callable) -> tuple[int, ...]:
    """Count x's MIS's at every size and keep them in the memo.

    Objects with at most ``_LATTICE_MAX_N`` vertices go to the lattice
    kernel, larger ones to one walk that tallies the sets by size.
    """
    global _memo
    if x.n <= _LATTICE_MAX_N:
        profile = _lattice_profile(x)
    else:
        tally = [0] * (x.n + 1)

        def visit(s: int) -> None:
            tally[s.bit_count()] += 1

        walk(x, None, visit)
        profile = tuple(tally)
    _memo = (x, None, profile)
    return profile


# The most vertices a profile is counted on the subset lattice: the measured
# crossover with the tallying walk, whose cost falls as density rises while
# the lattice's grows with 2^n.  In µs per graph (walk / lattice, best of 7
# over 20 seeded graphs, in process on a 2-core Xeon), G(12, 0.1) takes
# 32/10 and G(12, 0.5) 27/13, but G(12, 0.8) already ties or loses (14/15),
# and G(14, 0.8) takes 19/38.  3-graphs would gain past it (about 1500/56
# at n = 14); one cap serves both types, and past it both walk as before.
_LATTICE_MAX_N = 12


@lru_cache(maxsize=None)
def _lattice_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The subset lattice of 0..n-1 as ints of 2^n bits, bit s for vertex set s.

    Returns, per vertex v, the sets that hold v (2^v zeros then 2^v ones,
    repeated) and the sets that do not, and per size j, the sets of size j.
    Each n is built from n - 1: a set either lacks vertex n - 1 (low half)
    or holds it (high half).  Only n <= ``_LATTICE_MAX_N`` is asked for, so
    the cache holds at most 13 entries, about 44 KB.
    """
    if n == 0:
        return (), (), (1,)
    has, _, layers = _lattice_tables(n - 1)
    half = 1 << (n - 1)
    has = tuple(x | x << half for x in has) + (((1 << half) - 1) << half,)
    layers = tuple(a | b << half for a, b in zip(layers + (0,), (0,) + layers))
    full = (1 << 2 * half) - 1
    return has, tuple(full ^ x for x in has), layers


def _lattice_profile(x: Graph | Hypergraph) -> tuple[int, ...]:
    """x's MIS counts at sizes 0..n, with every vertex set as one bit.

    A set is dependent when it holds an edge, so ``bad`` ORs over the edges
    the AND of their vertices' ``has``.  An independent set s is maximal
    unless some v outside it leaves s + v independent: bit s + 2^v of
    ``indep`` shifted down by 2^v, among the sets without v.  A size's count
    is the number of maximal sets in its layer.
    """
    n = x.n
    has, without, layers = _lattice_tables(n)
    bad = 0
    if isinstance(x, Graph):
        for v, row in enumerate(x.adj):
            row >>= v + 1  # each edge once, from its lower end
            if row:
                ends = 0
                while row:
                    low = row & -row
                    ends |= has[v + low.bit_length()]
                    row ^= low
                bad |= has[v] & ends
    else:
        for e in x.edges:
            sets = has[e[0]]
            for v in e[1:]:
                sets &= has[v]
            bad |= sets
    indep = ((1 << (1 << n)) - 1) ^ bad
    grows = 0
    for v in range(n):
        grows |= indep >> (1 << v) & without[v]
    mis = indep & ~grows
    return tuple((mis & layer).bit_count() for layer in layers)


def _count_k(x: Graph | Hypergraph, k: int | None, walk: Callable) -> int:
    """Size-k count of x (k=None: every size) by its type's walker, through the memo."""
    global _memo
    if k is not None and not 0 <= k <= x.n:
        raise ValueError(f"k={k} outside 0..{x.n}")
    last, asked, profile = _memo
    if last is x:
        if profile:
            return sum(profile) if k is None else profile[k]
        if k is None:
            return walk(x, None)  # the counting walk; it fills no profile
        if asked != k:
            return _profile(x, walk)[k]
    _memo = (x, k, ())
    return walk(x, k)


def count_k_mis(g: Graph, k: int) -> int:
    """Exact number of maximal independent sets of size k."""
    return _count_k(g, k, enumerate_k_mis)


def count_all_mis(g: Graph) -> int:
    """Exact number of maximal independent sets of any size."""
    return _count_k(g, None, enumerate_k_mis)


def transversal_mis_list(pg: PartitionedGraph) -> list[int]:
    """All transversal MIS's (one vertex per part) of pg, as bitmasks.

    Parts are scanned in size-ascending order so sparse parts prune first.
    """
    full, adj = pg.graph.full_mask(), pg.graph.adj
    # A part's size is its mask's bit count; the stable sort keeps ties in part order.
    masks = sorted(pg.part_masks(), key=int.bit_count)
    out: list[int] = []

    # The chosen set and its neighbors (banned) make its closed neighborhood.
    def rec(depth: int, banned: int, chosen: int) -> None:
        if depth == len(masks):
            if banned | chosen == full:
                out.append(chosen)
            return
        for rest in masks[depth + 1:]:
            if not rest & ~banned:
                return
        cand = masks[depth] & ~banned
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            rec(depth + 1, banned | adj[v], chosen | low)
            cand ^= low

    rec(0, 0, 0)
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
    its classes into as many parts as the profile dictates, keeping the
    first split with the most transversal MIS's.

    A split's transversal MIS's are k-MIS's of the kept subgraph that meet
    each kept class in exactly its profile count.  Call that list L: a split's
    count T is the number of members of L that meet every part, so T <= |L|.
    Splits are drawn until one reaches T = |L| or ``retries`` (a positive
    int) have been drawn, so ``retries`` bounds the splits drawn from above;
    the result is the one a run of all ``retries`` splits would keep.
    """
    if has_clique(g, 3):
        raise ValueError("graph contains a triangle")
    if isinstance(retries, bool) or not isinstance(retries, int) or retries < 1:
        raise ValueError(f"retries must be a positive int, got {retries!r}")
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

    # The list L of the docstring: it holds every split's transversal MIS's.
    kept = [(vertex_mask(vs), c) for vs, c in zip(sub_classes, sub_counts)]
    candidates: list[int] = []
    enumerate_k_mis(sub, k, candidates.append)
    candidates = [
        s for s in candidates if all((s & m).bit_count() == c for m, c in kept)
    ]

    rng = random.Random(seed)
    best_T = -1
    best_parts: list[list[int]] = []
    best_attempt = 0
    for attempt in range(1, retries + 1):
        parts: list[list[int]] = []
        for vs, c in zip(sub_classes, sub_counts):
            parts.extend(_random_split(vs, c, rng))
        hit = candidates
        for p in parts:
            pm = vertex_mask(p)
            hit = [s for s in hit if s & pm]
        T = len(hit)
        if T > best_T:
            best_T, best_parts, best_attempt = T, parts, attempt
            # No split can beat the whole list, and a later tie never wins.
            if T == len(candidates):
                break

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


def hypergraph_enumerate_k_mis(
    h: Hypergraph,
    k: int | None,
    visitor: Callable[[int], None] | None = None,
) -> int:
    """Count (and optionally visit) size-k maximal independent sets of h.

    Independent means containing no edge; maximal means every outside vertex
    closes some edge when added.  ``k=None`` visits the MIS's of every size.
    Sets are visited in lexicographic order of their sorted vertices; the
    module docstring gives the cuts and the guard.
    """
    if k is not None and not 0 <= k <= h.n:
        raise ValueError(f"k={k} outside 0..{h.n}")
    if k == 0 or not h.n:  # as in a graph: the empty set is maximal only on no vertices
        if visitor is not None and h.n == 0:
            visitor(0)
        return int(h.n == 0)
    full, rests, found = (1 << h.n) - 1, _rest_masks(h), 0
    widest = max(map(len, h.edges), default=2)
    top = widest - 2
    # partners(v, ...): the vertices completing an edge with bit v and the chosen
    # set.  Without a size target the chosen set may grow to n - 1 before a pick.
    picks = h.n if k is None else k
    if sum(comb(picks - 1, j) for j in range(1, top + 1)) <= max(map(len, rests)):
        get = _link(rests).get
        def partners(v: int, chosen: int, subs: list[int]) -> int:
            x = 0
            for s in subs:
                x |= get(s | v, 0)
            return x
    else:
        top = 0  # the scan reads the chosen set itself; carry no subsets
        def partners(v: int, chosen: int, subs: list[int]) -> int:
            x = 0
            for r in rests[v.bit_length() - 1]:
                out = r & ~chosen
                if not out & (out - 1):
                    x |= out
            return x

    # need counts the picks still to make; without a size target it starts
    # at 0 and only falls, so the count cuts (>= need) never fire.
    def rec(pos: int, need: int, chosen: int, blocked: int, subs: list[int]) -> None:
        nonlocal found
        fut = (full >> pos << pos) & ~blocked
        if need == 1:
            # The last pick must block the lowest open vertex or be it.
            missing = full & ~(chosen | blocked)
            w = missing & -missing
            cand = (w | partners(w, chosen, subs)) & fut
            while cand:
                low = cand & -cand
                if not missing & ~low & ~partners(low, chosen, subs):
                    found += 1
                    if visitor is not None:
                        visitor(chosen | low)
                cand ^= low
            return
        if not fut:
            # Nothing left to pick: a leaf without a size target, else dead.
            if need <= 0 and chosen | blocked == full:
                found += 1
                if visitor is not None:
                    visitor(chosen)
            return
        # Each skipped vertex needs an edge that at most `need` future picks
        # complete, or any number of them without a size target.
        reach = chosen | fut
        room = need if need > 0 else widest
        free = ((1 << pos) - 1) & ~(chosen | blocked)
        while free:
            low = free & -free
            for r in rests[low.bit_length() - 1]:
                if not r & ~reach and (r & ~chosen).bit_count() <= room:
                    break
            else:
                return
            free ^= low
        while fut and fut.bit_count() >= need:
            low = fut & -fut
            fut ^= low  # now the candidates above the pick
            nb = blocked | partners(low, chosen, subs)
            if (fut & ~nb).bit_count() >= need - 1:
                grown = subs + [s | low for s in subs if s.bit_count() < top]
                rec(low.bit_length(), need - 1, chosen | low, nb, grown)

    rec(0, 0 if k is None else k, 0, 0, [0])
    return found


def hypergraph_count_k_mis(h: Hypergraph, k: int) -> int:
    """Exact number of size-k maximal independent sets of a hypergraph."""
    return _count_k(h, k, hypergraph_enumerate_k_mis)
