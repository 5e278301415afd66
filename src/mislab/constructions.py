"""Generators for the extremal graph and hypergraph families.

Everything here is deterministic.  The central object is the blowup: given
a template hypergraph, each hyperedge is replaced by a small partite
"gadget" graph whose packing cliques are transversal maximal independent
sets, and template vertices become parts whose vertices are choice tuples
over their incident edges.  Products of per-gadget transversal MIS's then
give large families of maximal independent sets in the blowup.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod

from .engine import transversal_mis_list
from .formats import hypergraph_from_json, hypergraph_to_json
from .graphs import (
    Graph,
    Hypergraph,
    PartitionedGraph,
    _made,
    check_vertex_count,
    cliques_of_size,
    disjoint_union,
    iter_bits,
    partite_complement,
    vertex_mask,
)

# Gadget kind -> (the edge size it needs, or None for any; builder from edge
# size r and gadget size m).  The builders look the generators up when they
# run, so a wrapper installed on the module attribute sees every call.
GADGETS = {
    "comatching": (2, lambda r, m: comatching(2 * m)),
    "trivial": (None, lambda r, m: gadget(trivial_packing(r, m))),
    "rs": (3, lambda r, m: gadget(rs_packing(m))),
}
GADGET_KINDS = (*GADGETS, "auto")


def comatching(n: int) -> PartitionedGraph:
    """Complete bipartite graph on floor(n/2) + ceil(n/2) vertices minus a
    perfect matching on the smaller side.

    Parts are 0..floor(n/2)-1 and the rest; the removed pairs are
    (i, floor(n/2)+i), so those are exactly the cross non-edges.
    """
    if n < 2:
        raise ValueError("comatching needs n >= 2")
    check_vertex_count(n)
    a = n // 2
    return _partitioned([(i, a + j) for i in range(a) for j in range(n - a) if i != j], (0, a, n))


def _partitioned(edges: list[tuple[int, int]], cuts: tuple[int, ...]) -> PartitionedGraph:
    """Graph on range(cuts[-1]) with parts between consecutive cuts; unchecked."""
    n = cuts[-1]
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    bounds = tuple(zip(cuts, cuts[1:]))
    return _made(PartitionedGraph, graph=_made(Graph, n=n, adj=tuple(rows)),
                 parts=tuple(tuple(range(a, b)) for a, b in bounds),
                 _part_masks=tuple((1 << b) - (1 << a) for a, b in bounds))


@dataclass(frozen=True)
class PackingGraph:
    """r-partite graph together with a clique packing certificate.

    The listed cliques are transversal r-cliques; validation checks that
    they induce complete subgraphs, that no (r-1)-set lies in two of them,
    that the graph has no intra-part edge, and, exhaustively, that no
    r-clique exists beyond the listed ones.
    """

    pg: PartitionedGraph
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        r = len(self.pg.parts)
        if r < 2:
            raise ValueError("packing graph needs at least 2 parts")
        g = self.pg.graph
        masks = self.pg.part_masks()
        for mask in masks:
            for v in iter_bits(mask):
                if g.adj[v] & mask:
                    raise ValueError("intra-part edge in packing graph")
        seen_sub: set[tuple[int, ...]] = set()
        for clique in self.cliques:
            if len(clique) != r:
                raise ValueError(f"clique {clique} is not an r-set")
            cm = vertex_mask(clique)
            if any((cm & mask).bit_count() != 1 for mask in masks):
                raise ValueError(f"clique {clique} is not transversal")
            for u, v in combinations(clique, 2):
                if not g.has_edge(u, v):
                    raise ValueError(f"listed clique {clique} is not complete")
            for sub in combinations(sorted(clique), r - 1):
                if sub in seen_sub:
                    raise ValueError(f"(r-1)-set {sub} lies in two listed cliques")
                seen_sub.add(sub)
        listed = {tuple(sorted(c)) for c in self.cliques}
        for found in cliques_of_size(g, r):
            if found not in listed:
                raise ValueError(f"unlisted clique {found} in packing graph")

    @property
    def r(self) -> int:
        return len(self.pg.parts)


def trivial_packing(r: int, m: int) -> PackingGraph:
    """m vertex-disjoint transversal r-cliques across r parts of size m."""
    if r < 2 or m < 1:
        raise ValueError("need r >= 2 and m >= 1")
    check_vertex_count(r * m)
    edges = []
    cliques = []
    for j in range(m):
        members = [i * m + j for i in range(r)]
        cliques.append(tuple(members))
        edges.extend(combinations(members, 2))
    pg = _partitioned(edges, tuple(range(0, r * m + 1, m)))
    return _made(PackingGraph, pg=pg, cliques=tuple(cliques))


def behrend_set(m: int) -> frozenset[int]:
    """3-term-AP-free subset of range(m): the integers with no base-3 digit 2.

    They add without carries in base 3, so in x + z = 2y every digit of 2y
    is 0 or 2 and forces the same digit in x and z: x = y = z.  This is the
    greedy progression-free sequence of Odlyzko and Stanley (1978), and for
    m <= 800 also what Behrend's sphere layers (PNAS 1946) over bases 2..10
    and dimensions 2..6 gave after greedy completion.  Over 801..4000 those
    were larger for 336 m (by up to 12, all in 1903..2269) and smaller for
    2841; at m = 40,000 they had 738 elements to this set's 1024.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    out = {0}
    p = 1
    while p < m:
        out |= {x + p for x in out if x + p < m}
        p *= 3
    return frozenset(out)


def rs_packing(m: int) -> PackingGraph:
    """Tripartite triangle packing where every edge lies in exactly one triangle.

    Parts have sizes m, 2m and 3m; for each x < m and each b in
    ``behrend_set(m)`` (the integers below m with no base-3 digit 2), the
    triangle is (x, x+b, x+2b) read across the three parts.
    Progression-freeness of the offsets is what rules out any triangle
    beyond the listed ones.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    check_vertex_count(6 * m)
    offsets = sorted(behrend_set(m))
    edges = []
    cliques = []
    for x in range(m):
        for b in offsets:
            tri = (x, m + x + b, 3 * m + x + 2 * b)
            cliques.append(tri)
            edges.extend(combinations(tri, 2))
    pg = _partitioned(edges, (0, m, 3 * m, 6 * m))
    return _made(PackingGraph, pg=pg, cliques=tuple(cliques))


def gadget(p: PackingGraph) -> PartitionedGraph:
    """Partite complement of a packing graph.

    Each packing clique becomes a transversal maximal independent set of
    the output: it is independent by construction, and extending it would
    exhibit an (r-1)-set inside two distinct r-cliques of the packing.
    """
    return partite_complement(p.pg)


def tight_cycle(r: int, k: int) -> Hypergraph:
    """r-uniform hypergraph on a k-cycle whose edges are the consecutive
    r-windows (indices mod k)."""
    if r < 2 or k < r:
        raise ValueError("need k >= r >= 2")
    check_vertex_count(k)
    edges = []
    seen = set()
    for i in range(k):
        e = tuple(sorted((i + j) % k for j in range(r)))
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return _made(Hypergraph, n=k, edges=tuple(edges))


@dataclass(frozen=True)
class BlowupSpec:
    """Template hypergraph, a gadget size per edge, and a gadget family.

    ``gadget_kind`` is one of "comatching" (2-uniform edges only),
    "trivial" (disjoint transversal cliques, any uniformity), "rs"
    (triangle packing, 3-uniform edges only) or "auto" (comatching for
    2-edges, trivial otherwise).  Mixed edge sizes are allowed; each edge
    just gets a gadget of its own uniformity.
    """

    template: Hypergraph
    sizes: tuple[int, ...]
    gadget_kind: str = "auto"

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.template.edges):
            raise ValueError("need one gadget size per template edge")
        if any(s < 1 for s in self.sizes):
            raise ValueError("gadget sizes must be >= 1")
        if self.gadget_kind not in GADGET_KINDS:
            raise ValueError(f"unknown gadget kind {self.gadget_kind!r}")

    def to_json(self) -> dict:
        return {
            "template": hypergraph_to_json(self.template),
            "sizes": list(self.sizes),
            "gadget": self.gadget_kind,
        }

    @classmethod
    def from_json(cls, obj: dict) -> BlowupSpec:
        try:
            template = hypergraph_from_json(obj["template"])
            sizes = obj["sizes"]
            kind = str(obj.get("gadget", "auto"))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad blowup spec JSON: {exc}") from exc
        # As in hypergraph_from_json, floats and strings are rejected, not truncated.
        if not (isinstance(sizes, list) and all(isinstance(s, int) for s in sizes)):
            raise ValueError("bad blowup spec JSON: sizes must be a list of integers")
        return cls(template, tuple(int(s) for s in sizes), kind)


def _edge_gadget(r: int, size: int, kind: str) -> PartitionedGraph:
    if kind == "auto":
        kind = "comatching" if r == 2 else "trivial"
    need, build = GADGETS[kind]
    if need not in (None, r):
        raise ValueError(f"{kind} gadgets need {need}-uniform edges")
    return build(r, size)


@dataclass(frozen=True)
class Blowup(PartitionedGraph):
    """The blowup graph as a PartitionedGraph, one part per template vertex,
    plus enough structure to address its MIS family.

    Part x holds one vertex per tuple of gadget-part choices over the edges
    at x, in lexicographic order (first incident edge most significant), so
    the layout is reproducible.  ``choices[e][i][a]`` is the mask of the
    vertices of part ``e[i]`` that pick the a-th vertex of part i of edge
    e's gadget.  ``gadget_mis[e]`` lists the transversal MIS's of edge e's
    gadget as per-part local indices.
    """

    template: Hypergraph
    gadget_mis: tuple[tuple[tuple[int, ...], ...], ...]
    choices: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def pg(self) -> PartitionedGraph:
        """The blowup itself, for callers that ask for its partitioned graph."""
        return self

    def family_size(self) -> int:
        """Number of distinct choice functions over per-edge transversal MIS's."""
        return prod(len(entries) for entries in self.gadget_mis)

    def family_mis(self, choice: tuple[int, ...]) -> int:
        """Vertex mask induced by picking gadget_mis[e][choice[e]] per edge e.

        Each part keeps the unique vertex agreeing with every chosen
        transversal MIS on its incident edges.  An entry outside
        range(len(gadget_mis[e])) raises ValueError.
        """
        if len(choice) != len(self.template.edges):
            raise ValueError("need one choice per template edge")
        parts = self.part_masks()
        mask = self.graph.full_mask()
        for e, slots, entries, c in zip(self.template.edges, self.choices, self.gadget_mis, choice):
            if not 0 <= c < len(entries):
                raise ValueError(f"choice {c} outside 0..{len(entries) - 1}")
            for x, masks, a in zip(e, slots, entries[c]):
                mask &= masks[a] | ~parts[x]
        return mask


def blowup(spec: BlowupSpec) -> Blowup:
    """Build the blowup graph of a template with per-edge gadgets.

    Vertices of part x are functions assigning to each incident edge a
    vertex of that edge's gadget in x's slot; two vertices are adjacent iff
    some shared edge's gadget joins their assignments.  Edges only appear
    between parts joined in the template's shadow, so shadow clique-freeness
    carries over.
    """
    h = spec.template
    gadget_pgs = tuple(
        _edge_gadget(len(e), s, spec.gadget_kind) for e, s in zip(h.edges, spec.sizes)
    )
    # Per template vertex, its (edge, slot) pairs in edge order.
    slots = [[(ei, h.edges[ei].index(x)) for ei in h.incident_edges(x)] for x in range(h.n)]
    dims = [[len(gadget_pgs[ei].parts[i]) for ei, i in sx] for sx in slots]
    n_total = sum(prod(dx) for dx in dims)
    check_vertex_count(n_total)

    choices = [[[0] * len(part) for part in gp.parts] for gp in gadget_pgs]
    cuts = [0]
    for sx, dx in zip(slots, dims):
        v = cuts[-1]
        for digits in product(*map(range, dx)):
            for (ei, i), a in zip(sx, digits):
                choices[ei][i][a] |= 1 << v
            v += 1
        cuts.append(v)

    # Gadget vertex u of edge e stands for the blowup vertices that pick it;
    # each gadget edge joins the two sets.
    rows = [0] * n_total
    for gp, masks in zip(gadget_pgs, choices):
        picks = {u: m for part, pm in zip(gp.parts, masks) for u, m in zip(part, pm)}
        for u, row in enumerate(gp.graph.adj):
            joined = 0
            for w in iter_bits(row):
                joined |= picks[w]
            for b in iter_bits(picks[u]):
                rows[b] |= joined

    # Each gadget's transversal MIS's as the local index they pick in each part.
    gadget_mis = tuple(
        tuple(sorted(
            tuple(next(a for a, u in enumerate(part) if mis >> u & 1) for part in gp.parts)
            for mis in transversal_mis_list(gp)
        ))
        for gp in gadget_pgs
    )
    bounds = tuple(zip(cuts, cuts[1:]))
    return _made(
        Blowup,
        graph=_made(Graph, n=n_total, adj=tuple(rows)),
        parts=tuple(tuple(range(a, b)) for a, b in bounds),
        template=h,
        gadget_mis=gadget_mis,
        choices=tuple(tuple(map(tuple, masks)) for masks in choices),
        _part_masks=tuple((1 << b) - (1 << a) for a, b in bounds),
    )


def disjoint_gadget_union(k: int, t: int, m: int) -> Graph:
    """K_t-free graph with many k-MIS's from disjoint partite gadget blocks.

    Takes floor(k/(t-1)) gadget blocks on t-1 parts of size m, plus a
    remainder block on k mod (t-1) parts (a single isolated vertex when the
    remainder is 1).  Every block is at most (t-1)-partite, so the union is
    K_t-free.
    """
    if k < 1 or t < 3 or m < 1:
        raise ValueError("need k >= 1, t >= 3, m >= 1")
    q, s = divmod(k, t - 1)
    check_vertex_count(q * (t - 1) * m + (1 if s == 1 else s * m))
    blocks = [_edge_gadget(t - 1, m, "auto").graph for _ in range(q)]
    if s == 1:
        blocks.append(Graph.empty(1))
    elif s >= 2:
        blocks.append(_edge_gadget(s, m, "auto").graph)
    return disjoint_union(blocks)


def tight_cycle_blowup(k: int, t: int, m: int) -> Blowup:
    """Blowup of the (t-1)-uniform tight k-cycle with uniform gadget size m.

    Requires k >= 2(t-1) so the template's shadow, and hence the blowup,
    is K_t-free.
    """
    if t < 3 or m < 1:
        raise ValueError("need t >= 3 and m >= 1")
    if k < 2 * (t - 1):
        raise ValueError(f"need k >= {2 * (t - 1)} for a K_{t}-free shadow")
    template = tight_cycle(t - 1, k)
    return blowup(BlowupSpec(template, (m,) * len(template.edges)))


# A stored edge is a tuple of r small ints, 40 + 8r bytes in CPython, plus its
# 8-byte slot in the edge tuple.  Building peaks near twice the stored size
# (the edge list, then the duplicate check), so this 256 MiB budget for the
# stored edges keeps a build near 512 MiB of memory.
EDGE_BYTES_CAP = 1 << 28


def window_hypergraph(r: int, k: int, n: int) -> Hypergraph:
    """r-uniform hypergraph on k near-equal parts whose edges take two
    vertices from one part and one from each of the next r-2 parts (cyclic).

    Every set picking one vertex per part is a maximal independent set.
    The (r, k) = (3, 2) corner is rejected: there the construction contains
    complete 4-vertex 3-graphs, and the star hypergraph is the right object.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    if k < r - 1:
        raise ValueError("need k >= r - 1")
    if n < k:
        raise ValueError("need n >= k")
    if r == 3 and k == 2:
        raise ValueError("(r, k) = (3, 2) unsupported; use star_hypergraph")
    check_vertex_count(n)
    s = n % k
    big, small = -(-n // k), n // k
    sizes = [big if i < s else small for i in range(k)]
    # Predict the edges, sum_i C(|P_i|, 2) * prod_j |P_{i+j}|, before building.
    count = sum(
        comb(sizes[i], 2) * prod(sizes[(i + j) % k] for j in range(1, r - 1)) for i in range(k)
    )
    need = count * (48 + 8 * r)
    if need > EDGE_BYTES_CAP:
        budget = EDGE_BYTES_CAP >> 20
        raise ValueError(f"{count} edges need {need >> 20} MiB, above the {budget} MiB edge budget")
    parts = []
    start = 0
    for size in sizes:
        parts.append(range(start, start + size))
        start += size
    edges = []
    for i in range(k):
        singles = [parts[(i + j) % k] for j in range(1, r - 1)]
        for pair in combinations(parts[i], 2):
            for combo in product(*singles):
                edges.append(tuple(sorted(pair + combo)))
    return _made(Hypergraph, n=n, edges=tuple(edges))


def star_hypergraph(n: int) -> Hypergraph:
    """3-uniform hypergraph of all triples through vertex 0.

    Exactly the n-1 pairs {0, u} are its 2-MIS's, and no 4 vertices carry
    all their triples.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    check_vertex_count(n)
    edges = tuple((0, u, w) for u in range(1, n) for w in range(u + 1, n))
    return _made(Hypergraph, n=n, edges=edges)


def dominating_clique_graph(t: int, n: int) -> Graph:
    """Clique on t-2 vertices joined to n-t+2 further independent vertices.

    K_t-free with exactly t-2 single-vertex maximal independent sets.
    """
    if t < 3 or n < t:
        raise ValueError("need n >= t >= 3")
    check_vertex_count(n)
    c = t - 2
    edges = list(combinations(range(c), 2))
    edges.extend((u, v) for u in range(c) for v in range(c, n))
    return Graph.from_edges(n, edges)


def c4_leaves_graph() -> Graph:
    """4-cycle with two pendant leaves on opposite cycle vertices.

    A 6-vertex triangle-free graph with exactly three 2-MIS's that is not
    isomorphic to comatching(6).
    """
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 5)])
