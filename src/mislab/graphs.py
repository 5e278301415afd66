"""Bitset-backed graphs, hypergraphs and vertex partitions.

Vertices are 0..n-1 everywhere.  Vertex sets travel as plain int bitmasks
(bit v set <=> v is in the set); public predicates also accept any iterable
of vertex indices and normalize it first.  All objects are immutable after
construction, so they can be shared freely across worker processes.  Graphs
and hypergraphs hold only their fields; each walk builds the tables it reads.

Input is checked once, where it enters: ``Graph(n, adj)``, ``from_edges``,
``Hypergraph(n, edges)``, ``PartitionedGraph``, graph6 and JSON.  What the
library derives from valid objects (``relabel``, ``induced_subgraph``,
``disjoint_union``, ``partite_complement``, the graph6 rows, constructions)
``_made`` builds without the checks, but within ``MAX_VERTICES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

# Desk-scale cap on vertex counts; every construction in this package stays
# well below it, and the exhaustive search enforces much tighter caps.
MAX_VERTICES = 128

VertexSet = int | Iterable[int]


def check_vertex_count(n: int) -> None:
    """Reject a vertex count outside [0, MAX_VERTICES]; generators call it first."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def vertex_mask(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        if v < 0:
            raise ValueError(f"negative vertex {v}")
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def as_mask(n: int, s: VertexSet) -> int:
    """Normalize a vertex set to a bitmask and range-check it against n."""
    m = s if isinstance(s, int) else vertex_mask(s)
    if m < 0 or m >> n:
        raise ValueError(f"vertex set out of range for n={n}")
    return m


def _made(cls: type, **fields: object) -> Any:
    """A ``cls`` from fields valid by construction, without ``__post_init__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"neighbor bit out of range at vertex {v}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        adj = self.adj
        for v, row in enumerate(adj):
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency ({u},{v})")
                row ^= low

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        check_vertex_count(n)
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return _made(cls, n=n, adj=tuple(rows))

    @classmethod
    def empty(cls, n: int) -> Graph:
        check_vertex_count(n)
        return _made(cls, n=n, adj=(0,) * n)

    @classmethod
    def complete(cls, n: int) -> Graph:
        check_vertex_count(n)
        full = (1 << n) - 1
        return _made(cls, n=n, adj=tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def cycle(cls, n: int) -> Graph:
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def relabel(self, perm: Iterable[int]) -> Graph:
        """Return the graph with vertex v renamed to perm[v]."""
        p = list(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        rows = [0] * self.n
        for v in range(self.n):
            for u in iter_bits(self.adj[v]):
                rows[p[v]] |= 1 << p[u]
        return _made(Graph, n=self.n, adj=tuple(rows))


def induced_subgraph(g: Graph, vertices: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices`` plus the new-label -> old-label map."""
    keep = sorted(iter_bits(as_mask(g.n, vertices)))
    index = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        for u in iter_bits(g.adj[v]):
            if u in index:
                rows[index[v]] |= 1 << index[u]
    return _made(Graph, n=len(keep), adj=tuple(rows)), tuple(keep)


def is_maximal_independent(g: Graph, s: VertexSet) -> bool:
    """True iff s is independent and every vertex outside s has a neighbor in s."""
    m = as_mask(g.n, s)
    dom = m
    for v in iter_bits(m):
        if g.adj[v] & m:
            return False
        dom |= g.adj[v]
    return dom == g.full_mask()


def has_clique(g: Graph, t: int) -> bool:
    """Decide whether g contains t pairwise-adjacent vertices.

    Branch-and-bound over candidate bitmasks; a greedy coloring of the
    candidate set bounds the largest clique reachable from each branch
    (Tomita & Seki's MCQ).  A branch that needs two more vertices is settled
    without coloring: it holds a clique iff its candidate set holds an edge.
    """
    if t < 1:
        raise ValueError("clique size must be >= 1")
    if t == 1:
        return g.n >= 1
    adj = g.adj

    def expand(cand: int, need: int) -> bool:
        if need == 2:
            rest = cand
            while rest:
                low = rest & -rest
                if adj[low.bit_length() - 1] & cand:
                    return True
                rest ^= low
            return False
        # Greedy color classes; a clique inside cand meets each class once.
        classes = []
        rest = cand
        while rest:
            cls = 0
            avail = rest
            while avail:
                low = avail & -avail
                cls |= low
                avail &= ~adj[low.bit_length() - 1]
                avail ^= low
            classes.append(cls)
            rest &= ~cls
        # Branch on the last class first, highest vertex first.  A clique
        # that takes its top vertex from class c meets at most c classes, so
        # the search ends at the first class below need.
        for color in range(len(classes), need - 1, -1):
            cls = classes[color - 1]
            while cls:
                v = cls.bit_length() - 1
                if expand(cand & adj[v], need - 1):
                    return True
                cand ^= 1 << v
                cls ^= 1 << v
        return False

    return g.n >= t and expand(g.full_mask(), t)


def cliques_of_size(g: Graph, r: int) -> Iterator[tuple[int, ...]]:
    """Yield every r-clique of g as a sorted vertex tuple."""
    if r < 1:
        raise ValueError("clique size must be >= 1")
    adj = g.adj

    def extend(prefix: list[int], cand: int, need: int) -> Iterator[tuple[int, ...]]:
        if need == 0:
            yield tuple(prefix)
            return
        if cand.bit_count() < need:
            return
        for v in iter_bits(cand):
            prefix.append(v)
            yield from extend(prefix, cand & adj[v] & ~((1 << (v + 1)) - 1), need - 1)
            prefix.pop()

    yield from extend([], g.full_mask(), r)


def _check_edges(n: int, edges: tuple[tuple[int, ...], ...], presorted: bool) -> None:
    """Hypergraph's checks, in one pass; a presorted edge is only checked for repeats."""
    check_vertex_count(n)
    seen = set()
    for e in edges:
        if len(e) < 2:
            raise ValueError(f"edge {e} has fewer than 2 vertices")
        if (len(set(e)) < len(e)) if presorted else list(e) != sorted(set(e)):
            raise ValueError(f"edge {e} not sorted or has repeats")
        if e[0] < 0 or e[-1] >= n:
            raise ValueError(f"edge {e} out of range for n={n}")
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)


@dataclass(frozen=True)
class Hypergraph:
    """Edge list over 0..n-1; every edge is a sorted tuple of size >= 2."""

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_edges(self.n, self.edges, False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
        edges = tuple(tuple(sorted(e)) for e in edges)
        _check_edges(n, edges, True)
        return _made(cls, n=n, edges=edges)

    def uniform(self, r: int) -> bool:
        return all(len(e) == r for e in self.edges)

    def incident_edges(self, x: int) -> tuple[int, ...]:
        """Indices of the edges containing vertex x, in edge order."""
        return tuple(i for i, e in enumerate(self.edges) if x in e)


def _rest_masks(h: Hypergraph) -> list[list[int]]:
    """Per vertex v, the mask of e minus v for each edge e through v, in edge order."""
    rests: list[list[int]] = [[] for _ in range(h.n)]
    for e in h.edges:
        em = 0
        for v in e:
            em |= 1 << v
        for v in e:
            rests[v].append(em ^ (1 << v))
    return rests


def _link(rests: list[list[int]]) -> dict[int, int]:
    """Mask of e minus w -> OR of all such w, over edges e and w in e, from ``_rest_masks``."""
    link: dict[int, int] = {}
    for w, masks in enumerate(rests):
        for rest in masks:
            link[rest] = link.get(rest, 0) | 1 << w
    return link


@dataclass(frozen=True)
class PartitionedGraph:
    """Graph plus an ordered partition of its vertices into nonempty parts."""

    graph: Graph
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen = 0
        masks = []
        for part in self.parts:
            if not part:
                raise ValueError("empty part")
            m = vertex_mask(part)
            if m >> self.graph.n:
                raise ValueError("part vertex out of range")
            if m & seen:
                raise ValueError("parts are not disjoint")
            seen |= m
            masks.append(m)
        if seen != self.graph.full_mask():
            raise ValueError("parts do not cover the vertex set")
        # Kept outside the fields, so it changes no comparison, for part_masks().
        object.__setattr__(self, "_part_masks", tuple(masks))

    @classmethod
    def from_parts(cls, graph: Graph, parts: Iterable[Iterable[int]]) -> PartitionedGraph:
        """Build from any iterable of vertex iterables, such as parsed JSON.

        Raises ValueError for anything else: a scalar where a list belongs, a
        vertex that is not an integer, or one out of range.
        """
        try:
            return cls(graph, tuple(tuple(sorted(p)) for p in parts))
        except TypeError:
            raise ValueError("parts must be lists of integer vertex ids") from None

    def part_masks(self) -> tuple[int, ...]:
        """Bitmask of each part, in part order (computed once, by validation)."""
        return self._part_masks


def partite_complement(pg: PartitionedGraph) -> PartitionedGraph:
    """Swap edges and non-edges across distinct parts; an involution.

    Rejects inputs with an edge inside a part, since those pairs have no
    complement slot to move to.
    """
    g = pg.graph
    full = g.full_mask()
    rows = [0] * g.n
    for mask in pg.part_masks():
        for v in iter_bits(mask):
            if g.adj[v] & mask:
                raise ValueError("intra-part edge; partite complement undefined")
            rows[v] = full & ~g.adj[v] & ~mask
    return _made(PartitionedGraph, graph=_made(Graph, n=g.n, adj=tuple(rows)),
                 parts=pg.parts, _part_masks=pg.part_masks())


def disjoint_union(gs: Iterable[Graph]) -> Graph:
    """Vertex-relabelled union with no cross edges."""
    rows: list[int] = []
    offset = 0
    for g in gs:
        rows.extend(row << offset for row in g.adj)
        offset += g.n
    check_vertex_count(offset)
    return _made(Graph, n=offset, adj=tuple(rows))
