"""Bitset-backed graphs, hypergraphs, vertex partitions, and fractional matchings.

Vertices are 0..n-1 everywhere.  Vertex sets travel as plain int bitmasks
(bit v set <=> v is in the set); public predicates also accept any iterable
of vertex indices and normalize it first.  All objects are immutable after
construction, so they can be shared freely across worker processes.  They
cache derived bitmask tables (a graph's closed neighborhoods, a hypergraph's
per-vertex edge rests, a partition's part masks) on first use; the cache is
not a field, so it never changes equality, hashing or the stored structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

# Desk-scale cap on vertex counts; every construction in this package stays
# well below it, and the exhaustive search enforces much tighter caps.
MAX_VERTICES = 128

VertexSet = int | Iterable[int]


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


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"neighbor bit out of range at vertex {v}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(self.n):
            for u in iter_bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency ({u},{v})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> Graph:
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def cycle(cls, n: int) -> Graph:
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @cached_property
    def closed(self) -> tuple[int, ...]:
        """Closed neighborhoods: ``closed[v]`` is ``adj[v]`` plus v itself."""
        return tuple(row | (1 << v) for v, row in enumerate(self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in iter_bits(self.adj[u]) if u < v]

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
        return Graph(self.n, tuple(rows))


def induced_subgraph(g: Graph, vertices: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices`` plus the new-label -> old-label map."""
    keep = sorted(iter_bits(as_mask(g.n, vertices)))
    index = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        for u in iter_bits(g.adj[v]):
            if u in index:
                rows[index[v]] |= 1 << index[u]
    return Graph(len(keep), tuple(rows)), tuple(keep)


def is_independent(g: Graph, s: VertexSet) -> bool:
    """True iff no two vertices of s are adjacent in g."""
    m = as_mask(g.n, s)
    for v in iter_bits(m):
        if g.adj[v] & m:
            return False
    return True


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
    candidate set bounds the largest clique reachable from each branch.
    """
    if t < 1:
        raise ValueError("clique size must be >= 1")
    if t == 1:
        return g.n >= 1
    adj = g.adj

    def expand(cand: int, size: int) -> bool:
        # Greedy color classes; a clique inside cand meets each class once.
        classes = []
        rest = cand
        while rest:
            cls = 0
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                cls |= low
                avail &= ~adj[v]
                avail ^= low
            classes.append(cls)
            rest &= ~cls
        numbered = [(v, ci + 1) for ci, cls in enumerate(classes) for v in iter_bits(cls)]
        for v, color in reversed(numbered):
            if size + color < t:
                return False
            if size + 1 == t:
                return True
            if expand(cand & adj[v], size + 1):
                return True
            cand &= ~(1 << v)
        return False

    return g.n >= t and expand(g.full_mask(), 0)


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


@dataclass(frozen=True)
class Hypergraph:
    """Edge list over 0..n-1; every edge is a sorted tuple of size >= 2."""

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        seen = set()
        for e in self.edges:
            if len(e) < 2:
                raise ValueError(f"edge {e} has fewer than 2 vertices")
            if list(e) != sorted(set(e)):
                raise ValueError(f"edge {e} not sorted or has repeats")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"edge {e} out of range for n={self.n}")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
        return cls(n, tuple(tuple(sorted(e)) for e in edges))

    def uniform(self, r: int) -> bool:
        return all(len(e) == r for e in self.edges)

    def uniformity(self) -> int | None:
        """Common edge size, or None if edges are mixed or absent."""
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None

    def edge_masks(self) -> tuple[int, ...]:
        return tuple(vertex_mask(e) for e in self.edges)

    @cached_property
    def rest_masks(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex v, the mask of e minus v for each edge e through v, in edge order."""
        rests: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            em = 0
            for v in e:
                em |= 1 << v
            for v in e:
                rests[v].append(em ^ (1 << v))
        return tuple(map(tuple, rests))

    def incident_edges(self, x: int) -> tuple[int, ...]:
        """Indices of the edges containing vertex x, in edge order."""
        return tuple(i for i, e in enumerate(self.edges) if x in e)


def shadow(h: Hypergraph) -> Graph:
    """Graph on the same vertices with uv an edge iff some hyperedge holds both."""
    rows = [0] * h.n
    for e in h.edges:
        for u, v in combinations(e, 2):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(h.n, tuple(rows))


def hypergraph_is_maximal_independent(h: Hypergraph, s: VertexSet) -> bool:
    """True iff s is independent and adding any outside vertex traps an edge."""
    m = as_mask(h.n, s)
    left = {em & ~m for em in h.edge_masks()}
    return 0 not in left and all(1 << w in left for w in iter_bits(((1 << h.n) - 1) & ~m))


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
        # Kept outside the fields, like a cached_property, for part_masks().
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

    def part_of(self, v: int) -> int:
        for i, p in enumerate(self.parts):
            if v in p:
                return i
        raise ValueError(f"vertex {v} not in any part")


def partite_complement(pg: PartitionedGraph) -> PartitionedGraph:
    """Swap edges and non-edges across distinct parts; an involution.

    Rejects inputs with an edge inside a part, since those pairs have no
    complement slot to move to.
    """
    g = pg.graph
    masks = pg.part_masks()
    for mask in masks:
        for v in iter_bits(mask):
            if g.adj[v] & mask:
                raise ValueError("intra-part edge; partite complement undefined")
    part_of = {}
    for i, mask in enumerate(masks):
        for v in iter_bits(mask):
            part_of[v] = i
    rows = [0] * g.n
    for v in range(g.n):
        rows[v] = g.full_mask() & ~g.adj[v] & ~masks[part_of[v]]
    return PartitionedGraph(Graph(g.n, tuple(rows)), pg.parts)


def disjoint_union(gs: Iterable[Graph]) -> Graph:
    """Vertex-relabelled union with no cross edges."""
    rows: list[int] = []
    offset = 0
    for g in gs:
        rows.extend(row << offset for row in g.adj)
        offset += g.n
    return Graph(offset, tuple(rows))


@dataclass(frozen=True)
class FractionalMatching:
    """Nonnegative weight per hyperedge index; loads checked against a host."""

    weights: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        seen = set()
        for idx, w in self.weights:
            if idx in seen:
                raise ValueError(f"duplicate weight for edge {idx}")
            seen.add(idx)
            if w < 0:
                raise ValueError(f"negative weight on edge {idx}")

    @classmethod
    def from_weights(cls, weights: dict[int, Fraction | int]) -> FractionalMatching:
        return cls(tuple(sorted((i, Fraction(w)) for i, w in weights.items())))

    @classmethod
    def uniform(cls, h: Hypergraph, w: Fraction | int) -> FractionalMatching:
        return cls.from_weights({i: Fraction(w) for i in range(len(h.edges))})

    def weight_of(self, idx: int) -> Fraction:
        for i, w in self.weights:
            if i == idx:
                return w
        return Fraction(0)


def total_weight(m: FractionalMatching) -> Fraction:
    return sum((w for _, w in m.weights), Fraction(0))


def validate_fractional_matching(h: Hypergraph, m: FractionalMatching) -> bool:
    """Check the per-vertex load condition sum of weights over edges at x <= 1.

    Weight keys must be valid edge indices of h; an unknown index raises.
    Exact rational arithmetic throughout, so ties at load 1 are accepted.
    """
    loads = [Fraction(0)] * h.n
    for idx, w in m.weights:
        if not 0 <= idx < len(h.edges):
            raise ValueError(f"unknown edge index {idx}")
        for v in h.edges[idx]:
            loads[v] += w
    return all(load <= 1 for load in loads)
