"""Objects built without re-validation equal what the public constructors build.

``graphs._made`` skips ``__post_init__`` for graphs, hypergraphs, partitions,
packings and blowups that are valid by construction.  Each such path is run
here on seeded inputs, and the public constructor must accept its output and
give an equal object.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random

import pytest

from mislab import (
    Blowup,
    BlowupSpec,
    Graph,
    Hypergraph,
    PackingGraph,
    PartitionedGraph,
    blowup,
    canonical_form,
    comatching,
    count_all_mis,
    count_k_mis,
    count_transversal_mis,
    disjoint_gadget_union,
    disjoint_union,
    gadget,
    graph6_decode,
    graph6_encode,
    hypergraph_count_k_mis,
    induced_subgraph,
    partite_complement,
    rs_packing,
    star_hypergraph,
    tight_cycle,
    tight_cycle_blowup,
    trivial_packing,
    window_hypergraph,
)
from mislab.cli import main
from mislab.graphs import MAX_VERTICES
from mislab.search import CANONICAL_CAP, _slots, graph_from_edge_mask
from naive import edges, random_graph, random_hypergraph3, random_mixed_hypergraph


def assert_public_twin(x: Graph | Hypergraph) -> None:
    """The public constructor accepts x's fields and builds an equal object."""
    assert type(x) in (Graph, Hypergraph)
    names = [f.name for f in dataclasses.fields(x)]
    assert list(vars(x)) == names
    twin = type(x)(*(getattr(x, name) for name in names))
    assert twin == x and hash(twin) == hash(x) and repr(twin) == repr(x)
    assert pickle.dumps(twin) == pickle.dumps(x)


def _random_graphs(seed: int, count: int, largest: int = 14) -> list[Graph]:
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(0, largest), rng.random()) for _ in range(count)]


def test_graph6_round_trips_build_equal_graphs():
    rng = random.Random(8101)
    graphs = _random_graphs(8102, 60)
    # n > 62 takes the 4-byte size header.
    graphs += [random_graph(rng, n, rng.random() * 0.3) for n in (62, 63, 64, 100, MAX_VERTICES)]
    for g in graphs:
        back = graph6_decode(graph6_encode(g))
        assert back == g
        assert_public_twin(back)
    assert graph6_encode(graphs[-2])[:1] == b"~"


def test_graph_builders_give_equal_graphs():
    rng = random.Random(8201)
    for g in _random_graphs(8202, 80):
        assert_public_twin(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert_public_twin(g.relabel(perm))
        sub, _ = induced_subgraph(g, rng.getrandbits(g.n))
        assert_public_twin(sub)
        assert_public_twin(disjoint_union([g, sub, g]))
        # Two random parts, with the edges inside them dropped: those have no
        # partite complement.
        a = rng.getrandbits(g.n)
        b = g.full_mask() ^ a
        adj = tuple(row & (b if a >> v & 1 else a) for v, row in enumerate(g.adj))
        parts = [p for p in ([v for v in range(g.n) if m >> v & 1] for m in (a, b)) if p]
        pg = PartitionedGraph.from_parts(Graph(g.n, adj), parts)
        comp = partite_complement(pg)
        assert_public_twin(comp.graph)
        public = PartitionedGraph(comp.graph, pg.parts)
        assert comp == public and vars(comp) == vars(public)
        assert pickle.dumps(comp) == pickle.dumps(public)
        assert partite_complement(comp) == pg


def test_empty_and_complete_graphs_equal_the_public_constructor():
    for n in (0, 1, 2, 7, MAX_VERTICES):
        empty, complete = Graph.empty(n), Graph.complete(n)
        assert empty == Graph.from_edges(n, [])
        assert complete == Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)])
        assert_public_twin(empty)
        assert_public_twin(complete)
    for build in (Graph.empty, Graph.complete):
        for n in (-1, MAX_VERTICES + 1):
            with pytest.raises(ValueError, match=rf"^vertex count {n} outside"):
                build(n)


def test_disjoint_union_past_max_vertices_is_rejected():
    half = Graph.empty(MAX_VERTICES // 2)
    assert disjoint_union([half, half]).n == MAX_VERTICES
    with pytest.raises(ValueError, match=rf"^vertex count {MAX_VERTICES + 1} outside"):
        disjoint_union([half, half, Graph.empty(1)])


# Every tight, union, RS and window spec of perfbench's blowups workload.
TIGHT = [(10, 4, 2), (9, 4, 2), (6, 3, 4), (8, 4, 2), (7, 3, 3), (5, 3, 4), (5, 3, 3),
         (7, 3, 2), (6, 3, 2), (5, 3, 2)]
UNION = [(9, 4, 3), (12, 5, 2), (6, 3, 4)]
RS = [20, 16, 12, 8]
WINDOW = [(4, 5, 20), (4, 4, 20)]


# Blowups of small spec templates, each gadget kind at least once.
SPECS = [
    (tight_cycle(2, 5), (2,) * 5, "auto"),
    (Hypergraph.from_edges(4, [(0, 1, 2), (1, 2, 3)]), (2, 2), "rs"),
    (tight_cycle(3, 6), (2, 3, 2, 3, 2, 3), "trivial"),
    (tight_cycle(2, 6), (3, 2, 3, 2, 3, 2), "comatching"),
    (Hypergraph.from_edges(5, [(0, 1, 2), (2, 3), (3, 4), (0, 4)]), (2, 3, 2, 2), "auto"),
    (Hypergraph.from_edges(2, []), (), "auto"),
]


def assert_public_blowup(bw: Blowup) -> None:
    """The public Blowup constructor, fed bw's fields, builds an equal object."""
    assert_public_twin(bw.graph)
    assert_public_twin(bw.template)
    fields = {f.name: getattr(bw, f.name) for f in dataclasses.fields(Blowup)}
    public = Blowup(**{**fields, "graph": Graph(bw.graph.n, bw.graph.adj)})
    assert bw == public and vars(bw) == vars(public)
    assert pickle.dumps(bw) == pickle.dumps(public)


def test_constructions_give_equal_objects():
    for k, t, m in TIGHT:
        assert_public_blowup(tight_cycle_blowup(k, t, m))
    for spec in SPECS:
        assert_public_blowup(blowup(BlowupSpec(*spec)))
    for k, t, m in UNION:
        assert_public_twin(disjoint_gadget_union(k, t, m))
    for m in RS:
        assert_public_twin(gadget(rs_packing(m)).graph)
    for r, k, n in WINDOW:
        assert_public_twin(window_hypergraph(r, k, n))
    for r, k, n in [(3, 3, 7), (3, 4, 13), (5, 4, 11)]:
        assert_public_twin(window_hypergraph(r, k, n))
    for r, k in [(2, 5), (3, 3), (3, 7), (4, 9), (5, 5)]:
        assert_public_twin(tight_cycle(r, k))
    for n in (4, 5, 9):
        assert_public_twin(star_hypergraph(n))


def assert_public_partition(pg: PartitionedGraph) -> PartitionedGraph:
    """The public constructors, fed pg's edges and parts, build an equal object."""
    assert_public_twin(pg.graph)
    public = PartitionedGraph.from_parts(
        Graph.from_edges(pg.graph.n, edges(pg.graph)), [list(p) for p in pg.parts]
    )
    assert pg == public and vars(pg) == vars(public)
    assert pickle.dumps(pg) == pickle.dumps(public)
    return public


def test_packings_and_comatchings_equal_the_public_constructors():
    packings = [trivial_packing(r, m) for r in range(2, 5) for m in range(1, 6)]
    packings += [rs_packing(m) for m in range(2, 22)]
    for p in packings:
        public = PackingGraph(assert_public_partition(p.pg), tuple(map(tuple, p.cliques)))
        assert p == public and vars(p) == vars(public)
        assert pickle.dumps(p) == pickle.dumps(public)
    for n in range(2, 17):
        assert_public_partition(comatching(n))


@pytest.mark.parametrize("r", [2, 3])
def test_edge_masks_give_equal_graphs(r):
    rng = random.Random(8300 + r)
    for n in range(r, 9):
        slots = len(_slots(n, r))
        for _ in range(12):
            assert_public_twin(graph_from_edge_mask(n, rng.getrandbits(slots), r))


# One bad edge each, with the message Hypergraph.from_edges has always given.
BAD_EDGES = [
    ([(1,)], "edge (1,) has fewer than 2 vertices"),
    ([(1, 0, 1)], "edge (0, 1, 1) not sorted or has repeats"),
    ([(3, 0)], "edge (0, 3) out of range for n=3"),
    ([(0, -1)], "edge (-1, 0) out of range for n=3"),
    ([(0, 1), (2, 1, 0), (1, 0)], "duplicate edge (0, 1)"),
]


@pytest.mark.parametrize("edges,message", BAD_EDGES)
def test_hypergraph_from_edges_errors_keep_their_messages(edges, message, tmp_path, capsys):
    with pytest.raises(ValueError) as info:
        Hypergraph.from_edges(3, edges)
    assert str(info.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "edges": [list(e) for e in edges]}))
    assert main(["count", "--graph", str(path), "--k", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: cannot parse {path}: {message}\n"


def test_hypergraph_from_edges_sorts_once_and_checks_the_vertex_count():
    h = Hypergraph.from_edges(5, ([4, 0, 2], (3, 1), iter([2, 1])))
    assert h.edges == ((0, 2, 4), (1, 3), (1, 2))
    assert_public_twin(h)
    with pytest.raises(ValueError, match=rf"^vertex count {MAX_VERTICES + 1} outside"):
        Hypergraph.from_edges(MAX_VERTICES + 1, [])


def test_counting_leaves_only_the_fields():
    # Each walk builds the tables it reads, so after every counter and
    # canonical_form an object still holds only its fields and stays the
    # public constructor's twin.
    rng = random.Random(8401)
    for g in _random_graphs(8402, 30, largest=CANONICAL_CAP):
        made = graph6_decode(graph6_encode(g))
        fresh = Graph(g.n, g.adj)
        want = [count_k_mis(g, k) for k in range(g.n + 1)], count_all_mis(g)
        for x in (made, fresh):
            assert ([count_k_mis(x, k) for k in range(g.n + 1)], count_all_mis(x)) == want
            count_transversal_mis(PartitionedGraph.from_parts(x, [[v] for v in range(g.n)]))
            assert canonical_form(x) == canonical_form(g)
            assert_public_twin(x)
    for _ in range(30):
        h = random_mixed_hypergraph(rng, rng.randint(0, 9), rng.randint(0, 10))
        made = Hypergraph.from_edges(h.n, [list(reversed(e)) for e in h.edges])
        fresh = Hypergraph(h.n, h.edges)
        k = min(h.n, 2)
        assert hypergraph_count_k_mis(made, k) == hypergraph_count_k_mis(fresh, k)
        assert_public_twin(made)
        assert_public_twin(fresh)
    for n in range(CANONICAL_CAP + 1):
        h = random_hypergraph3(rng, n, rng.random())
        canonical_form(h)
        assert_public_twin(h)
