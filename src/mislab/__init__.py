"""Extremal constructions and exact counts for maximal independent sets."""

__version__ = "0.1.0"

from .constructions import (
    Blowup,
    BlowupSpec,
    PackingGraph,
    behrend_set,
    blowup,
    c4_leaves_graph,
    comatching,
    disjoint_gadget_union,
    dominating_clique_graph,
    gadget,
    rs_packing,
    star_hypergraph,
    tight_cycle,
    tight_cycle_blowup,
    trivial_packing,
    window_hypergraph,
)
from .engine import (
    ReductionResult,
    count_all_mis,
    count_k_mis,
    count_transversal_mis,
    enumerate_k_mis,
    greedy_mis_partition,
    hypergraph_count_k_mis,
    hypergraph_enumerate_k_mis,
    transversal_mis_list,
    transversal_reduction,
)
from .formats import (
    graph6_decode,
    graph6_encode,
    hypergraph_from_json,
    hypergraph_to_json,
)
from .graphs import (
    Graph,
    Hypergraph,
    PartitionedGraph,
    cliques_of_size,
    disjoint_union,
    has_clique,
    induced_subgraph,
    is_maximal_independent,
    partite_complement,
)
from .search import (
    SearchReport,
    SearchSpec,
    VerifyRow,
    canonical_form,
    exhaustive_m,
    hujter_tuza_value,
    hyper_m432_value,
    m3n2_value,
    moon_moser_value,
    mt_n1_value,
    nielsen_value,
    uniqueness_check,
    verify_theorem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
