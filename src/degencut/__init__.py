"""Exact toolkit for degeneracy, vertex cuts, and edge-count bounds.

The package is organized around one question: which vertex cuts of a graph
induce a k-degenerate subgraph, and what does their absence force about the
edge count? It provides k-core peeling and degeneracy, flow-based vertex
connectivity with minimum-cut enumeration, searches for k-degenerate cuts,
two extremal constructions, exact integer edge-bound tests, and an
exhaustive desk-scale verification harness with a CLI.
"""

from .connectivity import (
    CutCertificate,
    certify_cut,
    components,
    is_connected,
    is_cut,
    minimum_cuts,
    vertex_connectivity,
)
from .constructions import join_extremal, ring_of_cliques
from .cut_search import (
    exists_min_degenerate_cut,
    find_degenerate_cut,
    find_min_degenerate_cut,
    has_degenerate_cut,
)
from .degeneracy import CoreCertificate, degeneracy, is_k_degenerate, max_k_core
from .enumeration import (
    EnumerationSpec,
    canonical_form,
    canonical_graph,
    enumerate_labeled,
)
from .graph import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    from_edges,
    induced_subgraph,
    join,
    path,
    random_graph,
)
from .graph6 import Graph6Error, parse_graph6, to_graph6
from .verify import (
    THEOREMS,
    VerificationReport,
    Violation,
    bound_thm1,
    bound_thm2,
    check_min_degree,
    hyp_thm3,
    verify_theorem,
    verify_theorem_exhaustive,
)

__version__ = "0.1.0"

__all__ = [
    "THEOREMS",
    "CoreCertificate",
    "CutCertificate",
    "EnumerationSpec",
    "Graph",
    "Graph6Error",
    "VerificationReport",
    "Violation",
    "bound_thm1",
    "bound_thm2",
    "canonical_form",
    "canonical_graph",
    "certify_cut",
    "check_min_degree",
    "complement",
    "complete",
    "complete_bipartite",
    "components",
    "cycle",
    "degeneracy",
    "empty_graph",
    "enumerate_labeled",
    "exists_min_degenerate_cut",
    "find_degenerate_cut",
    "find_min_degenerate_cut",
    "from_edges",
    "has_degenerate_cut",
    "hyp_thm3",
    "induced_subgraph",
    "is_connected",
    "is_cut",
    "is_k_degenerate",
    "join",
    "join_extremal",
    "max_k_core",
    "minimum_cuts",
    "parse_graph6",
    "path",
    "random_graph",
    "ring_of_cliques",
    "to_graph6",
    "verify_theorem",
    "verify_theorem_exhaustive",
    "vertex_connectivity",
]
