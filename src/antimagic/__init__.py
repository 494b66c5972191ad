"""Antimagic edge labelings for connected even-regular graphs.

The package builds, for any connected (2k+2)-regular graph, a bijective edge
labeling whose vertex sums are pairwise distinct, and ships an independent
verifier, a brute-force oracle for small graphs, a random-graph generator,
and a command-line front end.
"""

from .covering import CoveringPair, Link, build_covering_pair, validate_covering_pair
from .errors import (GenerationBudgetError, GraphFormatError, GraphShapeError,
                     InternalInvariantError, OracleBudgetError, StressFailure)
from .generate import generate_regular
from .graph import (BipartiteView, Graph, Layering, bfs_layering, bipartite_view,
                    format_edge_list, layer_view, parse_edge_list, validate_even_regular)
from .labeling import LabelingResult, label_graph
from .oracle import brute_force_antimagic
from .trails import decompose_trails
from .verify import (StressSummary, VerificationReport, check_construction, stress,
                     verify_antimagic)

__version__ = "0.1.0"

__all__ = [
    "BipartiteView",
    "CoveringPair",
    "GenerationBudgetError",
    "Graph",
    "GraphFormatError",
    "GraphShapeError",
    "InternalInvariantError",
    "LabelingResult",
    "Layering",
    "Link",
    "OracleBudgetError",
    "StressFailure",
    "StressSummary",
    "VerificationReport",
    "bfs_layering",
    "bipartite_view",
    "brute_force_antimagic",
    "build_covering_pair",
    "check_construction",
    "decompose_trails",
    "format_edge_list",
    "generate_regular",
    "label_graph",
    "layer_view",
    "parse_edge_list",
    "stress",
    "validate_covering_pair",
    "validate_even_regular",
    "verify_antimagic",
    "__version__",
]
