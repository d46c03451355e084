"""Exact spanning-tree counting for complete and complete bipartite graphs.

Closed-form counters (total, degree-constrained, and all-degrees-odd) with
independent brute-force oracles and a CLI for counting, verification
sweeps, and table generation.
"""

from .combinatorics import (
    InexactDivisionError,
    SizeLimitError,
    even_compositions,
    exact_div,
    multinomial,
    positive_compositions,
)
from .formulas import (
    odd_spanning_trees_bipartite,
    odd_spanning_trees_bipartite_by_sum,
    odd_spanning_trees_complete,
    odd_spanning_trees_complete_by_sum,
    spanning_trees_bipartite,
    spanning_trees_complete,
    trees_with_degrees_bipartite,
    trees_with_degrees_complete,
)
from .oracles import (
    BRUTE_FORCE_LIMIT,
    LabeledGraph,
    Tree,
    count_trees_bipartite_brute,
    count_trees_complete_brute,
    matrix_tree_count,
    pruefer_decode,
)
from .signsum import (
    HYPERCUBE_LIMIT,
    binomial_power_sum,
    even_multinomial_sum,
    hypercube_power_sum,
    multinomial_power_sum,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "HYPERCUBE_LIMIT",
    "InexactDivisionError",
    "LabeledGraph",
    "SizeLimitError",
    "Tree",
    "binomial_power_sum",
    "count_trees_bipartite_brute",
    "count_trees_complete_brute",
    "even_compositions",
    "even_multinomial_sum",
    "exact_div",
    "hypercube_power_sum",
    "matrix_tree_count",
    "multinomial",
    "multinomial_power_sum",
    "odd_spanning_trees_bipartite",
    "odd_spanning_trees_bipartite_by_sum",
    "odd_spanning_trees_complete",
    "odd_spanning_trees_complete_by_sum",
    "positive_compositions",
    "pruefer_decode",
    "spanning_trees_bipartite",
    "spanning_trees_complete",
    "trees_with_degrees_bipartite",
    "trees_with_degrees_complete",
]
