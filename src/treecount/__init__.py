"""Exact spanning-tree counting for complete and complete bipartite graphs.

Closed-form counters (total, degree-constrained, and all-degrees-odd) with
independent brute-force oracles and a CLI for counting, verification
sweeps, and table generation.
"""

__version__ = "0.1.0"
