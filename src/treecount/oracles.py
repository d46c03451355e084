"""Independent brute-force ground truth for every closed-form counter.

Three unrelated oracles, so a bug in one cannot hide in another:

* exhaustive Prüfer enumeration for K_n -- tally the degree profile of every
  sequence (vertex v has degree 1 plus its number of occurrences; no tree is
  decoded), built one label at a time by a depth-first search;
* a depth-first search over the edge subsets of K_{m,n} -- add one edge at a
  time, drop an edge that closes a cycle together with every subset that
  contains it, and tally the degree profile of each spanning tree reached;
* the Matrix-Tree determinant of the reduced Laplacian, computed with
  fraction-free (Bareiss) elimination over exact integers.

Both tallies key a profile by its per-side degree tuples (one for K_n, two
for K_{m,n}), so one step counts either, and all_odd is the one parity
filter.  No formula from ``treecount.formulas`` is consulted anywhere here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .combinatorics import SizeLimitError

PrueferSequence = Sequence[int]

# The desk-scale ceiling: 9**7 (~4.8M) sequences tallied for K_9; 32,000 trees reached for
# K_{4,5}, the largest bipartite tally, and 92,134 over all m + n <= 9.
BRUTE_FORCE_LIMIT = 9

# called with the per-side degree tuples: one for K_n, two for K_{m,n}
DegreePredicate = Callable[..., bool]
DegreeTally = dict[tuple[tuple[int, ...], ...], int]


def all_odd(*sides: Sequence[int]) -> bool:
    """The odd-tree filter: every degree on every side of the profile is odd."""
    return all(d % 2 == 1 for side in sides for d in side)


@dataclass(frozen=True)
class Tree:
    """A labeled tree on vertices 1..vertex_count.

    Construction checks the edge count and acyclicity, and rejects anything
    that is not a tree.  Together they imply connectivity: each of the n - 1
    edges joins two components, so the n singletons end as one.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 1:
            raise ValueError(f"vertex_count must be >= 1, got {n}")
        if len(self.edges) != n - 1:
            raise ValueError(
                f"a tree on {n} vertices has {n - 1} edges, got {len(self.edges)}"
            )
        parent = list(range(n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            ru, rv = find(u), find(v)
            if ru == rv:
                raise ValueError(f"edge ({u},{v}) closes a cycle")
            parent[ru] = rv

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * (self.vertex_count + 1)
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs[1:])


class LabeledGraph:
    """A simple graph on vertices 1..vertex_count: no self-loops, no multi-edges."""

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 1:
            raise ValueError(f"vertex_count must be >= 1, got {vertex_count}")
        normalized = set()
        for u, v in edges:
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range 1..{vertex_count}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.add((u, v) if u < v else (v, u))
        self.vertex_count = vertex_count
        self.edges = frozenset(normalized)

    @classmethod
    def complete(cls, n: int) -> "LabeledGraph":
        return cls(n, ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))

    @classmethod
    def complete_bipartite(cls, m: int, n: int) -> "LabeledGraph":
        if m < 1 or n < 1:
            raise ValueError(f"side sizes must be >= 1, got m={m}, n={n}")
        return cls(
            m + n,
            ((u, v) for u in range(1, m + 1) for v in range(m + 1, m + n + 1)),
        )

    @classmethod
    def path(cls, n: int) -> "LabeledGraph":
        return cls(n, ((i, i + 1) for i in range(1, n)))

    @classmethod
    def cycle(cls, n: int) -> "LabeledGraph":
        if n < 3:
            raise ValueError(f"a cycle needs >= 3 vertices, got {n}")
        return cls(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def pruefer_decode(seq: PrueferSequence, n: int) -> Tree:
    """Decode a Prüfer sequence into its unique labeled tree on 1..n.

    Classical bijection: for each entry in turn, attach the smallest-labeled
    current leaf (a vertex of degree 1) to it and remove that leaf.  Vertex n
    is never the smallest leaf, so the last two vertices left are the
    smallest remaining leaf and n, which form the final edge.
    """
    if n < 2:
        raise ValueError(f"decoding requires n >= 2, got {n}")
    if len(seq) != n - 2:
        raise ValueError(f"sequence length {len(seq)} != n - 2 = {n - 2}")
    for entry in seq:
        if not 1 <= entry <= n:
            raise ValueError(f"sequence entry {entry} out of range 1..{n}")
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1, 1)
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[leaf] = 0
        degree[v] -= 1
    edges.append((degree.index(1, 1), n))
    return Tree(n, tuple(edges))


@lru_cache(maxsize=None)
def _complete_degree_tally(n: int) -> DegreeTally:
    """Tally of degree profiles over all n**(n-2) Prüfer sequences.

    A depth-first search appends one label per sequence position and keeps
    one degree array (1 plus the occurrences so far), raising a degree on
    the way down and lowering it on the way back; each full sequence is one
    leaf.
    """
    if n == 1:
        return {((0,),): 1}
    tally: dict[tuple[int, ...], int] = {}
    degree = [1] * (n + 1)
    labels = range(1, n + 1)

    def extend(remaining: int) -> None:
        if remaining == 0:
            profile = tuple(degree[1:])
            tally[profile] = tally.get(profile, 0) + 1
            return
        for v in labels:
            degree[v] += 1
            extend(remaining - 1)
            degree[v] -= 1

    extend(n - 2)
    return {(profile,): count for profile, count in tally.items()}


@lru_cache(maxsize=None)
def _bipartite_degree_tally(m: int, n: int) -> DegreeTally:
    """Tally of degree profiles over the spanning trees of K_{m,n}.

    A depth-first search over the sorted edges, in the order that
    combinations() lists the (m+n-1)-subsets, with a union-find that undoes
    each union on the way back.  An edge whose ends are already connected
    closes a cycle, so it is skipped, and with it every subset containing
    it.  A search that reaches m+n-1 edges holds an acyclic edge set of
    that size, which is a spanning tree; no tree is skipped and none is met
    twice.  One degree array changes one edge at a time.
    """
    edges = sorted(LabeledGraph.complete_bipartite(m, n).edges)
    tally: dict[tuple[int, ...], int] = {}
    degree = [0] * (m + n + 1)
    parent = list(range(m + n + 1))

    def find(x: int) -> int:  # no path compression, so every union undoes
        while parent[x] != x:
            x = parent[x]
        return x

    def extend(start: int, missing: int) -> None:
        if missing == 0:
            profile = tuple(degree[1:])
            tally[profile] = tally.get(profile, 0) + 1
            return
        for i in range(start, len(edges) - missing + 1):
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:  # closes a cycle
                continue
            parent[ru] = rv
            degree[u] += 1
            degree[v] += 1
            extend(i + 1, missing - 1)
            degree[u] -= 1
            degree[v] -= 1
            parent[ru] = ru

    extend(0, m + n - 1)
    return {(profile[:m], profile[m:]): count for profile, count in tally.items()}


def _count(tally: DegreeTally, predicate: DegreePredicate | None) -> int:
    """The trees of `tally` whose per-side profile `predicate` accepts (None: all)."""
    return sum(count for sides, count in tally.items() if predicate is None or predicate(*sides))


def count_trees_complete_brute(
    n: int, predicate: DegreePredicate | None = None
) -> int:
    """Count labeled trees on 1..n whose degree profile satisfies `predicate`.

    Pure enumeration over all n**(n-2) Prüfer sequences; `None` accepts
    everything.  The predicate sees each distinct degree profile once, so
    it must depend only on the profile.  Bounded at n <= BRUTE_FORCE_LIMIT;
    n = 1 counts its single (empty) tree, whose profile is the lone
    degree 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"complete brute force is bounded at n <= {BRUTE_FORCE_LIMIT}, got {n}"
        )
    return _count(_complete_degree_tally(n), predicate)


def count_trees_bipartite_brute(
    m: int, n: int, predicate: DegreePredicate | None = None
) -> int:
    """Count spanning trees of K_{m,n} whose degree profile satisfies `predicate`.

    Side A is vertices 1..m, side B is m+1..m+n.  A depth-first search
    through the (m+n-1)-subsets of the graph's m*n edges reaches every
    spanning tree once, cutting off each subset that closes a cycle; the
    predicate receives the two per-side degree tuples and must depend only
    on them.  Bounded at m + n <= BRUTE_FORCE_LIMIT.
    """
    if m < 1 or n < 1:
        raise ValueError(f"side sizes must be >= 1, got m={m}, n={n}")
    total = m + n
    if total > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"bipartite brute force is bounded at m + n <= {BRUTE_FORCE_LIMIT},"
            f" got {total}"
        )
    return _count(_bipartite_degree_tally(m, n), predicate)


def _bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination.

    Every division below is exact (it divides out the previous pivot), so
    the computation stays in the integers.  Mutates its argument.
    """
    size = len(matrix)
    if size == 0:
        return 1
    sign = 1
    prev_pivot = 1
    for k in range(size - 1):
        if matrix[k][k] == 0:
            for i in range(k + 1, size):
                if matrix[i][k] != 0:
                    matrix[k], matrix[i] = matrix[i], matrix[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = matrix[k][k]
        for i in range(k + 1, size):
            row = matrix[i]
            head = row[k]
            base = matrix[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - head * base[j]) // prev_pivot
            row[k] = 0
        prev_pivot = pivot
    return sign * matrix[size - 1][size - 1]


def matrix_tree_count(graph: LabeledGraph) -> int:
    """Count spanning trees of any simple graph via the Matrix-Tree theorem.

    Builds the Laplacian with the row and column of vertex 1 deleted and
    returns its determinant, computed exactly.  A single vertex leaves an
    empty matrix, whose determinant 1 counts its one spanning tree; a
    disconnected graph correctly yields 0.
    """
    n = graph.vertex_count
    # Reduced Laplacian over vertices 2..n.
    lap = [[0] * (n - 1) for _ in range(n - 1)]
    for u, v in graph.edges:
        if u > 1:
            lap[u - 2][u - 2] += 1
        if v > 1:
            lap[v - 2][v - 2] += 1
        if u > 1 and v > 1:
            lap[u - 2][v - 2] -= 1
            lap[v - 2][u - 2] -= 1
    return _bareiss_determinant(lap)
