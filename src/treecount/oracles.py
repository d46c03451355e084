"""Independent brute-force ground truth for every closed-form counter.

Three unrelated oracles, so a bug in one cannot hide in another:

* exhaustive Prüfer enumeration for K_n -- tally the degree profile of every
  sequence (vertex v has degree 1 plus its number of occurrences; no tree is
  decoded), built by layers over the sequence positions, equal degree tuples
  merged at each layer with their counts added;
* an enumeration of the spanning trees of K_{m,n}, one side-A vertex at a
  time -- each picks its B-neighbours, at least one and at most one per
  component of the forest so far, and the last joins every component, so
  each sequence of picks is a tree -- built by layers over the A vertices,
  the partial degree profiles that reach one partition of B into components
  merged at each layer with their counts added, B no larger than A;
* the Matrix-Tree determinant of the reduced Laplacian, computed with
  fraction-free (Bareiss) elimination over exact integers.

Both tallies key a profile by its per-side degree tuples (one for K_n, two
for K_{m,n}), so one step counts either, and all_odd is the one parity
filter.  No formula from ``treecount.formulas`` is consulted anywhere here,
and the K_{m,n} enumeration uses no bipartite Prüfer code, which would
encode the theorem behind the formula it checks.

Since no oracle decodes a sequence, the Prüfer decoder and the validated
``Tree`` that the tests check these tallies against live with those tests,
in ``tests/test_oracles.py``, together with the depth-first searches that
built both tallies before.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Sequence

from .combinatorics import SizeLimitError

# The desk-scale ceiling: 9**7 (~4.8M) sequences tallied for K_9 in 6,435 merged degree
# tuples (0.05 s); the 32,000 trees of K_{4,5} or K_{5,4}, the largest bipartite tallies,
# in 1,225 profiles (0.006 s), and every m + n <= 9 in 0.012 s, each K_{m,n} with m < n
# taken from K_{n,m}.  The m + n = 10 splits would add 0.05 s, K_{6,4} (which K_{4,6}
# reuses) the slowest at 0.014 s (2-core Xeon, Python 3.11).
BRUTE_FORCE_LIMIT = 9

# called with the per-side degree tuples: one for K_n, two for K_{m,n}
DegreePredicate = Callable[..., bool]
DegreeTally = dict[tuple[tuple[int, ...], ...], int]


def all_odd(*sides: Sequence[int]) -> bool:
    """The odd-tree filter: every degree on every side of the profile is odd."""
    return all(d % 2 == 1 for side in sides for d in side)


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


@lru_cache(maxsize=None)
def _complete_degree_tally(n: int) -> DegreeTally:
    """Tally of degree profiles over all n**(n-2) Prüfer sequences.

    Built by layers over the sequence positions: a layer maps each degree
    tuple (1 plus the occurrences so far) to the number of sequence prefixes
    that give it.  Each position adds 1 to each label of every tuple, and
    equal tuples merge, so the last layer holds one entry per profile (1,716
    for n = 8) where the sequences number 8**6 = 262,144.
    """
    if n == 1:
        return {((0,),): 1}
    layer = {(1,) * n: 1}
    for _ in range(n - 2):
        extended: dict[tuple[int, ...], int] = {}
        while layer:  # popped, so the two layers together hold about one layer's tuples
            degree, count = layer.popitem()
            for v in range(n):
                longer = (*degree[:v], degree[v] + 1, *degree[v + 1 :])
                extended[longer] = extended.get(longer, 0) + count
        layer = extended
    return {(degree,): count for degree, count in layer.items()}


@lru_cache(maxsize=None)
def _bipartite_degree_tally(m: int, n: int) -> DegreeTally:
    """Tally of degree profiles over the spanning trees of K_{m,n}.

    The vertices of side A pick their sets of B-neighbours in turn.  The
    forest built so far is kept as its components, each a group of B
    vertices (every A vertex placed hangs on one).  A vertex picks at least
    one neighbour, since it must be reached, and at most one per component,
    since two in one would close a cycle; the last must pick exactly one in
    every component, joining them all.  So every sequence of picks is one
    spanning tree, met once.

    Built by layers over the A vertices: a layer maps each partition of B
    into components to the partial profiles that reach it, each with its
    number of partial forests.  A vertex's picks from a chosen set of
    components are listed once and added to every profile of the state, and
    equal partitions and equal profiles merge, so K_{5,5}'s 390,625 trees
    are tallied in 96,376 additions and end in 4,900 profiles.

    A profile is packed into one integer, a field per vertex wide enough for
    any degree, so a pick adds its vertices' units.  A pick takes one vertex
    from each chosen component, and the components are disjoint, so distinct
    picks add distinct sums.

    The partitions of B are the states, so the smaller side is made B: for
    m < n this is the K_{n,m} tally with its two sides swapped (K_{4,6}
    costs about twice K_{6,4} built directly).
    """
    if m < n:
        return {(b, a): count for (a, b), count in _bipartite_degree_tally(n, m).items()}
    width = max(m, n).bit_length()  # no degree exceeds the other side's size
    unit = [1 << (width * v) for v in range(m + n)]  # degree 1 at vertex v: A first, then B
    # a component is the sorted units of its B vertices, a partition its sorted components
    layer: dict[tuple[tuple[int, ...], ...], dict[int, int]] = {
        tuple((unit[m + b],) for b in range(n)): {0: 1}
    }
    for a in range(m):
        extended: dict[tuple[tuple[int, ...], ...], dict[int, int]] = {}
        while layer:  # popped, so the two layers together hold about one layer's states
            components, profiles = layer.popitem()
            ks = [len(components)] if a == m - 1 else range(1, len(components) + 1)
            for k in ks:
                for chosen in combinations(components, k):
                    rest = [c for c in components if c not in chosen]
                    joined = tuple(sorted([tuple(sorted(sum(chosen, ()))), *rest]))
                    picks = [k * unit[a] + s for s in map(sum, product(*chosen))]
                    reached = extended.setdefault(joined, {})
                    for profile, count in profiles.items():
                        for pick in picks:
                            key = profile + pick
                            reached[key] = reached.get(key, 0) + count
        layer = extended
    (packed,) = layer.values()  # the last vertex joined every component into one
    mask = (1 << width) - 1
    tally: DegreeTally = {}
    for key, count in packed.items():
        # a list, not tuple(generator), which raised the default sweep's peak RSS by 0.1 MB
        degree = [(key >> (width * v)) & mask for v in range(m + n)]
        tally[tuple(degree[:m]), tuple(degree[m:])] = count
    return tally


def _count(tally: DegreeTally, predicate: DegreePredicate | None) -> int:
    """The trees of `tally` whose per-side profile `predicate` accepts (None: all)."""
    return sum(count for sides, count in tally.items() if predicate is None or predicate(*sides))


def count_trees_complete_brute(
    n: int, predicate: DegreePredicate | None = None
) -> int:
    """Count labeled trees on 1..n whose degree profile satisfies `predicate`.

    Counts all n**(n-2) Prüfer sequences by their degree profiles; `None` accepts
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

    Side A is vertices 1..m, side B is m+1..m+n.  The vertices of A pick
    their B-neighbours in turn, so every spanning tree is reached once; the
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
