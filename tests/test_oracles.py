"""Tests for the brute-force oracles, including oracle-vs-oracle agreement.

Tree and pruefer_decode are the references the oracles are checked
against: a validated labeled tree and the classical Prüfer decoder.  The
oracles themselves never decode a sequence, so both live here, with the
depth-first searches that built both degree tallies before the layered and
one-A-vertex-at-a-time ones.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Sequence

import pytest

from treecount import oracles
from treecount.combinatorics import SizeLimitError, positive_compositions
from treecount.oracles import (
    LabeledGraph,
    _bareiss_determinant,
    count_trees_bipartite_brute,
    count_trees_complete_brute,
    matrix_tree_count,
)

PrueferSequence = Sequence[int]


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


def all_odd(degrees):
    return all(d % 2 == 1 for d in degrees)


@lru_cache(maxsize=None)
def naive_bipartite_profiles(m, n):
    """Reference loop: decode every sequence via pruefer_decode above,
    keep the trees with no edge inside a side, and list their per-side
    degree tuples.  Independent of the depth-first edge search in the
    oracles module."""
    total = m + n
    profiles = []
    for seq in product(range(1, total + 1), repeat=total - 2):
        tree = pruefer_decode(seq, total)
        if any((u <= m) == (v <= m) for u, v in tree.edges):
            continue
        degrees = tree.degrees()
        profiles.append((degrees[:m], degrees[m:]))
    return profiles


def reference_bipartite_tally(m, n):
    """Reference loop: try every (m+n-1)-subset of the sorted edges through
    Tree and tally the per-side degree tuples of those it accepts."""
    edges = sorted(LabeledGraph.complete_bipartite(m, n).edges)
    tally = Counter()
    for subset in combinations(edges, m + n - 1):
        try:
            degrees = Tree(m + n, subset).degrees()
        except ValueError:  # a cycle, so not a tree
            continue
        tally[degrees[:m], degrees[m:]] += 1
    return dict(tally)


def reference_complete_tally(n):
    """Reference loop: build a fresh degree list for every Prüfer sequence."""
    if n == 1:
        return {((0,),): 1}
    tally = Counter()
    for seq in product(range(1, n + 1), repeat=n - 2):
        degree = [1] * (n + 1)
        for v in seq:
            degree[v] += 1
        tally[(tuple(degree[1:]),)] += 1
    return dict(tally)


def dfs_complete_tally(n):
    """Reference depth-first search: append one label per sequence position
    to one degree array (1 plus the occurrences so far), raising a degree on
    the way down and lowering it on the way back; each full sequence is one
    leaf."""
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


def dfs_bipartite_tally(m, n):
    """Reference depth-first search over the sorted edges, in the order that
    combinations() lists the (m+n-1)-subsets, with a union-find that undoes
    each union on the way back.  An edge whose ends are already connected
    closes a cycle, so it is skipped, and with it every subset containing
    it; a search that reaches m+n-1 edges holds a spanning tree."""
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


def naive_bipartite_count(m, n, predicate=None):
    """Number of reference trees whose side degrees satisfy `predicate`."""
    return sum(
        1
        for a, b in naive_bipartite_profiles(m, n)
        if predicate is None or predicate(a, b)
    )


def naive_decode_edges(seq, n):
    """Reference decode: rescan for the smallest degree-1 vertex each step."""
    degree = [0] + [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for head in seq:
        leaf = min(v for v in range(1, n + 1) if degree[v] == 1)
        edges.append((leaf, head) if leaf < head else (head, leaf))
        degree[leaf] = 0
        degree[head] -= 1
    last = [v for v in range(1, n + 1) if degree[v] >= 1]
    edges.append((last[0], last[1]))
    return frozenset(edges)


def leibniz_determinant(matrix):
    """Reference determinant: the signed sum over all permutations."""
    size = len(matrix)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(size), 2))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(size))
    return total


def reaches_every_vertex(n, edges):
    """Reference connectivity: a depth-first search from vertex 1."""
    neighbours = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen, stack = {1}, [1]
    while stack:
        for w in neighbours[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def spanning_trees_by_edge_subsets(graph):
    """Second reference oracle: try every (n-1)-subset of edges."""
    n = graph.vertex_count
    if n == 1:
        return 1
    count = 0
    for subset in combinations(sorted(graph.edges), n - 1):
        try:
            Tree(n, subset)
        except ValueError:
            continue
        count += 1
    return count


class TestPrueferDecode:
    def test_empty_sequence(self):
        assert pruefer_decode([], 2).edges == ((1, 2),)

    def test_constant_sequence_is_a_star(self):
        tree = pruefer_decode([1, 1], 4)
        assert set(tree.edges) == {(1, 2), (1, 3), (1, 4)}

    def test_hand_run(self):
        tree = pruefer_decode([3, 3, 4], 5)
        assert set(tree.edges) == {(1, 3), (2, 3), (3, 4), (4, 5)}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pruefer_decode([1], 4)

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            pruefer_decode([5, 1], 4)

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            pruefer_decode([], 1)

    def test_decode_matches_naive_rescan_exhaustively(self):
        for n in range(2, 7):
            for seq in product(range(1, n + 1), repeat=n - 2):
                assert frozenset(pruefer_decode(seq, n).edges) == naive_decode_edges(
                    seq, n
                )

    def test_bijection_small_sizes(self):
        # decoding all n**(n-2) sequences yields that many distinct trees
        for n in range(2, 8):
            seen = set()
            for seq in product(range(1, n + 1), repeat=n - 2):
                seen.add(frozenset(pruefer_decode(seq, n).edges))
            assert len(seen) == n ** (n - 2)


class TestPrueferDegreeLemma:
    """The Prüfer degree lemma the complete-graph tally rests on: in the tree a
    sequence decodes to, vertex v has degree 1 plus its occurrences in the
    sequence.  The tally never decodes; this checks it against decoding."""

    def test_matches_decoded_tree_exhaustively(self):
        for n in range(2, 7):
            labels = range(1, n + 1)
            decoded = Counter(
                pruefer_decode(seq, n).degrees() for seq in product(labels, repeat=n - 2)
            )
            for profile in positive_compositions(2 * n - 2, n):
                count = count_trees_complete_brute(n, lambda d: d == profile)
                assert count == decoded[profile], (n, profile)


class TestTreeValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Tree(4, ((1, 2), (2, 3), (1, 3)))

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError):
            Tree(4, ((1, 2), (3, 4)))

    def test_repeated_edge_rejected_as_cycle(self):
        with pytest.raises(ValueError):
            Tree(4, ((1, 2), (1, 2), (3, 4)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_accepts_exactly_the_connected_edge_sets(self, n):
        # edge count and acyclicity alone decide, with no connectivity pass
        for subset in combinations(sorted(LabeledGraph.complete(n).edges), n - 1):
            try:
                Tree(n, subset)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == reaches_every_vertex(n, subset), subset

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Tree(3, ((1, 1), (2, 3)))

    def test_single_vertex(self):
        assert Tree(1, ()).degrees() == (0,)

    def test_degrees(self):
        assert Tree(4, ((1, 2), (2, 3), (2, 4))).degrees() == (1, 3, 1, 1)


class TestAllOdd:
    def test_one_side(self):
        assert oracles.all_odd((1, 3, 1))
        assert not oracles.all_odd((1, 2, 1))
        assert oracles.all_odd(())

    def test_two_sides(self):
        assert oracles.all_odd((1, 3), (1, 1, 5))
        assert not oracles.all_odd((1, 3), (1, 2, 1))
        assert not oracles.all_odd((2,), (1,))

    def test_sides_are_one_profile(self):
        for a in product(range(1, 4), repeat=2):
            for b in product(range(1, 4), repeat=3):
                assert oracles.all_odd(a, b) == oracles.all_odd(a + b) == all_odd(a + b)

    def test_filters_both_counters(self):
        for n in range(1, 7):
            assert count_trees_complete_brute(n, oracles.all_odd) == count_trees_complete_brute(
                n, all_odd
            )
        for m, n in SMALL_SPLITS:
            assert count_trees_bipartite_brute(m, n, oracles.all_odd) == naive_bipartite_count(
                m, n, lambda a, b: all_odd(a + b)
            )


class TestLabeledGraph:
    def test_no_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertex_count must be >= 1, got 0"):
            LabeledGraph(0, [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            LabeledGraph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LabeledGraph(3, [(1, 4)])

    def test_duplicates_collapse(self):
        g = LabeledGraph(3, [(1, 2), (2, 1), (1, 2)])
        assert g.edges == frozenset({(1, 2)})

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (3, -2), (-1, -1)])
    def test_complete_bipartite_needs_both_sides(self, m, n):
        with pytest.raises(ValueError, match="side sizes must be >= 1"):
            LabeledGraph.complete_bipartite(m, n)

    def test_builders(self):
        assert len(LabeledGraph.complete(5).edges) == 10
        assert len(LabeledGraph.complete_bipartite(2, 3).edges) == 6
        assert len(LabeledGraph.path(4).edges) == 3
        assert len(LabeledGraph.cycle(4).edges) == 4


class TestCompleteBruteForce:
    def test_all_odd_on_four_vertices(self):
        assert count_trees_complete_brute(4, all_odd) == 4

    def test_accept_all_realizes_cayley(self):
        assert count_trees_complete_brute(4) == 16

    def test_specific_degree_profile(self):
        target = (2, 2, 1, 1)
        assert count_trees_complete_brute(4, lambda d: d == target) == 2

    def test_single_vertex_predicate_semantics(self):
        assert count_trees_complete_brute(1) == 1
        assert count_trees_complete_brute(1, all_odd) == 0
        assert count_trees_complete_brute(1, lambda d: d == (0,)) == 1

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            count_trees_complete_brute(10)

    def test_matches_naive_decode_filter(self):
        # independent loop over decoded trees rather than the degree tally
        for n in range(2, 6):
            by_decode = sum(
                1
                for seq in product(range(1, n + 1), repeat=n - 2)
                if all_odd(pruefer_decode(seq, n).degrees())
            )
            assert count_trees_complete_brute(n, all_odd) == by_decode


# every side split (m, n) with m + n <= 7, with m + n <= BRUTE_FORCE_LIMIT, and one above
SMALL_SPLITS = [(m, total - m) for total in range(2, 8) for m in range(1, total)]
BRUTE_FORCE_SPLITS = [
    (m, total - m) for total in range(2, oracles.BRUTE_FORCE_LIMIT + 1) for m in range(1, total)
]
TALLY_SPLITS = BRUTE_FORCE_SPLITS + [
    (m, oracles.BRUTE_FORCE_LIMIT + 1 - m) for m in range(1, oracles.BRUTE_FORCE_LIMIT + 1)
]


class TestBipartiteBruteForce:
    def test_accept_all_small(self):
        assert count_trees_bipartite_brute(1, 1) == 1
        assert count_trees_bipartite_brute(2, 3) == 12

    def test_all_odd_three_three(self):
        assert count_trees_bipartite_brute(3, 3, lambda a, b: all_odd(a + b)) == 9

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            count_trees_bipartite_brute(5, 5)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            count_trees_bipartite_brute(0, 3)

    def test_matches_naive_decode_loop(self):
        odd = lambda a, b: all_odd(a + b)
        for m, n in SMALL_SPLITS:
            assert count_trees_bipartite_brute(m, n) == naive_bipartite_count(m, n)
            assert count_trees_bipartite_brute(m, n, odd) == naive_bipartite_count(
                m, n, odd
            )

    def test_degree_spec_filter_matches_naive(self):
        spec = ((2, 2), (2, 1, 1))
        predicate = lambda a, b: (a, b) == spec
        assert count_trees_bipartite_brute(2, 3, predicate) == naive_bipartite_count(
            2, 3, predicate
        ) == 2
        for m, n in SMALL_SPLITS:
            for side_a in positive_compositions(m + n - 1, m):
                for side_b in positive_compositions(m + n - 1, n):
                    predicate = lambda a, b: (a, b) == (side_a, side_b)
                    assert count_trees_bipartite_brute(
                        m, n, predicate
                    ) == naive_bipartite_count(m, n, predicate), (side_a, side_b)


class TestDegreeTallies:
    """The layered K_n and K_{m,n} tallies, key for key, against the
    depth-first searches that built them before (every n <= 8 and
    m + n <= 9, and both orientations of each m + n = 10 against one
    search) and the plain loops those replaced (n <= 7 and m + n <= 8);
    and each tally's trees number the graph's Matrix-Tree count, the
    K_{m,n} tally's one size above the brute-force bound too."""

    @pytest.mark.parametrize(
        "m, n", [(m, total - m) for total in range(2, 9) for m in range(1, total)]
    )
    def test_bipartite_matches_edge_subset_loop(self, m, n):
        assert oracles._bipartite_degree_tally(m, n) == reference_bipartite_tally(m, n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_complete_matches_sequence_loop(self, n):
        assert oracles._complete_degree_tally(n) == reference_complete_tally(n)

    @pytest.mark.parametrize("m, n", BRUTE_FORCE_SPLITS)
    def test_bipartite_matches_depth_first_search(self, m, n):
        assert oracles._bipartite_degree_tally(m, n) == dfs_bipartite_tally(m, n)

    @pytest.mark.parametrize("m, n", [(m, 10 - m) for m in range(5, 10)])
    def test_both_orientations_match_one_depth_first_search(self, m, n):
        # K_{n,m} is K_{m,n} with its sides swapped; m >= n is the one built directly.
        # The splits of m + n <= 9 are each checked above against their own search.
        reference = dfs_bipartite_tally(m, n)
        assert oracles._bipartite_degree_tally(m, n) == reference
        swapped = {(b, a): count for (a, b), count in reference.items()}
        assert oracles._bipartite_degree_tally(n, m) == swapped

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_matches_depth_first_search(self, n):
        assert oracles._complete_degree_tally(n) == dfs_complete_tally(n)

    @pytest.mark.parametrize("m, n", TALLY_SPLITS)
    def test_bipartite_trees_number_the_matrix_tree_count(self, m, n):
        tally = oracles._bipartite_degree_tally(m, n)
        assert sum(tally.values()) == matrix_tree_count(LabeledGraph.complete_bipartite(m, n))

    # every profile of positive degrees with the right sums is some tree's, so a tally holds
    # one key per composition: of 2n - 2 into n parts, and of m + n - 1 into m and into n
    # parts.  Of the key-level checks, only this one reaches K_9.
    @pytest.mark.parametrize("n", range(1, oracles.BRUTE_FORCE_LIMIT + 1))
    def test_complete_holds_one_key_per_realizable_profile(self, n):
        expected = math.comb(2 * n - 3, n - 1) if n >= 2 else 1
        assert len(oracles._complete_degree_tally(n)) == expected

    @pytest.mark.parametrize("m, n", TALLY_SPLITS)
    def test_bipartite_holds_one_key_per_realizable_profile(self, m, n):
        expected = math.comb(m + n - 2, m - 1) * math.comb(m + n - 2, n - 1)
        assert len(oracles._bipartite_degree_tally(m, n)) == expected

    @pytest.mark.parametrize("n", range(1, oracles.BRUTE_FORCE_LIMIT + 1))
    def test_complete_trees_number_the_matrix_tree_count(self, n):
        tally = oracles._complete_degree_tally(n)
        assert sum(tally.values()) == matrix_tree_count(LabeledGraph.complete(n))


class TestBareissDeterminant:
    def test_zero_pivot_swaps_rows(self):
        assert _bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert _bareiss_determinant([[0, 2, 1], [3, 0, 0], [1, 1, 1]]) == -3

    def test_zero_column_below_pivot_is_singular(self):
        assert _bareiss_determinant([[0, 1, 2], [0, 3, 4], [0, 6, 7]]) == 0

    def test_matches_permutation_expansion_with_zero_pivots(self):
        rng = random.Random(2718)
        for _ in range(200):
            size = rng.randint(2, 5)
            matrix = [[rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(size)] for _ in range(size)]
            matrix[0][0] = 0
            expected = leibniz_determinant(matrix)
            assert _bareiss_determinant([row[:] for row in matrix]) == expected, matrix


class TestMatrixTreeCount:
    def test_path_has_one_spanning_tree(self):
        assert matrix_tree_count(LabeledGraph.path(3)) == 1

    def test_cycle_has_n_spanning_trees(self):
        assert matrix_tree_count(LabeledGraph.cycle(4)) == 4

    def test_complete_graph_frozen_value(self):
        assert matrix_tree_count(LabeledGraph.complete(5)) == 125

    def test_single_vertex(self):
        assert matrix_tree_count(LabeledGraph(1, [])) == 1

    def test_disconnected_graph_is_zero(self):
        assert matrix_tree_count(LabeledGraph(4, [(1, 2), (3, 4)])) == 0

    def test_complete_graphs_realize_cayley(self):
        for n in range(1, 9):
            assert matrix_tree_count(LabeledGraph.complete(n)) == max(
                1, n ** (n - 2)
            )

    def test_complete_bipartite_closed_form(self):
        for m in range(1, 9):
            for n in range(1, 11 - m):
                g = LabeledGraph.complete_bipartite(m, n)
                assert matrix_tree_count(g) == m ** (n - 1) * n ** (m - 1)

    def test_agrees_with_edge_subset_enumeration_on_random_graphs(self):
        rng = random.Random(20250809)
        for _ in range(40):
            n = rng.randint(2, 6)
            pairs = list(combinations(range(1, n + 1), 2))
            edges = [e for e in pairs if rng.random() < 0.6]
            g = LabeledGraph(n, edges)
            assert matrix_tree_count(g) == spanning_trees_by_edge_subsets(g)
