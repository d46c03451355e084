"""The families of graphs that count, table, oracle and verify dispatch through.

FAMILIES holds one Family record per family: its sizes, the verify scope
that sweeps it, its powers, its closed form and oracles, an odd family's
cosh-power columns and row, and a total's degree profile.  Its lambdas look
each closed form up in the formulas module, and each oracle in the oracles
module, when called: a patched attribute takes effect, and oracles is
loaded only when an oracle first runs, so a count never loads it.

Also the verify sweep's scopes and default bounds, which the CLI's verify
options name without loading the sweep.
"""

from __future__ import annotations

from collections import namedtuple

from . import formulas

ALL_SCOPES = ("complete", "bipartite", "degrees", "signsum")
DEFAULT_COMPLETE_MAX = 8
DEFAULT_BIPARTITE_MAX = 9
DEFAULT_SEED = 1729


# Family is a collections.namedtuple subclass, not a typing.NamedTuple class: under postponed
# annotations, creating a NamedTuple compiles each field's annotation string into a
# ForwardRef, and every CLI start would pay for that.


class Family(
    namedtuple(
        "Family", "parameters scope powers formula oracles columns profile", defaults=(None, None)
    )
):
    """A family of graphs, as count, table, oracle and verify read it.

    parameters are the side sizes, summing to the vertex count; scope is the
    verify scope that sweeps the family; powers(*sizes) gives the (side,
    power) pairs whose product of side**power is the total.  formula and
    oracles take the sizes as keywords, and look every function up when
    called: a patched attribute takes effect.  columns(stop), None for a
    total, names what an odd family's table up to stop reads of the cosh-power
    recurrence: (first, power), the arguments of signsum.cosh_power_columns,
    and row(bracket, *sizes), one row's count, which reads each c(k, p) as
    bracket(k, p): the closed form's own formulas.*_brackets.
    profile, None for an odd family, is a total's degree profiles:
    (options, formula, kind), the option names of the degree sequences, one
    per side; their closed form, which takes the sequences in side order; and
    the kind of the oracle that counts the trees of one profile, given the
    sizes and a predicate on the per-side degree tuples.
    """

    __slots__ = ()


def _oracles():
    """The oracles module, imported when an oracle first runs."""
    from . import oracles  # here, not at the top: every count would pay for it

    return oracles


def _matrix_tree(graph: str, *sizes: int) -> int:
    """The Matrix-Tree count of the graph that LabeledGraph's constructor `graph` builds."""
    oracles = _oracles()
    return oracles.matrix_tree_count(getattr(oracles.LabeledGraph, graph)(*sizes))


# every family, in the order of the CLI's family choices
FAMILIES = {
    "complete": Family(
        ("n",), scope="complete", powers=formulas.complete_powers,
        formula=lambda n: formulas.spanning_trees_complete(n),
        oracles={
            "pruefer-brute": lambda n, predicate=None: _oracles().count_trees_complete_brute(
                n, predicate
            ),
            "matrix-tree": lambda n: _matrix_tree("complete", n),
        },
        profile=(
            ("degrees",),
            lambda degrees: formulas.trees_with_degrees_complete(degrees),
            "pruefer-brute",
        ),
    ),
    "bipartite": Family(
        ("m", "n"), scope="bipartite", powers=formulas.bipartite_powers,
        formula=lambda m, n: formulas.spanning_trees_bipartite(m, n),
        oracles={
            # the name matches neither the edge-subset search it once was nor the layered
            # tally it is now, and is kept because the pinned verify report carries it
            "edge-subset-brute": lambda m, n, predicate=None: (
                _oracles().count_trees_bipartite_brute(m, n, predicate)
            ),
            "matrix-tree": lambda m, n: _matrix_tree("complete_bipartite", m, n),
        },
        profile=(
            ("a", "b"),
            lambda a, b: formulas.trees_with_degrees_bipartite(a, b),
            "edge-subset-brute",
        ),
    ),
    "odd-complete": Family(
        ("n",), scope="complete", powers=formulas.complete_powers,
        formula=lambda n: formulas.odd_spanning_trees_complete(n),
        oracles={
            "pruefer-brute": lambda n: _oracles().count_trees_complete_brute(
                n, _oracles().all_odd
            ),
            "composition-sum": lambda n: formulas.odd_spanning_trees_complete_by_sum(n),
        },
        # the triangle: column n ends at c(n, n - 2)
        columns=lambda stop: (0, None, formulas.complete_brackets),
    ),
    "odd-bipartite": Family(
        ("m", "n"), scope="bipartite", powers=formulas.bipartite_powers,
        formula=lambda m, n: formulas.odd_spanning_trees_bipartite(m, n),
        oracles={
            "edge-subset-brute": lambda m, n: _oracles().count_trees_bipartite_brute(
                m, n, _oracles().all_odd
            ),
            "composition-sum": lambda m, n: formulas.odd_spanning_trees_bipartite_by_sum(m, n),
        },
        # the grid of odd k <= stop at the even p < stop
        columns=lambda stop: (1, stop - 1, formulas.bipartite_brackets),
    ),
}
