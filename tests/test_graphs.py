"""Graph helpers: the builder that numbers the monitor graphs and the
lasso product as they are explored, the breadth-first search every graph
pass runs on, and the fair-node fixpoint that per-state emptiness is built
from."""

import random

import pytest

from partmon import graphs
from partmon.buchi import Nba
from partmon.fsm import per_state_nonempty
from partmon.graphs import explore, fair_nodes, reachable_from
from partmon.ltl import Alphabet

from helpers import reference_nonempty

# 0 -> 2, 1    1 -> 3    2 -> 3, 0    3 -> 3    4 -> 0 (not reached from 0)
ADJACENCY = [[2, 1], [3], [3, 0], [3], [0]]


def test_discovery_order_follows_adjacency_order():
    assert list(reachable_from(ADJACENCY, [0])) == [0, 2, 1, 3]


def test_each_node_maps_to_the_node_that_first_reached_it():
    # 3 is a neighbour of both 2 and 1; 2 is expanded first.
    assert reachable_from(ADJACENCY, [0]) == {0: None, 2: 0, 1: 0, 3: 2}


def test_starts_map_to_none():
    parent = reachable_from(ADJACENCY, [3, 4])
    assert list(parent) == [3, 4, 0, 2, 1]
    assert parent[3] is None and parent[4] is None
    # 3 is a neighbour of 2 as well, but a start is never re-parented.
    assert parent == {3: None, 4: None, 0: 4, 2: 0, 1: 0}


def test_a_repeated_start_is_kept_once():
    parent = reachable_from(ADJACENCY, [1, 1, 3, 1])
    assert list(parent) == [1, 3]
    assert parent == {1: None, 3: None}


# --- explore: numbering a graph as it is built ---------------------------------


def test_explore_numbers_nodes_in_discovery_order():
    nodes, rows = explore([0], ADJACENCY.__getitem__)
    assert nodes == [0, 2, 1, 3]
    # 0 -> 2, 1    2 -> 3, 0    1 -> 3    3 -> 3, renumbered.
    assert rows == [[1, 2], [3, 0], [3], [3]]


def test_explore_keeps_successor_order_repeats_and_self_loops():
    successors = {"a": ["b", "a", "b", "c"], "b": ["b", "b"], "c": ["a"]}
    nodes, rows = explore(["a"], successors.__getitem__)
    assert nodes == ["a", "b", "c"]
    assert rows == [[1, 0, 1, 2], [1, 1], [0]]


def test_explore_numbers_the_starts_first_and_each_once():
    nodes, rows = explore([3, 4, 3], ADJACENCY.__getitem__)
    assert nodes == [3, 4, 0, 2, 1]
    assert rows == [[0], [2], [3, 4], [0, 2], [0]]


def test_explore_gives_a_dead_end_an_empty_row():
    successors = {(0, 0): [(1, 1)], (1, 1): []}
    assert explore([(0, 0)], successors.__getitem__) == ([(0, 0), (1, 1)], [[1], []])


def test_explore_reaches_what_reachable_from_reaches_in_the_same_order():
    rng = random.Random(0xE4)
    for _ in range(200):
        size = rng.randint(1, 12)
        adjacency = [
            [rng.randrange(size) for _ in range(rng.randint(0, 3))] for _ in range(size)
        ]
        starts = [rng.randrange(size) for _ in range(rng.randint(1, 3))]
        nodes, rows = explore(starts, adjacency.__getitem__)
        assert nodes == list(reachable_from(adjacency, starts))
        assert [[nodes[w] for w in row] for row in rows] == [adjacency[v] for v in nodes]


# --- fair nodes: the Emerson-Lei fixpoint --------------------------------------
#
# Each graph lists, per node, its out-edges as (target, mark bitset) pairs, with
# the number of marks and the fair set written out by hand.  The same graph is
# also read as a one-event automaton, whose live states per_state_nonempty and
# the definition-based reference_nonempty must both give.

# Four SCCs in a chain, 0,1 -> 2,3 -> 4,5 -> 6,7, whose internal edges carry
# mark 0, 1, 0, 1 in turn, and apart from them node 8 with a self-loop carrying
# both.  Each round drops the last SCC of the chain: it cannot reach, inside
# what is left, the mark its own edges lack.
CHAIN = (
    [
        [(1, 0b01)], [(0, 0b01), (2, 0)],
        [(3, 0b10)], [(2, 0b10), (4, 0)],
        [(5, 0b01)], [(4, 0b01), (6, 0)],
        [(7, 0b10)], [(6, 0b10)],
        [(8, 0b11)],
    ],
    2,
    {8},
)
# No marks: every infinite path is fair.  0 -> 1 -> 2 -> 3 ends in 3, which
# has no edge, one more node dropping each round; 5 -> 4 and 4 loops.
ZERO_MARK_CHAIN = ([[(1, 0)], [(2, 0)], [(3, 0)], [], [(4, 0)], [(4, 0)]], 0, {4, 5})
# One SCC, 0 -> 1 -> 2 -> 0, with mark 0 on one edge and mark 1 on another;
# 3 leads into it.
MARKS_ON_DIFFERENT_EDGES = ([[(1, 0b01)], [(2, 0b10)], [(0, 0)], [(0, 0)]], 2, {0, 1, 2, 3})
# 0 reaches the fair self-loop on 3 only through the unmarked cycle 1 <-> 2,
# which also leads to the dead end 4; 5 reaches only the dead end.
THROUGH_UNFAIR = (
    [[(1, 0)], [(2, 0), (4, 0)], [(1, 0), (3, 0)], [(3, 1)], [], [(4, 0)]],
    1,
    {0, 1, 2, 3},
)
# A cycle 0 <-> 1 whose edges both carry mark 0; only 1 -> 0 carries mark 1.
BOTH_CARRY_MARK_0 = ([[(1, 0b01)], [(0, 0b11)]], 2, {0, 1})
SINGLETONS = [
    ([[(0, 0)]], 0, {0}),
    ([[]], 0, set()),
    ([[(0, 1)]], 1, {0}),
    ([[(0, 0)]], 1, set()),
    ([[]], 1, set()),
]
GRAPHS = [CHAIN, ZERO_MARK_CHAIN, MARKS_ON_DIFFERENT_EDGES, THROUGH_UNFAIR, *SINGLETONS, BOTH_CARRY_MARK_0]


def _rows(graph):
    return [[(1, dst, marks) for dst, marks in out] for out in graph]


@pytest.mark.parametrize("graph, num_marks, expected", GRAPHS)
def test_fair_nodes_on_hand_built_graphs(graph, num_marks, expected):
    assert fair_nodes(_rows(graph), num_marks) == expected


@pytest.mark.parametrize("graph, num_marks, expected", GRAPHS)
def test_live_states_of_hand_built_automata(graph, num_marks, expected):
    nba = Nba(Alphabet(["a"]), [0], _rows(graph), num_marks, [0] * len(graph))
    assert per_state_nonempty(nba) == reference_nonempty(nba) == expected


def _counted_searches(monkeypatch) -> list:
    """The sources of every backward search fair_nodes runs from now on."""
    searches = []

    def counted(adjacency, starts):
        searches.append(starts)
        return reachable_from(adjacency, starts)

    monkeypatch.setattr(graphs, "reachable_from", counted)
    return searches


def test_fair_nodes_peels_one_scc_of_the_chain_per_round(monkeypatch):
    """Four rounds drop the chain's four SCCs and a fifth finds nothing to
    drop.  The first three run one backward search per mark; the fourth,
    left with 0, 1 and 8, which all carry mark 0, runs only mark 1's; the
    fifth, left with 8, which carries both marks on its self-loop, none."""
    searches = _counted_searches(monkeypatch)
    graph, num_marks, expected = CHAIN
    assert fair_nodes(_rows(graph), num_marks) == expected
    assert len(searches) == 3 * num_marks + 1


@pytest.mark.parametrize(
    "graph, num_marks, expected, searched",
    [(*BOTH_CARRY_MARK_0, [[1]]), (*MARKS_ON_DIFFERENT_EDGES, [[0], [1]])],
    ids=["mark-0-everywhere", "no-mark-everywhere"],
)
def test_fair_nodes_skips_a_search_from_every_node(monkeypatch, graph, num_marks, expected, searched):
    """A mark that every node carries on an edge inside Z would keep all of
    Z, so only the other marks' searches run, from their sources."""
    searches = _counted_searches(monkeypatch)
    assert fair_nodes(_rows(graph), num_marks) == expected
    assert searches == searched
