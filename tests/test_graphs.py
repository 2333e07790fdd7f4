"""Graph helpers: the breadth-first search every Moore-machine pass runs on."""

from partmon.graphs import reachable_from

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
