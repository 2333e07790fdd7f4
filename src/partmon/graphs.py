"""Small graph helpers shared by the automata passes."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence


def strongly_connected_components(adjacency: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iteratively, over an integer adjacency list."""
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, child_pos = work[-1]
            if child_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            neighbours = adjacency[v]
            for i in range(child_pos, len(neighbours)):
                w = neighbours[i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                sccs.append(component)
    return sccs


def reachable_from(
    adjacency: Sequence[Sequence[int]], starts: Iterable[int]
) -> dict[int, int | None]:
    """Breadth-first search from the start nodes.

    Maps every reached node to the node it was first reached from (None for
    a start), in discovery order: starts first, then each node's neighbours
    in adjacency order.
    """
    parent: dict[int, int | None] = dict.fromkeys(starts)
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return parent


def can_reach(adjacency: Sequence[Sequence[int]], targets: Iterable[int]) -> frozenset[int]:
    """Nodes with a path, possibly empty, to one of the targets."""
    reverse: list[list[int]] = [[] for _ in adjacency]
    for src, row in enumerate(adjacency):
        for dst in row:
            reverse[dst].append(src)
    return frozenset(reachable_from(reverse, targets))


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def accepting_components(
    adjacency: Sequence[Sequence[int]],
    marks: Sequence[Sequence[int]],
    num_marks: int,
) -> list[list[int]]:
    """SCCs with at least one internal edge, whose internal edges carry every
    mark 0..num_marks-1 between them.  ``marks[v][i]`` is the mark bitset of
    the edge from ``v`` to ``adjacency[v][i]``."""
    every_mark = (1 << num_marks) - 1
    found = []
    for component in strongly_connected_components(adjacency):
        inside = set(component)
        internal = False
        carried = 0
        for v in component:
            for w, m in zip(adjacency[v], marks[v]):
                if w in inside:
                    internal = True
                    carried |= m
        if internal and carried == every_mark:
            found.append(component)
    return found
