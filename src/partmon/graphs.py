"""Small graph helpers shared by the automata passes.

``explore`` numbers the monitor graphs (one side's ids explored alone, the
pair product, the quotient of minimization) and the lasso product as they
are built.  The tableau numbers its states in the same order in its own
worklist loop, which builds each state's edges as it goes; a deterministic
side's ids are those state numbers, so ``explore`` is the one numbering its
monitor gets.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

Node = TypeVar("Node", bound=Hashable)


def explore(
    starts: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> tuple[list[Node], list[list[int]]]:
    """Build the graph reachable from the start nodes as it is explored.

    Numbers the nodes in breadth-first discovery order: starts first, then
    each node's successors in the order ``successors`` gives them.  Returns
    the nodes in that order and, for each, the numbers of its successors,
    repeats and all.
    """
    nodes = list(dict.fromkeys(starts))
    ids = {node: i for i, node in enumerate(nodes)}
    rows: list[list[int]] = []
    for node in nodes:
        row = []
        for target in successors(node):
            got = ids.get(target)
            if got is None:
                got = ids[target] = len(nodes)
                nodes.append(target)
            row.append(got)
        rows.append(row)
    return nodes, rows


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


def fair_nodes(
    rows: Sequence[Sequence[tuple[object, int, int]]], num_marks: int
) -> frozenset[int]:
    """Nodes with an infinite path that takes an edge of every mark
    0..num_marks-1 infinitely often; with no marks, any infinite path.

    ``rows[v]`` lists the edges leaving ``v`` as ``(label, dst, marks)``
    triples, ``marks`` being the edge's mark bitset; labels are not read.
    The result is the greatest set Z in which every node can reach, inside
    Z, an edge of each mark whose two ends are in Z (the Emerson-Lei
    fixpoint).  Each round keeps the nodes of Z that reach, inside Z, the
    sources of every mark's edges, one backward search per mark whose
    sources are not all of Z, until Z stops shrinking.
    """
    # With no marks, every edge counts as carrying mark 0.
    pad = 0 if num_marks else 1
    fair = set(range(len(rows)))
    while True:
        reverse: list[list[int]] = [[] for _ in rows]
        carried = [0] * len(rows)
        everywhere = -1  # the marks every node of Z carries on an edge inside Z
        for v in fair:
            got = 0
            for _, w, m in rows[v]:
                if w in fair:
                    reverse[w].append(v)
                    got |= m | pad
            carried[v] = got
            everywhere &= got
        kept = set(fair)
        for i in range(num_marks or 1):
            if not everywhere >> i & 1:
                sources = [v for v in fair if carried[v] >> i & 1]
                kept.intersection_update(reachable_from(reverse, sources))
        if len(kept) == len(fair):
            return frozenset(kept)
        fair = kept
