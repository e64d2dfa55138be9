"""Answers the benchmark works out for itself, to check the program's outputs.

Nothing here calls the solvers: the tree bound is computed from the instance
text with the benchmark's own reader.
"""

from __future__ import annotations

from collections import Counter


def read_tree(text: str) -> tuple[int, list[tuple[int, int]], Counter, Counter]:
    """(n, edges, start token counts, target token counts) of a ``tree N`` instance."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    kind, n = lines[0].split()
    if kind != "tree":
        raise ValueError(f"expected a tree instance, got {kind!r}")
    edges = [tuple(map(int, line.split())) for line in lines[1:-2]]
    start, target = (Counter(map(int, line.split(":", 1)[1].split())) for line in lines[-2:])
    return int(n), edges, start, target


def edge_flow_bound(n: int, edges: list[tuple[int, int]], start: Counter, target: Counter) -> int:
    """Sum over tree edges of |start - target tokens in the subtree below the edge|.

    Every one of those surplus tokens must cross that edge, and on a tree the
    minimum-cost matching meets the bound, so a shortest sequence has exactly
    this many unit moves.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    parent[0] = 0
    order = [0]
    for u in order:
        for w in adj[u]:
            if parent[w] == -1:
                parent[w] = u
                order.append(w)
    if len(order) != n:
        raise ValueError("instance graph is not a connected tree")
    surplus = [start[v] - target[v] for v in range(n)]
    total = 0
    for v in reversed(order[1:]):
        total += abs(surplus[v])
        surplus[parent[v]] += surplus[v]
    return total


def moves_header(moves_text: str) -> str:
    """First line of a move file, ``moves N``."""
    return moves_text.split("\n", 1)[0]
