"""The benchmark's own seeded inputs.

Trees are grown here rather than with `d2color.topology.generate_random_tree`,
so that a change to the program's generators does not change what a workload
simulates.  The program sees only the edge lists and identity lists made here.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Tree:
    """One generated input: an edge list over processes 1..n."""

    n: int
    edges: tuple[tuple[int, int], ...]
    identities: tuple[int, ...] | None  # None: the program's default 1..n
    root: int

    def adjacency(self) -> list[list[int]]:
        return adjacency(self.n, self.edges)

    @property
    def delta(self) -> int:
        return max(len(nbrs) for nbrs in self.adjacency())


def adjacency(n: int, edges) -> list[list[int]]:
    """Neighbour lists of processes 1..n; entry 0 is unused."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def random_tree_edges(n: int, cap: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform attachment under a degree cap, with shuffled labels and edges.

    Each new process attaches to a uniformly chosen process that still has a
    free degree slot.  Labels are then permuted, so that neither the index
    order nor the edge order tells the growth order.
    """
    degree = [0] * (n + 1)
    open_slots = [1]
    grown = []
    for new in range(2, n + 1):
        k = rng.randrange(len(open_slots))
        parent = open_slots[k]
        grown.append((parent, new))
        degree[parent] += 1
        degree[new] += 1
        if degree[parent] >= cap:
            open_slots[k] = open_slots[-1]
            open_slots.pop()
        if degree[new] < cap:
            open_slots.append(new)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    label.insert(0, 0)
    edges = [
        (label[a], label[b]) if rng.random() < 0.5 else (label[b], label[a]) for a, b in grown
    ]
    rng.shuffle(edges)
    return edges


def reused_identities(n: int, adj: list[list[int]], rng: random.Random) -> tuple[int, ...]:
    """Identities distinct within two hops only, so far-apart processes share them.

    Processes in breadth-first order from a random start each take the
    smallest identity not yet held within distance 2.
    """
    start = rng.randrange(1, n + 1)
    ident = [0] * (n + 1)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        taken = set()
        for u in adj[v]:
            taken.add(ident[u])
            for w in adj[u]:
                taken.add(ident[w])
        cand = 1
        while cand in taken:
            cand += 1
        ident[v] = cand
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return tuple(ident[1:])


def max_degree_root(n: int, adj: list[list[int]]) -> int:
    return max(range(1, n + 1), key=lambda i: (len(adj[i]), -i))


def centre(n: int, adj: list[list[int]]) -> int:
    """A process of least eccentricity, found from the two ends of a diameter."""

    def distances(start: int) -> list[int]:
        dist = [-1] * (n + 1)
        dist[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist

    d1 = distances(1)
    a = max(range(1, n + 1), key=d1.__getitem__)
    da = distances(a)
    b = max(range(1, n + 1), key=da.__getitem__)
    db = distances(b)
    return min(range(1, n + 1), key=lambda v: (max(da[v], db[v]), v))


def par_tree_rounds(tree: Tree) -> int:
    """The rounds par_tree takes on `tree` with the default identities 1..n.

    The root must have two or more neighbours: a root with one sends no END.

    Found from the protocol's slot schedule alone, without running it.  A
    process may act only in a round after the one that readied it, and only in
    its slot: a round t with t % m == its color, where m is its parent's
    degree + 1 while coloring and reporting, and the largest degree + 1 during
    the END wave.  Messages arrive in the round they are sent.  The root takes
    color 1 at round 0 and m = its own degree + 1.  A parent gives its children,
    in identity order, the smallest colors that are neither its own nor its
    parent's.  The run ends in the round after the last process ends.
    """
    adj = tree.adjacency()
    root = tree.root
    end_slots = max(len(nbrs) for nbrs in adj) + 1

    def slot(after: int, m: int, color: int) -> int:
        t = after + 1
        return t + (color - t) % m

    parent, color, slots, acts = ([0] * (tree.n + 1) for _ in range(4))
    color[root], slots[root] = 1, len(adj[root]) + 1
    acts[root] = slot(0, slots[root], 1)
    order = [root]
    for v in order:  # breadth first, so every parent acts before its children
        children = sorted(u for u in adj[v] if u != parent[v])
        banned = (color[v], color[parent[v]] if v != root else -1)
        free = [c for c in range(len(adj[v]) + 2) if c not in banned]
        for child, c in zip(children, free):
            parent[child], color[child], slots[child] = v, c, len(adj[v]) + 1
            acts[child] = slot(acts[v], slots[child], c)
        order += children
    reports = acts[:]  # a leaf reports when it acts
    for v in reversed(order[1:]):
        last = max((reports[u] for u in adj[v] if u != parent[v]), default=None)
        if last is not None:
            reports[v] = slot(last, slots[v], color[v])
    ends = acts[:]
    ends[root] = slot(max(reports[u] for u in adj[root]), end_slots, color[root])
    for v in order[1:]:
        ends[v] = slot(ends[parent[v]], end_slots, color[v])
    return max(ends) + 1


def make_tree(n: int, cap: int, rng: random.Random, reuse: bool, root: str) -> Tree:
    """A tree with its start process: `root` is "max_degree", "centre" or "nonleaf"."""
    edges = tuple(random_tree_edges(n, cap, rng))
    adj = adjacency(n, edges)
    if root == "max_degree":
        start = max_degree_root(n, adj)
    elif root == "centre":
        start = centre(n, adj)
    else:
        inner = [i for i in range(1, n + 1) if len(adj[i]) >= 2]
        start = inner[rng.randrange(len(inner))]
    identities = reused_identities(n, adj, rng) if reuse else None
    return Tree(n=n, edges=edges, identities=identities, root=start)
