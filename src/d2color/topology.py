"""Communication graphs: construction, generation, identities, and metrics.

Processes are addressed by 1-based index (a bookkeeping handle that is never
put on the wire) and carry an identity (a non-negative integer that *is*
transmitted).  Identities must be pairwise distinct within every closed
2-neighborhood; beyond two hops they may repeat.

Two primitives walk the graph: `bfs` gives hop distances in visiting order
(reachability, depth, distances, identity and greedy color order), and
`two_hop` gives the processes within two hops of one process.  One scan,
`repeats_within_two_hops`, finds the pairs within two hops that share an
identity or a color.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from .messages import first_free_color


class TopologyError(ValueError):
    pass


class DisconnectedGraph(TopologyError):
    pass


class NotATree(TopologyError):
    pass


class DuplicateEdge(TopologyError):
    pass


class IdentityClashWithin2Hops(TopologyError):
    pass


class InfeasibleDegreeCap(TopologyError):
    pass


@dataclass(frozen=True)
class GraphMetrics:
    """Degree and depth figures for one topology/root combination."""

    delta: int
    depth: int


@dataclass(frozen=True)
class Topology:
    """Immutable undirected communication graph.

    Attributes:
        n: Process count.
        adjacency: Per-process sorted neighbor indices (1-based, entry 0 unused).
        identities: Per-process identity (entry 0 unused).
        kind: "tree" or "general".
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    identities: tuple[int, ...]
    kind: str

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def identity(self, i: int) -> int:
        return self.identities[i]

    def neighbor_identities(self, i: int) -> tuple[int, ...]:
        return tuple(self.identities[j] for j in self.adjacency[i])

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(1, self.n + 1) for j in self.adjacency[i] if i < j]

    @property
    def delta(self) -> int:
        return max((len(self.adjacency[i]) for i in range(1, self.n + 1)), default=0)


def build_topology(
    edges: list[tuple[int, int]],
    identities: list[int] | None = None,
    kind: str = "tree",
    n: int | None = None,
) -> Topology:
    """Validate and freeze a topology from an edge list.

    Args:
        edges: Undirected index pairs, 1-based.
        identities: Optional per-process identities; defaults to 1..n.
        kind: "tree" (edge count must be n-1, acyclic) or "general".
        n: Process count; inferred from the largest index when omitted.

    Raises:
        DuplicateEdge, NotATree, DisconnectedGraph, IdentityClashWithin2Hops.
    """
    if kind not in ("tree", "general"):
        raise TopologyError(f"unknown topology kind {kind!r}")
    if n is None:
        if identities is not None:
            n = len(identities)
        elif edges:
            n = max(max(a, b) for a, b in edges)
        else:
            raise TopologyError("cannot infer process count from an empty edge list")
    if n < 1:
        raise TopologyError("process count must be >= 1")
    if not edges and n > 1:
        raise TopologyError("edge list may be empty only for a singleton")

    seen = set()
    for a, b in edges:
        if not (1 <= a <= n and 1 <= b <= n):
            raise TopologyError(f"edge ({a},{b}) out of range 1..{n}")
        if a == b:
            raise TopologyError(f"self-loop at {a}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise DuplicateEdge(f"edge {key} listed twice")
        seen.add(key)

    # counted before anything is allocated per process, so a mistyped n costs nothing
    if kind == "tree" and len(seen) != n - 1:
        raise NotATree(f"tree on {n} processes needs {n - 1} edges, got {len(seen)}")
    if len(seen) < n - 1:
        raise DisconnectedGraph(f"{n} processes need at least {n - 1} edges, got {len(seen)}")
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for a, b in seen:
        adj[a].add(b)
        adj[b].add(a)
    frozen = tuple(tuple(sorted(s)) for s in adj)
    reached = len(bfs(frozen, 1))
    if reached != n:
        if kind == "tree":
            # n-1 edges but disconnected implies a cycle somewhere
            raise NotATree("edge count matches a tree but the graph contains a cycle")
        raise DisconnectedGraph(f"only {reached} of {n} processes reachable")

    if identities is None:
        ident = tuple(range(n + 1))
    else:
        if len(identities) != n:
            raise TopologyError("identities list length must equal n")
        if any(v < 0 for v in identities):
            raise TopologyError("identities must be non-negative")
        ident = (0,) + tuple(identities)

    topo = Topology(n=n, adjacency=frozen, identities=ident, kind=kind)
    validate_identities(topo)
    return topo


def validate_identities(topology: Topology) -> None:
    """Check distance-<=2 identity distinctness."""
    clashes = repeats_within_two_hops(topology, topology.identities)
    if clashes:
        a, b, dist = clashes[0]
        raise IdentityClashWithin2Hops(
            f"processes {a} and {b}, {dist} hop(s) apart, share identity {topology.identities[a]}"
        )


def repeats_within_two_hops(
    topology: Topology, labels: Sequence[int | None]
) -> list[tuple[int, int, int]]:
    """Pairs (a, b, distance), a < b, within two hops whose labels are equal and not None.

    labels is indexed by process (entry 0 unused).  Every such pair lies in
    the ball {c} | neighbors(c) of some centre c: the smaller process of a
    distance-1 pair, the smallest common neighbor of a distance-2 pair.  A
    ball whose labels are all distinct is passed over; the others are scanned
    pair by pair.  Pairs come by ascending centre, then distance, then (a, b).
    """
    adjacency = topology.adjacency
    out = []
    found = set()  # the distance-2 pairs reported so far
    for c in range(1, topology.n + 1):
        nbrs, mine = adjacency[c], labels[c]
        ball = {labels[u] for u in nbrs}
        ball.add(mine)
        if len(ball) == len(nbrs) + 1:
            continue
        if mine is not None:
            out += [(c, u, 1) for u in nbrs if u > c and labels[u] == mine]
        for i, a in enumerate(nbrs):
            label = labels[a]
            if label is None:
                continue
            for b in nbrs[i + 1:]:
                # adjacent neighbors are a distance-1 pair, reported at their own centre
                if labels[b] == label and b not in adjacency[a] and (a, b) not in found:
                    found.add((a, b))
                    out.append((a, b, 2))
    return out


def generate_random_tree(n: int, max_degree: int, seed: int) -> Topology:
    """Grow a random tree under a degree cap; pure function of its arguments.

    Each new process attaches to a uniformly chosen existing process that
    still has spare degree.
    """
    if n < 1:
        raise TopologyError("n must be >= 1")
    if n >= 3 and max_degree < 2:
        raise InfeasibleDegreeCap(f"n={n} needs max_degree >= 2, got {max_degree}")
    if n == 2 and max_degree < 1:
        raise InfeasibleDegreeCap("two processes need max_degree >= 1")
    if n == 1:
        return build_topology([], kind="tree", n=1)

    rng = random.Random(seed)
    degrees = [0] * (n + 1)
    open_slots = [1]
    edges = []
    for new in range(2, n + 1):
        parent = open_slots[rng.randrange(len(open_slots))]
        edges.append((parent, new))
        degrees[parent] += 1
        degrees[new] += 1
        if degrees[parent] >= max_degree:
            open_slots.remove(parent)
        if degrees[new] < max_degree:
            open_slots.append(new)
    return build_topology(edges, kind="tree", n=n)


def generate_random_connected(n: int, extra_edges: int, seed: int) -> Topology:
    """Random connected general graph: a spanning tree plus extra edges."""
    base = generate_random_tree(n, max_degree=max(2, n - 1), seed=seed)
    rng = random.Random(seed ^ 0x5EED)
    edges = set(base.edges())
    candidates = [
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if (a, b) not in edges
    ]
    rng.shuffle(candidates)
    for e in candidates[:extra_edges]:
        edges.add(e)
    return build_topology(sorted(edges), kind="general", n=n)


def assign_identities(topology: Topology, mode: str, seed: int = 0) -> Topology:
    """Re-assign identities in one of two modes.

    global_unique: a seeded permutation of 1..n.
    distance2_unique_with_reuse: greedy BFS assignment of the smallest
    identity unused within two hops, so far-apart processes share values.
    """
    if mode == "global_unique":
        rng = random.Random(seed)
        ids = list(range(1, topology.n + 1))
        rng.shuffle(ids)
        return build_topology(topology.edges(), identities=ids, kind=topology.kind, n=topology.n)
    if mode != "distance2_unique_with_reuse":
        raise TopologyError(f"unknown identity mode {mode!r}")

    rng = random.Random(seed)
    start = rng.randrange(1, topology.n + 1)
    ids = [0] * (topology.n + 1)
    for v in bfs(topology.adjacency, start, shuffle=rng):
        # identities start at 1; 0 also stands for "not assigned yet"
        ids[v] = first_free_color({0} | {ids[u] for u in two_hop(topology, v)})
    return build_topology(
        topology.edges(), identities=ids[1:], kind=topology.kind, n=topology.n
    )


def bfs(
    adjacency: tuple[tuple[int, ...], ...], start: int, shuffle: random.Random | None = None
) -> dict[int, int]:
    """Hop distance from start to every reachable index, in visiting order.

    With shuffle, each visited process's neighbor list is shuffled, in
    visiting order, before it is scanned.
    """
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        nbrs = adjacency[v]
        if shuffle is not None:
            nbrs = list(nbrs)
            shuffle.shuffle(nbrs)
        hops = dist[v] + 1
        for u in nbrs:
            if u not in dist:
                dist[u] = hops
                queue.append(u)
    return dist


def two_hop(topology: Topology, v: int) -> set[int]:
    """Every process within two hops of v, v excluded."""
    out = set()
    for u in topology.adjacency[v]:
        out.add(u)
        out.update(topology.adjacency[u])
    out.discard(v)
    return out


def metrics(topology: Topology, root: int) -> GraphMetrics:
    """Exact max degree and BFS depth from root."""
    dist = bfs(topology.adjacency, root)
    if len(dist) != topology.n:
        raise DisconnectedGraph("metrics requires a connected topology")
    return GraphMetrics(delta=topology.delta, depth=max(dist.values()))


def topology_text(topology: Topology) -> str:
    """The line-oriented topology file format (lossless round-trip)."""
    lines = [
        "format=d2topology/1",
        f"n={topology.n}",
        f"kind={topology.kind}",
    ]
    for a, b in topology.edges():
        lines.append(f"edge={a} {b}")
    lines.append("identities=" + " ".join(str(v) for v in topology.identities[1:]))
    return "\n".join(lines) + "\n"


def save_topology(topology: Topology, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(topology_text(topology))


def load_topology(path: str) -> Topology:
    """Parse a topology file written by save_topology.

    A malformed line raises TopologyError naming its 1-based number.
    """
    n = None
    kind = "tree"
    edges: list[tuple[int, int]] = []
    identities = None
    with open(path, encoding="utf-8") as fh:
        try:
            for num, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                if key == "format":
                    if value != "d2topology/1":
                        raise TopologyError(f"unsupported topology format {value!r}")
                elif key == "n":
                    n = int(value)
                elif key == "kind":
                    kind = value
                elif key == "edge":
                    a, b = value.split()
                    edges.append((int(a), int(b)))
                elif key == "identities":
                    identities = [int(v) for v in value.split()]
                else:
                    raise TopologyError(f"unknown topology field {key!r}")
        except TopologyError as exc:
            raise TopologyError(f"line {num}: {exc}") from None
        except UnicodeDecodeError as exc:  # the file is decoded in blocks, not lines
            raise TopologyError(f"not UTF-8 text: {exc.reason}") from None
        except ValueError:
            raise TopologyError(f"line {num}: malformed {key}= value {value!r}") from None
    if n is None:
        raise TopologyError("topology file missing the n field")
    return build_topology(edges, identities=identities, kind=kind, n=n)
