"""Shared corpus builders and run helpers for the test suite."""

from __future__ import annotations

import random

from d2color import proto_tree_par, proto_tree_seq
from d2color.cli import auto_budget
from d2color.topology import Topology, generate_random_tree, metrics


def nonleaf_root(topology: Topology, rng: random.Random) -> int:
    """A start process with degree >= 2 (any process for tiny trees)."""
    candidates = [i for i in range(1, topology.n + 1) if topology.degree(i) >= 2]
    if not candidates:
        candidates = list(range(1, topology.n + 1))
    return candidates[rng.randrange(len(candidates))]


def tree_corpus(count: int, n_max: int, max_degree: int, seed: int):
    """Seeded (topology, root) stream used across the suite."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(3, n_max)
        md = rng.randint(2, max_degree)
        topo = generate_random_tree(n, md, seed=seed * 100_000 + k)
        yield topo, nonleaf_root(topo, rng)


def run_seq(topology: Topology, root: int, **kw):
    mets = metrics(topology, root)
    sim = proto_tree_seq.make_simulation(topology, root, **kw)
    return sim.run(auto_budget(topology.n, mets.delta))


def run_par(topology: Topology, root: int, **kw):
    mets = metrics(topology, root)
    sim = proto_tree_par.make_simulation(topology, root, **kw)
    return sim.run(auto_budget(topology.n, mets.delta))


def state_breaches(rounds) -> list[tuple[int, int, str]]:
    """(round, proc, what) for each state record that is its process's second in its round or
    equals its process's previous one: the engine records only states that handlers changed."""
    last, found = {}, []
    for rnd in rounds:
        seen = set()
        for ch in rnd.changes:
            if ch.proc in seen:
                found.append((ch.round, ch.proc, "second in its round"))
            if last.get(ch.proc) == ch.state:
                found.append((ch.round, ch.proc, "unchanged"))
            seen.add(ch.proc)
            last[ch.proc] = ch.state
    return found
