"""Checks of a finished run made apart from the program.

`read_facts` reads a `d2trace/1` text with its own small parser, and
`problems` judges the facts against the benchmark's own adjacency lists.
Neither calls into `d2color`, so a fault in the program's trace I/O or
verifier cannot hide a fault in its protocols.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Facts:
    """What one trace says, counted line by line."""

    status: str = ""
    rounds: int = 0
    colors: dict[int, object] = field(default_factory=dict)  # last recorded color
    broadcasters: dict[int, list[int]] = field(default_factory=dict)  # round -> origins
    broadcasts: int = 0
    deliveries: int = 0  # clean receptions listed on broadcast lines
    changes: int = 0


def _value(token: str, key: str) -> str:
    name, _, value = token.partition("=")
    if name != key:
        raise ValueError(f"expected field {key!r}, got {token!r}")
    return value


def read_facts(lines) -> Facts:
    """Facts of a trace given as an iterable of its lines (an open file will do)."""
    facts = Facts()
    for line in lines:
        if line.startswith("B "):
            _, rnd, origin, receivers, _ = line.split(" ", 4)
            r = int(_value(rnd, "round"))
            facts.broadcasters.setdefault(r, []).append(int(_value(origin, "origin")))
            facts.broadcasts += 1
            recv = _value(receivers, "receivers")
            facts.deliveries += recv.count(",") + 1 if recv else 0
        elif line.startswith("S "):
            _, _, proc, state = line.rstrip("\n").split(" ", 3)
            facts.colors[int(_value(proc, "proc"))] = json.loads(_value(state, "state")).get(
                "color"
            )
            facts.changes += 1
        elif line.startswith("end "):
            _, status, rounds, _ = line.split(" ", 3)
            facts.status = _value(status, "status")
            facts.rounds = int(_value(rounds, "rounds"))
    return facts


def problems(facts: Facts, adj: list[list[int]], palette_limit: int | None) -> list[str]:
    """Everything wrong with a run, judged from its facts and the adjacency lists.

    `adj[i]` lists the neighbours of process i (1-based, entry 0 unused).
    `palette_limit`, when given, caps the number of distinct colors.
    """
    n = len(adj) - 1
    out = []
    if facts.status != "terminated":
        out.append(f"status is {facts.status!r}, not 'terminated'")
    colors = facts.colors
    uncolored = [
        i for i in range(1, n + 1) if not isinstance(colors.get(i), int) or colors[i] < 0
    ]
    if uncolored:
        out.append(f"{len(uncolored)} process(es) uncolored, first {uncolored[0]}")
    shared = _shared_color(colors, adj)
    if shared:
        out.append(shared)
    if palette_limit is not None:
        used = {c for c in colors.values() if c is not None}
        if len(used) > palette_limit:
            out.append(f"{len(used)} colors used, limit {palette_limit}")
    close = _close_broadcasters(facts.broadcasters, adj)
    if close:
        out.append(close)
    return out


def _shared_color(colors: dict[int, object], adj: list[list[int]]) -> str | None:
    # any two processes within distance 2 share the closed neighbourhood of some process
    for c in range(1, len(adj)):
        seen: dict[object, int] = {}
        for v in (c, *adj[c]):
            col = colors.get(v)
            if col is None:
                continue
            if col in seen:
                return f"processes {seen[col]} and {v} near {c} share color {col}"
            seen[col] = v
    return None


def _close_broadcasters(broadcasters: dict[int, list[int]], adj: list[list[int]]) -> str | None:
    for r, origins in sorted(broadcasters.items()):
        if len(origins) < 2:
            continue
        near: dict[int, int] = {}
        for o in origins:
            for c in (o, *adj[o]):
                if c in near:
                    return f"round {r}: broadcasters {near[c]} and {o} within distance 2"
                near[c] = o
    return None
