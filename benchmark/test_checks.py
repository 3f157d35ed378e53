"""Tests of the benchmark's independent checks.

Run from the root of a source checkout:

    python3 -m pytest -q benchmark/test_checks.py

Each check's test takes the trace of a real, correct par_tree run, plants one
fault in its text, and confirms that the checks report it.  A last test holds
the generator's par_tree round count to the program's.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from d2color import proto_tree_par, topology, traceio  # noqa: E402


@pytest.fixture(scope="module")
def good():
    tree = gen.make_tree(60, 4, random.Random("checks"), reuse=True, root="nonleaf")
    topo = topology.build_topology(list(tree.edges), identities=list(tree.identities),
                                   kind="tree", n=tree.n)
    trace = proto_tree_par.make_simulation(topo, tree.root).run(10_000)
    return tree, traceio.trace_to_text(trace).splitlines(keepends=True)


def _problems(tree, lines):
    return checks.problems(checks.read_facts(lines), tree.adjacency(), tree.delta + 1)


def _last_round(lines) -> int:
    return max(checks.read_facts(lines).broadcasters)


def _pair_at(tree, distance: int):
    """(a, leaf) at the given distance; giving the leaf a's color makes one conflict only."""
    adj = tree.adjacency()
    leaf = next(v for v in range(1, tree.n + 1) if len(adj[v]) == 1 and len(adj[adj[v][0]]) >= 2)
    parent = adj[leaf][0]
    return (parent, leaf) if distance == 1 else (next(u for u in adj[parent] if u != leaf), leaf)


def test_correct_run_has_no_problems(good):
    tree, lines = good
    facts = checks.read_facts(lines)
    assert _problems(tree, lines) == []
    assert facts.status == "terminated"
    assert facts.broadcasts == sum(line.startswith("B ") for line in lines)
    assert facts.changes == sum(line.startswith("S ") for line in lines)


@pytest.mark.parametrize("distance", [1, 2])
def test_shared_color_within_distance_two_is_reported(good, distance):
    tree, lines = good
    a, leaf = _pair_at(tree, distance)
    color = checks.read_facts(lines).colors[a]
    planted = lines[:-1] + [
        f'S round={_last_round(lines)} proc={leaf} state={{"color":{color}}}\n', lines[-1]
    ]
    found = _problems(tree, planted)
    assert len(found) == 1 and f"share color {color}" in found[0]
    assert {str(a), str(leaf)} <= set(found[0].split())


def test_clash_is_reported(good):
    tree, lines = good
    a, b = _pair_at(tree, 2)
    r = _last_round(lines) + 1
    planted = lines[:-1] + [
        f"B round={r} origin={a} receivers= kind=END max_cl=1 parent=1\n",
        f"B round={r} origin={b} receivers= kind=END max_cl=1 parent=1\n",
        lines[-1],
    ]
    found = _problems(tree, planted)
    assert len(found) == 1 and f"round {r}: broadcasters" in found[0]


def test_uncolored_process_is_reported(good):
    tree, lines = good
    victim = tree.root
    planted = [line for line in lines if f" proc={victim} " not in line]
    found = _problems(tree, planted)
    assert found == [f"1 process(es) uncolored, first {victim}"]


def test_palette_over_the_limit_is_reported(good):
    tree, lines = good
    facts = checks.read_facts(lines)
    used = len(set(facts.colors.values()))
    assert checks.problems(facts, tree.adjacency(), used) == []
    assert checks.problems(facts, tree.adjacency(), used - 1) == [
        f"{used} colors used, limit {used - 1}"
    ]


def test_unfinished_run_is_reported(good):
    tree, lines = good
    planted = lines[:-1] + [lines[-1].replace("status=terminated", "status=partial")]
    assert _problems(tree, planted) == ["status is 'partial', not 'terminated'"]


@pytest.mark.parametrize("n,cap,root", [(3, 2, "nonleaf"), (40, 2, "centre"),
                                        (300, 6, "centre"), (300, 12, "max_degree"),
                                        (1000, 3, "nonleaf")])
def test_par_tree_rounds_matches_the_program(n, cap, root):
    tree = gen.make_tree(n, cap, random.Random(f"rounds/{n}"), reuse=False, root=root)
    topo = topology.build_topology(list(tree.edges), kind="tree", n=tree.n)
    trace = proto_tree_par.make_simulation(topo, tree.root).run(100_000)
    assert trace.status == "terminated"
    assert gen.par_tree_rounds(tree) == trace.rounds
