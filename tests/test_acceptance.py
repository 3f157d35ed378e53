"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The shared corpus is 500 seeded random trees (3 <= n <= 500, max degree
<= 12) with a non-leaf start process, so the termination wave of the parallel
protocol can reach everyone without the root-override flag; two-process trees
and leaf roots are covered by dedicated scenario tests elsewhere.
"""

from __future__ import annotations

import random

import pytest

from conftest import nonleaf_root
from d2color import proto_arbitrary, proto_tree_par, proto_tree_seq
from d2color.cli import auto_budget
from d2color.proto_tree_par import ConsistencyBroken, execute_join, merge_trees
from d2color.scenarios import (
    TABLE1_FINAL_COLORS,
    TABLE1_NEXT_SCHEDULE,
    builtin_topology,
    table1_mismatches,
)
from d2color.topology import build_topology, generate_random_tree, metrics, two_hop
from d2color.traceio import trace_to_text
from d2color.verifier import (
    check_coloring,
    d2_conflicts,
    end_wave_violations,
    fold_rounds,
    par_edge_color_violations,
    seq_knowledge_violations,
    tdma_replay,
)

CORPUS_SIZE = 500
CORPUS_SEED = 20260810


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:>2} {name}: {verdict}{suffix}")


def _corpus_topologies():
    rng = random.Random(CORPUS_SEED)
    out = []
    for k in range(CORPUS_SIZE):
        n = rng.randint(3, 500)
        md = rng.randint(2, 12)
        topo = generate_random_tree(n, md, seed=CORPUS_SEED + k)
        out.append((topo, nonleaf_root(topo, rng)))
    return out


def _summarize(topo, root, trace, facts, mets):
    return {
        "topo": topo,
        "root": root,
        "n": topo.n,
        "delta": mets.delta,
        "depth": mets.depth,
        "status": trace.status,
        "claimed_by": trace.claimed_by,
        "clashes": len(trace.clashes),
        "counts": facts.counts,
        "colors": facts.colors,
    }


def _seq_fields(r, trace, facts):
    return {
        "max_bc_per_round": facts.most_broadcasts,
        "knowledge_violations": seq_knowledge_violations(trace, r["topo"], r["delta"]),
    }


def _par_fields(r, trace, facts):
    return {
        "palette": len(set(r["colors"].values())),
        "claim_round": facts.claim_round,
        "edge_violations": par_edge_color_violations(r["topo"], facts.finals),
        "end_violations": end_wave_violations(facts.finals, r["delta"]),
    }


def _corpus_runs(module, protocol_fields):
    """Run the corpus under one protocol; summarize only what its criteria read."""
    out = []
    for topo, root in _corpus_topologies():
        mets = metrics(topo, root)
        trace = module.make_simulation(topo, root).run(auto_budget(topo.n, mets.delta))
        facts = fold_rounds(topo, trace)
        r = _summarize(topo, root, trace, facts, mets)
        r.update(protocol_fields(r, trace, facts))
        out.append(r)
    return out


@pytest.fixture(scope="session")
def seq_runs():
    return _corpus_runs(proto_tree_seq, _seq_fields)


@pytest.fixture(scope="session")
def par_runs():
    return _corpus_runs(proto_tree_par, _par_fields)


def test_criterion_01_sequential_protocol_properties(seq_runs):
    bad = []
    for r in seq_runs:
        v_ok, _, c_ok, c_off = check_coloring(r["topo"], r["colors"], r["delta"])
        good = (
            r["status"] == "terminated"
            and r["claimed_by"] == r["root"]
            and r["clashes"] == 0
            and len(r["colors"]) == r["n"]
            and v_ok
            and c_ok
        )
        if not good:
            bad.append((r["n"], r["status"], r["clashes"], c_off[:2]))
    report(1, "seq clash-free valid/consistent/terminating", not bad,
           f"{len(seq_runs)} runs")
    assert not bad, bad[:5]


def test_criterion_02_parallel_protocol_properties(par_runs):
    bad = []
    for r in par_runs:
        v_ok, _, c_ok, _ = check_coloring(r["topo"], r["colors"], r["delta"])
        good = (
            r["status"] == "terminated"
            and r["clashes"] == 0
            and len(r["colors"]) == r["n"]
            and v_ok
            and c_ok
            and r["palette"] <= r["delta"] + 1
            and not r["end_violations"]
        )
        if not good:
            bad.append((r["n"], r["status"], r["clashes"], r["end_violations"][:3]))
    report(2, "par clash-free, palette <= delta+1, full wave", not bad,
           f"{len(par_runs)} runs")
    assert not bad, bad[:5]


def test_criterion_03_message_count_bounds(seq_runs, par_runs):
    bad = []
    for r in seq_runs:
        n, d = r["n"], r["delta"]
        term = r["counts"].get("TERM_SEQ", 0)
        color = r["counts"].get("COLOR_SEQ", 0)
        if term != n - 1 or color > d + (n - d) * (d - 1):
            bad.append(("seq", n, d, term, color))
    for r in par_runs:
        n, d = r["n"], r["delta"]
        phase = r["counts"].get("COLOR_PAR", 0) + r["counts"].get("TERM_PAR", 0)
        if phase > 2 * n - d:
            bad.append(("par", n, d, phase))
    report(3, "message-count bounds", not bad)
    assert not bad, bad[:5]


def test_criterion_04_round_complexity(par_runs):
    bad = [
        (r["n"], r["depth"], r["delta"], r["claim_round"])
        for r in par_runs
        if r["claim_round"] is None or r["claim_round"] > 4 * r["depth"] * r["delta"]
    ]
    # scaling sweep: the observed/(depth*delta) ratio must stay bounded as n
    # grows, with the frozen factor 4 as the ceiling
    ratios = []
    for n in (10, 50, 100, 200, 400, 700, 1000):
        for seed in (0, 1):
            topo = generate_random_tree(n, 8, seed=seed)
            rng = random.Random(seed)
            root = nonleaf_root(topo, rng)
            mets = metrics(topo, root)
            sim = proto_tree_par.make_simulation(topo, root)
            trace = sim.run(auto_budget(n, mets.delta))
            claim = fold_rounds(topo, trace).claim_round
            ratios.append((n, claim / (mets.depth * mets.delta)))
    sweep_bad = [(n, f"{q:.2f}") for n, q in ratios if q > 4.0]
    worst = max(q for _, q in ratios)
    report(4, "round complexity <= 4*depth*delta", not bad and not sweep_bad,
           f"worst sweep ratio {worst:.2f}")
    assert not bad, bad[:5]
    assert not sweep_bad, sweep_bad


def test_criterion_05_child_colors_within_parent_degree(par_runs):
    bad = [(r["n"], r["edge_violations"][:3]) for r in par_runs if r["edge_violations"]]
    report(5, "child color within parent degree", not bad)
    assert not bad, bad[:5]


def test_criterion_06_knowledge_set_strictly_below_delta(seq_runs):
    # the strict bound holds wherever the protocol relies on it: in every
    # broadcast color set and in every snapshot taken while a neighbor is
    # still to be colored; a set never outgrows the process's degree. After
    # a full-degree process's last subtree report its set holds exactly
    # delta colors, but it broadcasts none of them (see
    # test_proto_tree_seq.py::test_knowledge_sets_reach_delta_after_last_report)
    violations = [(r["n"], r["delta"], r["knowledge_violations"][:2])
                  for r in seq_runs if r["knowledge_violations"]]
    report(6, "knowledge sets stay below delta while coloring", not violations,
           f"{len(violations)} runs violate" if violations else f"{len(seq_runs)} runs")
    assert len(seq_runs) == CORPUS_SIZE
    assert not violations, violations[:5]


def test_criterion_07_sequential_flow(seq_runs):
    bad = [(r["n"], r["max_bc_per_round"]) for r in seq_runs if r["max_bc_per_round"] > 1]
    # arbitrary-graph protocol: the pinned reference scenario plus seeded
    # trees, the regime in which its control flow is actually sequential
    table1_topo = builtin_topology("table1")
    table1 = proto_arbitrary.make_simulation(
        table1_topo, 1, next_schedule=TABLE1_NEXT_SCHEDULE
    ).run(200)
    most = fold_rounds(table1_topo, table1).most_broadcasts
    if most > 1 or table1.clashes:
        bad.append(("table1", most))
    rng = random.Random(CORPUS_SEED)
    for k in range(60):
        n = rng.randint(2, 60)
        topo = generate_random_tree(n, rng.randint(2, 8), seed=CORPUS_SEED + 7000 + k)
        trace = proto_arbitrary.make_simulation(topo, rng.randint(1, n)).run(20000)
        most = fold_rounds(topo, trace).most_broadcasts
        if most > 1 or trace.clashes:
            bad.append(("arb-tree", n, most))
    report(7, "at most one broadcast per round (seq + arbitrary)", not bad)
    assert not bad, bad[:5]


def test_criterion_08_reference_trace_replay():
    topo = builtin_topology("table1")
    sim = proto_arbitrary.make_simulation(topo, 1, next_schedule=TABLE1_NEXT_SCHEDULE)
    trace = sim.run(200)
    problems = table1_mismatches(trace)
    ok = not problems and fold_rounds(topo, trace).colors == TABLE1_FINAL_COLORS
    report(8, "published execution replay", ok,
           problems[0] if problems else "all cells match")
    assert ok, problems[:5]


def test_criterion_09_tdma_replay_equivalence(par_runs):
    bad = []
    for r in par_runs:
        if tdma_replay(r["topo"], r["colors"], r["delta"]) != 0:
            bad.append(("clean", r["n"]))
    rng = random.Random(CORPUS_SEED ^ 0xC0FFEE)
    corrupted = 0
    for r in par_runs:
        if corrupted >= 100:
            break
        pairs = [(a, b) for a in range(1, r["n"] + 1) for b in sorted(two_hop(r["topo"], a))
                 if a < b]
        if not pairs:
            continue
        a, b = pairs[rng.randrange(len(pairs))]
        colors = dict(r["colors"])
        colors[a] = colors[b]
        if tdma_replay(r["topo"], colors, r["delta"]) < 1:
            bad.append(("corrupted", r["n"], (a, b)))
        corrupted += 1
    report(9, "slot replay: silent iff consistent", not bad,
           f"{corrupted} corruptions injected")
    assert corrupted == 100
    assert not bad, bad[:5]


def test_criterion_10_join_and_merge():
    rng = random.Random(CORPUS_SEED ^ 0xDEAD)
    joins = 0
    bad = []
    while joins < 100:
        n = rng.randint(3, 60)
        topo = generate_random_tree(n, rng.randint(2, 8), seed=rng.randrange(10**9))
        root = nonleaf_root(topo, rng)
        delta = topo.delta
        parents = [i for i in range(1, n + 1) if topo.degree(i) < delta]
        if not parents:
            continue
        sim = proto_tree_par.make_simulation(topo, root)
        trace = sim.run(auto_budget(n, delta))
        if trace.status != "terminated":
            bad.append(("run", n, trace.status))
            break
        out = execute_join(sim, parents[rng.randrange(len(parents))])
        colors = fold_rounds(sim.topology, sim.trace).colors
        if (
            len(colors) != out.topology.n
            or d2_conflicts(out.topology, colors)
            or tdma_replay(out.topology, colors, delta) != 0
        ):
            bad.append(("join", n))
        joins += 1

    rejected = 0
    attempts = 0
    while rejected < 30 and attempts < 200:
        attempts += 1
        n = rng.randint(3, 30)
        md = rng.randint(2, 6)
        t1 = generate_random_tree(n, md, seed=rng.randrange(10**9))
        ids2 = [i + 1000 for i in range(1, n + 1)]
        t2 = build_topology(t1.edges(), identities=ids2, kind="tree", n=n)
        root = nonleaf_root(t1, rng)
        delta = t1.delta
        budget = auto_budget(n, delta)
        c1 = fold_rounds(t1, proto_tree_par.make_simulation(t1, root).run(budget)).colors
        c2 = fold_rounds(t2, proto_tree_par.make_simulation(t2, root).run(budget)).colors
        # both runs color mirror-identical trees: any shared endpoint index of
        # degree < delta clashes by construction
        x = next((i for i in range(1, n + 1) if t1.degree(i) < delta), None)
        if x is None:
            continue
        try:
            merge_trees(t1, c1, t2, c2, x, x)
            bad.append(("merge-accepted", n, x))
        except ConsistencyBroken:
            rejected += 1
    report(10, "joins re-verify; clashing merges rejected", not bad,
           f"{joins} joins, {rejected} rejected merges")
    assert joins == 100 and rejected == 30
    assert not bad, bad[:5]


def test_criterion_11_deterministic_traces():
    scenarios = []
    topo = builtin_topology("binary15")
    scenarios.append(lambda: proto_tree_seq.make_simulation(topo, 1).run(1000))
    rnd = generate_random_tree(120, 6, seed=5)
    scenarios.append(lambda: proto_tree_par.make_simulation(rnd, 1).run(auto_budget(120, rnd.delta)))
    t1 = builtin_topology("table1")
    scenarios.append(
        lambda: proto_arbitrary.make_simulation(t1, 1, next_schedule=TABLE1_NEXT_SCHEDULE).run(200)
    )
    bad = []
    for i, make in enumerate(scenarios):
        if trace_to_text(make()) != trace_to_text(make()):
            bad.append(i)
    report(11, "byte-identical reruns", not bad)
    assert not bad, bad
