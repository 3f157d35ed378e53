"""Golden digests: pinned SHA-256 of traces, reports and CLI output.

Rerun determinism (criterion 11, test_byte_identical_reruns) cannot see a
change that alters the bytes the same way on every run; these digests can.
A library scenario hashes trace_to_text(trace) followed by
verify_run(topology, trace).to_text().  A CLI scenario hashes the exit codes,
stdout and stderr of `d2color run` and `d2color verify` plus the trace file.
Together they cover every option a protocol's builder takes.  A digest may
change only with a deliberate change to a protocol, the trace format or the
report format, and that change says so.
"""

from __future__ import annotations

import hashlib
import random
import re

import pytest

from conftest import state_breaches
from d2color import cli, proto_arbitrary, proto_tree_par, proto_tree_seq
from d2color.engine import Round
from d2color.scenarios import TABLE1_NEXT_SCHEDULE, builtin_topology
from d2color.topology import (
    assign_identities,
    bfs,
    build_topology,
    generate_random_connected,
    generate_random_tree,
    metrics,
    save_topology,
)
from d2color.traceio import read_trace, trace_to_text
from d2color.verifier import greedy_reference_coloring, verify_run


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _budget(topology, root):
    return cli.auto_budget(topology.n, metrics(topology, root).delta)


# name -> (topology factory, module, root, make_simulation keyword arguments)
LIBRARY = {
    "seq_random_child": (lambda: generate_random_tree(40, 5, seed=2), proto_tree_seq, 1,
                         {"next_child_order": "random", "seed": 7}),
    "seq_handler_order": (lambda: builtin_topology("binary15"), proto_tree_seq, 1,
                          {"handler_order_seed": 3, "start_round": 4}),
    "par_handler_order": (lambda: generate_random_tree(60, 6, seed=4), proto_tree_par, 2,
                          {"handler_order_seed": 11, "start_round": 5}),
    "par_no_end_phase": (lambda: generate_random_tree(50, 4, seed=9), proto_tree_par, 1,
                         {"end_phase": False}),
    "par_root_always_ends": (lambda: builtin_topology("path3"), proto_tree_par, 1,
                             {"root_always_ends": True}),
    # a leaf root sends no END, so these runs stop partial once a round passes quietly
    "par_partial_path3": (lambda: builtin_topology("path3"), proto_tree_par, 1, {}),
    "par_partial_pair": (lambda: build_topology([(1, 2)], kind="tree"), proto_tree_par, 1, {}),
    "par_sibling_end_parallel": (lambda: generate_random_tree(45, 5, seed=6), proto_tree_par, 1,
                                 {"sibling_end_parallel": True,
                                  "policy": "record_and_corrupt"}),
    "arb_table1_pinned": (lambda: builtin_topology("table1"), proto_arbitrary, 1,
                          {"next_schedule": TABLE1_NEXT_SCHEDULE, "start_round": 2}),
    "arb_general_graph": (lambda: generate_random_connected(14, 3, seed=1), proto_arbitrary, 1,
                          {"policy": "record_and_corrupt", "handler_order_seed": 5}),
    "arb_tree": (lambda: generate_random_tree(30, 4, seed=3), proto_arbitrary, 2, {}),
}

LIBRARY_DIGESTS = {
    "arb_general_graph":
        "d1bb84680a454b09a6bc26a0135ce0b3d258e611a56fc9f02f654cbf8e136733",
    "arb_table1_pinned":
        "35041e0289e086ed0771de1dbf35936d8c2e0de5bae4e8dc7ea5660a9a8e0d7b",
    "arb_tree":
        "6633f6e50f414d2a2b58f273451bb9171f451a1382674a3b7ff177ddb10175c3",
    "par_handler_order":
        "1d57ef77fad7ef51c6d783d5c8e012d44cc4ecc2b85e3246f67d12f0fdc0257f",
    "par_no_end_phase":
        "821590dcb74323e0885ac39d824c3271ea77e1b4dac357cf9cbf53081660ea69",
    "par_partial_pair":
        "f52eb65fd48952bb80686ec4e73d3b0ba91515b739cb7e31ef9afa47898d9a69",
    "par_partial_path3":
        "daaf38dd3c787b1c9263c799661a8efd233aa57a88cf389a006b92078b46ab07",
    "par_root_always_ends":
        "92c171a5e7ab00006c93b0192a1fd3be4d1f373edad448f81bc908b562f0ed52",
    "par_sibling_end_parallel":
        "e0b14c538422cde6bcd5eb87dfeda4af9a158ab1fbba5e7e3ca907f3561f8e0c",
    "seq_handler_order":
        "b09eece88fe2abf89a797cea363a6b234b0b3639f76bb07144dde77c850235b2",
    "seq_random_child":
        "f93ba8bff2c52ba1fffa5104e7e76a8398e8a2889f669aee6ce78dbc7ba52e5f",
}


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_scenario_digest(name):
    make_topology, module, root, kwargs = LIBRARY[name]
    topology = make_topology()
    trace = module.make_simulation(topology, root, **kwargs).run(_budget(topology, root))
    text = trace_to_text(trace) + verify_run(topology, trace).to_text()
    assert _sha(text) == LIBRARY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_trace_keeps_the_rounds_a_sink_receives(name):
    make_topology, module, root, kwargs = LIBRARY[name]
    topology = make_topology()
    kept = module.make_simulation(topology, root, **kwargs)
    kept.run(_budget(topology, root))
    recorded = module.make_simulation(topology, root, **kwargs)
    received = []
    recorded.sink = received.append
    recorded.run(_budget(topology, root))
    assert received and [rnd.round for rnd in received] == list(range(len(received)))
    assert list(kept.trace.by_round()) == [Round(rnd.round, *map(tuple, rnd[1:]))
                                           for rnd in received if any(rnd[1:])]
    trace = kept.trace
    views = (trace.externals, trace.broadcasts, trace.clashes, trace.changes)
    for slot, view in enumerate(views, 1):
        assert view == tuple(rec for rnd in received for rec in rnd[slot])
    with pytest.raises(AttributeError):  # a view is a tuple, so an edit in place raises
        trace.changes.append(trace.changes[0])


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_scenario_records_only_changed_states(name):
    make_topology, module, root, kwargs = LIBRARY[name]
    topology = make_topology()
    sim = module.make_simulation(topology, root, **kwargs)
    received, keep = [], sim.sink

    def sink(rnd):
        received.append(rnd)
        keep(rnd)

    sim.sink = sink
    sim.run(_budget(topology, root))
    assert any(rnd.changes for rnd in received)
    assert state_breaches(received) == []


# name -> (topology factory or builtin name, `d2color run` arguments)
CLI = {
    "run_seq_random_child": (lambda: generate_random_tree(35, 4, seed=8),
                             ["--protocol", "seq_tree", "--next-child", "random",
                              "--seed", "5", "--start-round", "3", "--root", "2"]),
    "run_par_no_end_phase": (lambda: generate_random_tree(40, 5, seed=1),
                             ["--protocol", "par_tree", "--no-end-phase"]),
    "run_par_root_always_ends": ("path3", ["--protocol", "par_tree", "--root-always-ends"]),
    "run_par_sibling_end_parallel": (lambda: generate_random_tree(40, 5, seed=12),
                                     ["--protocol", "par_tree", "--sibling-end-parallel",
                                      "--clash-policy", "record_and_corrupt",
                                      "--start-round", "1"]),
    "run_par_join": ("path3", ["--protocol", "par_tree", "--root", "2",
                               "--join-parent", "3"]),
    "run_arb_table1_pinned": ("table1", ["--protocol", "arbitrary",
                                         "--pin-table1-choices"]),
    "run_arb_general_fail_fast": (lambda: generate_random_connected(20, 8, seed=0),
                                  ["--protocol", "arbitrary"]),
    "run_arb_general_corrupt": (lambda: generate_random_connected(20, 8, seed=0),
                                ["--protocol", "arbitrary",
                                 "--clash-policy", "record_and_corrupt"]),
    "run_seq_budget": ("star4", ["--protocol", "seq_tree", "--max-rounds", "4"]),
}

CLI_DIGESTS = {
    "run_arb_general_corrupt":
        "0dc25914ad58312226becb0d3f28ee0727a3294d4a89ec666291d9c29a67f807",
    "run_arb_general_fail_fast":
        "08618a788d01dbe20eea4600fb1abdcabf727cf18915def40ebe1102b63e5764",
    "run_arb_table1_pinned":
        "194750914e7379ad9099d64598d49ea51e790bb617fabe973c09a39336acdf7b",
    "run_par_join":
        "0c96be1b52c466aae851718bbd9713e73865b0abb6b5ced39d78c3963d145de5",
    "run_par_no_end_phase":
        "f5a9d1080dfbb1343b5c81dbedf2e0c1c2f317c252fb2e033abc02ea80d4674f",
    "run_par_root_always_ends":
        "6ea000b4f014e19f915fe7f94c5a3ede18e46479ccbaaa7d8a2dc404cdfdadb2",
    "run_par_sibling_end_parallel":
        "ab3f81fc27b46462f9b0b41df26ed4f79e13116c2b5b0e78c9f89917ed30c1d8",
    "run_seq_budget":
        "538886f373290428485c359343b6120df8049fcacf2624c2bfdc02a1df2bf4df",
    "run_seq_random_child":
        "ce81fb59cc6c8fa96526c195d113380d8283b2c9e7f9f0708bb5175dd9f7b6e6",
}


def _cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return f"exit={code}\n{captured.out}{captured.err}"


def _value(text: str, key: str) -> str:
    """The value of the first space-separated key=value field named key in text."""
    return re.search(rf"(?:^| ){key}=(\S*)", text, re.MULTILINE).group(1)


@pytest.mark.parametrize("name", sorted(CLI))
def test_cli_run_digest(name, tmp_path, capsys):
    source, run_args = CLI[name]
    topo_path, trace_path = tmp_path / "in.topo", tmp_path / "out.trace"
    final_topo = tmp_path / "final.topo"
    if isinstance(source, str):
        location = ["--builtin", source]
        save_topology(builtin_topology(source), str(topo_path))
    else:
        save_topology(source(), str(topo_path))
        location = ["--topology", str(topo_path)]
    summary = _cli(capsys, "run", *location, *run_args, "--trace-out", str(trace_path),
                   "--topology-out", str(final_topo))
    text = summary
    if trace_path.exists():
        text += trace_path.read_text()
        if not final_topo.exists():
            final_topo = topo_path
        report = _cli(capsys, "verify", "--trace", str(trace_path),
                      "--topology", str(final_topo))
        text += report
        if summary.startswith("exit=0\n"):
            # run counts with a sink of its own; the verifier's fold of the trace must agree
            counts = _value(summary, "broadcasts")
            assert (counts if counts != "none" else "") == _value(report, "message_counts")
            assert _value(summary, "palette") == _value(report, "palette_size")
    assert _sha(text) == CLI_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI))
def test_cli_run_records_only_changed_states(name, tmp_path, capsys):
    source, run_args = CLI[name]
    topo_path, trace_path = tmp_path / "in.topo", tmp_path / "out.trace"
    save_topology(builtin_topology(source) if isinstance(source, str) else source(),
                  str(topo_path))
    _cli(capsys, "run", "--topology", str(topo_path), *run_args, "--trace-out", str(trace_path))
    # the trace file holds each round as the run's sink received it
    rounds = list(read_trace(str(trace_path)).by_round())
    assert any(rnd.changes for rnd in rounds)
    assert state_breaches(rounds) == []


BENCH_DIGEST = "afd83dafa0fc46f93cabac79c82e58cfd6aff4e5b7d073a493e225cd82fc21b0"


def test_bench_sweep_digest(capsys):
    text = _cli(capsys, "bench", "--sizes", "12,30", "--seeds", "0,1", "--max-degree", "4",
                "--protocols", "seq_tree,par_tree,arbitrary")
    assert _sha(text) == BENCH_DIGEST


# Graph walks: identity assignment, metrics, the greedy reference coloring and
# hop distances.  Each scenario renders one text; the identities with reuse
# consume the seeded shuffle of a breadth-first walk, so a reordered walk
# changes them even when every identity stays valid.
def _walk_trees():
    """Trees shaped like the acceptance corpus (3 <= n <= 500, cap 2..12)."""
    rng = random.Random(20260810)
    return [generate_random_tree(rng.randint(3, 500), rng.randint(2, 12), seed=20260810 + k)
            for k in range(12)]


def _walk_graphs():
    return [generate_random_connected(n, extra, seed)
            for n, extra, seed in ((6, 2, 0), (14, 3, 1), (30, 8, 2), (60, 25, 3), (120, 4, 4))]


def _identities_text():
    sources = [generate_random_tree(n, cap, seed)
               for n, cap, seed in ((5, 2, 0), (40, 4, 1), (120, 6, 2), (300, 12, 3))]
    sources.append(generate_random_connected(50, 20, seed=7))
    lines = []
    for k, topo in enumerate(sources):
        for mode in ("global_unique", "distance2_unique_with_reuse"):
            for seed in (0, 1, 3, 11):
                ids = assign_identities(topo, mode, seed).identities[1:]
                lines.append(f"{k} {mode} {seed} {' '.join(map(str, ids))}")
    return "\n".join(lines)


def _metrics_text():
    lines = []
    for k, topo in enumerate(_walk_trees() + _walk_graphs()):
        for root in sorted({1, 2, topo.n // 2 + 1, topo.n}):
            mets = metrics(topo, root)
            lines.append(f"{k} {root} delta={mets.delta} depth={mets.depth}")
    return "\n".join(lines)


def _greedy_text():
    lines = []
    for topo in _walk_trees()[:6] + _walk_graphs() + [builtin_topology("table1")]:
        colors = greedy_reference_coloring(topo).colors
        lines.append(" ".join(f"{i}:{colors[i]}" for i in sorted(colors)))
    return "\n".join(lines)


def _table1_distances_text():
    topo = builtin_topology("table1")
    return "\n".join(" ".join(str(bfs(topo.adjacency, a)[b]) for b in range(1, topo.n + 1))
                     for a in range(1, topo.n + 1))


WALKS = {
    "assign_identities": _identities_text,
    "metrics": _metrics_text,
    "greedy_reference_colors": _greedy_text,
    "table1_distances": _table1_distances_text,
}

WALK_DIGESTS = {
    "assign_identities":
        "f9866bb1e7b5d0b468b5a567dc11c893ab68b0c79058355782061ba234a076d8",
    "greedy_reference_colors":
        "e495310192f63c61734924c6352f660c647c4613719160a96b28798ec7bd1b47",
    "metrics":
        "9f7125dca0010cbec5eb9b3ffb7504de673c37c8fff3c27bd870659a6b49da88",
    "table1_distances":
        "89811ef2ff668b563affd70f1eaaf63fc77de093ee20276d33fd3ae63bf5e8ce",
}


@pytest.mark.parametrize("name", sorted(WALKS))
def test_graph_walk_digest(name):
    assert _sha(WALKS[name]()) == WALK_DIGESTS[name]


GEN_REUSE_DIGEST = "4bc53add8193cd5cd04af334845653d130924431f41c77e2c17f41de3f5c2f3b"


def test_cli_gen_reused_identities_digest(tmp_path, capsys):
    out = tmp_path / "gen.topo"
    text = _cli(capsys, "gen", "--tree", "--n", "40", "--seed", "3",
                "--identity-mode", "distance2_unique_with_reuse", "-o", str(out))
    text = text.replace(str(out), "F") + out.read_text()
    assert _sha(text) == GEN_REUSE_DIGEST
