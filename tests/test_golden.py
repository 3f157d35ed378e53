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

import pytest

from d2color import cli, proto_arbitrary, proto_tree_par, proto_tree_seq
from d2color.scenarios import TABLE1_NEXT_SCHEDULE, builtin_topology
from d2color.topology import (
    build_topology,
    generate_random_connected,
    generate_random_tree,
    metrics,
    save_topology,
)
from d2color.traceio import trace_to_text
from d2color.verifier import verify_run


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
        "87218032c3ee814657d09bb946dd2472c1204c305ee1f6512ee83459cf37c6e4",
    "seq_random_child":
        "5f2dfb8a1c3c40cd60dfe20a8353086e11d70be554a53d6eedad7513fe695471",
}


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_scenario_digest(name):
    make_topology, module, root, kwargs = LIBRARY[name]
    topology = make_topology()
    trace = module.make_simulation(topology, root, **kwargs).run(_budget(topology, root))
    text = trace_to_text(trace) + verify_run(topology, trace).to_text()
    assert _sha(text) == LIBRARY_DIGESTS[name]


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
        "6f1143921009e1b98098d5bad75bc2789bfb8157a67fb9733f7e9543f907ecf7",
    "run_seq_random_child":
        "f2a1e06f8446e26c693d73b9a1d9bd4200d315e582946d003e1f3367977d9c2d",
}


def _cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return f"exit={code}\n{captured.out}{captured.err}"


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
    text = _cli(capsys, "run", *location, *run_args, "--trace-out", str(trace_path),
                "--topology-out", str(final_topo))
    if trace_path.exists():
        text += trace_path.read_text()
        if not final_topo.exists():
            final_topo = topo_path
        text += _cli(capsys, "verify", "--trace", str(trace_path),
                     "--topology", str(final_topo))
    assert _sha(text) == CLI_DIGESTS[name]


BENCH_DIGEST = "afd83dafa0fc46f93cabac79c82e58cfd6aff4e5b7d073a493e225cd82fc21b0"


def test_bench_sweep_digest(capsys):
    text = _cli(capsys, "bench", "--sizes", "12,30", "--seeds", "0,1", "--max-degree", "4",
                "--protocols", "seq_tree,par_tree,arbitrary")
    assert _sha(text) == BENCH_DIGEST
