"""Command-line front end: gen / run / verify / bench.

Exit codes: 0 success, 1 verification failure, 2 clash or protocol violation,
3 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from collections import Counter
from collections.abc import Callable
from types import ModuleType
from typing import NamedTuple

from . import proto_arbitrary, proto_tree_par, proto_tree_seq
from .engine import FAIL_FAST, POLICIES, ClashDetected, ProtocolViolation
from .scenarios import BUILTINS, TABLE1_NEXT_SCHEDULE, builtin_topology
from .topology import (
    TopologyError,
    assign_identities,
    generate_random_tree,
    load_topology,
    metrics,
    topology_text,
)
# read_trace and write_trace go unused here, but benchmark/run.py hooks them on this module
from .traceio import (TraceFormatError, TraceWriter, open_trace, read_trace,  # noqa: F401
                      write_trace)
from .verifier import verify_run


class Protocol(NamedTuple):
    module: ModuleType  # its make_simulation is looked up at call time
    trees_only: bool
    options: Callable[[argparse.Namespace], dict]  # `run` options -> make_simulation kwargs


# How each protocol is built from `d2color run`. What a protocol promises is
# verifier.PROMISES: the verifier judges runs without importing protocol code.
PROTOCOLS = {
    "seq_tree": Protocol(proto_tree_seq, True,
                         lambda a: {"next_child_order": a.next_child, "seed": a.seed}),
    "par_tree": Protocol(proto_tree_par, True,
                         lambda a: {"end_phase": a.end_phase,
                                    "root_always_ends": a.root_always_ends,
                                    "sibling_end_parallel": a.sibling_end_parallel}),
    "arbitrary": Protocol(proto_arbitrary, False,
                          lambda a: {"next_schedule": TABLE1_NEXT_SCHEDULE
                                     if a.pin_table1_choices else None}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


class OutputError(Exception):
    """An output path that cannot be written."""


class _Output:
    """An output file, written under a sibling temporary name and moved onto its path once complete.

    Entering creates the temporary file, so a path that cannot be written fails
    before any work is done; leaving without commit() removes it and leaves
    the path as it was.
    """

    def __init__(self, path: str):
        self.path = path
        self._temp = f"{path}.{os.getpid()}.tmp"

    def __enter__(self) -> _Output:
        try:
            if os.path.isdir(self.path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            self.fh = open(self._temp, "x", encoding="utf-8")
        except OSError as exc:
            raise OutputError(f"cannot write {self.path}: {exc.strerror or exc}") from None
        return self

    def commit(self) -> None:
        self.fh.close()
        os.replace(self._temp, self.path)

    def __exit__(self, *exc_info) -> None:
        self.fh.close()
        with contextlib.suppress(FileNotFoundError):
            os.remove(self._temp)


def _outputs(stack: contextlib.ExitStack, *paths):
    """An entered _Output for each path given, None for each left out."""
    return [stack.enter_context(_Output(path)) if path else None for path in paths]


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _load_source(args):
    if args.builtin:
        return builtin_topology(args.builtin)
    return load_topology(args.topology)


def auto_budget(n: int, delta: int) -> int:
    # generous cover for both traversal protocols plus the END wave
    return 64 + 8 * (n + 1) * (delta + 2)


def cmd_gen(args) -> int:
    with contextlib.ExitStack() as stack:
        out, = _outputs(stack, args.out)
        if args.builtin:
            topo = builtin_topology(args.builtin)
        else:
            topo = generate_random_tree(args.n, args.max_degree, args.seed)
        if args.identity_mode != "default":
            topo = assign_identities(topo, args.identity_mode, args.identity_seed)
        if not 1 <= args.root <= topo.n:
            print(f"root must be in 1..{topo.n}", file=sys.stderr)
            return 3
        mets = metrics(topo, args.root)
        if out:
            out.fh.write(topology_text(topo))
            out.commit()
            print(f"wrote {args.out}")
    print(f"n={topo.n} delta={mets.delta} depth={mets.depth} kind={topo.kind}")
    return 0


def cmd_run(args) -> int:
    protocol = PROTOCOLS[args.protocol]
    if args.join_parent is not None and protocol.module is not proto_tree_par:
        print("--join-parent needs --protocol par_tree", file=sys.stderr)
        return 3
    if (args.trace_out and args.topology_out
            and os.path.realpath(args.trace_out) == os.path.realpath(args.topology_out)):
        print("--trace-out and --topology-out name the same file", file=sys.stderr)
        return 3
    try:
        topology = _load_source(args)
    except OSError as exc:
        print(f"cannot load inputs: {exc}", file=sys.stderr)
        return 3
    if protocol.trees_only and topology.kind != "tree":
        print("tree protocols require a tree topology", file=sys.stderr)
        return 3
    for option, index in (("root", args.root), ("join parent", args.join_parent)):
        if index is not None and not 1 <= index <= topology.n:
            print(f"{option} must be in 1..{topology.n}", file=sys.stderr)
            return 3
    mets = metrics(topology, args.root)
    budget = args.max_rounds if args.max_rounds is not None else auto_budget(topology.n, mets.delta)
    with contextlib.ExitStack() as stack:
        trace_out, topology_out = _outputs(stack, args.trace_out, args.topology_out)
        sim = protocol.module.make_simulation(topology, args.root, start_round=args.start_round,
                                              policy=args.clash_policy, **protocol.options(args))
        # each round is counted, and written out if asked for, as it ends; none is kept
        writer = TraceWriter(trace_out.fh, sim.trace.meta) if trace_out else None
        counts = Counter()
        latest_colors = {}

        def sink(rnd):
            counts.update(rec.message.kind for rec in rnd.broadcasts)
            latest_colors.update((ch.proc, ch.state.get("color")) for ch in rnd.changes)
            if writer:
                writer.write_round(rnd)

        sim.sink = sink
        try:
            trace = sim.run(budget)
        except ClashDetected as exc:
            if writer:
                writer.end(sim.trace)
                trace_out.commit()
            for ev in exc.events:
                print(
                    f"clash round={ev.round} kind={ev.clash_kind} victim={ev.victim} "
                    f"participants={sorted(ev.participants)}",
                    file=sys.stderr,
                )
            return 2
        except ProtocolViolation as exc:
            print(f"protocol violation: {exc}", file=sys.stderr)
            return 2

        if args.join_parent is not None:
            try:
                outcome = proto_tree_par.execute_join(sim, args.join_parent)
                topology = outcome.topology
                print(
                    f"join: process {outcome.joiner_index} id={outcome.joiner_identity} "
                    f"color={outcome.color} at round {outcome.round}"
                )
            except proto_tree_par.JoinError as exc:
                print(f"join failed: {exc}", file=sys.stderr)
                return 2

        if topology_out:
            topology_out.fh.write(topology_text(topology))
            topology_out.commit()
        if writer:
            writer.end(trace)
            trace_out.commit()
    palette = len(set(latest_colors.values()) - {None})
    print(
        f"status={trace.status} rounds={trace.rounds} claimed_by={trace.claimed_by} "
        f"palette={palette}"
    )
    print("broadcasts=" + (",".join(f"{k}:{v}" for k, v in sorted(counts.items())) or "none"))
    return 0


def cmd_verify(args) -> int:
    try:
        topology = load_topology(args.topology)
        # the trace streams through the verifier a round at a time, checked against n
        with open_trace(args.trace, topology.n) as reader:
            report = verify_run(topology, reader)
    except (TraceFormatError, TopologyError, OSError) as exc:
        print(f"cannot load inputs: {exc}", file=sys.stderr)
        return 3
    print(report.to_text(), end="")
    return 0 if report.ok() else 1


def cmd_bench(args) -> int:
    protocols = args.protocols.split(",")
    unknown = [p for p in protocols if p not in PROTOCOLS]
    if unknown:
        print(f"unknown protocols {unknown}; expected some of {list(PROTOCOLS)}", file=sys.stderr)
        return 3
    print("protocol\tn\tdelta\tdepth\trounds\tclaim_round\tbroadcasts\tratio\tbound_ok")
    worst = 0.0
    for n in args.sizes:
        for seed in args.seeds:
            topo = generate_random_tree(n, args.max_degree, seed)
            root = max(range(1, n + 1), key=topo.degree)
            mets = metrics(topo, root)
            budget = auto_budget(n, mets.delta)
            for proto in protocols:
                trace = PROTOCOLS[proto].module.make_simulation(topo, root).run(budget)
                report = verify_run(topo, trace)
                claim = report.completion_round or 0
                dd = mets.delta * mets.depth
                ratio = claim / dd if dd else 0.0
                worst = max(worst, ratio)
                total = sum(report.message_counts.values())
                bound_ok = all(b.ok for b in report.bound_checks)
                print(
                    f"{proto}\t{n}\t{mets.delta}\t{mets.depth}\t{trace.rounds}"
                    f"\t{claim}\t{total}\t{ratio:.3f}\t{'yes' if bound_ok else 'no'}"
                )
    print(f"# worst observed/(d*delta) ratio: {worst:.3f}")
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="d2color")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a topology file")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--tree", action="store_true", help="generate a random tree")
    source.add_argument("--builtin", choices=BUILTINS)
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--max-degree", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--root", type=int, default=1)
    gen.add_argument("--identity-mode", default="default",
                     choices=("default", "global_unique", "distance2_unique_with_reuse"))
    gen.add_argument("--identity-seed", type=int, default=0)
    gen.add_argument("-o", "--out")
    gen.set_defaults(fn=cmd_gen)

    run = sub.add_parser("run", help="execute a protocol scenario")
    run.add_argument("--topology")
    run.add_argument("--builtin", choices=BUILTINS)
    run.add_argument("--protocol", required=True, choices=PROTOCOLS)
    run.add_argument("--root", type=int, default=1)
    run.add_argument("--start-round", type=_non_negative, default=0)
    run.add_argument("--max-rounds", type=_non_negative, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--next-child", default="min", choices=("min", "random"))
    run.add_argument("--end-phase", action=argparse.BooleanOptionalAction, default=True)
    run.add_argument("--root-always-ends", action="store_true")
    run.add_argument("--sibling-end-parallel", action="store_true")
    run.add_argument("--clash-policy", default=FAIL_FAST, choices=POLICIES)
    run.add_argument("--pin-table1-choices", action="store_true")
    run.add_argument("--join-parent", type=int, default=None)
    run.add_argument("--trace-out")
    run.add_argument("--topology-out",
                     help="write the final topology (reflects a --join-parent)")
    run.set_defaults(fn=cmd_run)

    ver = sub.add_parser("verify", help="verify a trace against its topology")
    ver.add_argument("--trace", required=True)
    ver.add_argument("--topology", required=True)
    ver.set_defaults(fn=cmd_verify)

    bench = sub.add_parser("bench", help="sweep tree sizes and report scaling")
    bench.add_argument("--sizes", type=_int_list, default="10,50,100,300")
    bench.add_argument("--seeds", type=_int_list, default="0,1")
    bench.add_argument("--max-degree", type=int, default=6)
    # the parallel protocol: the ratio column tracks its O(depth * delta) claim
    bench.add_argument("--protocols", default=",".join(
        name for name, p in PROTOCOLS.items() if p.module is proto_tree_par))
    bench.set_defaults(fn=cmd_bench)

    args = parser.parse_args(argv)
    if args.command == "run" and not (args.builtin or args.topology):
        parser.error("need --topology or --builtin")
    try:
        return args.fn(args)
    except TopologyError as exc:
        print(f"topology error: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
