"""Benchmark of d2color's simulate -> trace -> verify pipeline.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload seq-deep --seed 1 --seconds 20 --trace 0

One operation is one scenario: build the topology, simulate, write the trace,
read it back and verify it.  A run sets the workload up, then repeats whole
passes over all of its operations until `--seconds` have gone by.  With
`--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics; with `--trace 1` spans around the program's public
functions (see spans.py) give the per-layer metrics instead.  The lines
before it summarise the run for a reader.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from spans import Tracer  # noqa: E402

try:
    from d2color import (cli, engine, proto_arbitrary, proto_tree_par,  # noqa: E402
                         proto_tree_seq, topology, traceio, verifier)
except ImportError as exc:  # a directory without the program's sources
    print(f"cannot import d2color from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

SETUP_REPEATS = 10  # set-ups timed before the passes, on top of one per pass
MAKERS = {"seq_tree": proto_tree_seq, "par_tree": proto_tree_par, "arbitrary": proto_arbitrary}
PALETTE_BOUNDED = ("seq_tree", "par_tree")  # the protocols that promise at most delta+1 colors

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


# --- workloads -------------------------------------------------------------
#
# A workload lists its inputs as (tree, protocol) scenarios.  `setup` turns
# them into prepared scenarios, everything before the first simulated round,
# each ending with the path its trace is written to; `operate` runs one
# prepared scenario and returns whether the program reported success.  Both call the program only through module attributes, so
# the spans hooked on those attributes see every call.


class LibraryWorkload:
    """Scenarios called through the library: make_simulation, run, write, read, verify."""

    def __init__(self, trees, protocols):
        self.trees = trees
        self.protocols = protocols

    def scenarios(self):
        return [(tree, proto) for tree in self.trees for proto in self.protocols]

    def trace_paths(self, tmp: str) -> list[str]:
        return [os.path.join(tmp, f"{k}-{proto}.trace")
                for k in range(len(self.trees)) for proto in self.protocols]

    def setup(self, tmp: str):
        paths = iter(self.trace_paths(tmp))
        prepared = []
        for tree in self.trees:
            topo = topology.build_topology(
                list(tree.edges),
                identities=list(tree.identities) if tree.identities else None,
                kind="tree",
                n=tree.n,
            )
            budget = cli.auto_budget(tree.n, topology.metrics(topo, tree.root).delta)
            for proto in self.protocols:
                sim = MAKERS[proto].make_simulation(topo, tree.root)
                prepared.append((topo, sim, budget, next(paths)))
        return prepared

    def operate(self, prepared) -> bool:
        topo, sim, budget, path = prepared
        trace = sim.run(budget)
        traceio.write_trace(trace, path)
        back = traceio.read_trace(path)
        return verifier.verify_run(topo, back).ok()


class CliWorkload:
    """par_tree through `d2color run` then `d2color verify`, called in-process."""

    def __init__(self, trees):
        self.trees = trees

    def scenarios(self):
        return [(tree, "par_tree") for tree in self.trees]

    def trace_paths(self, tmp: str) -> list[str]:
        return [os.path.join(tmp, f"{k}.trace") for k in range(len(self.trees))]

    def setup(self, tmp: str):
        prepared = []
        for k, (tree, trace_path) in enumerate(zip(self.trees, self.trace_paths(tmp))):
            topo = topology.build_topology(list(tree.edges), kind="tree", n=tree.n)
            topo_path = os.path.join(tmp, f"{k}.topo")
            topology.save_topology(topo, topo_path)
            prepared.append((tree.root, topo_path, trace_path))
        return prepared

    def operate(self, prepared) -> bool:
        root, topo_path, trace_path = prepared
        with contextlib.redirect_stdout(io.StringIO()):
            ran = cli.main(["run", "--topology", topo_path, "--protocol", "par_tree",
                            "--root", str(root), "--trace-out", trace_path])
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            verified = cli.main(["verify", "--trace", trace_path, "--topology", topo_path])
        return ran == 0 and verified == 0 and "overall=pass" in report.getvalue().splitlines()


LIBRARY_PROTOCOLS = {"seq-deep": ("seq_tree",), "corpus": ("seq_tree", "par_tree", "arbitrary")}
WORKLOADS = ("seq-deep", "par-cli", "corpus")


def make_workload(name: str, seed: int):
    rng = random.Random(f"{name}/{seed}")
    if name == "seq-deep":
        trees = [gen.make_tree(1500, 6, rng, reuse=False, root="max_degree") for _ in range(3)]
        return LibraryWorkload(trees, LIBRARY_PROTOCOLS[name])
    if name == "par-cli":
        # trees are drawn until par_tree's schedule takes 183 rounds, the most
        # common count at this size, so that the seed changes the tree but not
        # the modelled time
        while True:
            tree = gen.make_tree(5000, 6, rng, reuse=False, root="centre")
            if gen.par_tree_rounds(tree) == 183:
                return CliWorkload([tree])
    # corpus: sizes and degree caps are spread evenly over the Tier-1 corpus
    # ranges (3 <= n <= 500, caps 2..12), so that the seed changes shapes,
    # roots and identities but not the amount of work
    count = 16
    reuse = set(rng.sample(range(count), count // 2))
    trees = [
        gen.make_tree(3 + k * 497 // (count - 1), 2 + k * 7 % 11, rng,
                      reuse=k in reuse, root="nonleaf")
        for k in range(count)
    ]
    return LibraryWorkload(trees, LIBRARY_PROTOCOLS[name])


def warmup_workload(name: str):
    """A small copy of the workload, run once before timing to finish lazy set-up."""
    tree = gen.make_tree(300, 6, random.Random(f"warmup/{name}"), reuse=False, root="nonleaf")
    if name == "par-cli":
        return CliWorkload([tree])
    return LibraryWorkload([tree], LIBRARY_PROTOCOLS[name])


# --- tracing -----------------------------------------------------------------


def install_spans(tracer) -> None:
    hooks = [
        (topology, "build_topology", "topology.build_s"),
        (topology, "load_topology", "topology.load_s"),
        (cli, "load_topology", "topology.load_s"),
        (topology, "metrics", "topology.metrics_s"),
        (cli, "metrics", "topology.metrics_s"),
        (verifier, "metrics", "topology.metrics_s"),
        (proto_tree_seq, "make_simulation", "engine.build_s"),
        (proto_tree_par, "make_simulation", "engine.build_s"),
        (proto_arbitrary, "make_simulation", "engine.build_s"),
        (engine.Simulation, "run", "engine.run_s"),
        (traceio, "trace_to_text", "traceio.write_s"),
        (traceio, "write_trace", "traceio.write_s"),
        (cli, "write_trace", "traceio.write_s"),
        (traceio, "parse_trace", "traceio.parse_s"),
        (traceio, "read_trace", "traceio.parse_s"),
        (cli, "read_trace", "traceio.parse_s"),
        (verifier, "verify_run", "verifier.verify_s"),
        (cli, "verify_run", "verifier.verify_s"),
        (verifier, "check_coloring", "verifier.coloring_s"),
        (verifier, "check_bounds", "verifier.bounds_s"),
        (verifier, "recheck_clashes", "verifier.recheck_s"),
        (verifier, "tdma_replay", "verifier.tdma_s"),
        (cli, "main", "cli.self_s"),
    ]
    for owner, attr, layer in hooks:
        tracer.hook(owner, attr, layer)
    # the engine's own calls only; the verifier's recheck also calls detect_clashes
    tracer.hook(engine, "detect_clashes", "engine.clash_detect_s", only_under="engine.run_s")


def count_polls(tracer) -> None:
    for cls in (proto_tree_seq.SeqProcess, proto_tree_par.ParProcess, proto_arbitrary.ArbProcess):
        tracer.count(cls, "on_clock", "engine.clock_polls")


# --- one run -----------------------------------------------------------------


def digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def timed_setup(workload, tmp: str):
    gc.collect()
    start = time.perf_counter()
    prepared = workload.setup(tmp)
    return prepared, time.perf_counter() - start


def run_pass(workload, prepared: list):
    """Run every prepared scenario; return the seconds spent in the program and the verdicts.

    Each scenario is let go once it has run, as a caller done with a run would.
    """
    gc.collect()
    spent = 0.0
    verdicts = []
    while prepared:
        item = prepared.pop(0)
        # an operation that stops before writing its trace leaves no file
        # from an earlier pass behind for the checks to judge
        with contextlib.suppress(FileNotFoundError):
            os.remove(item[-1])
        start = time.perf_counter()
        try:
            ok = workload.operate(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        spent += time.perf_counter() - start
        verdicts.append(ok)
        del item
    return spent, verdicts


def final_checks(workload, tmp: str):
    """Independent checks of the last pass's traces, and their byte-exact round trip."""
    totals = {"rounds": 0, "broadcasts": 0, "deliveries": 0, "changes": 0, "bytes": 0}
    found = []
    for (tree, proto), path in zip(workload.scenarios(), workload.trace_paths(tmp)):
        try:
            with open(path, encoding="utf-8") as fh:
                facts = checks.read_facts(fh)
        except FileNotFoundError:
            found.append(f"{proto} n={tree.n}: no trace written")
            continue
        except ValueError as exc:
            found.append(f"{proto} n={tree.n}: unreadable trace: {exc}")
            continue
        limit = tree.delta + 1 if proto in PALETTE_BOUNDED else None
        found += [f"{proto} n={tree.n}: {p}" for p in checks.problems(facts, tree.adjacency(), limit)]
        with open(path, encoding="utf-8") as fh:
            written = fh.read()
        if traceio.trace_to_text(traceio.parse_trace(written)) != written:
            found.append(f"{proto} n={tree.n}: trace read back does not write the same bytes")
        totals["rounds"] += facts.rounds
        totals["broadcasts"] += facts.broadcasts
        totals["deliveries"] += facts.deliveries
        totals["changes"] += facts.changes
        totals["bytes"] += len(written.encode("utf-8"))
    return totals, found


def run(args) -> dict:
    workload = make_workload(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_spans(tracer)
    os.makedirs(ROOT / ".bench_tmp", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
        warm = warmup_workload(args.workload)
        _, warm_ok = run_pass(warm, warm.setup(tmp))
        if not all(warm_ok):
            raise RuntimeError("the warm-up scenario failed")

        setup_s = [timed_setup(workload, tmp)[1] for _ in range(SETUP_REPEATS)]
        polls = 0
        if tracer is not None:
            # one pass counts clock polls; wrapping on_clock slows it, so its
            # times are left out of the layer figures
            counter = Tracer()
            count_polls(counter)
            prepared, _ = timed_setup(workload, tmp)
            _, counted_ok = run_pass(workload, prepared)
            counter.unhook_all()
            polls = counter.calls["engine.clock_polls"]
            tracer.take()

        passes, wall_s, layers, verdicts, digests = 0, [], [], [], []
        started = time.perf_counter()
        # a further pass starts only if it would end in time, were it as long as the last
        while passes == 0 or (last - started) + (last - pass_start) <= args.seconds:
            pass_start = time.perf_counter()
            prepared, took = timed_setup(workload, tmp)
            scenarios = len(prepared)
            setup_s.append(took)
            setup_spans = tracer.take() if tracer else {}
            spent, ok = run_pass(workload, prepared)
            wall_s.append(spent)
            if tracer is not None:
                layers.append((setup_spans, tracer.take()))
            verdicts.append(ok)
            digests.append([digest(path) for path in workload.trace_paths(tmp)])
            passes += 1
            last = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB
        if tracer is not None:
            tracer.unhook_all()
            verdicts.append(counted_ok)
        totals, found = final_checks(workload, tmp)

    try:
        os.rmdir(ROOT / ".bench_tmp")
    except OSError:
        pass  # another run is using it

    failed = sum(not ok for pass_ok in verdicts for ok in pass_ok)
    for p, pass_digests in enumerate(digests):
        if pass_digests != digests[-1]:
            found.append(f"pass {p + 1} wrote other trace bytes than pass {len(digests)}")
    for problem in found:
        print(f"check failed: {problem}")

    setup_med = statistics.median(setup_s)
    wall_med = statistics.median(wall_s)
    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"scenarios/pass={scenarios} trace={'on' if tracer else 'off'}")
    print("setup_s samples: " + " ".join(f"{v:.4f}" for v in setup_s))
    print("wall_s per pass: " + " ".join(f"{v:.4f}" for v in wall_s))
    if tracer is None:
        metrics = {
            "setup_s": setup_med,
            "wall_s": wall_med,
            "peak_rss_mb": peak_rss_mb,
            "trace_mb": totals["bytes"] / 1e6,
            "sim_rounds": totals["rounds"],
            "broadcasts": totals["broadcasts"],
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(layers, polls, totals)
        units = PER_LAYER
        print(f"traced setup_s={setup_med:.4f} wall_s={wall_med:.4f}")
        for name in sorted({k for s, w in layers for k in (*s, *w)}):
            in_setup = statistics.median(s.get(name, 0.0) for s, _ in layers)
            in_wall = statistics.median(w.get(name, 0.0) for _, w in layers)
            print(f"layer {name}: setup {in_setup:.4f} s ({in_setup / setup_med:.1%} of setup_s),"
                  f" run {in_wall:.4f} s ({in_wall / wall_med:.1%} of wall_s)")
    return {
        "correct": not found,
        "attempted": sum(len(pass_ok) for pass_ok in verdicts),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def layer_metrics(layers, polls: int, totals: dict) -> dict:
    """Per-pass medians of each layer's self time, with the engine's ratios."""
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            out[name] = statistics.median(s.get(name, 0.0) + w.get(name, 0.0) for s, w in layers)
    events = totals["broadcasts"] + totals["deliveries"] + totals["changes"]
    out["engine.clock_polls"] = polls
    out["engine.poll_yield"] = totals["broadcasts"] / polls if polls else 0.0
    out["engine.us_per_event"] = out["engine.run_s"] * 1e6 / events
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
