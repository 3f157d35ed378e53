"""`d2color run` and `d2color verify` stream a trace one round at a time.

`run --trace-out` writes each round as the engine finishes it, and `verify`
folds the file a round at a time without building a Trace.  These tests hold
both to the bytes and reports of the whole-trace paths, over the CLI scenarios
that tests/test_golden.py pins, and bound what verification allocates.
"""

from __future__ import annotations

import tracemalloc

import pytest

from d2color import cli, engine, proto_tree_par
from d2color.engine import Trace
from d2color.scenarios import builtin_topology
from d2color.topology import generate_random_tree, load_topology, save_topology
from d2color.traceio import read_trace, trace_to_text, write_trace
from d2color.verifier import verify_run
from test_golden import CLI


def _cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _topology_file(name, tmp_path):
    """The scenario's input topology saved to a file, and its `run` arguments naming it."""
    source, run_args = CLI[name]
    topo_path = tmp_path / "in.topo"
    save_topology(builtin_topology(source) if isinstance(source, str) else source(),
                  str(topo_path))
    return topo_path, ["--topology", str(topo_path), *run_args]


class InMemoryWriter:
    """Stands in for cli.TraceWriter: keeps every round in a Trace, then writes trace_to_text of it."""

    def __init__(self, fh, meta):
        self.fh, self.trace = fh, Trace(meta=meta)

    def write_round(self, rnd):
        self.trace.add_round(rnd)

    def end(self, trace):
        self.trace.status, self.trace.rounds = trace.status, trace.rounds
        self.trace.claimed_by = trace.claimed_by
        self.fh.write(trace_to_text(self.trace))


@pytest.mark.parametrize("name", sorted(CLI))
def test_run_streams_the_bytes_of_the_in_memory_trace(name, tmp_path, capsys, monkeypatch):
    _, run_args = _topology_file(name, tmp_path)
    results = []
    for writer in (cli.TraceWriter, InMemoryWriter):
        monkeypatch.setattr(cli, "TraceWriter", writer)
        path = tmp_path / f"{writer.__name__}.trace"
        results.append((_cli(capsys, "run", *run_args, "--trace-out", str(path)),
                        path.read_bytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("name", sorted(CLI))
def test_verify_reports_what_verify_run_reports_on_read_trace(name, tmp_path, capsys):
    topo_path, run_args = _topology_file(name, tmp_path)
    trace_path, final_topo = tmp_path / "run.trace", tmp_path / "final.topo"
    _cli(capsys, "run", *run_args, "--trace-out", str(trace_path),
         "--topology-out", str(final_topo))
    if not final_topo.exists():  # a clash ends the run before the topology is written
        final_topo = topo_path
    code, out, err = _cli(capsys, "verify", "--trace", str(trace_path),
                          "--topology", str(final_topo))
    report = verify_run(load_topology(str(final_topo)), read_trace(str(trace_path)))
    assert (code, out, err) == (0 if report.ok() else 1, report.to_text(), "")


def _par_tree_files(tmp_path, n):
    topo = generate_random_tree(n, 6, seed=1)
    root = max(range(1, n + 1), key=topo.degree)
    trace = proto_tree_par.make_simulation(topo, root).run(cli.auto_budget(n, topo.delta))
    topo_path, trace_path = tmp_path / "t.topo", tmp_path / "t.trace"
    save_topology(topo, str(topo_path))
    write_trace(trace, str(trace_path))
    return str(topo_path), str(trace_path)


def test_verify_builds_no_trace(tmp_path, capsys, monkeypatch):
    topo_path, trace_path = _par_tree_files(tmp_path, 60)

    def no_trace(self, *args, **kwargs):
        raise AssertionError("a Trace was built")
    monkeypatch.setattr(engine.Trace, "__init__", no_trace)
    with pytest.raises(AssertionError, match="a Trace was built"):
        read_trace(trace_path)
    code, out, _ = _cli(capsys, "verify", "--trace", trace_path, "--topology", topo_path)
    assert code == 0 and out.endswith("overall=pass\n")


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_peaks_below_a_third_of_read_trace(tmp_path, capsys):
    topo_path, trace_path = _par_tree_files(tmp_path, 5000)
    read_peak = _peak_bytes(lambda: read_trace(trace_path))
    verify_peak = _peak_bytes(
        lambda: cli.main(["verify", "--trace", trace_path, "--topology", topo_path]))
    assert capsys.readouterr().out.endswith("overall=pass\n")
    assert verify_peak < read_peak / 3
