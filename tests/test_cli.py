import re

import pytest

from d2color import proto_arbitrary, proto_tree_par
from d2color.cli import PROTOCOLS, auto_budget, main
from d2color.engine import ClashDetected, ProtocolViolation
from d2color.topology import generate_random_connected, load_topology, save_topology
from d2color.traceio import trace_to_text


def run_cli(*args):
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse error paths
        return exc.code


class TestGen:
    def test_tree_generation_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.topo", tmp_path / "b.topo"
        assert run_cli("gen", "--tree", "--n", "50", "--max-degree", "4",
                       "--seed", "7", "-o", str(a)) == 0
        assert run_cli("gen", "--tree", "--n", "50", "--max-degree", "4",
                       "--seed", "7", "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        out = capsys.readouterr().out
        assert "n=50" in out and "delta=" in out and "depth=" in out

    def test_builtin_table1(self, tmp_path):
        path = tmp_path / "t.topo"
        assert run_cli("gen", "--builtin", "table1", "-o", str(path)) == 0
        topo = load_topology(str(path))
        assert topo.n == 5 and topo.kind == "general"

    def test_infeasible_cap_is_usage_error(self):
        assert run_cli("gen", "--tree", "--n", "3", "--max-degree", "1") == 3

    @pytest.mark.parametrize("source", [[], ["--tree", "--builtin", "path3"]])
    def test_one_source_is_required(self, source, capsys):
        assert run_cli("gen", "--n", "5", *source) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--tree" in err and "--builtin" in err


class TestRunAndVerify:
    def test_par_star4_round_trip(self, tmp_path, capsys):
        topo_path = tmp_path / "star.topo"
        trace_path = tmp_path / "star.trace"
        assert run_cli("gen", "--builtin", "star4", "-o", str(topo_path)) == 0
        assert run_cli("run", "--topology", str(topo_path), "--protocol", "par_tree",
                       "--root", "1", "--trace-out", str(trace_path)) == 0
        out = capsys.readouterr().out
        assert "status=terminated" in out
        assert run_cli("verify", "--trace", str(trace_path),
                       "--topology", str(topo_path)) == 0
        out = capsys.readouterr().out
        assert "overall=pass" in out

    def test_seq_path3_verify_reports_term_count(self, tmp_path, capsys):
        topo_path = tmp_path / "p.topo"
        trace_path = tmp_path / "p.trace"
        run_cli("gen", "--builtin", "path3", "-o", str(topo_path))
        assert run_cli("run", "--topology", str(topo_path), "--protocol", "seq_tree",
                       "--trace-out", str(trace_path)) == 0
        assert run_cli("verify", "--trace", str(trace_path),
                       "--topology", str(topo_path)) == 0
        out = capsys.readouterr().out
        assert "name=seq_term_count limit=2 observed=2 pass" in out

    def test_corrupted_trace_fails_verification(self, tmp_path, capsys):
        topo_path = tmp_path / "p.topo"
        trace_path = tmp_path / "p.trace"
        run_cli("gen", "--builtin", "path3", "-o", str(topo_path))
        run_cli("run", "--topology", str(topo_path), "--protocol", "seq_tree",
                "--trace-out", str(trace_path))
        doctored = trace_path.read_text().replace('"color":2', '"color":0')
        trace_path.write_text(doctored)
        assert run_cli("verify", "--trace", str(trace_path),
                       "--topology", str(topo_path)) == 1
        assert "consistency=fail" in capsys.readouterr().out

    def test_table1_pinned_replay(self, tmp_path, capsys):
        trace_path = tmp_path / "t1.trace"
        assert run_cli("run", "--builtin", "table1", "--protocol", "arbitrary",
                       "--pin-table1-choices", "--trace-out", str(trace_path)) == 0
        out = capsys.readouterr().out
        assert "status=terminated" in out and "palette=4" in out

    def test_budget_zero(self, capsys):
        assert run_cli("run", "--builtin", "path3", "--protocol", "seq_tree",
                       "--max-rounds", "0") == 0
        assert "status=budget_exhausted" in capsys.readouterr().out

    def test_tree_protocol_rejects_general_graph(self, tmp_path):
        topo_path = tmp_path / "g.topo"
        run_cli("gen", "--builtin", "table1", "-o", str(topo_path))
        assert run_cli("run", "--topology", str(topo_path),
                       "--protocol", "par_tree") == 3

    def test_missing_source_is_usage_error(self):
        assert run_cli("run", "--protocol", "par_tree") == 3

    def test_out_of_range_root_is_usage_error(self):
        assert run_cli("run", "--builtin", "path3", "--protocol", "par_tree",
                       "--root", "9") == 3

    def test_negative_start_round_is_usage_error(self, capsys):
        assert run_cli("run", "--builtin", "path3", "--protocol", "seq_tree",
                       "--start-round", "-1") == 3
        assert "--start-round: must be >= 0" in capsys.readouterr().err

    def test_negative_max_rounds_is_usage_error(self, capsys):
        assert run_cli("run", "--builtin", "path3", "--protocol", "seq_tree",
                       "--max-rounds", "-5") == 3
        assert "--max-rounds: must be >= 0" in capsys.readouterr().err

    def test_join_directive(self, tmp_path, capsys):
        topo_path = tmp_path / "p.topo"
        run_cli("gen", "--builtin", "path3", "-o", str(topo_path))
        assert run_cli("run", "--topology", str(topo_path), "--protocol", "par_tree",
                       "--root", "2", "--join-parent", "3") == 0
        assert "join: process 4" in capsys.readouterr().out

    @pytest.mark.parametrize("parent", ["0", "9"])
    def test_out_of_range_join_parent_is_usage_error(self, parent, capsys):
        assert run_cli("run", "--builtin", "path3", "--protocol", "par_tree",
                       "--root", "2", "--join-parent", parent) == 3
        assert capsys.readouterr().err == "join parent must be in 1..3\n"

    @pytest.mark.parametrize("protocol,builtin", [("seq_tree", "path3"), ("arbitrary", "table1")])
    def test_join_parent_without_par_tree_is_usage_error(self, protocol, builtin, capsys,
                                                         monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation was built")
        monkeypatch.setattr(PROTOCOLS[protocol].module, "make_simulation", no_simulation)
        assert run_cli("run", "--builtin", builtin, "--protocol", protocol,
                       "--join-parent", "3") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--join-parent needs --protocol par_tree\n"

    def test_join_to_saturated_parent_exits_2(self, tmp_path, capsys):
        topo_path = tmp_path / "p.topo"
        run_cli("gen", "--builtin", "path3", "-o", str(topo_path))
        assert run_cli("run", "--topology", str(topo_path), "--protocol", "par_tree",
                       "--root", "2", "--join-parent", "2") == 2

    def test_join_round_trips_through_verify(self, tmp_path, capsys):
        topo_path = tmp_path / "p.topo"
        trace_path = tmp_path / "p.trace"
        grown_path = tmp_path / "grown.topo"
        run_cli("gen", "--builtin", "path3", "-o", str(topo_path))
        assert run_cli("run", "--topology", str(topo_path), "--protocol", "par_tree",
                       "--root", "2", "--join-parent", "3",
                       "--trace-out", str(trace_path),
                       "--topology-out", str(grown_path)) == 0
        assert run_cli("verify", "--trace", str(trace_path),
                       "--topology", str(grown_path)) == 0
        assert "overall=pass" in capsys.readouterr().out

    @pytest.mark.parametrize("tag,damage", [
        ("B", lambda line: line[:len(line) // 2]),
        ("S", lambda line: line.replace("state={", "state={x")),
        ("S", lambda line: line.replace("round=", "round=x", 1)),
        ("S", lambda line: line.replace(" proc=", " ", 1)),
    ])
    def test_malformed_trace_is_usage_error_naming_the_line(self, tmp_path, capsys, tag, damage):
        topo_path = tmp_path / "star.topo"
        trace_path = tmp_path / "star.trace"
        run_cli("gen", "--builtin", "star4", "-o", str(topo_path))
        run_cli("run", "--topology", str(topo_path), "--protocol", "par_tree",
                "--trace-out", str(trace_path))
        lines = trace_path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(tag + " "))
        lines[k] = damage(lines[k])
        trace_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace_path), "--topology", str(topo_path)) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"cannot load inputs: line {k + 1}: ")

    def test_missing_topology_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.topo"
        assert run_cli("run", "--topology", str(missing), "--protocol", "par_tree") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("cannot load inputs: ") and str(missing) in err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_malformed_edge_line_is_usage_error_naming_the_line(self, command, tmp_path, capsys):
        topo_path = tmp_path / "p.topo"
        trace_path = tmp_path / "p.trace"
        run_cli("gen", "--builtin", "path3", "-o", str(topo_path))
        run_cli("run", "--topology", str(topo_path), "--protocol", "par_tree",
                "--root", "2", "--trace-out", str(trace_path))
        lines = topo_path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("edge="))
        lines[k] = "edge=1"
        topo_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        args = {"run": ["run", "--topology", str(topo_path), "--protocol", "par_tree"],
                "verify": ["verify", "--trace", str(trace_path), "--topology", str(topo_path)]}
        assert run_cli(*args[command]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.endswith(f": line {k + 1}: malformed edge= value '1'\n")

    def test_library_clash_records_the_end_line_the_cli_writes(self, tmp_path):
        topology = generate_random_connected(30, 8, 0)
        topo_path, trace_path = tmp_path / "g.topo", tmp_path / "g.trace"
        save_topology(topology, str(topo_path))
        assert run_cli("run", "--topology", str(topo_path), "--protocol", "arbitrary",
                       "--trace-out", str(trace_path)) == 2
        sim = proto_arbitrary.make_simulation(topology, 1)
        with pytest.raises(ClashDetected) as clash:
            sim.run(auto_budget(topology.n, topology.delta))
        assert sim.trace.status == "clash"
        assert sim.trace.rounds == clash.value.events[0].round + 1 == 66
        written = trace_path.read_text()
        assert trace_to_text(sim.trace).splitlines()[-1] == written.splitlines()[-1]
        assert trace_to_text(sim.trace) == written

    def test_byte_identical_reruns(self, tmp_path):
        topo_path = tmp_path / "t.topo"
        run_cli("gen", "--tree", "--n", "40", "--max-degree", "5", "--seed", "3",
                "-o", str(topo_path))
        t1, t2 = tmp_path / "one.trace", tmp_path / "two.trace"
        for t in (t1, t2):
            assert run_cli("run", "--topology", str(topo_path), "--protocol", "par_tree",
                           "--root", "1", "--trace-out", str(t)) == 0
        assert t1.read_bytes() == t2.read_bytes()


class TestOutputPaths:
    @pytest.mark.parametrize("option", ["--trace-out", "--topology-out"])
    def test_run_into_a_missing_directory_is_usage_error_before_the_run(self, option, tmp_path,
                                                                      capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation was built")
        monkeypatch.setattr(PROTOCOLS["par_tree"].module, "make_simulation", no_simulation)
        target = tmp_path / "missing" / "out"
        assert run_cli("run", "--builtin", "path3", "--protocol", "par_tree", "--root", "2",
                       option, str(target)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot write {target}: No such file or directory\n"

    def test_gen_into_a_missing_directory_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "p.topo"
        assert run_cli("gen", "--builtin", "path3", "-o", str(target)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot write {target}: No such file or directory\n"

    def test_output_path_that_is_a_directory_is_usage_error(self, tmp_path, capsys):
        assert run_cli("run", "--builtin", "path3", "--protocol", "par_tree", "--root", "2",
                       "--trace-out", str(tmp_path)) == 3
        assert capsys.readouterr().err == f"cannot write {tmp_path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_protocol_violation_leaves_the_trace_path_as_it_was(self, tmp_path, capsys,
                                                               monkeypatch):
        on_clock = proto_tree_par.ParProcess.on_clock

        def violating(self, clock):
            if clock == 3:  # after rounds 0..2 have gone to the trace file
                raise ProtocolViolation("planted")
            return on_clock(self, clock)
        monkeypatch.setattr(proto_tree_par.ParProcess, "on_clock", violating)
        kept, fresh = tmp_path / "kept.trace", tmp_path / "fresh.trace"
        kept.write_text("an earlier trace\n")
        for path in (kept, fresh):
            assert run_cli("run", "--builtin", "binary15", "--protocol", "par_tree",
                           "--trace-out", str(path)) == 2
        assert capsys.readouterr().err == "protocol violation: planted\n" * 2
        assert kept.read_text() == "an earlier trace\n"
        assert [p.name for p in tmp_path.iterdir()] == ["kept.trace"]

    def test_failed_join_writes_neither_output(self, tmp_path, capsys):
        assert run_cli("run", "--builtin", "path3", "--protocol", "par_tree", "--root", "2",
                       "--join-parent", "2", "--trace-out", str(tmp_path / "p.trace"),
                       "--topology-out", str(tmp_path / "p.topo")) == 2
        assert list(tmp_path.iterdir()) == []


class TestVerifyRejectsMismatchedTraces:
    def _trace(self, tmp_path, builtin, *args):
        topo_path, trace_path = tmp_path / f"{builtin}.topo", tmp_path / "run.trace"
        run_cli("gen", "--builtin", builtin, "-o", str(topo_path))
        assert run_cli("run", "--topology", str(topo_path), "--protocol", "par_tree", *args,
                       "--trace-out", str(trace_path)) == 0
        return trace_path

    def _verify_error(self, capsys, trace_path, topo_path):
        capsys.readouterr()
        assert run_cli("verify", "--trace", str(trace_path), "--topology", str(topo_path)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_trace_of_a_larger_topology(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path, "binary15")
        run_cli("gen", "--builtin", "path3", "-o", str(tmp_path / "path3.topo"))
        err = self._verify_error(capsys, trace_path, tmp_path / "path3.topo")
        k, field, index = re.fullmatch(r"cannot load inputs: line (\d+): (\w+) (\d+) is not in "
                                       r"1\.\.3\n", err).groups()
        assert f" {field}={index} " in trace_path.read_text().splitlines()[int(k) - 1]

    @pytest.mark.parametrize("old,new,message", [
        ('"root":2,', '"root":99,', "root 99 is not in 1..3"),
        ('"root":2,', '', "root None is not in 1..3"),
        (',"start_round":0', '', "start_round None is not an integer"),
        ('"color":0', '"color":"x"', "color 'x' is not an integer"),
        ('"protocol":"par_tree"', '"protocol":"bogus"', "protocol 'bogus' is unknown"),
    ])
    def test_value_out_of_range_or_of_the_wrong_type(self, tmp_path, capsys, old, new, message):
        trace_path = self._trace(tmp_path, "path3", "--root", "2")
        lines = trace_path.read_text().splitlines()
        k = max(i for i, line in enumerate(lines) if old in line)
        lines[k] = lines[k].replace(old, new)
        trace_path.write_text("\n".join(lines) + "\n")
        err = self._verify_error(capsys, trace_path, tmp_path / "path3.topo")
        assert err == f"cannot load inputs: line {k + 1}: {message}\n"

    def test_trace_with_no_meta_line(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path, "star4")
        lines = trace_path.read_text().splitlines()
        assert lines[1].startswith("meta=")
        del lines[1]
        trace_path.write_text("\n".join(lines) + "\n")
        err = self._verify_error(capsys, trace_path, tmp_path / "star4.topo")
        assert err == "cannot load inputs: line 2: the meta line must follow the format line\n"

    def test_round_below_the_line_before(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path, "path3", "--root", "2")
        lines = trace_path.read_text().splitlines()
        lines.insert(2, lines.pop(-2))  # the last event first
        trace_path.write_text("\n".join(lines) + "\n")
        err = self._verify_error(capsys, trace_path, tmp_path / "path3.topo")
        assert re.fullmatch(r"cannot load inputs: line 4: round 0 after round \d+\n", err)


class TestBench:
    def test_small_sweep(self, capsys):
        assert run_cli("bench", "--sizes", "10,40", "--seeds", "0",
                       "--max-degree", "4") == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("par_tree")]
        assert len(lines) == 2
        for line in lines:
            fields = line.split("\t")
            assert fields[-1] == "yes"
            assert float(fields[-2]) <= 4.0

    @pytest.mark.parametrize("option,value", [("--sizes", "1x"), ("--seeds", "a")])
    def test_malformed_integer_list_is_usage_error(self, option, value, capsys):
        assert run_cli("bench", option, value) == 3
        err = capsys.readouterr().err
        assert f"{option}: expected comma-separated integers, got '{value}'" in err
        assert "Traceback" not in err

    def test_unknown_protocol_is_usage_error(self, capsys):
        assert run_cli("bench", "--sizes", "10", "--protocols", "par_tree,nope") == 3
        assert "unknown protocols ['nope']" in capsys.readouterr().err
