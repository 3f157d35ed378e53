import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import damage_a_line, run_par, run_seq
from d2color import proto_tree_par, proto_tree_seq, traceio
from d2color.cli import auto_budget
from d2color.engine import Round
from d2color.messages import (FIELD_NAMES, ColorArb, ColorPar, ColorSeq, Correct, CorrectedColor,
                              End, New, ResumeColoring, Start, TermArb, TermPar, TermSeq)
from d2color.scenarios import TABLE1_NEXT_SCHEDULE, builtin_topology
from d2color.proto_arbitrary import make_simulation as make_arb
from d2color.topology import generate_random_tree
from d2color.traceio import (TraceFormatError, TraceReader, parse_trace, read_trace, trace_to_text,
                             write_trace)
from d2color.verifier import fold_rounds, verify_run


def simulations():
    """(topology, simulation not yet run, round budget) of each scenario traces() runs."""
    for name, module in (("binary15", proto_tree_par), ("path3", proto_tree_seq)):
        t = builtin_topology(name)
        yield t, module.make_simulation(t, 1), auto_budget(t.n, t.delta)
    t = builtin_topology("table1")
    yield t, make_arb(t, 1, next_schedule=TABLE1_NEXT_SCHEDULE), 200


def traces():
    for topology, sim, budget in simulations():
        yield topology, sim.run(budget)


# every line tag: X, B, S, and the C lines of the END collisions this relaxed mode records
CLASHING = trace_to_text(run_par(generate_random_tree(45, 5, seed=6), 1, sibling_end_parallel=True,
                                 policy="record_and_corrupt")).splitlines()


class TestRoundTrip:
    def test_parse_then_serialize_is_identity(self):
        for _, trace in traces():
            text = trace_to_text(trace)
            assert trace_to_text(parse_trace(text)) == text

    def test_verification_survives_the_file_format(self):
        for topo, trace in traces():
            reparsed = parse_trace(trace_to_text(trace))
            assert verify_run(topo, reparsed).to_text() == verify_run(topo, trace).to_text()

    def test_file_round_trip(self, tmp_path):
        topo = builtin_topology("star4")
        trace = run_par(topo, 1)
        path = tmp_path / "run.trace"
        write_trace(trace, str(path))
        loaded = read_trace(str(path))
        assert loaded.status == "terminated"
        loaded_facts, facts = fold_rounds(topo, loaded), fold_rounds(topo, trace)
        assert loaded_facts.colors == facts.colors
        assert loaded_facts.counts == facts.counts
        assert loaded.meta == trace.meta

    def test_streamed_paths_match_the_text_paths(self, tmp_path):
        for k, (_, trace) in enumerate(traces()):
            path = tmp_path / f"{k}.trace"
            write_trace(trace, str(path))
            text = trace_to_text(trace)
            assert path.read_bytes() == text.encode("utf-8")
            assert read_trace(str(path)) == parse_trace(text)
            path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
            assert read_trace(str(path)) == parse_trace(text)

    def test_lines_span_batches(self):
        # more lines than one batch decodes, so the records of several batches join up
        topo = generate_random_tree(1200, 5, seed=3)
        text = trace_to_text(run_par(topo, 1))
        assert len(text.splitlines()) > 2 * traceio._BATCH
        assert trace_to_text(parse_trace(text)) == text

    def test_status_line_fields(self):
        topo = builtin_topology("path3")
        trace = run_seq(topo, 1)
        parsed = parse_trace(trace_to_text(trace))
        assert parsed.rounds == trace.rounds
        assert parsed.claimed_by == 1


class TestMalformedInput:
    def test_missing_header(self):
        with pytest.raises(TraceFormatError):
            parse_trace("B round=0 origin=1\n")

    def test_wrong_version(self):
        with pytest.raises(TraceFormatError):
            parse_trace("format=d2trace/9\n")

    def test_unknown_tag(self):
        with pytest.raises(TraceFormatError):
            parse_trace("format=d2trace/1\nZ round=0\n")

    def test_unknown_message_kind(self):
        with pytest.raises(TraceFormatError):
            parse_trace("format=d2trace/1\nX round=0 target=1 kind=BOGUS\n")

    def test_error_names_the_line(self):
        with pytest.raises(TraceFormatError, match=r"^line 3: unknown trace line tag 'Z'$"):
            parse_trace("format=d2trace/1\nmeta={}\nZ round=0\n")

    @pytest.mark.parametrize("fields", [
        'dest=1,"sender":2 sender_cl=0 d1colors=[]',  # a value holding a field of its own
        "dest=[1 sender=2] sender_cl=3,4 d1colors=[]",  # brackets and commas across fields
        "dest=1 sender=2 sender_cl=3,4 d1colors=[]",  # two values in one field
    ])
    def test_a_value_that_is_not_one_json_value_names_its_line(self, fields):
        line = f"B round=0 origin=1 receivers=2 kind=COLOR_SEQ {fields}"
        with pytest.raises(TraceFormatError, match=r"^line 3: "):
            parse_trace(f"format=d2trace/1\nmeta={{}}\n{line}\n")

    def test_a_field_named_twice_names_its_line(self):
        # the last sender=3 would win silently, and the line would write back without sender=2
        line = ("B round=0 origin=1 receivers=2 kind=COLOR_SEQ dest=1 sender=2 sender=3 "
                "sender_cl=0 d1colors=[]")
        meta = '{"protocol":"seq_tree","root":1,"start_round":0}'
        text = f"format=d2trace/1\nmeta={meta}\n{line}\n"
        named = r"^line 3: a field of the COLOR_SEQ message is named twice$"
        with pytest.raises(TraceFormatError, match=named):
            parse_trace(text)
        with pytest.raises(TraceFormatError, match=named):
            list(TraceReader(text.splitlines(), 2).by_round())

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b'format=d2trace/1\nmeta={}\nS round=0 proc=1 state={"a":"\xff"}\n')
        with pytest.raises(TraceFormatError, match=r"^line 3: "):
            read_trace(str(path))

    @pytest.mark.parametrize("damage", [
        lambda line: line[:len(line) // 2] if line.startswith("B ") else line,  # truncated B
        lambda line: line.replace("state={", "state={x") if line.startswith("S ") else line,
        lambda line: line.replace("round=", "round=x", 1) if line.startswith("S ") else line,
        lambda line: line.replace(" proc=", " pro=") if line.startswith("S ") else line,
        lambda line: " ".join(line.split(" ")[:-1]) if line.startswith("C ") else line,
        lambda line: line.replace("kind=", "kind=BOGUS", 1) if line.startswith("X ") else line,
    ])
    def test_first_damaged_line_is_named(self, damage):
        lines = list(CLASHING)
        k = next(i for i, line in enumerate(lines) if damage(line) != line)
        lines[k] = damage(lines[k])
        with pytest.raises(TraceFormatError, match=rf"^line {k + 1}: "):
            parse_trace("\n".join(lines))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_line_parses_or_is_named(self, data):
        lines = list(CLASHING)
        k = damage_a_line(data, lines)
        try:
            parse_trace("\n".join(lines) + "\n")
        except TraceFormatError as exc:
            # a round raised by the damage shows only at the line after it, whose round is lower
            raised = re.fullmatch(rf"line {k + 2}: round \d+ after round (\d+)", str(exc))
            if raised:
                written = lines[k].split(" ")[1]
                assert written.startswith("round=") and int(written[6:]) == int(raised[1])
            else:
                assert str(exc).startswith(f"line {k + 1}: ")


class TestStreaming:
    def _scenarios(self):
        yield from simulations()
        topo = generate_random_tree(45, 5, seed=6)
        yield topo, proto_tree_par.make_simulation(topo, 1, sibling_end_parallel=True,
                                                   policy="record_and_corrupt"), \
            auto_budget(topo.n, topo.delta)

    def test_rounds_written_as_they_end_give_the_in_memory_bytes(self):
        streamed = []
        for _, sim, budget in self._scenarios():
            out = io.StringIO()
            writer = traceio.TraceWriter(out, sim.trace.meta)
            sim.sink = writer.write_round
            trace = sim.run(budget)
            assert trace.changes == ()  # the rounds went to the writer only
            writer.end(trace)
            streamed.append(out.getvalue())
        in_memory = [trace_to_text(sim.run(budget)) for _, sim, budget in self._scenarios()]
        assert streamed == in_memory
        assert streamed[-1].splitlines() == CLASHING

    def test_reader_rounds_equal_the_parsed_trace_rounds(self):
        for topo, sim, budget in self._scenarios():
            trace = sim.run(budget)
            text = trace_to_text(trace)
            reader = TraceReader(text.splitlines(), topo.n)
            # the reader fills a list per tag; a Trace keeps tuples
            read = [Round(rnd.round, *map(tuple, rnd[1:])) for rnd in reader.by_round()]
            assert read == list(parse_trace(text).by_round())
            assert (reader.meta, reader.status, reader.rounds, reader.claimed_by) == \
                (trace.meta, trace.status, trace.rounds, trace.claimed_by)

    def test_streamed_verification_matches_in_memory_verification(self):
        for topo, sim, budget in self._scenarios():
            trace = sim.run(budget)
            reader = TraceReader(trace_to_text(trace).splitlines(), topo.n)
            assert verify_run(topo, reader).to_text() == verify_run(topo, trace).to_text()


def _read_all(lines, n):
    reader = TraceReader(lines, n)
    for _ in reader.by_round():
        pass


class TestTraceReaderRejects:
    def test_a_round_below_the_line_before(self, tmp_path):
        lines = list(CLASHING)
        last_round = int(lines[-2].split(" ")[1].removeprefix("round="))
        lines.insert(2, lines.pop(-2))  # the last event first
        below = rf"^line 4: round 0 after round {last_round}$"
        with pytest.raises(TraceFormatError, match=below):
            _read_all(lines, 45)
        # the whole-trace readers drain the same reader
        with pytest.raises(TraceFormatError, match=below):
            parse_trace("\n".join(lines))
        path = tmp_path / "moved.trace"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=below):
            read_trace(str(path))

    def test_a_meta_line_after_an_event(self):
        lines = list(CLASHING)
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(TraceFormatError, match=r"^line 2: the meta line must follow"):
            _read_all(lines, 45)
        with pytest.raises(TraceFormatError, match=r"^line 2: the meta line must follow"):
            parse_trace("\n".join(lines))

    def test_indices_outside_the_topology(self):
        lines = list(CLASHING)  # a trace of 45 processes, read as one of 10
        with pytest.raises(TraceFormatError) as raised:
            _read_all(lines, 10)
        k, field, index = re.fullmatch(r"line (\d+): (\w+) (\d+) is not in 1\.\.10",
                                       str(raised.value)).groups()
        k = int(k)
        _read_all(lines[:k - 1], 10)  # every line before the named one passes
        named = lines[k - 1]
        assert f" {field}={index} " in f"{named} " or (field == "process" and index in named)

    @pytest.mark.parametrize("damage,message", [
        (lambda line: line.replace('"root":1,', '"root":99,'), "root 99 is not in 1..3"),
        (lambda line: line.replace('"root":1,', ''), "root None is not in 1..3"),
        (lambda line: line.replace(',"start_round":0', ''), "start_round None is not an integer"),
        (lambda line: line.replace('"start_round":0', '"start_round":"0"'),
         "start_round '0' is not an integer"),
        (lambda line: line.replace('"color":2', '"color":"x"'), "color 'x' is not an integer"),
        (lambda line: re.sub(r"d1colors=\S+", 'd1colors="ab"', line),
         "d1colors 'ab' are not integers"),
        (lambda line: line.replace('"protocol":"seq_tree"', '"protocol":"bogus"'),
         "protocol 'bogus' is unknown"),
        (lambda line: line.replace('"protocol":"seq_tree"', '"protocol":["seq_tree"]'),
         "protocol ['seq_tree'] is not a name"),
        (lambda line: line.replace('"protocol":"seq_tree",', ''), "protocol None is not a name"),
    ])
    def test_values_of_the_wrong_type(self, damage, message):
        topo = builtin_topology("path3")
        lines = trace_to_text(run_seq(topo, 1)).splitlines()
        k = next(i for i, line in enumerate(lines) if damage(line) != line)
        lines[k] = damage(lines[k])
        with pytest.raises(TraceFormatError, match=rf"^line {k + 1}: {re.escape(message)}$"):
            _read_all(lines, topo.n)


# JSON-able values as the simulator's states hold them: nested dicts with unsorted, non-ASCII
# keys, tuples and lists, and ints beyond 64 bits either way
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12,
)
REFERENCE_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

MESSAGES = [
    Start(),
    ColorSeq(dest=20, sender=10, sender_cl=-1, d1colors=()),
    ColorSeq(dest=20, sender=10, sender_cl=0, d1colors=(2, 1)),
    TermSeq(dest=10, sender=20, sender_cl=1, max_d=3),
    ColorPar(pairs=((20, 1), (30, 2)), sender=10, sender_cl=-1, nb_cl_parent=3),
    ColorPar(pairs=(), sender=10, sender_cl=0, nb_cl_parent=1),
    TermPar(dest=10, sender=20, max_nb_cl=3),
    End(parent=10, max_cl=4),
    New(cl=2, delta=3, new_id=99),
    ColorArb(dest=20, sender=10, sender_cl=-1, proposed_color=1, d1colors=(-1,)),
    TermArb(dest=10, color=2, sender=20),
    Correct(dest=20, sender=10, color=3, d1colors=(0, 1)),
    CorrectedColor(dest1=20, dest2=30, sender=10, color=1),
    ResumeColoring(dest=20, sender=10),
]


def _message_lines(fields_text):
    """A trace whose X and B lines (lines 3 and 4) carry the message text fields_text."""
    return (f"format=d2trace/1\nmeta={{}}\nX round=0 target=1 {fields_text}\n"
            f"B round=0 origin=1 receivers=2 {fields_text}\nend status= rounds=1 claimed_by=None\n")


class TestCodec:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_encoder_gives_json_encoder_bytes(self, value):
        assert traceio._encode(value) == REFERENCE_ENCODE(value)
        # where json.encoder has no C encoder, the encoder is JSONEncoder's own
        assert traceio._make_encoder(None)(value) == REFERENCE_ENCODE(value)

    def test_every_message_class_is_covered(self):
        assert {type(msg) for msg in MESSAGES} == set(FIELD_NAMES)

    @pytest.mark.parametrize("msg", MESSAGES, ids=repr)
    def test_message_round_trip(self, msg):
        text = traceio._msg_text(msg)
        trace = parse_trace(_message_lines(text))
        assert [rec.message for rec in (*trace.externals, *trace.broadcasts)] == [msg, msg]
        assert trace_to_text(trace) == _message_lines(text)

    @pytest.mark.parametrize("msg", [m for m in MESSAGES if len(FIELD_NAMES[type(m)]) > 1],
                             ids=repr)
    def test_fields_in_another_order_parse_by_name(self, msg):
        kind, *fields = traceio._msg_text(msg).split(" ")
        shuffled = " ".join([kind, *reversed(fields)])
        trace = parse_trace(_message_lines(shuffled))
        assert [rec.message for rec in (*trace.externals, *trace.broadcasts)] == [msg, msg]

    @pytest.mark.parametrize("damage", [
        lambda fields: fields[:-1],  # the last field missing
        lambda fields: fields + ["extra=1"],
        lambda fields: fields[:1] + ["extra=1"] + fields[1:],
    ])
    @pytest.mark.parametrize("msg", [m for m in MESSAGES if FIELD_NAMES[type(m)]], ids=repr)
    def test_a_missing_or_extra_field_names_its_line(self, msg, damage):
        kind, *fields = traceio._msg_text(msg).split(" ")
        damaged = " ".join([kind, *damage(fields)])
        with pytest.raises(TraceFormatError, match=r"^line 3: "):
            parse_trace(_message_lines(damaged))
        lines = _message_lines(damaged).splitlines()
        del lines[2]  # the X line, so the B line is the first damaged one
        with pytest.raises(TraceFormatError, match=r"^line 3: "):
            parse_trace("\n".join(lines))

