"""Line-oriented trace file format.

One event per line with a fixed field order, so re-running a scenario yields
a byte-identical file and regressions show up as plain diffs.  The writers
render one round at a time and sort its lines; TraceWriter takes each round as
the engine finishes it.  There is one reader: TraceReader decodes the JSON of
_BATCH lines in one call and hands a file over one round at a time, and
read_trace and parse_trace keep every round it hands over in a Trace.
"""

import json
import re
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain

from .engine import (BroadcastRecord, ClashEvent, ExternalRecord, Round, StateChange, Trace,
                     gc_paused)
from .messages import FIELD_NAMES, make_message
from .verifier import PROMISES

FORMAT = "d2trace/1"

_BATCH = 1024


def _make_encoder(c_make_encoder):
    """The text JSONEncoder(sort_keys=True, separators=(",", ":")).encode gives, from a C
    encoder that c_make_encoder (json.encoder's) makes once; where that is None, from encode."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    if c_make_encoder is None:
        return encoder.encode
    # JSONEncoder.iterencode's arguments, less the cycle check: trace values hold no cycles
    encode = c_make_encoder(None, encoder.default, json.encoder.encode_basestring_ascii, None,
                            encoder.key_separator, encoder.item_separator, True, False, True)
    return lambda value: "".join(encode(value, 0))


_encode = _make_encoder(json.encoder.c_make_encoder)
# per message class: its text `kind=KIND name={} ...`, fields in class order, and their names
_MSG_FORMAT = {cls: (" ".join([f"kind={cls.kind}", *(f"{name}={{}}" for name in names)]), names)
               for cls, names in FIELD_NAMES.items()}


def _msg_text(msg) -> str:
    template, names = _MSG_FORMAT[type(msg)]
    # str() of an exact int (not a bool) is its JSON text
    return template.format(*[v if type(v) is int else _encode(v)
                             for v in map(msg.__getattribute__, names)])


# Renderers in the order a round's events are written; "\n" sorts below any character of a line.
_RENDER = (
    lambda ex: f"X round={ex.round} target={ex.target} {_msg_text(ex.message)}\n",
    lambda rec: (f"B round={rec.round} origin={rec.origin} "
                 f"receivers={','.join(map(str, rec.receivers))} {_msg_text(rec.message)}\n"),
    lambda ev: (f"C round={ev.round} victim={ev.victim} clash={ev.clash_kind} "
                f"participants={','.join(map(str, sorted(ev.participants)))}\n"),
    lambda ch: f"S round={ch.round} proc={ch.proc} state={_encode(ch.state)}\n",
)


def _header(meta: dict) -> str:
    return f"format={FORMAT}\nmeta={_encode(meta)}\n"


def _round_lines(rnd: Round) -> list[str]:
    """One round's lines, sorted by (tag, text)."""
    lines = []
    for render, records in zip(_RENDER, rnd[1:]):
        if records:
            lines += sorted(map(render, records))
    return lines


def _end(trace: Trace) -> str:
    return f"end status={trace.status} rounds={trace.rounds} claimed_by={trace.claimed_by}\n"


def _lines(trace: Trace):
    """The trace's lines, events sorted by (round, tag, text)."""
    yield _header(trace.meta)
    for rnd in trace.by_round():
        yield from _round_lines(rnd)
    yield _end(trace)


def trace_to_text(trace: Trace) -> str:
    return "".join(_lines(trace))


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_lines(trace))


class TraceWriter:
    """Writes a trace to an open text file one round at a time, in the bytes write_trace gives.

    write_round is meant as a Simulation's sink; end writes the end line from
    the trace's end fields, once the run and any join are over.
    """

    def __init__(self, fh, meta: dict):
        self._fh = fh
        fh.write(_header(meta))

    def write_round(self, rnd: Round) -> None:
        self._fh.writelines(_round_lines(rnd))

    def end(self, trace: Trace) -> None:
        self._fh.write(_end(trace))


class TraceFormatError(ValueError):
    pass


def _fields(text: str) -> str:
    """Message fields ` a=1 b=[2]`, no space, "=" or ":" in a value, as `{"a":1,"b":[2]},2`.

    With no ":" in a value, a value cannot hold a key of its own, so the text
    decodes only if each field's value is one JSON value.  The count after the
    object is of "=", one per field, so the object falls short of it when a
    name is given twice.
    """
    obj = '{"' + text[1:].replace("=", '":').replace(" ", ',"') + "}" if text else "{}"
    return f"{obj},{text.count('=')}"


def _message(kind: str, named: dict, count: int):
    if len(named) != count:  # named was decoded from count fields
        raise ValueError(f"a field of the {kind} message is named twice")
    return make_message(kind, named)


_INTS = r"(\d+(?:,\d+)*|)"
_MSG = r"kind=(\w+)((?: \w+=[^\s=:]+)*)"
# Per tag: its lines' pattern, the JSON text of a line's fields, and what a line's value is made
# from its fields, decoded.  A state or meta that decodes as one value from {...} is a JSON object.
_LINE = {
    "meta": (re.compile(r"meta=(\{.*\})"), lambda meta: f"[{meta}]", lambda meta: meta),
    "X": (re.compile(rf"X round=(\d+) target=(\d+) {_MSG}"),
          lambda rnd, target, kind, msg: f'[{rnd},{target},"{kind}",{_fields(msg)}]',
          lambda rnd, target, kind, msg, count:
          ExternalRecord(rnd, target, _message(kind, msg, count))),
    "B": (re.compile(rf"B round=(\d+) origin=(\d+) receivers={_INTS} {_MSG}"),
          lambda rnd, origin, recv, kind, msg: f'[{rnd},{origin},[{recv}],"{kind}",{_fields(msg)}]',
          lambda rnd, origin, recv, kind, msg, count:
          BroadcastRecord(rnd, origin, _message(kind, msg, count), tuple(recv))),
    "C": (re.compile(rf"C round=(\d+) victim=(\d+) clash=(\w+) participants={_INTS}"),
          lambda rnd, victim, clash, parts: f'[{rnd},{victim},"{clash}",[{parts}]]',
          lambda rnd, victim, clash, parts: ClashEvent(rnd, victim, clash, frozenset(parts))),
    "S": (re.compile(r"S round=(\d+) proc=(\d+) state=(\{.*\})"),
          lambda rnd, proc, state: f"[{rnd},{proc},{state}]", StateChange),
    "end": (re.compile(r"end status=(\w*) rounds=(\d+) claimed_by=(?:None|(\d+))"),
            lambda status, rounds, claimed: f'["{status}",{rounds},{claimed or "null"}]',
            lambda *end: end),
}
# where a round's records of each event tag go in a Round
_SLOT = {"X": 1, "B": 2, "C": 3, "S": 4}


def _build(queued: list, texts: list[str]) -> list[tuple]:
    """(line number, tag, value) of the queued lines, their JSON texts decoded in one call."""
    try:
        values = json.loads(f"[{','.join(texts)}]")
    except ValueError:
        values = []
    if len(values) != len(texts):  # a text is bad, or split at a top-level comma: find it
        for (number, _, _), text in zip(queued, texts):
            try:
                json.loads(text)
            except ValueError as exc:
                raise TraceFormatError(f"line {number}: {getattr(exc, 'msg', exc)} in JSON "
                                       f"{text[:60]!r}") from None
    built = []
    for (number, tag, make), fields in zip(queued, values):
        try:
            built.append((number, tag, make(*fields)))
        except (TypeError, ValueError) as exc:  # a field missing or extra, or an unknown kind
            raise TraceFormatError(f"line {number}: {exc}") from None
    queued.clear(), texts.clear()
    return built


def _batches(lines):
    """Lists of (line number, tag, value), one per line after the format line, in file order.

    The value of an event line is its record, of a meta line its dict, and of
    the end line its (status, rounds, claimed_by).
    """
    queued, texts = [], []  # (line number, tag, maker) and JSON text of each line awaiting decoding
    numbered, number = enumerate(lines, 1), 0
    try:
        number, header = next(numbered, (1, ""))
        if (header := header.rstrip()) != f"format={FORMAT}":
            raise TraceFormatError(f"line 1: expected format={FORMAT}, found {header[:60]!r}")
        for number, line in numbered:
            if not (line := line.rstrip()):
                continue
            tag = line.partition(" ")[0]
            if tag not in _LINE and (tag := tag.partition("=")[0]) not in _LINE:
                raise TraceFormatError(f"line {number}: unknown trace line tag {tag!r}")
            pattern, to_json, make = _LINE[tag]
            if (match := pattern.fullmatch(line)) is None:
                raise TraceFormatError(f"line {number}: malformed {tag} line {line[:60]!r}")
            queued.append((number, tag, make))
            texts.append(to_json(*match.groups()))
            if len(texts) == _BATCH:
                yield _build(queued, texts)
        yield _build(queued, texts)
    except UnicodeDecodeError as exc:  # the line after the last one read is not UTF-8
        raise TraceFormatError(f"line {number + 1}: {exc}") from None


class TraceReader:
    """A trace read one round at a time; it holds one round's records, never the whole trace.

    lines are the file's lines, as text.  meta is read on creation, from the
    line after the format line, which must be a meta line.  by_round() yields
    the rounds, which must not decrease from one line to the next, and can be
    run once; once it is exhausted, status, rounds and claimed_by hold the end
    line's fields.  A round raised by damage shows only at the line after it.
    n, when given, is the topology's process count, and the fields the
    verifier reads are checked against it: the meta's root and every broadcast
    origin, clash victim and participant and state-change proc lie in 1..n,
    the meta's start_round, a state's color and a COLOR_SEQ's d1colors are
    integers, and the meta's protocol is one the verifier knows (a key of
    verifier.PROMISES).  A meta without a root, a start_round or a protocol is
    refused, as the bounds depend on all three.  Every fault raises
    TraceFormatError naming its line.
    """

    def __init__(self, lines, n: int | None = None):
        self._n = n
        self.status, self.rounds, self.claimed_by = "", 0, None
        self._records = chain.from_iterable(_batches(lines))
        first = next(self._records, None)
        if first is None or first[1] != "meta":
            raise TraceFormatError("line 2: the meta line must follow the format line")
        number, _, self.meta = first
        if n is not None and (problem := _meta_problem(self.meta, n)):
            raise TraceFormatError(f"line {number}: {problem}")

    def by_round(self) -> Iterator[Round]:
        n, rnd = self._n, None
        for number, tag, value in self._records:
            if tag == "end":
                self.status, self.rounds, self.claimed_by = value
                continue
            if tag == "meta":
                raise TraceFormatError(f"line {number}: the meta line must follow the format line")
            if rnd is None or value.round != rnd.round:
                if rnd is not None:
                    if value.round < rnd.round:
                        raise TraceFormatError(
                            f"line {number}: round {value.round} after round {rnd.round}")
                    yield rnd
                rnd = Round(value.round, [], [], [], [])
            if n is not None and (problem := _field_problem(tag, value, n)):
                raise TraceFormatError(f"line {number}: {problem}")
            rnd[_SLOT[tag]].append(value)
        if rnd is not None:
            yield rnd


@contextmanager
def open_trace(path: str, n: int | None = None) -> Iterator[TraceReader]:
    """A TraceReader over the trace file at path, open for the with block."""
    with open(path, "rb") as fh:  # each line decoded on its own, so a decode error has a line
        yield TraceReader(map(bytes.decode, fh), n)


def _whole(reader: TraceReader) -> Trace:
    """The Trace of all the reader's rounds."""
    trace = Trace(reader.meta)
    with gc_paused():
        for rnd in reader.by_round():
            trace.add_round(rnd)
    trace.status, trace.rounds, trace.claimed_by = reader.status, reader.rounds, reader.claimed_by
    return trace


def parse_trace(text: str) -> Trace:
    return _whole(TraceReader(text.splitlines()))


def read_trace(path: str) -> Trace:
    with open_trace(path) as reader:
        return _whole(reader)


def _meta_problem(meta: dict, n: int) -> str | None:
    root, start = meta.get("root"), meta.get("start_round")
    if type(root) is not int or not 1 <= root <= n:
        return f"root {root!r} is not in 1..{n}"
    if type(start) is not int:
        return f"start_round {start!r} is not an integer"
    protocol = meta.get("protocol")
    if not isinstance(protocol, str):
        return f"protocol {protocol!r} is not a name"
    if protocol not in PROMISES:
        return f"protocol {protocol!r} is unknown"
    return None


def _field_problem(tag: str, rec, n: int) -> str | None:
    """What is wrong with the fields of an event record that the verifier reads, if anything."""
    if tag == "S":
        if not 1 <= rec.proc <= n:
            return f"proc {rec.proc} is not in 1..{n}"
        color = rec.state.get("color")
        if color is not None and type(color) is not int:
            return f"color {color!r} is not an integer"
    elif tag == "B":
        if not 1 <= rec.origin <= n:
            return f"origin {rec.origin} is not in 1..{n}"
        if rec.message.kind == "COLOR_SEQ":
            colors = rec.message.d1colors
            if type(colors) is not tuple or any(type(c) is not int for c in colors):
                return f"d1colors {colors!r} are not integers"
    elif tag == "C":
        for index in (rec.victim, *sorted(rec.participants)):
            if not 1 <= index <= n:
                return f"process {index} is not in 1..{n}"
    return None
