"""Line-oriented trace file format.

One event per line with a fixed field order, so re-running a scenario yields
a byte-identical file and regressions show up as plain diffs.  The writer sorts
one round at a time; the reader decodes the JSON of _BATCH lines in one call.
"""

import gc
import json
import re
from collections import defaultdict

from .engine import BroadcastRecord, ClashEvent, ExternalRecord, StateChange, Trace
from .messages import make_message, message_fields

FORMAT = "d2trace/1"

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_BATCH = 4096


def _msg_text(msg) -> str:
    # str() of an exact int (not a bool) is its JSON text
    return " ".join([f"kind={msg.kind}"] + [f"{name}={v if type(v) is int else _encode(v)}"
                                            for name, v in message_fields(msg)])


# Renderers in the order a round's events are written; "\n" sorts below any character of a line.
_RENDER = (
    lambda ex: f"X round={ex.round} target={ex.target} {_msg_text(ex.message)}\n",
    lambda rec: (f"B round={rec.round} origin={rec.origin} "
                 f"receivers={','.join(map(str, rec.receivers))} {_msg_text(rec.message)}\n"),
    lambda ev: (f"C round={ev.round} victim={ev.victim} clash={ev.clash_kind} "
                f"participants={','.join(map(str, sorted(ev.participants)))}\n"),
    lambda ch: f"S round={ch.round} proc={ch.proc} state={_encode(ch.state)}\n",
)


def _lines(trace: Trace):
    """The trace's lines, events sorted by (round, tag, text)."""
    yield f"format={FORMAT}\nmeta={_encode(trace.meta)}\n"
    rounds = defaultdict(lambda: ([], [], [], []))
    for tag, recs in enumerate((trace.externals, trace.broadcasts, trace.clashes, trace.changes)):
        for rec in recs:
            rounds[rec.round][tag].append(rec)
    for rnd in sorted(rounds):
        for render, records in zip(_RENDER, rounds.pop(rnd)):
            yield from sorted(map(render, records))
    yield f"end status={trace.status} rounds={trace.rounds} claimed_by={trace.claimed_by}\n"


def trace_to_text(trace: Trace) -> str:
    return "".join(_lines(trace))


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_lines(trace))


class TraceFormatError(ValueError):
    pass


def _fields(text: str) -> str:
    """Message fields ` a=1 b=[2]`, no space or "=" in a value, as `{"a":1,"b":[2]}`."""
    return '{"' + text[1:].replace("=", '":').replace(" ", ',"') + "}" if text else "{}"


_INTS = r"(\d+(?:,\d+)*|)"
_MSG = r"kind=(\w+)((?: \w+=[^\s=]+)*)"
# Per tag: its lines' pattern, the JSON text of a line's fields, and what puts them, decoded, into
# the trace.  A state or meta that decodes as one value from {...} is a JSON object.
_LINE = {
    "meta": (re.compile(r"meta=(\{.*\})"), lambda meta: f"[{meta}]",
             lambda trace, meta: setattr(trace, "meta", meta)),
    "X": (re.compile(rf"X round=(\d+) target=(\d+) {_MSG}"),
          lambda rnd, target, kind, msg: f'[{rnd},{target},"{kind}",{_fields(msg)}]',
          lambda trace, rnd, target, kind, msg:
          trace.externals.append(ExternalRecord(rnd, target, make_message(kind, msg)))),
    "B": (re.compile(rf"B round=(\d+) origin=(\d+) receivers={_INTS} {_MSG}"),
          lambda rnd, origin, recv, kind, msg: f'[{rnd},{origin},[{recv}],"{kind}",{_fields(msg)}]',
          lambda trace, rnd, origin, recv, kind, msg: trace.broadcasts.append(
              BroadcastRecord(rnd, origin, make_message(kind, msg), tuple(recv)))),
    "C": (re.compile(rf"C round=(\d+) victim=(\d+) clash=(\w+) participants={_INTS}"),
          lambda rnd, victim, clash, parts: f'[{rnd},{victim},"{clash}",[{parts}]]',
          lambda trace, rnd, victim, clash, parts:
          trace.clashes.append(ClashEvent(rnd, victim, clash, frozenset(parts)))),
    "S": (re.compile(r"S round=(\d+) proc=(\d+) state=(\{.*\})"),
          lambda rnd, proc, state: f"[{rnd},{proc},{state}]",
          lambda trace, rnd, proc, state: trace.changes.append(StateChange(rnd, proc, state))),
    "end": (re.compile(r"end status=(\w*) rounds=(\d+) claimed_by=(?:None|(\d+))"),
            lambda status, rounds, claimed: f'["{status}",{rounds},{claimed or "null"}]',
            lambda trace, *end: vars(trace).update(zip(("status", "rounds", "claimed_by"), end))),
}


def _build(trace: Trace, queued: list, texts: list[str]) -> None:
    """Make the records of the queued lines, their JSON texts decoded in one json.loads call."""
    try:
        values = json.loads(f"[{','.join(texts)}]")
    except ValueError:
        values = []
    if len(values) != len(texts):  # a text is bad, or split at a top-level comma: find it
        for (number, _), text in zip(queued, texts):
            try:
                json.loads(text)
            except ValueError as exc:
                raise TraceFormatError(f"line {number}: {getattr(exc, 'msg', exc)} in JSON "
                                       f"{text[:60]!r}") from None
    for (number, make), fields in zip(queued, values):
        try:
            make(trace, *fields)
        except (TypeError, ValueError) as exc:  # a field missing or extra, or an unknown kind
            raise TraceFormatError(f"line {number}: {exc}") from None
    queued.clear(), texts.clear()


def _parse_lines(lines) -> Trace:
    trace = Trace()
    queued, texts = [], []  # (line number, maker) and JSON text of each line awaiting decoding
    numbered, number = enumerate(lines, 1), 0
    enabled = gc.isenabled()
    gc.disable()  # collecting while the records pile up would scan them again and again
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
            queued.append((number, make))
            texts.append(to_json(*match.groups()))
            if len(texts) == _BATCH:
                _build(trace, queued, texts)
        _build(trace, queued, texts)
    except UnicodeDecodeError as exc:  # the line after the last one read is not UTF-8
        raise TraceFormatError(f"line {number + 1}: {exc}") from None
    finally:
        if enabled:
            gc.enable()
    return trace


def parse_trace(text: str) -> Trace:
    return _parse_lines(text.splitlines())


def read_trace(path: str) -> Trace:
    with open(path, "rb") as fh:  # each line decoded on its own, so a decode error has a line
        return _parse_lines(map(bytes.decode, fh))
