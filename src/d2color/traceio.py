"""Line-oriented trace file format.

One event per line with a fixed field order, so re-running a scenario yields
a byte-identical file and regressions show up as plain diffs.
"""

from __future__ import annotations

import json
import typing

from . import messages
from .engine import BroadcastRecord, ClashEvent, ExternalRecord, StateChange, Trace

FORMAT = "d2trace/1"

_MESSAGE_TYPES = {cls.kind: cls for cls in typing.get_args(messages.Message)}

_TUPLE_FIELDS = {"d1colors", "pairs"}


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _msg_text(msg) -> str:
    parts = [f"kind={msg.kind}"]
    for name, value in messages.message_fields(msg):
        parts.append(f"{name}={_dump(value)}")
    return " ".join(parts)


def trace_to_text(trace: Trace) -> str:
    lines = [f"format={FORMAT}", f"meta={_dump(trace.meta)}"]
    events: list[tuple[int, int, str]] = []
    for ex in trace.externals:
        events.append((ex.round, 0, f"X round={ex.round} target={ex.target} {_msg_text(ex.message)}"))
    for rec in trace.broadcasts:
        recv = ",".join(str(r) for r in rec.receivers)
        events.append(
            (rec.round, 1, f"B round={rec.round} origin={rec.origin} receivers={recv} {_msg_text(rec.message)}")
        )
    for ev in trace.clashes:
        parts = ",".join(str(p) for p in sorted(ev.participants))
        events.append(
            (ev.round, 2, f"C round={ev.round} victim={ev.victim} clash={ev.clash_kind} participants={parts}")
        )
    for ch in trace.changes:
        events.append((ch.round, 3, f"S round={ch.round} proc={ch.proc} state={_dump(ch.state)}"))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    lines.extend(text for _, _, text in events)
    lines.append(f"end status={trace.status} rounds={trace.rounds} claimed_by={trace.claimed_by}")
    return "\n".join(lines) + "\n"


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_text(trace))


class TraceFormatError(ValueError):
    pass


def _parse_msg(tokens: dict[str, str]):
    kind = tokens.pop("kind")
    cls = _MESSAGE_TYPES.get(kind)
    if cls is None:
        raise TraceFormatError(f"unknown message kind {kind!r}")
    kwargs = {}
    for name, raw in tokens.items():
        value = json.loads(raw)
        if name in _TUPLE_FIELDS and isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[name] = value
    return cls(**kwargs)


def _split_fields(line: str) -> dict[str, str]:
    # values never contain spaces: json uses compact separators
    out = {}
    for token in line.split(" "):
        key, _, value = token.partition("=")
        out[key] = value
    return out


def parse_trace(text: str) -> Trace:
    trace = Trace()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("format="):
        raise TraceFormatError("missing trace format header")
    if lines[0].split("=", 1)[1] != FORMAT:
        raise TraceFormatError(f"unsupported trace format {lines[0]!r}")
    for line in lines[1:]:
        if line.startswith("meta="):
            trace.meta = json.loads(line.split("=", 1)[1])
            continue
        tag, _, rest = line.partition(" ")
        fields = _split_fields(rest)
        if tag == "X":
            msg_fields = {
                k: v for k, v in fields.items() if k not in ("round", "target")
            }
            trace.externals.append(
                ExternalRecord(int(fields["round"]), int(fields["target"]), _parse_msg(msg_fields))
            )
        elif tag == "B":
            recv = tuple(int(v) for v in fields["receivers"].split(",") if v)
            msg_fields = {
                k: v for k, v in fields.items() if k not in ("round", "origin", "receivers")
            }
            trace.broadcasts.append(
                BroadcastRecord(int(fields["round"]), int(fields["origin"]), _parse_msg(msg_fields), recv)
            )
        elif tag == "C":
            parts = frozenset(int(v) for v in fields["participants"].split(",") if v)
            trace.clashes.append(
                ClashEvent(int(fields["round"]), int(fields["victim"]), fields["clash"], parts)
            )
        elif tag == "S":
            trace.changes.append(
                StateChange(int(fields["round"]), int(fields["proc"]), json.loads(fields["state"]))
            )
        elif tag == "end":
            trace.status = fields["status"]
            trace.rounds = int(fields["rounds"])
            claimed = fields["claimed_by"]
            trace.claimed_by = None if claimed == "None" else int(claimed)
        else:
            raise TraceFormatError(f"unknown trace line tag {tag!r}")
    return trace


def read_trace(path: str) -> Trace:
    with open(path, encoding="utf-8") as fh:
        return parse_trace(fh.read())
