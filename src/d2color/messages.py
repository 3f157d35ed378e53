"""Wire message types shared by the engine and the protocol state machines.

Color fields hold non-negative integers, with two exceptions.  A message that
a root builds for itself on START carries the fictitious parent color -1 as
its sender_cl.  arbitrary's root records that -1 in its d1colors and
broadcasts it, as the table1 replay pins (d1colors=(-1,)).
Palettes enumerate non-negative integers only, so -1 can never be selected.
"""

from __future__ import annotations

import itertools
import math
import typing
from collections.abc import Iterator
from dataclasses import dataclass, fields

@dataclass(frozen=True, slots=True)
class Start:
    kind = "START"


@dataclass(frozen=True, slots=True)
class ColorSeq:
    kind = "COLOR_SEQ"
    dest: int
    sender: int
    sender_cl: int
    d1colors: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class TermSeq:
    kind = "TERM_SEQ"
    dest: int
    sender: int
    sender_cl: int
    max_d: int


@dataclass(frozen=True, slots=True)
class ColorPar:
    kind = "COLOR_PAR"
    pairs: tuple[tuple[int, int], ...]  # (identity, color), ascending identity
    sender: int
    sender_cl: int
    nb_cl_parent: int


@dataclass(frozen=True, slots=True)
class TermPar:
    kind = "TERM_PAR"
    dest: int
    sender: int
    max_nb_cl: int


@dataclass(frozen=True, slots=True)
class End:
    kind = "END"
    parent: int
    max_cl: int


@dataclass(frozen=True, slots=True)
class New:
    kind = "NEW"
    cl: int
    delta: int
    new_id: int


@dataclass(frozen=True, slots=True)
class ColorArb:
    kind = "COLOR_ARB"
    dest: int
    sender: int
    sender_cl: int
    proposed_color: int
    d1colors: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class TermArb:
    kind = "TERM_ARB"
    dest: int
    color: int
    sender: int


@dataclass(frozen=True, slots=True)
class Correct:
    kind = "CORRECT"
    dest: int
    sender: int
    color: int
    d1colors: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class CorrectedColor:
    kind = "CORRECTED_COLOR"
    dest1: int
    dest2: int
    sender: int
    color: int


@dataclass(frozen=True, slots=True)
class ResumeColoring:
    kind = "RESUME_COLORING"
    dest: int
    sender: int


Message = (
    Start
    | ColorSeq
    | TermSeq
    | ColorPar
    | TermPar
    | End
    | New
    | ColorArb
    | TermArb
    | Correct
    | CorrectedColor
    | ResumeColoring
)


def free_colors(excluded) -> Iterator[int]:
    """The non-negative integers outside the excluded set, ascending."""
    taken = set(excluded)
    return (c for c in itertools.count() if c not in taken)


def first_free_color(excluded) -> int:
    """Smallest non-negative integer outside the excluded set."""
    return next(free_colors(excluded))


_BY_KIND = {cls.kind: cls for cls in typing.get_args(Message)}
FIELD_NAMES = {cls: tuple(f.name for f in fields(cls)) for cls in _BY_KIND.values()}


def make_message(kind: str, named: dict) -> Message:
    """The message of this kind from its field values, by field name.

    Lists, and lists inside them, become the tuples a message holds.
    """
    cls = _BY_KIND.get(kind)
    if cls is None:
        raise ValueError(f"unknown message kind {kind!r}")
    return cls(**{name: _tuples(value) for name, value in named.items()})


def _tuples(value):
    if not isinstance(value, list):
        return value
    return tuple(tuple(v) if isinstance(v, list) else v for v in value)


def color_seq_bits(msg: ColorSeq, n: int, delta: int) -> int:
    """Accounting-model encoded size of a COLOR_SEQ broadcast.

    Two identities at ceil(log2 n) bits each, plus one color slot for the
    sender color and one per carried neighbor color at ceil(log2(delta+1))
    bits each.
    """
    return _color_seq_size(n, delta, 1 + len(msg.d1colors))


def color_seq_bits_bound(n: int, delta: int) -> int:
    """Accounting-model bound: 2*log2(n) identity bits + delta color slots."""
    return _color_seq_size(n, delta, delta)


def _color_seq_size(n: int, delta: int, color_slots: int) -> int:
    id_bits = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    color_bits = max(1, math.ceil(math.log2(delta + 1))) if delta > 0 else 1
    return 2 * id_bits + color_slots * color_bits
