"""Spans around the program's public functions, hooked from outside the program.

A hook replaces a function on the module or class where its callers look it
up, so `from .topology import metrics` inside `d2color.cli` needs its own
hook on `d2color.cli`.  Each span adds its self time (its length minus the
time its child spans cover) to its layer, so the layers of one pass add up to
the time the pass spent inside the program.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # child time of each open span, innermost last
        self._open: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def hook(self, owner, attr: str, layer: str, only_under: str | None = None) -> None:
        """Time `owner.attr` as `layer`; with `only_under`, only inside that layer."""
        original = getattr(owner, attr)
        tracer = self

        def spanned(*args, **kwargs):
            if only_under is not None and (not tracer._open or tracer._open[-1] != only_under):
                return original(*args, **kwargs)
            tracer._children.append(0.0)
            tracer._open.append(layer)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                length = time.perf_counter() - start
                tracer._open.pop()
                tracer.self_s[layer] += length - tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += length

        setattr(owner, attr, spanned)
        self._undo.append((owner, attr, original))

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of `owner.attr` under `counter`, without timing them."""
        original = getattr(owner, attr)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def take(self) -> dict[str, float]:
        """Self time per layer since the last call, then start afresh."""
        out = dict(self.self_s)
        self.self_s.clear()
        return out

    def unhook_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
