"""Delivery schedulers: scripted replay, seeded random, and an adversary.

A scheduler picks the next event among the enabled ones.  All three are
deterministic functions of their construction arguments, which is what
makes traces replayable.

``next(cfg, delivers)`` gets, as ``delivers``, the configuration's own
send-ordered list of enabled entries (``cfg.enabled``), not a copy.  A
scheduler reads it and returns one of its entries, or None; it never
mutates it.

The fairness guard forces the oldest enabled entry once any entry has
waited more than ``fairness_bound`` picks, so every message to a live
process is delivered eventually.  An entry waits from the first pick after
its send (a crash only ever disables entries), which never decreases as
the send index grows: the first entry of the send-ordered enabled list is
overdue whenever any entry is.  So the guard keeps only the buffer's next
send index at each of the last ``fairness_bound + 2`` picks: constant work
per pick and memory bounded by the fairness bound, not by the buffer.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Optional

from .errors import SimulatorBug
from .protocol import MsgKind
from .scenario import DEFAULT_FAIRNESS_BOUND, SchedulerSpec
from .simulation import Configuration


def _overdue(marks: deque, cfg: Configuration, delivers: list) -> bool:
    """Record this pick's send-index mark; is the oldest enabled entry overdue?

    A full ``marks`` starts with the mark of the pick ``fairness_bound + 1``
    picks ago; entries sent before it have waited longer than the bound."""
    marks.append(cfg.next_send_index)
    return len(marks) == marks.maxlen and delivers[0].send_index < marks[0]


class ScriptedScheduler:
    """Replays a fixed list of events.

    Script items are ``("deliver", sender, kind, dest)`` (kind as MsgKind or
    its lowercase name) or ``("deliver_seq", sender, seq, dest)`` for
    replayed traces.  A script item that matches no enabled event, or is
    left when nothing is enabled, is a hard error: the script is wrong, not
    the simulator.

    With ``drain_rest`` the scheduler keeps delivering leftover entries in
    send order after the script is exhausted, so scripted scenarios end
    with every sent message to a live process delivered.
    """

    name = "scripted"

    def __init__(self, script: list, drain_rest: bool = False):
        self.script = list(script)
        self.drain_rest = drain_rest
        self.pos = 0

    def next(self, cfg: Configuration, delivers: list):
        if self.pos >= len(self.script):
            if self.drain_rest and delivers:
                return delivers[0]
            return None
        item = self.script[self.pos]
        self.pos += 1
        tag = item[0]
        # A message key, (sender, kind, dest) or (sender, seq, dest), names at
        # most one buffered message, so the first match is the only one.
        if tag == "deliver":
            _, sender, kind, dest = item
            if isinstance(kind, str):
                kind = MsgKind[kind.upper()]
            for e in delivers:
                m = e.message
                if m.sender == sender and m.kind == kind and m.dest == dest:
                    return e
        elif tag == "deliver_seq":
            _, sender, seq, dest = item
            for e in delivers:
                m = e.message
                if m.sender == sender and m.seq == seq and m.dest == dest:
                    return e
        else:
            raise SimulatorBug(f"unknown script item {item!r}")
        raise SimulatorBug(f"script step {self.pos - 1} {item!r} matched 0 enabled events")


class SeededRandomScheduler:
    """Uniform random choice from a deterministic stream, with a fairness guard.

    Random runs stay admissible while remaining free to reorder
    aggressively below the fairness bound.
    """

    name = "seeded-random"

    def __init__(self, seed: int, fairness_bound: int = DEFAULT_FAIRNESS_BOUND):
        self.seed = seed
        self.fairness_bound = fairness_bound
        self.rng = random.Random(seed)
        self.marks = deque(maxlen=fairness_bound + 2)

    def next(self, cfg: Configuration, delivers: list):
        if not delivers:
            return None
        if _overdue(self.marks, cfg, delivers):
            return delivers[0]
        # randrange(k) as Random._randbelow draws it, bit for bit the same
        # stream: k.bit_length() random bits, redrawn while >= k.
        k = len(delivers)
        getrandbits = self.rng.getrandbits
        bits = k.bit_length()
        r = getrandbits(bits)
        while r >= k:
            r = getrandbits(bits)
        return delivers[r]


class AdversarialLifoScheduler:
    """Prefers the newest entries and starves one process's outbound traffic.

    The starved process's messages are only delivered when the fairness
    bound forces them, modelling a slow process or slow outbound links.
    """

    name = "adversarial-lifo"

    def __init__(self, starve: Optional[int] = None, fairness_bound: int = DEFAULT_FAIRNESS_BOUND):
        self.starve = starve
        self.fairness_bound = fairness_bound
        self.marks = deque(maxlen=fairness_bound + 2)

    def next(self, cfg: Configuration, delivers: list):
        if not delivers:
            return None
        if _overdue(self.marks, cfg, delivers):
            return delivers[0]
        # The newest entry not from the starved process, else the newest.
        return next((e for e in reversed(delivers) if e.message.sender != self.starve), delivers[-1])


def scheduler_from_spec(spec: SchedulerSpec):
    """Build the scheduler a validated scenario's ``scheduler`` field describes."""
    if spec.type == "seeded-random":
        return SeededRandomScheduler(spec.seed, spec.fairness_bound)
    if spec.type == "adversarial-lifo":
        return AdversarialLifoScheduler(spec.starve, spec.fairness_bound)
    if spec.type == "scripted":
        return ScriptedScheduler(spec.script, spec.drain_rest)
    raise SimulatorBug(f"unknown scheduler type {spec.type!r}")
