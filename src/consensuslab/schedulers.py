"""Delivery schedulers: scripted replay, seeded random, and an adversary.

A scheduler picks the next event among the enabled ones.  All three are
deterministic functions of their construction arguments, which is what
makes traces replayable.

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
from .simulation import Configuration, ReceiveEmpty

DEFAULT_FAIRNESS_BOUND = 64


def _overdue(marks: deque, cfg: Configuration, delivers: list) -> bool:
    """Record this pick's send-index mark; is the oldest enabled entry overdue?

    A full ``marks`` starts with the mark of the pick ``fairness_bound + 1``
    picks ago; entries sent before it have waited longer than the bound."""
    marks.append(cfg.next_send_index)
    return len(marks) == marks.maxlen and delivers[0].send_index < marks[0]


class ScriptedScheduler:
    """Replays a fixed list of events.

    Script items are ``("deliver", sender, kind, dest)`` (kind as MsgKind or
    its lowercase name), ``("deliver_seq", sender, seq, dest)`` for replayed
    traces, or ``("empty", dest)``.  A script item that matches no enabled
    event is a hard error: the script is wrong, not the simulator.

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
        if tag == "empty":
            return ReceiveEmpty(int(item[1]))
        if tag == "deliver":
            _, sender, kind, dest = item
            if isinstance(kind, str):
                kind = MsgKind[kind.upper()]
            matches = [
                e
                for e in delivers
                if e.message.sender == sender
                and e.message.kind == kind
                and e.message.dest == dest
            ]
        elif tag == "deliver_seq":
            _, sender, seq, dest = item
            matches = [
                e
                for e in delivers
                if e.message.sender == sender and e.message.seq == seq and e.message.dest == dest
            ]
        else:
            raise SimulatorBug(f"unknown script item {item!r}")
        if len(matches) != 1:
            raise SimulatorBug(
                f"script step {self.pos - 1} {item!r} matched {len(matches)} enabled events"
            )
        return matches[0]


class SeededRandomScheduler:
    """Uniform random choice from a deterministic stream, with a fairness guard.

    Random runs stay admissible while remaining free to reorder
    aggressively below the fairness bound.
    """

    name = "seeded-random"

    def __init__(
        self,
        seed: int,
        fairness_bound: int = DEFAULT_FAIRNESS_BOUND,
        empty_probability: float = 0.0,
        empty_limit: int = 0,
    ):
        self.seed = seed
        self.fairness_bound = fairness_bound
        self.empty_probability = empty_probability
        self.empty_limit = empty_limit
        self.rng = random.Random(seed)
        self.marks = deque(maxlen=fairness_bound + 2)

    def next(self, cfg: Configuration, delivers: list):
        if not delivers:
            return None
        if _overdue(self.marks, cfg, delivers):
            return delivers[0]
        if self.empty_probability > 0.0 and self.rng.random() < self.empty_probability:
            dests = sorted(
                {
                    e.message.dest
                    for e in delivers
                    if cfg.empties_used.get(e.message.dest, 0) < self.empty_limit
                }
            )
            if dests:
                return ReceiveEmpty(self.rng.choice(dests))
        return delivers[self.rng.randrange(len(delivers))]


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


def scheduler_from_spec(spec: dict):
    """Build a scheduler from its descriptor (the header's ``scheduler`` field)."""
    kind = spec.get("type", "seeded-random")
    if kind == "seeded-random":
        return SeededRandomScheduler(
            seed=int(spec.get("seed", 0)),
            fairness_bound=int(spec.get("fairness_bound", DEFAULT_FAIRNESS_BOUND)),
            empty_probability=float(spec.get("empty_probability", 0.0)),
            empty_limit=int(spec.get("empty_limit", 0)),
        )
    if kind == "adversarial-lifo":
        return AdversarialLifoScheduler(
            starve=spec.get("starve"),
            fairness_bound=int(spec.get("fairness_bound", DEFAULT_FAIRNESS_BOUND)),
        )
    if kind == "scripted":
        return ScriptedScheduler(spec.get("script", []), drain_rest=bool(spec.get("drain_rest")))
    raise SimulatorBug(f"unknown scheduler type {kind!r}")
