"""Executable model of the asynchronous message system.

The message buffer is a multiset of sent-but-undelivered messages; a run
repeatedly lets a scheduler pick one deliverable entry and applies it
atomically: the destination releases whatever the sequencing rule allows,
processes it, and all resulting broadcasts are appended to the buffer
before the next pick.  A delivery is the only kind of step: FLP's receive
of the null message changes no state of this protocol, so it could never
change a verdict, only spend the event bound.

At most one process may crash.  The crash is anchored to the victim's own
broadcast sequence: before / during / after broadcasting a given message
kind.  A "during" crash places copies only for a chosen subset of
destinations.  Anchoring makes the injected fault deterministic for a
given schedule, so every run is replayable from its event list alone.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import ConfigError, SimulatorBug
from .protocol import (
    KIND_BY_NAME,
    KIND_NAMES,
    Message,
    MsgKind,
    Process,
    Rules,
    encode_message,
)

class CrashPoint(str, Enum):
    BEFORE = "before"
    DURING = "during"
    AFTER = "after"


# Enum members bound once: reading one off its class costs several times a
# global read, and the run loop tests the crash anchor on every broadcast.
_BEFORE, _DURING = CrashPoint.BEFORE, CrashPoint.DURING
_INITIAL = MsgKind.INITIAL


@dataclass(frozen=True, slots=True)
class CrashSpec:
    """One crash fault: victim dies around its own broadcast of ``kind``."""

    victim: int
    point: CrashPoint
    kind: MsgKind
    delivered_to: Optional[frozenset] = None  # required for DURING

    def validate(self, n: int) -> None:
        if not 0 <= self.victim < n:
            raise ConfigError(f"crash victim {self.victim} out of range")
        if self.point == _DURING:
            dests = self.delivered_to
            if not dests:
                raise ConfigError("a mid-broadcast crash must deliver to at least one process")
            if any(type(d) is not int for d in dests):
                raise ConfigError("delivered_to must list process ids")
            if self.victim in dests or any(not 0 <= d < n for d in dests):
                raise ConfigError("delivered_to must be a subset of the other processes")
            if len(dests) >= n - 1:
                raise ConfigError("a mid-broadcast crash must miss at least one process")
        elif self.delivered_to is not None:
            raise ConfigError("delivered_to only applies to mid-broadcast crashes")

    def to_dict(self) -> dict:
        d = {"victim": self.victim, "point": self.point.value, "kind": KIND_NAMES[self.kind]}
        if self.delivered_to is not None:
            d["delivered_to"] = sorted(self.delivered_to)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CrashSpec":
        return cls(
            victim=int(d["victim"]),
            point=CrashPoint(d["point"]),
            kind=KIND_BY_NAME[d["kind"]],
            delivered_to=(
                frozenset(d["delivered_to"]) if d.get("delivered_to") is not None else None
            ),
        )


class BufferEntry(NamedTuple):
    message: Message
    send_index: int


# Trace events ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Deliver:
    sender: int
    seq: int
    dest: int
    kind: MsgKind

    def to_dict(self) -> dict:
        return {
            "type": "deliver",
            "sender": self.sender,
            "seq": self.seq,
            "dest": self.dest,
            "kind": KIND_NAMES[self.kind],
        }


@dataclass(frozen=True, slots=True)
class CrashBite:
    """Marks the step at which the configured crash took effect."""

    victim: int
    point: CrashPoint
    kind: MsgKind

    def to_dict(self) -> dict:
        return {
            "type": "crash",
            "victim": self.victim,
            "point": self.point.value,
            "kind": KIND_NAMES[self.kind],
        }


def event_from_dict(d: dict):
    t = d["type"]
    if t == "deliver":
        return Deliver(int(d["sender"]), int(d["seq"]), int(d["dest"]), KIND_BY_NAME[d["kind"]])
    if t == "crash":
        return CrashBite(int(d["victim"]), CrashPoint(d["point"]), KIND_BY_NAME[d["kind"]])
    raise ConfigError(f"unknown trace event type {t!r}")


# Configuration ---------------------------------------------------------------


@dataclass
class Configuration:
    """All process states plus the message buffer; one node of the run graph."""

    processes: list
    buffer: dict = field(default_factory=dict)  # send_index -> BufferEntry
    # The buffer's entries whose destination has not crashed, in send order,
    # as the same objects: derived from ``buffer`` and never hashed, it is
    # the list the run loop hands its scheduler.
    enabled: list = field(default_factory=list)
    next_send_index: int = 0
    crashed: Optional[int] = None
    crash_pending: Optional[CrashSpec] = None
    event_count: int = 0
    shared: bool = False  # processes are shared with another configuration

    @property
    def n(self) -> int:
        return len(self.processes)

    def clone(self) -> "Configuration":
        # Copy-on-write: both configurations share the process objects until
        # one of them delivers a message, which replaces the one touched
        # process.  This keeps state-space branching cheap.  Every field
        # but the three containers holds an immutable value.
        self.shared = True
        c = Configuration.__new__(Configuration)
        c.__dict__.update(self.__dict__)
        c.processes = list(self.processes)
        c.buffer = dict(self.buffer)
        c.enabled = self.enabled.copy()
        return c

    def all_alive_decided(self) -> bool:
        return all(
            p.decided is not None for i, p in enumerate(self.processes) if i != self.crashed
        )

    def canonical_bytes(self) -> bytes:
        """Deterministic image of the configuration; see ``configuration_image``."""
        return configuration_image(
            [p.canonical_bytes() for p in self.processes], self.crashed,
            self.crash_pending is not None, [e.message for e in self.buffer.values()],
        )

    def config_hash(self) -> str:
        """Lowercase hex of the 64-bit canonical hash (used in traces)."""
        return hashlib.blake2b(self.canonical_bytes(), digest_size=8).hexdigest()

    def dedupe_digest(self) -> int:
        """128-bit blake2b digest of ``canonical_bytes``.  The explorer
        deduplicates by an exact key instead (see ``explore._Tables``)."""
        return int.from_bytes(
            hashlib.blake2b(self.canonical_bytes(), digest_size=16).digest(), "big"
        )


_BUFFER_ORDER = itemgetter(0, 2, 1)  # a message's (sender, seq, dest)
_SEND_INDEX = itemgetter(1)  # a buffer entry's send index
_new_tuple = tuple.__new__  # builds a named tuple without its Python-level __new__


def configuration_image(process_images: list, crashed: Optional[int], pending: bool,
                        messages: list) -> bytes:
    """The image of a configuration from its parts: the processes' images
    in pid order, the crashed process, whether a crash is still pending, and
    the buffered messages in any order.

    The buffer is keyed by (sender, seq, dest), not by send index, and the
    event count is excluded: configurations reached by different but
    equivalent histories collapse to the same image.
    """
    parts = list(process_images)
    parts.append(b"#%d#%d" % (-1 if crashed is None else crashed, pending))
    parts.extend(map(encode_message, sorted(messages, key=_BUFFER_ORDER)))
    return b"\x1e".join(parts)


def new_configuration(
    n: int,
    values: list,
    crash: Optional[CrashSpec] = None,
    rules: Rules = Rules(),
    final_quorum: Optional[int] = None,
) -> tuple:
    """Build the starting configuration and return it with its start events.

    Every process is started (broadcasting its input value) except a victim
    configured to die before that broadcast.
    """
    if len(values) != n:
        raise ConfigError(f"expected {n} input values, got {len(values)}")
    if crash is not None:
        crash.validate(n)
    cfg = Configuration(
        processes=[Process(i, n, values[i], rules=rules, final_quorum=final_quorum) for i in range(n)]
    )
    cfg.crash_pending = crash
    events = []
    for pid in range(n):
        spec = cfg.crash_pending
        if (
            spec is not None
            and spec.victim == pid
            and spec.point == _BEFORE
            and spec.kind == _INITIAL
        ):
            _crash(cfg, pid)
            events.append(CrashBite(pid, spec.point, spec.kind))
            continue
        broadcasts = cfg.processes[pid].start()
        events.extend(_materialize(cfg, pid, broadcasts))
    return cfg, events


def _materialize(cfg: Configuration, sender: int, broadcasts: list) -> list:
    """Append a process's broadcasts to the buffer, applying the crash anchor.

    Copies go to all other processes in destination-index order.  Returns
    the crash events that took effect (empty for a healthy sender).
    """
    events = []
    buffer, enabled, crashed = cfg.buffer, cfg.enabled, cfg.crashed
    index = cfg.next_send_index
    peers = cfg.processes[sender].peers
    for kind, payload, seq in broadcasts:
        spec = cfg.crash_pending
        dests, bite = _anchored(spec, sender, peers, kind)
        for d in dests:
            entry = buffer[index] = _new_tuple(
                BufferEntry, (_new_tuple(Message, (sender, d, seq, kind, payload)), index))
            if d != crashed:
                enabled.append(entry)
            index += 1
        if bite:
            _crash(cfg, sender)
            events.append(CrashBite(sender, spec.point, spec.kind))
            break  # the victim emits nothing further
    cfg.next_send_index = index
    return events


def _anchored(spec: Optional[CrashSpec], sender: int, peers: tuple, kind: MsgKind) -> tuple:
    """The destinations, in index order, of ``sender``'s broadcast of
    ``kind`` to ``peers`` while the crash ``spec`` is pending, and whether
    the crash bites at it (the victim then emits nothing further)."""
    if spec is None or spec.victim != sender or spec.kind != kind:
        return peers, False
    if spec.point == _DURING:
        return [d for d in peers if d in spec.delivered_to], True
    return (() if spec.point == _BEFORE else peers), True


def _crash(cfg: Configuration, victim: int) -> None:
    """Kill the victim: its inbound entries stay buffered but are disabled."""
    cfg.crashed = victim
    cfg.crash_pending = None
    cfg.enabled = [e for e in cfg.enabled if e.message.dest != victim]


def enabled_deliveries(cfg: Configuration) -> list:
    """Buffer entries whose destination can still take a step, in send
    order: a copy of ``cfg.enabled``, which the caller may change."""
    return cfg.enabled.copy()


def apply_deliver(cfg: Configuration, entry: BufferEntry) -> list:
    """Deliver one entry atomically; returns any crash events it triggered.

    The step of runs, replays and the explorer's chunk roots.  The
    explorer's transition table (``explore._Tables.step``) steps a clone of
    the one destination process instead, with the same crash anchor
    (``_anchored``).
    """
    message, at = entry
    if cfg.buffer.get(at) is not entry:
        raise SimulatorBug("delivery of an entry that is not in the buffer")
    dest = message.dest
    if dest == cfg.crashed:
        raise SimulatorBug("delivery to a crashed process")
    # The send-ordered enabled list holds the entry (its destination is
    # live); a binary search by send index finds it.
    enabled = cfg.enabled
    i = bisect_left(enabled, at, key=_SEND_INDEX)
    if i == len(enabled) or enabled[i] is not entry:
        raise SimulatorBug("the enabled list does not hold the delivered entry")
    del cfg.buffer[at]
    del enabled[i]
    proc = cfg.processes[dest]
    if cfg.shared:
        proc = cfg.processes[dest] = proc.clone()
    events = []
    for msg in proc.ingest(message):
        broadcasts = proc.process(msg)
        if broadcasts:
            events.extend(_materialize(cfg, dest, broadcasts))
            if cfg.crashed == dest:
                break  # victim died mid-step; it takes no further steps
    cfg.event_count += 1
    return events

