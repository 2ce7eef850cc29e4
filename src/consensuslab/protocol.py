"""Single-process transition logic for crash-tolerant vector agreement.

A system of ``n >= 5`` processes (at most one may crash) agrees on an
n-slot vector of everyone's opaque input values, where at most one slot
may be left empty.  Each process broadcasts up to four messages, always
in this send order:

* ``INITIAL`` -- its own input value (seq 0),
* ``FIRST``   -- a proposal vector with exactly one empty slot (seq 1),
* ``SECOND``  -- a proposal vector with no empty slot (optional),
* ``FINAL``   -- the vector it finished the proposal stage with.

Everything here is deterministic and I/O-free: a :class:`Process` consumes
one message at a time and returns the broadcasts that message caused.
The network lives elsewhere (see :mod:`consensuslab.simulation`).
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .errors import MalformedMessage, ModelViolation, ProtocolViolation, SimulatorBug

MIN_PROCESSES = 5

# A vector slot is either an opaque byte string or None (the empty marker).
Slot = Optional[bytes]
Vector = tuple  # tuple[Slot, ...]


class MsgKind(IntEnum):
    INITIAL = 0
    FIRST = 1
    SECOND = 2
    FINAL = 3


KIND_NAMES = {k: k.name.lower() for k in MsgKind}
KIND_BY_NAME = {v: k for k, v in KIND_NAMES.items()}


class Phase(IntEnum):
    INITIAL = 0
    PROPOSALS = 1
    DECISION = 2
    DECIDED = 3


# Enum members bound once, in definition order: reading one off its class
# costs several times a global read, and a process step makes several.
# ``_COLLECTING`` is ``Phase.INITIAL``, the phase that collects initial values.
_INITIAL, _FIRST, _SECOND, _FINAL = MsgKind
_COLLECTING, _PROPOSALS, _DECISION, _DECIDED = Phase


class Message(NamedTuple):
    """One directed message. ``seq`` is the sender's send counter (0, 1, 2, ...).

    A named tuple: hashing and comparing one runs in C, and building one
    sets no attributes one by one.  The hash is that of the field tuple, as
    for a frozen dataclass.
    """

    sender: int
    dest: int
    seq: int
    kind: MsgKind
    payload: Union[bytes, Vector]


class Broadcast(NamedTuple):
    """One broadcast a process decided to make: same payload to all peers."""

    kind: MsgKind
    payload: Union[bytes, Vector]
    seq: int


@dataclass(frozen=True)
class Rules:
    """Toggles for the protocol's four load-bearing rules.

    All default to on; the explorer switches individual rules off to prove
    the property checkers actually notice broken protocols.
    """

    ordered_delivery: bool = True     # process per-sender messages in send order
    fill_on_gap_mismatch: bool = True  # answer a first proposal with a differing gap
    fill_on_second: bool = True        # answer any processed second proposal
    adopt_full_vector: bool = True     # upgrade a gapped result when a full one is seen

    def to_dict(self) -> dict:
        return {
            "ordered_delivery": self.ordered_delivery,
            "fill_on_gap_mismatch": self.fill_on_gap_mismatch,
            "fill_on_second": self.fill_on_second,
            "adopt_full_vector": self.adopt_full_vector,
        }


# ---------------------------------------------------------------------------
# Vector helpers and canonical encoding
# ---------------------------------------------------------------------------


def gap_indices(vec: Vector) -> list:
    return [i for i, s in enumerate(vec) if s is None]


def gap_index(vec: Vector) -> int:
    """Index of the single empty slot; raises if there is not exactly one."""
    gaps = vec.count(None)
    if gaps != 1:
        raise MalformedMessage(f"expected exactly one empty slot, found {gaps}")
    return vec.index(None)


def is_full(vec: Vector) -> bool:
    return None not in vec


def _enc_u32(x: int) -> bytes:
    return struct.pack(">I", x)


def encode_slot(slot: Slot) -> bytes:
    if slot is None:
        return b"\x00"
    return b"\x01" + _enc_u32(len(slot)) + slot


@lru_cache(maxsize=65536)
def _encode_vector_cached(vec: Vector) -> bytes:
    return bytes([len(vec)]) + b"".join(encode_slot(s) for s in vec)


def encode_vector(vec: Optional[Vector]) -> bytes:
    if vec is None:
        return b"\xff"
    return _encode_vector_cached(vec)


def decode_vector(data: bytes) -> Optional[Vector]:
    if data[:1] == b"\xff":
        return None
    try:
        n = data[0]
        slots = []
        i = 1
        for _ in range(n):
            tag = data[i]
            i += 1
            if tag == 0:
                slots.append(None)
            else:
                (length,) = struct.unpack(">I", data[i : i + 4])
                i += 4
                slots.append(data[i : i + length])
                i += length
    except (IndexError, struct.error) as exc:
        raise MalformedMessage("truncated vector encoding") from exc
    if i != len(data):
        raise MalformedMessage("trailing bytes in vector encoding")
    return tuple(slots)


def encode_payload(kind: MsgKind, payload) -> bytes:
    if kind == _INITIAL:
        return _enc_u32(len(payload)) + payload
    return encode_vector(payload)


# The repr of one field of a process's state image.  Fields recur across
# millions of images, so their reprs are cached.  ``typed`` keeps True and 1
# apart at the top level; below it a field holds no bool.
_field_repr = lru_cache(maxsize=65536, typed=True)(repr)


@lru_cache(maxsize=65536)
def encode_message(m: Message) -> bytes:
    return (
        _enc_u32(m.sender)
        + _enc_u32(m.dest)
        + _enc_u32(m.seq)
        + bytes([m.kind])
        + encode_payload(m.kind, m.payload)
    )


# ---------------------------------------------------------------------------
# Process
# ---------------------------------------------------------------------------


_new_tuple = tuple.__new__  # builds a named tuple without its Python-level __new__

# The fields of a process's state, in image order (see ``Process.state_key``);
# a named tuple hashes and compares as the plain tuple of its fields does.
StateKey = namedtuple(
    "StateKey",
    "pid n phase started second_sent sent_seq input output initial_count known_values next_seq"
    " reorder seen_seqs pending_proposals pending_finals first_proposal first_tally"
    " second_count second_value completion decision_entry final_slots final_count"
    " seen_full_final decided",
)


class Process:
    """State machine of one agreement participant.

    The owner feeds it with :meth:`ingest` (sequencing) followed by
    :meth:`process` (semantics) and materialises returned broadcasts into
    the message buffer.  A broadcast never includes a copy to the sender
    itself; all thresholds below count messages from *other* processes.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        value: bytes,
        rules: Rules = Rules(),
        final_quorum: Optional[int] = None,
    ):
        if n < MIN_PROCESSES:
            raise ModelViolation(f"need at least {MIN_PROCESSES} processes, got {n}")
        if not 0 <= pid < n:
            raise ModelViolation(f"process id {pid} out of range for n={n}")
        if not isinstance(value, (bytes, bytearray)):
            raise ModelViolation("input value must be bytes")
        self.pid = pid
        self.n = n
        self.input = bytes(value)
        self.rules = rules
        # Proposal-stage and decision-stage quorums: messages from n-2
        # distinct peers.  final_quorum is overridable to n-1 so the stricter
        # historical reading of the decision stage can be experimented with.
        self.quorum = n - 2
        self.final_quorum = final_quorum if final_quorum is not None else n - 2

        self.phase = _COLLECTING
        self.started = False
        self.sent_seq = 0
        self.output: Optional[Vector] = None

        self.known_values = {pid: self.input}
        self.initial_count = 0  # initial values received while still collecting

        # Every other process, in index order: the destinations of a broadcast.
        self.peers = tuple(j for j in range(n) if j != pid)

        # Per-sender sequencing state (the in-order processing rule).
        self.next_seq = dict.fromkeys(self.peers, 0)
        self.reorder: dict = {}  # (sender, seq) -> a message held until its turn
        self.seen_seqs: set = set()  # (sender, seq) delivered; unordered delivery only

        # Messages released by sequencing but ahead of our current phase.
        self.pending_proposals: list = []
        self.pending_finals: list = []

        self.first_proposal: Optional[Vector] = None
        self.second_sent = False
        self.second_value: Optional[Vector] = None
        self.first_tally: dict = {}
        self.second_count = 0

        self.completion: Optional[Vector] = None
        self.decision_entry: Optional[Vector] = None
        self.final_slots: list = [None] * n
        self.final_count = 0
        self.seen_full_final: Optional[Vector] = None
        self.decided: Optional[Vector] = None
        self._key: Optional[StateKey] = None  # cached state_key

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> list:
        """Kick off participation by broadcasting the own input value."""
        if self.started:
            raise ProtocolViolation(f"P{self.pid} started twice")
        self._key = None
        self.started = True
        return [self._broadcast(_INITIAL, self.input)]

    def _broadcast(self, kind: MsgKind, payload) -> Broadcast:
        b = Broadcast(kind, payload, self.sent_seq)
        self.sent_seq += 1
        return b

    # -- sequencing ---------------------------------------------------------

    def ingest(self, msg: Message) -> list:
        """Record an arrival and return the messages now processable.

        Messages from one sender are released strictly in send order
        (seq 0, 1, 2, ...); an out-of-order arrival waits in a reorder
        buffer.  Each sent message may be delivered at most once.
        """
        if msg.dest != self.pid:
            raise SimulatorBug(f"message for P{msg.dest} delivered to P{self.pid}")
        if msg.sender == self.pid:
            raise ModelViolation("no self-delivery: broadcasts skip the sender")
        self._key = None
        sender, seq = msg.sender, msg.seq
        if not self.rules.ordered_delivery:
            if (sender, seq) in self.seen_seqs:
                raise ModelViolation(f"duplicate delivery of seq {seq} from P{sender}")
            self.seen_seqs.add((sender, seq))
            return [msg]
        held = self.reorder
        expected = self.next_seq[sender]
        if seq != expected:
            # Every held seq is past its sender's next one.
            if seq < expected or (sender, seq) in held:
                raise ModelViolation(f"duplicate delivery of seq {seq} from P{sender}")
            held[sender, seq] = msg
            return []
        released = [msg]
        expected += 1
        while held and (sender, expected) in held:
            released.append(held.pop((sender, expected)))
            expected += 1
        self.next_seq[sender] = expected
        return released

    # -- semantics ----------------------------------------------------------

    def process(self, msg: Message) -> list:
        """Apply one released message; returns the broadcasts it caused.

        Proposal- and decision-stage messages that arrive before the
        matching phase has begun are parked and replayed, in release
        order, the moment the phase starts.
        """
        out: list = []
        self._key = None
        kind = msg.kind
        if kind == _INITIAL:
            self._on_initial(msg.sender, msg.payload, out)
        elif kind == _FIRST or kind == _SECOND:
            if self.phase < _PROPOSALS:
                self.pending_proposals.append(msg)
            elif kind == _FIRST:
                self._on_first(msg.payload, out)
            else:
                self._on_second(msg.payload, out)
        elif kind == _FINAL:
            if self.phase < _DECISION:
                self.pending_finals.append(msg)
            else:
                self._on_final(msg.sender, msg.payload, out)
        else:  # pragma: no cover - enum is closed
            raise SimulatorBug(f"unknown message kind {msg.kind}")
        return out

    def _on_initial(self, sender: int, value: bytes, out: list) -> None:
        self.known_values[sender] = value
        if self.phase != _COLLECTING:
            return  # late: recorded above, never counted
        self.initial_count += 1
        if self.initial_count == self.quorum:
            self.first_proposal = self.build_first_proposal()
            self._enter_proposals(out)

    def build_first_proposal(self) -> Vector:
        """Vector of all known values with one empty slot at the unknown index."""
        if len(self.known_values) != self.n - 1:
            raise ProtocolViolation(
                f"first proposal needs exactly {self.n - 1} known values, "
                f"have {len(self.known_values)}"
            )
        return tuple(self.known_values.get(i) for i in range(self.n))

    def _enter_proposals(self, out: list) -> None:
        self.phase = _PROPOSALS
        out.append(self._broadcast(_FIRST, self.first_proposal))
        pending, self.pending_proposals = self.pending_proposals, []
        for m in pending:
            if m.kind == _FIRST:
                self._on_first(m.payload, out)
            else:
                self._on_second(m.payload, out)

    def _on_first(self, vec: Vector, out: list) -> None:
        gap = gap_index(vec)  # malformed unless exactly one empty slot
        self.first_tally[vec] = self.first_tally.get(vec, 0) + 1
        if (
            self.rules.fill_on_gap_mismatch
            and not self.second_sent
            and gap != gap_index(self.first_proposal)
        ):
            self._send_second(vec, out)
        if self.phase == _PROPOSALS and self.first_tally[vec] == self.quorum:
            self._complete_proposals(vec, out)

    def _on_second(self, vec: Vector, out: list) -> None:
        if not is_full(vec):
            raise MalformedMessage("second proposal must not contain an empty slot")
        self._check_second_value(vec)
        self.second_count += 1
        if self.rules.fill_on_second and not self.second_sent:
            self._send_second(vec, out)
        if self.phase == _PROPOSALS and self.second_count == self.quorum:
            self._complete_proposals(vec, out)

    def _send_second(self, trigger: Vector, out: list) -> None:
        gap = gap_index(self.first_proposal)
        fill = trigger[gap]
        if fill is None:
            fill = self.known_values.get(gap)
        if fill is None:
            raise ProtocolViolation(f"P{self.pid} cannot fill slot {gap}")
        vec = self.first_proposal[:gap] + (fill,) + self.first_proposal[gap + 1 :]
        self._check_second_value(vec)
        self.second_sent = True
        out.append(self._broadcast(_SECOND, vec))

    def _check_second_value(self, vec: Vector) -> None:
        # Every second proposal in a run must carry the same full vector.
        if self.second_value is None:
            self.second_value = vec
        elif self.second_value != vec:
            raise ProtocolViolation(
                f"P{self.pid} saw two distinct second proposals: "
                f"{self.second_value!r} vs {vec!r}"
            )

    def _complete_proposals(self, vec: Vector, out: list) -> None:
        if self.phase != _PROPOSALS:
            raise ProtocolViolation("proposal completion outside the proposal phase")
        self.completion = vec
        self.decision_entry = vec
        self.phase = _DECISION
        self.final_slots[self.pid] = vec
        out.append(self._broadcast(_FINAL, vec))
        pending, self.pending_finals = self.pending_finals, []
        for m in pending:
            self._on_final(m.sender, m.payload, out)

    def _on_final(self, sender: int, vec: Vector, out: list) -> None:
        if vec.count(None) > 1:
            raise MalformedMessage("final vector must have at most one empty slot")
        self.final_slots[sender] = vec
        if self.phase != _DECISION:
            return  # already decided: recorded, never counted
        self.final_count += 1
        if is_full(vec) and self.seen_full_final is None:
            self.seen_full_final = vec
        if self.final_count == self.final_quorum:
            if (
                self.rules.adopt_full_vector
                and not is_full(self.completion)
                and self.seen_full_final is not None
            ):
                self.completion = self.seen_full_final
            self._decide(self.completion)

    def _decide(self, vec: Vector) -> None:
        if self.output is not None:
            raise ProtocolViolation(f"P{self.pid} attempted a second decision")
        self.decided = vec
        self.output = vec
        self.phase = _DECIDED

    # -- copying and canonical state ----------------------------------------

    def clone(self) -> "Process":
        """A copy of the state to step: the containers are copied, and every
        other field, the cached key included, holds an immutable value.
        Every field but the per-scenario constants is in ``state_key``."""
        c = Process.__new__(Process)
        c.__dict__.update(self.__dict__)
        c.known_values = dict(self.known_values)
        c.next_seq = dict(self.next_seq)
        c.reorder = dict(self.reorder)
        c.seen_seqs = set(self.seen_seqs)
        c.pending_proposals = list(self.pending_proposals)
        c.pending_finals = list(self.pending_finals)
        c.first_tally = dict(self.first_tally)
        c.final_slots = list(self.final_slots)
        return c

    def state_key(self) -> "StateKey":
        """The exact hashable key of the state, and its one list of fields:
        the explorer interns processes by it and ``canonical_bytes`` renders
        it.  Fields whose order is arbitrary are frozensets; ``next_seq``
        lists the next seq per peer in index order.  Cached between
        mutations."""
        if self._key is None:
            self._key = _new_tuple(StateKey, (
                self.pid, self.n, self.phase, self.started, self.second_sent, self.sent_seq,
                self.input, self.output, self.initial_count,
                frozenset(self.known_values.items()), tuple(self.next_seq.values()),
                frozenset(self.reorder.values()), frozenset(self.seen_seqs),
                tuple(self.pending_proposals), tuple(self.pending_finals),
                self.first_proposal, frozenset(self.first_tally.items()), self.second_count,
                self.second_value, self.completion, self.decision_entry,
                tuple(self.final_slots), self.final_count, self.seen_full_final, self.decided,
            ))
        return self._key

    def canonical_bytes(self) -> bytes:
        """Deterministic byte image of the state, from which
        ``Configuration.canonical_bytes`` and so every trace hash is derived:
        ``state_key`` rendered by ``_render``."""
        return _render(self.state_key())


@lru_cache(maxsize=16384)
def _render(key: StateKey) -> bytes:
    """The image of a process state from its key: the repr of the key with
    its sets sorted, held messages and delivered seqs grouped per peer,
    messages and tally vectors encoded, and the phase as an int.  Its
    leaves are ints, bytes and None, so equal states map to equal bytes on
    any interpreter, and two states share an image iff they share a key.
    Memoized by the key: a search meets each state many times."""
    peers = [j for j in range(key.n) if j != key.pid]
    held, seen = sorted(key.reorder), sorted(key.seen_seqs)  # by (sender, seq)
    image = key._replace(
        phase=int(key.phase),
        known_values=tuple(sorted(key.known_values)),
        next_seq=tuple(zip(peers, key.next_seq)),
        reorder=tuple([(j, tuple([encode_message(m) for m in held if m.sender == j]))
                       for j in peers]),
        seen_seqs=tuple([(j, tuple([q for s, q in seen if s == j])) for j in peers]),
        pending_proposals=tuple(map(encode_message, key.pending_proposals)),
        pending_finals=tuple(map(encode_message, key.pending_finals)),
        first_tally=tuple(sorted([(encode_vector(v), c) for v, c in key.first_tally])),
    )
    # The repr of the tuple, joined from the cached reprs of its fields.
    return ("(%s)" % ", ".join(map(_field_repr, image))).encode()
