"""Unit tests for the single-process transition logic."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensuslab.errors import (
    MalformedMessage,
    ModelViolation,
    ProtocolViolation,
)
from consensuslab.protocol import (
    Message,
    MsgKind,
    Phase,
    Process,
    Rules,
    StateKey,
    decode_vector,
    encode_vector,
)
from consensuslab.scenario import Scenario, default_values
from consensuslab.trace import run_raw

V = [bytes([i + 1]) for i in range(5)]


def msg(sender, dest, seq, kind, payload):
    return Message(sender, dest, seq, kind, payload)


def fresh(pid=0, n=5):
    return Process(pid, n, V[pid])


def feed(proc, message):
    """ingest + process every released message; returns all broadcasts."""
    out = []
    for m in proc.ingest(message):
        out.extend(proc.process(m))
    return out


def feed_initials(proc, senders):
    out = []
    for i, s in enumerate(senders):
        out.extend(feed(proc, msg(s, proc.pid, 0, MsgKind.INITIAL, V[s])))
    return out


class TestConstruction:
    def test_initial_state(self):
        p = fresh(0)
        assert p.phase == Phase.INITIAL
        assert p.known_values == {0: V[0]}
        assert p.output is None

    def test_next_seq_starts_at_zero(self):
        p = fresh(4)
        assert all(p.next_seq[j] == 0 for j in range(4))

    def test_too_few_processes_rejected(self):
        with pytest.raises(ModelViolation):
            Process(0, 4, V[0])

    def test_pid_out_of_range_rejected(self):
        with pytest.raises(ModelViolation):
            Process(5, 5, V[0])


class TestStart:
    def test_start_broadcasts_input(self):
        p = fresh(0)
        (b,) = p.start()
        assert b.kind == MsgKind.INITIAL
        assert b.payload == V[0]
        assert b.seq == 0

    def test_double_start_rejected(self):
        p = fresh(0)
        p.start()
        with pytest.raises(ProtocolViolation):
            p.start()


class TestOrderedDelivery:
    def test_out_of_order_held_back(self):
        p = fresh(0)
        first = msg(1, 0, 1, MsgKind.FIRST, (V[0], V[1], V[2], V[3], None))
        assert p.ingest(first) == []

    def test_release_in_send_order(self):
        p = fresh(0)
        first = msg(1, 0, 1, MsgKind.FIRST, (V[0], V[1], V[2], V[3], None))
        initial = msg(1, 0, 0, MsgKind.INITIAL, V[1])
        assert p.ingest(first) == []
        released = p.ingest(initial)
        assert [m.seq for m in released] == [0, 1]

    def test_in_order_released_immediately(self):
        p = fresh(0)
        initial = msg(1, 0, 0, MsgKind.INITIAL, V[1])
        assert p.ingest(initial) == [initial]

    def test_duplicate_rejected(self):
        p = fresh(0)
        initial = msg(1, 0, 0, MsgKind.INITIAL, V[1])
        p.ingest(initial)
        with pytest.raises(ModelViolation):
            p.ingest(initial)

    def test_self_delivery_rejected(self):
        p = fresh(0)
        with pytest.raises(ModelViolation):
            p.ingest(msg(0, 0, 0, MsgKind.INITIAL, V[0]))

    @given(st.permutations(list(range(4))))
    @settings(max_examples=50, deadline=None)
    def test_any_arrival_order_releases_in_seq_order(self, order):
        p = fresh(0, 5)
        prop = (V[0], V[1], V[2], V[3], None)
        msgs = [
            msg(1, 0, 0, MsgKind.INITIAL, V[1]),
            msg(1, 0, 1, MsgKind.FIRST, prop),
            msg(1, 0, 2, MsgKind.SECOND, tuple(V)),
            msg(1, 0, 3, MsgKind.FINAL, tuple(V)),
        ]
        released = []
        for idx in order:
            released.extend(m.seq for m in p.ingest(msgs[idx]))
        assert released == [0, 1, 2, 3]


class TestProposalBuilding:
    def test_quorum_of_initials_triggers_first_proposal(self):
        # Mirrors the first printed walkthrough: the process holding
        # v4 plus v0, v1, v4's neighbour values proposes with one gap.
        p = fresh(3)
        out = feed_initials(p, [0, 1, 4])
        assert p.phase == Phase.PROPOSALS
        (b,) = out
        assert b.kind == MsgKind.FIRST
        assert b.payload == (V[0], V[1], None, V[3], V[4])

    def test_standard_shape(self):
        p = fresh(1)
        out = feed_initials(p, [0, 2, 3])
        assert out[0].payload == (V[0], V[1], V[2], V[3], None)

    def test_late_initial_recorded_but_not_counted(self):
        p = fresh(0)
        feed_initials(p, [1, 2, 3])
        assert p.phase == Phase.PROPOSALS
        out = feed(p, msg(4, 0, 0, MsgKind.INITIAL, V[4]))
        assert out == []
        assert p.known_values[4] == V[4]
        assert p.initial_count == 3

    def test_build_first_proposal_needs_exactly_n_minus_1_known(self):
        p = fresh(0)
        with pytest.raises(ProtocolViolation):
            p.build_first_proposal()


def proposals_process(pid=0, senders=(1, 2, 3)):
    p = fresh(pid)
    p.start()
    feed_initials(p, senders)
    assert p.phase == Phase.PROPOSALS
    return p


class TestFirstProposalHandling:
    def test_differing_gap_triggers_second_proposal(self):
        # P1-style process answers a proposal whose gap is elsewhere by
        # publishing the union: the full vector.
        p = proposals_process(1, senders=(0, 2, 3))
        gap2 = (V[0], V[1], None, V[3], V[4])
        out = feed(p, msg(3, 1, 1, MsgKind.FIRST, gap2))
        seconds = [b for b in out if b.kind == MsgKind.SECOND]
        assert len(seconds) == 1
        assert seconds[0].payload == tuple(V)

    def test_same_gap_does_not_trigger(self):
        p = proposals_process(0)
        same = (V[0], V[1], V[2], V[3], None)
        out = feed(p, msg(1, 0, 1, MsgKind.FIRST, same))
        assert out == []
        assert p.first_tally[same] == 1

    def test_three_equal_firsts_complete_gapped(self):
        p = proposals_process(0)
        same = (V[0], V[1], V[2], V[3], None)
        for s in (1, 2, 3):
            out = feed(p, msg(s, 0, 1, MsgKind.FIRST, same))
        assert p.phase == Phase.DECISION
        assert p.decision_entry == same
        finals = [b for b in out if b.kind == MsgKind.FINAL]
        assert [f.payload for f in finals] == [same]

    def test_malformed_first_rejected(self):
        p = proposals_process(0)
        with pytest.raises(MalformedMessage):
            feed(p, msg(1, 0, 1, MsgKind.FIRST, tuple(V)))

    def test_buffered_until_proposals_phase(self):
        p = fresh(0)
        feed_initials(p, [1, 2])  # still collecting
        gap2 = (V[0], V[1], None, V[3], V[4])
        assert feed(p, msg(3, 0, 0, MsgKind.INITIAL, V[3])) != []  # enters proposals
        # a proposal that raced ahead of the phase is replayed on entry
        p2 = fresh(0)
        feed_initials(p2, [1, 2])
        held = msg(3, 0, 1, MsgKind.FIRST, gap2)
        assert p2.ingest(held) == []  # needs P3's initial value first
        out = feed(p2, msg(3, 0, 0, MsgKind.INITIAL, V[3]))
        kinds = [b.kind for b in out]
        assert kinds[0] == MsgKind.FIRST  # own proposal
        assert MsgKind.SECOND in kinds  # held proposal processed right after


class TestSecondProposalHandling:
    def test_quorum_of_seconds_completes_full(self):
        p = proposals_process(0)
        full = tuple(V)
        gaps = {1: 2, 2: 3, 3: 1}  # three distinct shapes: rule 1 never fires
        for s in (1, 2, 3):
            shape = tuple(None if i == gaps[s] else V[i] for i in range(5))
            feed(p, msg(s, 0, 1, MsgKind.FIRST, shape))
            if s == 1:
                assert p.second_sent  # obligation fired on the differing gap
            feed(p, msg(s, 0, 2, MsgKind.SECOND, full))
        assert p.phase == Phase.DECISION
        assert p.decision_entry == full

    def test_second_with_gap_rejected(self):
        p = proposals_process(0)
        feed(p, msg(1, 0, 1, MsgKind.FIRST, (None, V[1], V[2], V[3], V[4])))
        with pytest.raises(MalformedMessage):
            feed(p, msg(1, 0, 2, MsgKind.SECOND, (None, V[1], V[2], V[3], V[4])))

    def test_conflicting_second_values_rejected(self):
        p = proposals_process(0)
        feed(p, msg(1, 0, 1, MsgKind.FIRST, (None, V[1], V[2], V[3], V[4])))
        feed(p, msg(1, 0, 2, MsgKind.SECOND, tuple(V)))
        forged = (V[0], V[1], V[2], V[3], b"\x99")
        feed(p, msg(2, 0, 1, MsgKind.FIRST, (None, V[1], V[2], V[3], b"\x99")))
        with pytest.raises(ProtocolViolation):
            feed(p, msg(2, 0, 2, MsgKind.SECOND, forged))


def decision_process(entry_gapped=True):
    p = proposals_process(0)
    same = (V[0], V[1], V[2], V[3], None)
    for s in (1, 2, 3):
        feed(p, msg(s, 0, 1, MsgKind.FIRST, same))
    assert p.phase == Phase.DECISION
    return p


class TestFinalHandling:
    def test_gapped_holder_adopts_full_vector(self):
        p = decision_process()
        gapped = (V[0], V[1], V[2], V[3], None)
        feed(p, msg(1, 0, 2, MsgKind.FINAL, tuple(V)))
        feed(p, msg(2, 0, 2, MsgKind.FINAL, gapped))
        feed(p, msg(3, 0, 2, MsgKind.FINAL, gapped))
        assert p.phase == Phase.DECIDED
        assert p.decided == tuple(V)
        assert p.output == tuple(V)

    def test_all_gapped_finals_decide_gapped(self):
        p = decision_process()
        gapped = (V[0], V[1], V[2], V[3], None)
        for s in (1, 2, 3):
            feed(p, msg(s, 0, 2, MsgKind.FINAL, gapped))
        assert p.decided == gapped

    def test_late_final_recorded_not_counted(self):
        p = decision_process()
        gapped = (V[0], V[1], V[2], V[3], None)
        for s in (1, 2, 3):
            feed(p, msg(s, 0, 2, MsgKind.FINAL, gapped))
        decided_before = p.decided
        feed(p, msg(4, 0, 0, MsgKind.INITIAL, V[4]))
        feed(p, msg(4, 0, 1, MsgKind.FIRST, (V[0], V[1], V[2], None, V[4])))
        assert p.decided == decided_before
        assert p.final_count == 3

    def test_obligation_survives_decision(self):
        # A decided process that never sent its second proposal still owes
        # one when a differing first proposal finally shows up.
        p = decision_process()
        gapped = (V[0], V[1], V[2], V[3], None)
        for s in (1, 2, 3):
            feed(p, msg(s, 0, 2, MsgKind.FINAL, gapped))
        assert not p.second_sent
        out = feed(p, msg(4, 0, 0, MsgKind.INITIAL, V[4]))
        out = feed(p, msg(4, 0, 1, MsgKind.FIRST, (V[0], V[1], V[2], None, V[4])))
        assert [b.kind for b in out] == [MsgKind.SECOND]
        assert p.decided == gapped  # output never changes

    def test_overwide_final_rejected(self):
        p = decision_process()
        with pytest.raises(MalformedMessage):
            feed(p, msg(1, 0, 2, MsgKind.FINAL, (None, None, V[2], V[3], V[4])))


class TestDeterminism:
    def test_process_is_a_pure_function_of_state_and_message(self):
        p = proposals_process(0)
        differing = (None, V[1], V[2], V[3], V[4])
        m = msg(1, 0, 1, MsgKind.FIRST, differing)
        a, b = copy.deepcopy(p), copy.deepcopy(p)
        out_a = [x for r in a.ingest(m) for x in a.process(r)]
        out_b = [x for r in b.ingest(m) for x in b.process(r)]
        assert out_a == out_b
        assert a.canonical_bytes() == b.canonical_bytes()
        assert a.state_key() == b.state_key()

    def test_clone_is_independent(self):
        p = proposals_process(0)
        c = p.clone()
        feed(c, msg(1, 0, 1, MsgKind.FIRST, (None, V[1], V[2], V[3], V[4])))
        assert p.canonical_bytes() != c.canonical_bytes()

    def test_clone_copies_the_sequencing_state(self):
        # A clone that releases a held message leaves the original holding
        # it: the original's key and image are those of a twin that never
        # had a clone.
        held = msg(1, 0, 1, MsgKind.FIRST, (V[0], V[1], V[2], V[3], None))
        p, twin = fresh(0), fresh(0)
        assert p.ingest(held) == twin.ingest(held) == []
        c = p.clone()
        assert [m.seq for m in c.ingest(msg(1, 0, 0, MsgKind.INITIAL, V[1]))] == [0, 1]
        assert c.state_key() != twin.state_key()
        assert p.state_key() == twin.state_key()
        assert p.canonical_bytes() == twin.canonical_bytes()

    def test_unordered_clone_keeps_its_delivered_seqs(self):
        # Without ordered delivery a clone still rejects a duplicate, and
        # what a clone is delivered is not delivered to the original.
        p = Process(0, 5, V[0], rules=Rules(ordered_delivery=False))
        initial = msg(1, 0, 0, MsgKind.INITIAL, V[1])
        p.ingest(initial)
        with pytest.raises(ModelViolation):
            p.clone().ingest(initial)
        other = msg(2, 0, 0, MsgKind.INITIAL, V[2])
        p.clone().ingest(other)
        assert p.ingest(other) == [other]


# The attributes a process's key leaves out: what every process of one
# scenario shares (its rules and quorums) or derives from pid and n (its
# peers), and the cached key itself.  The explorer's tables serve one
# scenario, so these never tell two of its states apart.
NOT_IN_KEY = {"rules", "quorum", "final_quorum", "peers", "_key"}


def perturbed(value, probe: Message):
    """A value of ``value``'s shape that differs from it; ``probe`` is a
    message from a peer, for a container that is empty."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, bytes):
        return value + b"?"
    if isinstance(value, Message):
        return value._replace(payload=perturbed(value.payload, probe))
    if value is None or isinstance(value, tuple):  # a vector
        return (b"?",) + (value or ())
    if isinstance(value, set):
        return value | {(probe.sender, probe.seq)}
    if isinstance(value, list):
        return value[:-1] + [perturbed(value[-1], probe)] if value else [probe]
    if isinstance(value, dict):
        if not value:
            return {(probe.sender, probe.seq): probe}
        first = next(iter(value))
        return {**value, first: perturbed(value[first], probe)}
    raise TypeError(f"no perturbation for {value!r}")


class TestStateKey:
    @pytest.mark.parametrize("rules", [Rules(), Rules(ordered_delivery=False)])
    def test_every_state_field_is_in_the_key_and_the_image(self, rules):
        # Deduplication is exact only if the key covers every field of the
        # state.  For a process that has reached the decision stage, a
        # change to any one instance attribute but those of NOT_IN_KEY
        # changes both the key and the image rendered from it; the key's
        # fields are named after those attributes.
        cfg, _, _ = run_raw(Scenario(n=5, values=tuple(default_values(5)), rules=rules),
                            record_events=False)
        proc = next(p for p in cfg.processes if p.phase >= Phase.DECISION)
        probe = Message(proc.peers[0], proc.pid, 99, MsgKind.FINAL, (b"?",) * proc.n)
        fields = set(vars(proc)) - NOT_IN_KEY
        assert fields == set(StateKey._fields)
        for name in sorted(fields):
            twin = proc.clone()
            setattr(twin, name, perturbed(getattr(proc, name), probe))
            twin._key = None
            assert twin.state_key() != proc.state_key(), name
            assert twin.canonical_bytes() != proc.canonical_bytes(), name
        twin = proc.clone()
        twin._key = None
        assert twin.state_key() == proc.state_key()
        assert twin.canonical_bytes() == proc.canonical_bytes()


class TestVectorEncoding:
    @given(
        st.lists(
            st.one_of(st.none(), st.binary(min_size=0, max_size=6)),
            min_size=1,
            max_size=9,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, slots):
        vec = tuple(slots)
        assert decode_vector(encode_vector(vec)) == vec

    def test_none_marker(self):
        assert decode_vector(encode_vector(None)) is None


class TestRuleToggles:
    def test_unordered_delivery_processes_immediately(self):
        p = Process(0, 5, V[0], rules=Rules(ordered_delivery=False))
        feed_initials(p, [1, 2, 3])
        out = feed(p, msg(4, 0, 2, MsgKind.SECOND, tuple(V)))
        assert p.second_count == 1  # processed despite the missing first

    def test_no_fill_on_gap_mismatch(self):
        p = Process(0, 5, V[0], rules=Rules(fill_on_gap_mismatch=False))
        feed_initials(p, [1, 2, 3])
        out = feed(p, msg(1, 0, 1, MsgKind.FIRST, (None, V[1], V[2], V[3], V[4])))
        assert out == [] and not p.second_sent
