"""Message-system semantics: buffer, crashes, determinism, replay."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensuslab.errors import ConfigError, SimulatorBug
from consensuslab.explore import _Tables
from consensuslab.protocol import Message, MsgKind
from consensuslab.scenario import Scenario, SchedulerSpec, crash_grid, default_values
from consensuslab.schedulers import SeededRandomScheduler
from consensuslab.simulation import (
    BufferEntry,
    CrashSpec,
    CrashPoint,
    Deliver,
    apply_deliver,
    enabled_deliveries,
    new_configuration,
)
from consensuslab.trace import Trace, replays_identically, run, run_config

VALUES = default_values(5)


def scenario(seed=0, crash=None, **kw):
    return Scenario(
        n=5,
        values=tuple(VALUES),
        crash=crash,
        scheduler=SchedulerSpec(type="seeded-random", seed=seed, fairness_bound=64),
        **kw,
    )


class TestBuffer:
    def test_start_fills_buffer_with_initial_broadcasts(self):
        cfg, _ = new_configuration(5, VALUES)
        assert len(cfg.buffer) == 5 * 4
        kinds = {e.message.kind for e in cfg.buffer.values()}
        assert kinds == {MsgKind.INITIAL}

    def test_delivery_removes_entry_exactly_once(self):
        cfg, _ = new_configuration(5, VALUES)
        entry = next(iter(cfg.buffer.values()))
        apply_deliver(cfg, entry)
        with pytest.raises(SimulatorBug):
            apply_deliver(cfg, entry)

    def test_deliveries_to_crashed_process_disabled(self):
        crash = CrashSpec(4, CrashPoint.BEFORE, MsgKind.INITIAL)
        cfg, events = new_configuration(5, VALUES, crash=crash)
        assert cfg.crashed == 4
        assert all(e.message.dest != 4 for e in enabled_deliveries(cfg))
        assert len(cfg.buffer) == 4 * 4  # nothing from the victim either

    @pytest.mark.parametrize("n", [5, 15])
    def test_enabled_index_tracks_the_buffer(self, n):
        # ``cfg.enabled`` must hold the buffer's entries to live destinations,
        # in send order and as the same objects, after every delivery and
        # every crash (including a crash before the victim's first broadcast,
        # when lower pids have already sent to it).  A clone gets its own
        # list, which its parent's deliveries leave as it was.
        def same_objects(xs, ys):
            return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))

        def live_entries(cfg):
            return [e for _, e in sorted(cfg.buffer.items()) if e.message.dest != cfg.crashed]

        values = default_values(n)
        grid = crash_grid(n)
        cells = [None, CrashSpec(n // 2, CrashPoint.BEFORE, MsgKind.INITIAL)]
        cells += [c for c in grid[1:] if c.victim == 1 and c.kind != MsgKind.INITIAL][::3]
        for seed, crash in enumerate(cells):
            cfg, _ = new_configuration(n, values, crash=crash)
            scheduler = SeededRandomScheduler(seed=seed, fairness_bound=8)
            assert same_objects(cfg.enabled, live_entries(cfg))
            while cfg.enabled:
                twin = cfg.clone()
                before = list(cfg.enabled)
                assert twin.enabled is not cfg.enabled
                apply_deliver(cfg, scheduler.next(cfg, cfg.enabled))
                assert same_objects(cfg.enabled, live_entries(cfg))
                assert same_objects(twin.enabled, before)
                assert same_objects(twin.enabled, live_entries(twin))
            assert crash is None or cfg.crashed == crash.victim

    def test_enabled_deliveries_is_a_copy(self):
        # Callers outside the run loop get a list they may change.
        cfg, _ = new_configuration(5, VALUES)
        enabled = list(cfg.enabled)
        delivers = enabled_deliveries(cfg)
        assert delivers is not cfg.enabled and delivers == enabled
        delivers.reverse()
        delivers.pop()
        assert cfg.enabled == enabled and cfg.enabled[0] is enabled[0]
        apply_deliver(cfg, delivers[0])
        assert cfg.enabled == enabled[:-1]

    @pytest.mark.parametrize("n", [5, 6])
    def test_memoized_steps_match_plain_steps(self, n):
        # A step from the explorer's transition table must match a plain
        # step along whole seeded runs, decisions included: the same process
        # image, the same sent messages in send order and the same crash
        # outcome.  One table serves both runs of a crash cell, so the
        # second run mostly hits it, and a table process mutated after it
        # was interned would show up as a mismatch.  The interning key is
        # exact: no two node ids share a process image.
        values = default_values(n)
        cells = [None, CrashSpec(n // 2, CrashPoint.BEFORE, MsgKind.INITIAL)]
        cells += [c for c in crash_grid(n)[1:] if c.victim == 1][::2]
        hits = 0
        for crash in cells:
            tables = _Tables(Scenario(n=n, values=tuple(values), crash=crash))
            for seed in range(2):
                cfg, _ = new_configuration(n, values, crash=crash)
                rng = random.Random(seed)
                while delivers := enabled_deliveries(cfg):
                    entry = delivers[rng.randrange(len(delivers))]
                    nodes, _, _ = tables.start(cfg)
                    mid, d = tables.message(entry.message), entry.message.dest
                    step = tables.steps[mid].get(nodes[d])
                    hits += step is not None
                    new, _, sent, bit, _ = step or tables.step(nodes[d], mid, cfg.crashed)
                    index, cfg = cfg.next_send_index, cfg.clone()
                    bites = apply_deliver(cfg, cfg.buffer[entry.send_index])
                    assert tables.procs[new].canonical_bytes() == cfg.processes[d].canonical_bytes()
                    assert [tables.msgs[i] for i in sent] == [
                        e.message for e in cfg.buffer.values() if e.send_index >= index
                    ]
                    assert bit == bool(bites)
                assert crash is None or cfg.crashed == crash.victim
            images = {p.canonical_bytes() for p in tables.procs}
            assert len(images) == len(tables.procs), crash
        assert hits

    @pytest.mark.parametrize("n", [5, 15])
    def test_lazy_digest_matches_a_rebuilt_configuration(self, n):
        # The digest of a configuration stepped one delivery at a time
        # must equal, after every step, that of a twin which took the same
        # steps, and at the end that of the configuration run_config
        # rebuilds from the recorded events.
        values = default_values(n)
        crash = CrashSpec(1, CrashPoint.DURING, MsgKind.FIRST, frozenset({0}))
        for seed, cell in enumerate([None, crash]):
            cfg, events = new_configuration(n, values, crash=cell)
            twin, _ = new_configuration(n, values, crash=cell)
            scheduler = SeededRandomScheduler(seed=seed, fairness_bound=8)
            while delivers := enabled_deliveries(cfg):
                entry = scheduler.next(cfg, delivers)
                m = entry.message
                events.append(Deliver(m.sender, m.seq, m.dest, m.kind))
                events.extend(apply_deliver(cfg, entry))
                apply_deliver(twin, twin.buffer[entry.send_index])
                assert cfg.dedupe_digest() == twin.clone().dedupe_digest()
            rebuilt = run_config(Scenario(n=n, values=tuple(values), crash=cell), events)
            assert cfg.dedupe_digest() == rebuilt.dedupe_digest()
            assert cell is None or cfg.crashed == cell.victim


class TestCrashPoints:
    def test_before_initial_sends_nothing(self):
        crash = CrashSpec(4, CrashPoint.BEFORE, MsgKind.INITIAL)
        cfg, _ = new_configuration(5, VALUES, crash=crash)
        assert all(e.message.sender != 4 for e in cfg.buffer.values())

    def test_during_initial_sends_to_subset_only(self):
        crash = CrashSpec(4, CrashPoint.DURING, MsgKind.INITIAL, frozenset({0, 2}))
        cfg, _ = new_configuration(5, VALUES, crash=crash)
        victim_copies = [e.message.dest for e in cfg.buffer.values() if e.message.sender == 4]
        assert sorted(victim_copies) == [0, 2]
        assert cfg.crashed == 4

    def test_after_initial_sends_fully_then_dies(self):
        crash = CrashSpec(4, CrashPoint.AFTER, MsgKind.INITIAL)
        cfg, _ = new_configuration(5, VALUES, crash=crash)
        victim_copies = [e.message.dest for e in cfg.buffer.values() if e.message.sender == 4]
        assert sorted(victim_copies) == [0, 1, 2, 3]
        assert cfg.crashed == 4

    def test_crash_containment(self):
        # After the victim dies mid-proposal it takes no further steps and
        # emits nothing, whatever is delivered around it.
        crash = CrashSpec(4, CrashPoint.BEFORE, MsgKind.FIRST)
        trace = run(scenario(seed=3, crash=crash))
        assert trace.verdict.crashed == 4
        senders = {ev.sender for ev in trace.events if hasattr(ev, "sender")}
        victim_kinds = {
            ev.kind for ev in trace.events if getattr(ev, "sender", None) == 4
        }
        assert victim_kinds <= {MsgKind.INITIAL}

    def test_during_subset_validation(self):
        with pytest.raises(ConfigError):
            CrashSpec(4, CrashPoint.DURING, MsgKind.INITIAL, frozenset()).validate(5)
        with pytest.raises(ConfigError):
            CrashSpec(4, CrashPoint.DURING, MsgKind.INITIAL, frozenset({0, 1, 2, 3})).validate(5)
        with pytest.raises(ConfigError):
            CrashSpec(4, CrashPoint.DURING, MsgKind.INITIAL, frozenset({4})).validate(5)


class TestRuns:
    def test_crash_free_round_robin_decides_unanimously(self):
        trace = run(scenario(seed=1))
        assert trace.verdict.status == "complete"
        decided = [v for v in trace.verdict.decided]
        assert all(v is not None for v in decided)
        assert len({v for v in decided}) == 1

    def test_crash_free_send_order_delivery_decides_unanimously(self):
        # An empty script with drain delivers strictly in send order.
        plain = Scenario(
            n=5,
            values=tuple(VALUES),
            scheduler=SchedulerSpec(type="scripted", script=(), drain_rest=True),
        )
        trace = run(plain)
        assert trace.verdict.status == "complete"
        assert len({v for v in trace.verdict.decided}) == 1
        assert trace.verdict.undelivered == []

    def test_victim_value_excluded_when_it_never_speaks(self):
        crash = CrashSpec(4, CrashPoint.BEFORE, MsgKind.INITIAL)
        trace = run(scenario(seed=2, crash=crash))
        for pid, vec in enumerate(trace.verdict.decided):
            if pid == 4:
                assert vec is None
            else:
                assert vec[4] is None
                assert vec[:4] == tuple(VALUES[:4])

    def test_leftovers_only_for_the_crashed(self):
        crash = CrashSpec(4, CrashPoint.AFTER, MsgKind.INITIAL)
        trace = run(scenario(seed=5, crash=crash))
        assert trace.verdict.status == "complete"
        assert all(dest == 4 for (_, _, dest) in trace.verdict.undelivered)


class TestReplayDeterminism:
    def test_same_seed_same_trace(self):
        a = run(scenario(seed=7))
        b = run(scenario(seed=7))
        assert a.to_jsonl() == b.to_jsonl()

    def test_replay_reproduces_hash_and_verdict(self):
        trace = run(scenario(seed=11))
        assert replays_identically(trace)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_replay_identity_across_crash_grid(self, seed):
        cells = crash_grid(5)
        crash = cells[seed % len(cells)]
        trace = run(scenario(seed=seed, crash=crash))
        assert replays_identically(trace)

    def test_trace_file_roundtrip(self, tmp_path):
        trace = run(scenario(seed=13))
        path = tmp_path / "t.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.to_jsonl() == trace.to_jsonl()
        assert replays_identically(loaded)


class TestCanonicalHashing:
    def test_equal_histories_hash_equally(self):
        a = run(scenario(seed=17))
        b = run(scenario(seed=17))
        assert a.verdict.config_hash == b.verdict.config_hash
        assert len(a.verdict.config_hash) == 16
        assert a.verdict.config_hash == a.verdict.config_hash.lower()

    def test_commuting_deliveries_reach_the_same_digest(self):
        cfg, _ = new_configuration(5, VALUES)
        entries = sorted(cfg.buffer.values(), key=lambda e: e.send_index)
        e_a = next(e for e in entries if e.message.dest == 0)
        e_b = next(e for e in entries if e.message.dest == 1)
        one = cfg.clone()
        apply_deliver(one, one.buffer[e_a.send_index])
        apply_deliver(one, one.buffer[e_b.send_index])
        other = cfg.clone()
        apply_deliver(other, other.buffer[e_b.send_index])
        apply_deliver(other, other.buffer[e_a.send_index])
        assert one.dedupe_digest() == other.dedupe_digest()
        assert one.canonical_bytes() == other.canonical_bytes()

    def test_different_states_differ(self):
        cfg, _ = new_configuration(5, VALUES)
        child = cfg.clone()
        apply_deliver(child, next(iter(child.buffer.values())))
        assert cfg.dedupe_digest() != child.dedupe_digest()


class TestTupleRecords:
    def test_messages_and_entries_hash_as_plain_tuples(self):
        # Hashing a message or buffer entry runs no Python frame, and gives
        # the hash of its field tuple, as a frozen dataclass did.
        assert Message.__hash__ is tuple.__hash__
        assert BufferEntry.__hash__ is tuple.__hash__
        m = Message(0, 1, 1, MsgKind.FIRST, (b"a", None, b"c", b"d", b"e"))
        assert hash(m) == hash((m.sender, m.dest, m.seq, m.kind, m.payload))

    def test_equal_messages_share_one_step_memo_entry(self):
        cfg, _ = new_configuration(5, VALUES)
        entry = next(e for e in cfg.buffer.values() if e.message.dest == 1)
        twin = Message(*entry.message)
        assert twin is not entry.message and twin == entry.message
        tables = _Tables(scenario())
        nodes, _, _ = tables.start(cfg)
        mid = tables.message(twin)
        assert mid == tables.message(entry.message) and len(tables.msgs) == len(cfg.buffer)
        step = tables.step(nodes[1], mid, None)
        assert tables.steps[mid] == {nodes[1]: step}
