"""Fuzzing, exhaustive search, minimization, and the rule mutants."""

import hashlib
import importlib
import sys
from dataclasses import replace

import pytest

from consensuslab.errors import ConfigError
from consensuslab.explore import (
    MUTANTS,
    OUTCOME_ALL_PASS,
    OUTCOME_BOUND,
    OUTCOME_COUNTEREXAMPLE,
    ExploreBounds,
    _NODE_BITS,
    _Tables,
    _dfs,
    _finished,
    _fuzz_outcomes,
    _new_stats,
    explore,
    fuzz,
    minimize,
)
from consensuslab.findings import racing_scenario
from consensuslab.properties import (
    PROPERTY_NAMES,
    check_properties,
    safety_violation,
    terminal_violation,
)
from consensuslab.protocol import MsgKind, Rules
from consensuslab.scenario import Scenario, SchedulerSpec, crash_grid, default_values
from consensuslab.errors import ConsensusLabError
from consensuslab.simulation import (
    BufferEntry,
    Configuration,
    CrashPoint,
    CrashSpec,
    Deliver,
    apply_deliver,
    enabled_deliveries,
    new_configuration,
)
from consensuslab.schedulers import scheduler_from_spec
from consensuslab.trace import (
    STATUS_COMPLETE,
    STATUS_STUCK,
    replays_identically,
    run,
    run_raw,
    scripted,
)

VALUES = default_values(5)


def base_scenario(**kw):
    return Scenario(
        n=5,
        values=tuple(VALUES),
        scheduler=SchedulerSpec(type="seeded-random", seed=0, fairness_bound=64),
        **kw,
    )


def unreduced_dfs(cfg0, base, bounds, prefix, stats, seen, tables, sink=None, sleep=0):
    """The plain search, as an oracle for ``explore._dfs``: every enabled
    delivery is cloned and stepped afresh, every new configuration is
    safety-checked, and configurations are keyed by their image, with the
    depth under a depth bound (no interned states, no sleep set and no
    one-delivery rule)."""
    values = list(base.values)

    def key(cfg, depth):
        image = cfg.canonical_bytes()
        return image if bounds.max_depth is None else (image, depth)

    def events(messages):
        return [Deliver(m.sender, m.seq, m.dest, m.kind) for m in messages]

    v = safety_violation(cfg0, values)
    if v is not None:
        return v[0], events(prefix)
    stats["configs"] += 1
    seen.add(key(cfg0, len(prefix)))
    stack = [(cfg0, enabled_deliveries(cfg0), len(prefix))]
    path = list(prefix)
    while stack:
        cfg, children, depth = stack[-1]
        if not children:
            stack.pop()
            if len(path) > len(prefix):
                path.pop()
            continue
        entry = children.pop()
        child = cfg.clone()
        apply_deliver(child, child.buffer[entry.send_index])
        k = key(child, depth + 1)
        if k in seen:
            stats["dedupe_hits"] += 1
            continue
        seen.add(k)
        stats["configs"] += 1
        path.append(entry.message)
        v = safety_violation(child, values)
        if v is not None:
            return v[0], events(path)
        nxt = enabled_deliveries(child)
        if not nxt:
            stats["terminals"] += 1
            if sink is not None:
                sink.add(child.canonical_bytes())
            status = STATUS_COMPLETE if child.all_alive_decided() else STATUS_STUCK
            v = terminal_violation(child, values, status)
            if v is not None:
                return v[0], events(path)
            path.pop()
            continue
        if stats["configs"] >= stats["budget"]:
            stats["truncated"] = stats["exhausted"] = True
            return None
        if bounds.max_depth is not None and depth + 1 >= bounds.max_depth:
            stats["frontier"] += 1
            stats["truncated"] = True
            if sink is not None:
                sink.add(child.canonical_bytes())
            path.pop()
            continue
        stack.append((child, nxt, depth + 1))
    return None


def sleep_set_dfs(*args, **kw):
    """``explore._dfs`` without the one-delivery rule (``_ample`` returns
    every enabled delivery): it stores the plain search's configurations."""
    module = importlib.import_module("consensuslab.explore")
    ample, module._ample = module._ample, lambda enabled, *_: enabled
    try:
        return module._dfs(*args, **kw)
    finally:
        module._ample = ample


class _Recording:
    """Wraps a scheduler and keeps, for each pick, a copy of the
    configuration it picked from and the message it picked."""

    def __init__(self, inner):
        self.inner = inner
        self.picks = []

    def next(self, cfg, delivers):
        choice = self.inner.next(cfg, delivers)
        if choice is not None:
            self.picks.append((cfg.clone(), choice.message))
        return choice


def recorded_picks(scenario):
    recording = _Recording(scheduler_from_spec(scenario.scheduler))
    run_raw(scenario, recording, record_events=False)
    return recording.picks


def seeded_runs(n, seeds):
    """Seeded scenarios of the protocol and the four mutants: even seeds
    crash-free, odd seeds in a crash cell drawn from the seed."""
    cells = crash_grid(n)
    for rules in [Rules(), *MUTANTS.values()]:
        base = Scenario(n=n, values=tuple(default_values(n)), rules=rules)
        for seed in range(seeds):
            crash = cells[seed * 11 % len(cells)] if seed % 2 else None
            yield base.with_crash(crash).with_seed(seed)


def starved_runs(n):
    """Runs of the protocol and the four mutants under the adversarial
    scheduler, starving each process in turn: the others can decide before
    a starved process's first proposal reaches them, and then still owe
    their second proposal."""
    for rules in [Rules(), *MUTANTS.values()]:
        base = Scenario(n=n, values=tuple(default_values(n)), rules=rules)
        for starve in range(n):
            yield replace(base, scheduler=SchedulerSpec(type="adversarial-lifo", starve=starve))


def decoded(tables, key, crash):
    """The node ids and the configuration that the dedupe ``key`` stores,
    decoded field by field; buffer entries get send indices in message-id
    order, which no image or step depends on."""
    n = tables.n
    nodes = [key >> (_NODE_BITS * i) & ((1 << _NODE_BITS) - 1) for i in range(n)]
    crashed = (key >> tables.crash_shift & ((1 << n.bit_length()) - 1)) - 1
    crashed = None if crashed < 0 else crashed
    mask = key >> tables.mask_shift
    cfg = Configuration(processes=[tables.procs[i] for i in nodes], crashed=crashed,
                        crash_pending=crash if crashed is None else None, shared=True)
    for index, m in enumerate(tables.msgs[i] for i in range(mask.bit_length()) if mask >> i & 1):
        entry = cfg.buffer[index] = BufferEntry(m, index)
        if m.dest != crashed:
            cfg.enabled.append(entry)
        cfg.next_send_index = index + 1
    return nodes, cfg


class TestCrashGrid:
    def test_grid_shape(self):
        cells = crash_grid(5)
        # no-crash + 5 victims x 4 kinds x (before, after + 3 subsets)
        assert cells[0] is None
        assert len(cells) == 1 + 5 * 4 * 5

    def test_exhaustive_subsets_flag(self):
        cells = crash_grid(5, exhaustive_subsets=True)
        during = [c for c in cells if c is not None and c.point == CrashPoint.DURING]
        assert len(during) == 5 * 4 * (2**4 - 2)


class TestFuzz:
    def test_small_fuzz_is_deterministic(self):
        a = fuzz(base_scenario(), 150)
        b = fuzz(base_scenario(), 150)
        assert a.outcome == b.outcome
        assert a.stats == b.stats
        assert a.failing_seed == b.failing_seed

    def test_fuzz_finds_a_real_violation(self):
        verdict = fuzz(base_scenario(), 800)
        assert verdict.outcome == OUTCOME_COUNTEREXAMPLE
        assert verdict.trace is not None
        assert replays_identically(verdict.trace)
        report = check_properties(verdict.trace)
        assert verdict.prop in report.failures()

    def test_parallel_fuzz_matches_sequential(self):
        seq = fuzz(base_scenario(), 120)
        par = fuzz(base_scenario(), 120, workers=2)
        assert seq.outcome == par.outcome
        assert seq.stats == par.stats
        assert seq.failing_seed == par.failing_seed
        # A pool stops at the first failing seed in seed order, like the
        # sequential loop, and its per-seed reports keep every check detail.
        mutant = replace(base_scenario(), rules=MUTANTS["adopt-full"])
        seq = fuzz(mutant, 500, stop_on_first=True)
        par = fuzz(mutant, 500, stop_on_first=True, workers=2)
        assert seq.failing_seed == par.failing_seed == 2
        assert seq.stats == par.stats and seq.stats["runs"] == 3
        assert seq.trace.to_jsonl() == par.trace.to_jsonl()
        cells = crash_grid(5)
        seq_runs = list(_fuzz_outcomes(mutant, cells, 40, "bits", workers=1))
        assert list(_fuzz_outcomes(mutant, cells, 40, "bits", workers=2)) == seq_runs
        details = [report.check(name).detail for _, report, _ in seq_runs for name in PROPERTY_NAMES]
        assert any(details)

    def test_collected_outcomes_feed_downstream_checks(self):
        collected = []
        fuzz(base_scenario(), 60, collect_traces=collected)
        assert collected
        scenario, decided = collected[0]
        assert isinstance(scenario, Scenario)
        assert len(decided) == 5


class TestExplore:
    def test_tiny_budget_exhausts(self):
        verdict = explore(base_scenario(), ExploreBounds(max_configs=50))
        assert verdict.outcome == OUTCOME_BOUND
        assert verdict.stats["configs"] == 50

    def test_worker_count_never_changes_the_verdict(self):
        bounds = ExploreBounds(max_configs=12_000)
        one = explore(base_scenario(), bounds, chunks=6, workers=1)
        many = explore(base_scenario(), bounds, chunks=6, workers=2)
        assert one.outcome == many.outcome
        assert one.prop == many.prop
        assert one.stats == many.stats

    @pytest.mark.parametrize(
        "crash", [None, CrashSpec(2, CrashPoint.DURING, MsgKind.FIRST, frozenset({0, 1}))]
    )
    def test_depth_bounded_search_reaches_the_unreduced_states(self, monkeypatch, crash):
        # At depth 4, crash-free and in a crash cell, the search reaches the
        # frontier and terminal images of the plain search, which keys each
        # configuration by its image and depth, and stores the same
        # configurations: the exact key needs no depth.
        module = importlib.import_module("consensuslab.explore")
        scenario = base_scenario(crash=crash)
        bounds = ExploreBounds(max_depth=4, max_configs=1_000_000)
        results = []
        for dfs in (module._dfs, unreduced_dfs):
            monkeypatch.setattr(module, "_dfs", dfs)
            sink: set = set()
            stats = dict(explore(scenario, bounds, reach_sink=sink).stats)
            del stats["dedupe_hits"]
            results.append((stats, sink))
        assert results[0] == results[1]
        assert len(results[0][1]) > 1000

    @pytest.mark.parametrize(
        "crash, reached",
        [
            (None, {2: 190, 3: 1140, 4: 4940}),
            (CrashSpec(4, CrashPoint.BEFORE, MsgKind.INITIAL), None),
        ],
    )
    def test_chunked_search_reaches_the_same_states(self, crash, reached):
        # Splitting a depth-bounded search by first delivery must expand
        # every root of every chunk and hand back what each chunk reached.
        scenario = base_scenario(crash=crash)
        for depth in (2, 3, 4):
            bounds = ExploreBounds(max_depth=depth, max_configs=1_000_000)
            sinks = []
            for chunks in (1, 2, 16):
                sink: set = set()
                verdict = explore(scenario, bounds, chunks=chunks, reach_sink=sink)
                assert verdict.outcome == OUTCOME_BOUND
                sinks.append(sink)
            assert sinks[0] and sinks[0] == sinks[1] == sinks[2]
            if reached is not None:
                assert len(sinks[0]) == reached[depth]

    @pytest.mark.parametrize("n", [5, 6])
    def test_interned_transitions_are_fresh_deliveries(self, n):
        # Every transition a search interns must be what apply_deliver does
        # on a real configuration: crash-free, in every crash cell of one
        # victim (deliveries to a pending crash victim included), and under
        # the four mutants.  The dedupe key is exact, so every stored key
        # decodes to its configuration.  At each of them, every enabled
        # delivery whose transition is in the tables is made afresh on a
        # clone, once per transition and crashed process, and must give the
        # same process image, the same sent messages in send order, the same
        # crash outcome and decision change, and a child whose image is that
        # of the parent's key plus the transition's delta.  The commutation
        # check of the sleep sets also makes transitions at configurations
        # the search never stores (a then b, where b is asleep after a, say);
        # each of those is checked the same way at the configuration of the
        # start processes with the destination replaced by the node's own
        # Process and only that message buffered.
        base = Scenario(n=n, values=tuple(default_values(n)))
        during = CrashSpec(n - 1, CrashPoint.DURING, MsgKind.FIRST, frozenset({0}))
        scenarios = [base] + [base.with_crash(c) for c in crash_grid(n)[1:] if c.victim == 1]
        scenarios += [replace(base, crash=crash, rules=rules)
                      for rules in MUTANTS.values() for crash in (None, during)]
        made = bites = to_victim = unstored = 0
        for scenario in scenarios:
            tables = _Tables(scenario)
            checked = set()

            def check(key):
                nonlocal bites, to_victim
                nodes, cfg = decoded(tables, key, scenario.crash)
                for entry in enabled_deliveries(cfg):
                    m = entry.message
                    d, mid = m.dest, tables.msg_ids[m]
                    step = tables.steps[mid].get(nodes[d])
                    if step is None or (mid, nodes[d], cfg.crashed) in checked:
                        continue
                    new, delta, sent, bit, changed = step
                    child = cfg.clone()
                    events = apply_deliver(child, child.buffer[entry.send_index])
                    before, after = cfg.processes[d], child.processes[d]
                    assert tables.images[new] == after.canonical_bytes()
                    assert [tables.msgs[i] for i in sent] == [
                        e.message for e in child.buffer.values()
                        if e.send_index >= cfg.next_send_index
                    ]
                    assert bit == bool(events) == (cfg.crashed is None and child.crashed == d)
                    assert changed == (after.decided != before.decided
                                       or after.decision_entry != before.decision_entry)
                    assert decoded(tables, key + delta, scenario.crash)[1].canonical_bytes() \
                        == child.canonical_bytes()
                    checked.add((mid, nodes[d], cfg.crashed))
                    bites += bit
                    pending = cfg.crash_pending
                    to_victim += pending is not None and pending.victim == d

            for bounds in (ExploreBounds(max_configs=200),
                           ExploreBounds(max_depth=3, max_configs=200)):
                cfg0, _ = new_configuration(n, list(scenario.values), crash=scenario.crash,
                                            rules=scenario.rules)
                seen: set = set()
                _dfs(cfg0, scenario, bounds, [], _new_stats(bounds.max_configs), seen, tables)
                start = [tables.node_ids[p.canonical_bytes()] for p in cfg0.processes]
                for key in seen:
                    check(key)
            interned = {(i, node) for i, table in enumerate(tables.steps) for node in table}
            for mid, node in sorted(interned - {(i, node) for i, node, _ in checked}):
                nodes = start.copy()
                nodes[tables.dest[mid]] = node
                check(sum(x << (_NODE_BITS * i) for i, x in enumerate(nodes))
                      + (1 << mid << tables.mask_shift))
                unstored += 1
            assert {(i, node) for i, node, _ in checked} == interned, scenario
            made += len(interned)
        assert bites and to_victim > bites and made > 100 * len(scenarios) and unstored

    def test_a_node_id_that_outgrows_its_key_field_raises(self, monkeypatch):
        # An id wider than its field would alias another configuration's
        # key; the search must stop with an error instead.
        module = importlib.import_module("consensuslab.explore")
        monkeypatch.setattr(module, "_NODE_BITS", 4)
        with pytest.raises(ConsensusLabError, match="process states"):
            explore(base_scenario(), ExploreBounds(max_configs=1000))
        monkeypatch.setattr(module, "_NODE_BITS", _NODE_BITS)
        assert explore(base_scenario(), ExploreBounds(max_configs=1000)).stats["configs"] == 1000

    def test_sleep_sets_match_the_unreduced_search(self, monkeypatch):
        # The soundness gate of the sleep sets: with and without crashes,
        # under the four mutants, chunked or not, the reduced search gives
        # the plain search's verdicts, witnesses, counts and reached states;
        # only deliveries that reach a stored configuration are saved.  The
        # sleep sets alone store the plain search's configurations in its
        # order.  This test cannot see the one-delivery rule: the depth
        # bounds stop the search before any process can finish, the two
        # witnesses come before any process finishes, and every unbounded
        # search spends its 3,000-config budget having reached the same
        # first terminals, although the rule changes which configurations
        # it stores.  test_one_delivery_rule_matches_the_unreduced_search
        # is the rule's gate.
        mid = CrashSpec(4, CrashPoint.DURING, MsgKind.FIRST, frozenset({0}))
        scenarios = [
            base_scenario(),
            base_scenario(crash=CrashSpec(4, CrashPoint.BEFORE, MsgKind.INITIAL)),
            base_scenario(crash=CrashSpec(2, CrashPoint.DURING, MsgKind.FIRST, frozenset({0, 1}))),
        ]
        scenarios += [replace(base_scenario(), crash=mid, rules=rules) for rules in MUTANTS.values()]
        bounds_list = [
            ExploreBounds(max_depth=3, max_configs=3000),
            ExploreBounds(max_depth=4, max_configs=3000),
            ExploreBounds(max_configs=3000),
        ]
        module = importlib.import_module("consensuslab.explore")

        def search_all():
            out = []
            for scenario in scenarios:
                for bounds in bounds_list:
                    for chunks in (1, 4):
                        sink: set = set()
                        v = explore(scenario, bounds, chunks=chunks, reach_sink=sink)
                        stats = dict(v.stats)
                        hits = stats.pop("dedupe_hits")
                        out.append(((v.outcome, v.prop, stats, v.trace and v.trace.to_jsonl(), sink),
                                    hits))
            return out

        reduced = search_all()
        monkeypatch.setattr(module, "_dfs", unreduced_dfs)
        plain = search_all()
        assert [r[0] for r in reduced] == [p[0] for p in plain]
        assert all(r[1] < p[1] or p[1] == 0 for r, p in zip(reduced, plain))
        assert sum(r[1] for r in reduced) < sum(p[1] for p in plain)
        assert any(p[0][0] == OUTCOME_COUNTEREXAMPLE for p in plain)

    @pytest.mark.parametrize("n", [5, 6])
    def test_deliveries_to_a_finished_process_commute(self, n):
        # The one-delivery rule rests on this: a delivery t to a process
        # that has decided and sent its second proposal sends nothing and
        # commutes with every other enabled delivery u, also one to the same
        # process or one that makes a crash bite.  Checked on every
        # configuration of seeded and starved runs in which some process has
        # finished, for the delivery the rule picks and, in the seeded runs,
        # every other delivery to a finished process; in the starved runs a
        # decided process can still owe its second proposal, which must not
        # count as finished.
        pairs = 0
        runs = [(s, False) for s in seeded_runs(n, 6)] + [(s, True) for s in starved_runs(n)]
        for scenario, newest_only in runs:
            for cfg, _ in recorded_picks(scenario):
                finished = {i for i, p in enumerate(cfg.processes) if _finished(p)}
                entries = enabled_deliveries(cfg)
                to_finished = [e for e in entries if e.message.dest in finished]
                for t in to_finished[-1:] if newest_only else to_finished:
                    alone = cfg.clone()
                    apply_deliver(alone, alone.buffer[t.send_index])
                    assert alone.next_send_index == cfg.next_send_index
                    assert len(alone.buffer) == len(cfg.buffer) - 1
                    for u in entries:
                        if u is t:
                            continue
                        images = []
                        for first, second in ((t, u), (u, t)):
                            child = cfg.clone()
                            apply_deliver(child, child.buffer[first.send_index])
                            apply_deliver(child, child.buffer[second.send_index])
                            images.append(child.canonical_bytes())
                        assert images[0] == images[1], scenario
                        pairs += 1
        assert pairs > 1000

    @pytest.mark.parametrize("n", [5, 6])
    def test_commuting_deliveries_close_the_diamond(self, monkeypatch, n):
        # The state-dependent sleep sets rest on this: two deliveries a and b
        # to one process that the tables say commute at a configuration
        # reach the same configuration in either order, with no crash.
        # Every sleep set a search builds is recorded with the configuration
        # it was built at; for each delivery b kept asleep by a true verdict,
        # that configuration is rebuilt (its processes, crashed process, a
        # and the messages of the sleep-set mask, all enabled there; the
        # other messages are left out, and no step reads them) and a then b
        # and b then a are made by apply_deliver on clones.  Crash-free, in
        # crash cells with deliveries to a pending victim, and under the four
        # mutants, chunked (root sleep sets) and not.
        calls = []
        sleep = _Tables.sleep

        def recording(tables, nodes, crashed, tried, mid):
            calls.append((tables, list(nodes), crashed, tried, mid))
            return sleep(tables, nodes, crashed, tried, mid)

        monkeypatch.setattr(_Tables, "sleep", recording)
        base = Scenario(n=n, values=tuple(default_values(n)))
        cells = crash_grid(n)[1:]
        # A victim that crashes before or during its final broadcast takes
        # deliveries that commute while the crash is pending.
        final = [CrashSpec(0, CrashPoint.BEFORE, MsgKind.FINAL),
                 CrashSpec(0, CrashPoint.DURING, MsgKind.FINAL, frozenset({1}))]
        scenarios = [base] + [base.with_crash(c) for c in cells[::10] + final]
        scenarios += [replace(base, crash=crash, rules=rules)
                      for rules in MUTANTS.values() for crash in (None, cells[n])]
        diamonds = to_victim = refused = 0
        for scenario in scenarios:
            for chunks in (1, 4):
                calls.clear()
                explore(scenario, ExploreBounds(max_configs=2000), chunks=chunks)
                done = set()
                for tables, nodes, crashed, tried, a in calls:
                    d = tables.dest[a]
                    enabled = [i for i in range(tried.bit_length()) if tried >> i & 1] + [a]
                    for b in enabled[:-1]:
                        if tables.dest[b] != d:
                            continue
                        if not tables.commute[nodes[d], a][b]:
                            refused += 1
                            continue
                        if (tuple(nodes), crashed, a, b) in done:
                            continue
                        done.add((tuple(nodes), crashed, a, b))
                        cfg = Configuration(
                            processes=[tables.procs[i] for i in nodes], crashed=crashed,
                            crash_pending=scenario.crash if crashed is None else None,
                            shared=True)
                        for index, mid in enumerate(enabled):
                            entry = cfg.buffer[index] = BufferEntry(tables.msgs[mid], index)
                            cfg.enabled.append(entry)
                        cfg.next_send_index = len(enabled)
                        ends = []
                        for first, second in ((a, b), (b, a)):
                            child = cfg.clone()
                            for mid in (first, second):
                                assert not apply_deliver(child, child.buffer[enabled.index(mid)])
                            ends.append((child.canonical_bytes(), child.crashed))
                        assert ends[0] == ends[1], scenario
                        diamonds += 1
                        pending = cfg.crash_pending
                        to_victim += pending is not None and pending.victim == d
        assert diamonds > 100 * len(scenarios) and to_victim and refused

    def test_one_delivery_rule_matches_the_unreduced_search(self):
        # The soundness gate of the one-delivery rule: exhaustive searches
        # by _dfs and by an oracle from configurations of recorded runs.
        # - Ten deliveries before the end of seeded runs (the protocol and
        #   the four mutants, crash-free and in crash cells), where most
        #   decisions have been made: the plain search.
        # - The first configuration of the same runs in which some process
        #   has decided and sent its second proposal, where others may still
        #   be undecided or owe their second proposal: the sleep-set-only
        #   search, which stores the plain search's configurations far more
        #   cheaply (the ordering mutant is left out: its graphs from there
        #   reach millions of configurations).
        # - Two deliveries before a crash bites at the victim's second
        #   proposal, in runs that starve another process, so that the
        #   victim decides first and owes its second proposal: the order of
        #   its deliveries decides what it has recorded when it dies.  The
        #   sleep-set-only search again.
        # Both searches must agree on whether there is a violation; each
        # witness must replay and fail its property; without a violation
        # both must reach the same terminal configurations; and _dfs must
        # store fewer configurations in total.
        starts = []
        for scenario in seeded_runs(5, 12):
            picks = recorded_picks(scenario)
            starts.append((scenario, picks, len(picks) - 10, unreduced_dfs))
            finished = [i for i, (cfg, _) in enumerate(picks)
                        if any(p.second_sent and p.decided is not None for p in cfg.processes)]
            if finished and scenario.rules != MUTANTS["ordering"]:
                starts.append((scenario, picks, finished[0], sleep_set_dfs))
        for starve in range(5):
            scenario = Scenario(
                n=5, values=tuple(VALUES),
                crash=CrashSpec((starve + 1) % 5, CrashPoint.BEFORE, MsgKind.SECOND),
                scheduler=SchedulerSpec(type="adversarial-lifo", starve=starve),
            )
            picks = recorded_picks(scenario)
            bite = next(i for i, (cfg, _) in enumerate(picks) if cfg.crashed is not None)
            starts.append((scenario, picks, bite - 2, sleep_set_dfs))
        configs = {unreduced_dfs: [0, 0], sleep_set_dfs: [0, 0]}
        violations = clean = 0
        for scenario, picks, at, oracle in starts:
            results = []
            for side, dfs in enumerate((_dfs, oracle)):
                stats, sink = _new_stats(10**7), set()
                found = dfs(picks[at][0].clone(), scenario, ExploreBounds(),
                            [m for _, m in picks[:at]], stats, set(), _Tables(scenario), sink)
                assert not stats["truncated"]
                configs[oracle][side] += stats["configs"]
                results.append((found, sink))
            (found, sink), (oracle_found, oracle_sink) = results
            where = (oracle.__name__, scenario, at)
            assert (found is None) == (oracle_found is None), where
            if found is None:
                assert sink == oracle_sink, where
                clean += 1
                continue
            violations += 1
            for prop, events in (found, oracle_found):
                witness = run(scripted(scenario, events))
                assert prop in check_properties(witness).failures()
                assert replays_identically(witness)
        assert violations and clean
        assert all(reduced < oracle for reduced, oracle in configs.values())

    @pytest.mark.parametrize("field", ["decided", "decision_entry"])
    def test_incremental_safety_check_sees_both_fields(self, monkeypatch, field):
        # The safety check is skipped unless a delivery replaced the
        # destination's decision or decision-stage entry.  A stand-in check
        # that fires on either field alone must stop the reduced search at
        # the same configuration as the plain search, which checks every one.
        def first_set(cfg, values):
            who = [i for i, p in enumerate(cfg.processes) if getattr(p, field) is not None]
            return (field, f"P{who[0]}") if who else None

        module = importlib.import_module("consensuslab.explore")
        monkeypatch.setattr(module, "safety_violation", first_set)
        monkeypatch.setattr(sys.modules[__name__], "safety_violation", first_set)
        scenario = base_scenario(crash=CrashSpec(2, CrashPoint.DURING, MsgKind.FIRST,
                                                 frozenset({0, 1})))
        found = []
        for dfs in (module._dfs, unreduced_dfs):
            cfg0, _ = new_configuration(5, list(VALUES), crash=scenario.crash)
            found.append(dfs(cfg0, scenario, ExploreBounds(), [], module._new_stats(10**6), set(),
                             _Tables(scenario)))
        assert found[0] is not None and found[0][0] == field
        assert found[0] == found[1]

    def test_explore_confirms_the_mutant_is_broken(self):
        # With the adoption rule disabled, mixed decision entries cannot
        # reconverge; exploring a mid-proposal crash cell finds an
        # agreement witness within a few hundred configurations.
        crash = CrashSpec(4, CrashPoint.DURING, MsgKind.FIRST, frozenset({0}))
        scenario = replace(base_scenario(), crash=crash, rules=MUTANTS["adopt-full"])
        verdict = explore(scenario, ExploreBounds(max_configs=100_000))
        assert verdict.outcome == OUTCOME_COUNTEREXAMPLE
        assert verdict.prop == "agreement"
        assert replays_identically(verdict.trace)

    def test_a_witness_longer_than_max_events_replays(self):
        # The search has no event bound, so its witness can outrun the
        # scenario's max_events; the witness trace raises its own bound, ends
        # by its script, and still fails agreement.
        crash = CrashSpec(4, CrashPoint.DURING, MsgKind.FIRST, frozenset({0}))
        scenario = replace(base_scenario(), crash=crash, rules=MUTANTS["adopt-full"],
                           max_events=10)
        verdict = explore(scenario, ExploreBounds(max_configs=100_000))
        assert verdict.outcome == OUTCOME_COUNTEREXAMPLE and verdict.prop == "agreement"
        deliveries = sum(isinstance(ev, Deliver) for ev in verdict.trace.events)
        assert deliveries > scenario.max_events
        assert verdict.trace.scenario.max_events > deliveries
        assert "agreement" in check_properties(verdict.trace).failures()
        assert replays_identically(verdict.trace)


class TestMinimize:
    def test_minimized_trace_still_fails_and_is_shorter(self):
        trace = run(racing_scenario())
        report = check_properties(trace)
        target = report.failures()[0]
        small = minimize(trace)
        assert len(small.events) <= len(trace.events)
        small_report = check_properties(small)
        assert target in small_report.failures()
        assert replays_identically(small)

    def test_minimize_rejects_passing_traces(self):
        trace = run(
            Scenario(
                n=5, values=tuple(VALUES), scheduler=SchedulerSpec(type="seeded-random", seed=6)
            )
        )
        with pytest.raises(ConfigError):
            minimize(trace)

    @pytest.mark.parametrize("n", [5, 6])
    def test_crash_free_termination_witness_returns_at_once(self, monkeypatch, n):
        # Every shortened script of a crash-free run leaves its first
        # dropped delivery enabled and so ends in script_end, which passes
        # termination: minimize replays no candidate, and returns what the
        # full chunk-deletion loop returns after failing every candidate.
        base = Scenario(n=n, values=tuple(default_values(n)), rules=MUTANTS["fill-mismatch"])
        verdict = fuzz(base, 100, stop_on_first=True)
        assert verdict.prop == "termination" and verdict.trace.scenario.crash is None
        module = importlib.import_module("consensuslab.explore")
        replays = []
        run_raw = module.run_raw
        monkeypatch.setattr(module, "run_raw", lambda *a, **kw: replays.append(1) or run_raw(*a, **kw))
        quick = minimize(verdict.trace)
        assert replays == []
        monkeypatch.setattr(module, "TERMINATION", None)  # force the loop on
        full = minimize(verdict.trace)
        assert len(replays) > 50
        assert quick.to_jsonl() == full.to_jsonl()
        assert "termination" in check_properties(quick).failures()

    def test_termination_witness_with_a_crash_still_shrinks(self):
        # With a crash, every dropped delivery can go to the victim, so a
        # shortened script can end stuck and still fail termination.
        base = replace(base_scenario(), rules=MUTANTS["fill-mismatch"])
        scenario = list(_fuzz_outcomes(base, crash_grid(5), 7, "bits", workers=1))[6][0]
        trace = run(scenario)
        assert scenario.crash is not None
        assert check_properties(trace).failures()[0] == "termination"
        small = minimize(trace)

        def deliveries(t):
            return sum(isinstance(ev, Deliver) for ev in t.events)

        assert deliveries(small) < deliveries(trace)
        assert "termination" in check_properties(small).failures()

    def test_minimize_is_idempotent_enough(self):
        trace = run(racing_scenario())
        once = minimize(trace)
        twice = minimize(once)
        assert len(twice.events) <= len(once.events)


class TestMutants:
    def test_ordering_mutant_fails_fast(self):
        scenario = replace(base_scenario(), rules=MUTANTS["ordering"])
        verdict = fuzz(scenario, 2000, stop_on_first=True)
        assert verdict.outcome == OUTCOME_COUNTEREXAMPLE

    def test_fill_mismatch_mutant_breaks_termination(self):
        scenario = replace(base_scenario(), rules=MUTANTS["fill-mismatch"])
        verdict = fuzz(scenario, 2000, stop_on_first=True)
        assert verdict.outcome == OUTCOME_COUNTEREXAMPLE
        assert verdict.prop == "termination"

    def test_adopt_full_mutant_breaks_agreement(self):
        scenario = replace(base_scenario(), rules=MUTANTS["adopt-full"])
        verdict = fuzz(scenario, 2000, stop_on_first=True)
        assert verdict.outcome == OUTCOME_COUNTEREXAMPLE
        assert verdict.prop == "agreement"

    def test_fill_relay_mutant_still_admits_the_race(self):
        # Disabling the relay-triggered obligation does not repair the
        # racing schedule: its triggers all come from gap mismatches.
        scenario = replace(racing_scenario(), rules=MUTANTS["fill-relay"])
        trace = run(scenario)
        report = check_properties(trace)
        assert "full_entrants" in report.failures()


# The first counterexample fuzz finds at n=5 for the protocol and each rule
# mutant: (failing seed, property, witness config_hash).  Any change to the
# run loop, the scheduler's random stream or the hashes moves these.
FIRST_COUNTEREXAMPLES = {
    "protocol": (412, "full_entrants", "7d825d14caf1f28c"),
    "ordering": (598, "full_entrants", "808c7e9a1b29dd6a"),
    "fill-mismatch": (0, "termination", "e88444b1b8a705e8"),
    "fill-relay": (55, "full_entrants", "a5e4c33097cb1bf4"),
    "adopt-full": (2, "agreement", "ff03fa3b41699b54"),
}


@pytest.mark.parametrize("name", sorted(FIRST_COUNTEREXAMPLES))
def test_fuzz_finds_the_pinned_first_counterexample(name):
    rules = MUTANTS.get(name, Rules())
    verdict = fuzz(replace(base_scenario(), rules=rules), 1000, values_mode="fixed",
                   stop_on_first=True)
    got = (verdict.failing_seed, verdict.prop, verdict.trace.verdict.config_hash)
    assert got == FIRST_COUNTEREXAMPLES[name]


# Seeds per size for the schedule pin below: at n=5 they reach the first
# counterexample of the protocol (seed 412) and of `ordering` (598).
PINNED_SEEDS = {5: 700, 6: 300, 15: 40}
# The sha256 of that sample.  Any change to a seeded schedule, a crash
# bite, a verdict or a hash moves it.
PINNED_SCHEDULES = "cb892c12a595b5160b65c1854c22ce8546e022726cfa7903610b44a3741d2ace"


def test_seeded_schedules_are_pinned():
    # Per size and values mode, the fuzz summary and witness hash of the
    # protocol and each rule mutant; per size, 40 seeded runs spread over
    # the crash grid with three fairness bounds, as whole traces (events
    # and final config_hash).
    digest = hashlib.sha256()
    for n, seeds in PINNED_SEEDS.items():
        base = Scenario(n=n, values=tuple(default_values(n)))
        for mode in ("bits", "fixed"):
            for rules in [Rules(), *MUTANTS.values()]:
                verdict = fuzz(replace(base, rules=rules), seeds, values_mode=mode)
                witness = verdict.trace and verdict.trace.verdict.config_hash
                digest.update(f"{n} {mode} {verdict.summary()} {witness}\n".encode())
        cells = crash_grid(n)
        for seed in range(40):
            spec = SchedulerSpec(seed=seed, fairness_bound=(1, 8, 64)[seed % 3])
            scenario = replace(base, crash=cells[seed * len(cells) // 40], scheduler=spec)
            digest.update(run(scenario).to_jsonl().encode())
    assert digest.hexdigest() == PINNED_SCHEDULES


def pinned_searches():
    """The searches of the outcome pin below: at n=5 and n=6, the protocol
    crash-free and in every ninth crash cell, and the four mutants
    crash-free and in a mid-proposal crash cell; each on a 2,000-config
    budget with and without a depth bound of 3, in one chunk and in four."""
    for n in (5, 6):
        base = Scenario(n=n, values=tuple(default_values(n)))
        during = CrashSpec(n - 1, CrashPoint.DURING, MsgKind.FIRST, frozenset({0}))
        scenarios = [base] + [base.with_crash(c) for c in crash_grid(n)[1::9]]
        scenarios += [replace(base, crash=crash, rules=rules)
                      for rules in MUTANTS.values() for crash in (None, during)]
        for scenario in scenarios:
            for bounds in (ExploreBounds(max_configs=2000),
                           ExploreBounds(max_depth=3, max_configs=2000)):
                for chunks in (1, 4):
                    yield scenario, bounds, chunks


# The sha256 of those searches' outcomes.  Any change to what a search
# stores, reaches or reports moves it; a renumbering of interned states
# does not.
PINNED_SEARCHES = "b45733680c2fe9e5245efc01ce6d099837acb3fb3271fcd9061acad9e1c2ee4f"


def test_search_outcomes_are_pinned():
    # Per search: the outcome, the property, the full stats, the witness
    # trace as JSONL, and the sorted terminal and frontier images.
    digest = hashlib.sha256()
    searches = 0
    for scenario, bounds, chunks in pinned_searches():
        sink: set = set()
        verdict = explore(scenario, bounds, chunks=chunks, reach_sink=sink)
        digest.update(f"{verdict.outcome} {verdict.prop} {sorted(verdict.stats.items())}\n".encode())
        digest.update((verdict.trace.to_jsonl() if verdict.trace else "-").encode())
        for image in sorted(sink):
            digest.update(image + b"\n")
        searches += 1
    assert searches > 150
    assert digest.hexdigest() == PINNED_SEARCHES
