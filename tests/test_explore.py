"""Fuzzing, exhaustive search, minimization, and the rule mutants."""

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
from consensuslab.simulation import (
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


def unreduced_dfs(cfg0, base, bounds, prefix, stats, seen, steps, sink=None, sleep=0):
    """The plain search, as an oracle for ``explore._dfs``: every enabled
    delivery is cloned and stepped afresh, and every new configuration is
    safety-checked (no step memo, no sleep set and no one-delivery rule)."""
    values = list(base.values)

    def key(cfg, depth):
        return cfg.dedupe_digest() if bounds.max_depth is None else (cfg.dedupe_digest(), depth)

    def events(messages):
        return [Deliver(m.sender, m.seq, m.dest, m.kind) for m in messages]

    v = safety_violation(cfg0, values)
    if v is not None:
        return v[0], events(prefix)
    stats["configs"] += 1
    if bounds.dedupe:
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
        if bounds.dedupe:
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
                sink.add(child.dedupe_digest())
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
                sink.add(child.dedupe_digest())
            path.pop()
            continue
        stack.append((child, nxt, depth + 1))
    return None


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

    def test_dedupe_on_off_reach_the_same_states(self):
        # Cross-validation at a shallow depth bound: the set of reached
        # frontier/terminal state digests is identical with and without
        # deduplication; dedupe only removes revisits.
        scenario = base_scenario()
        bounds_on = ExploreBounds(max_depth=4, max_configs=1_000_000, dedupe=True)
        bounds_off = ExploreBounds(max_depth=4, max_configs=1_000_000, dedupe=False)
        reached_on: set = set()
        reached_off: set = set()
        explore(scenario, bounds_on, reach_sink=reached_on)
        explore(scenario, bounds_off, reach_sink=reached_off)
        assert reached_on == reached_off
        assert len(reached_on) > 0

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

    def test_memoized_steps_do_not_change_the_search(self, monkeypatch):
        # The step memo shared by every root of every chunk, and the dedupe
        # check made from it before the clone, must be invisible: every
        # verdict, witness, count and reached state equals that of a search
        # that clones and steps each delivery afresh, with and without
        # crashes, under the mutants, chunked or not, in this process or in
        # a pool (whose forked workers inherit the patched search).
        scenarios = [base_scenario()]
        scenarios += [base_scenario(crash=c) for c in crash_grid(5)[1::17]]
        scenarios += [
            replace(base_scenario(), crash=CrashSpec(4, CrashPoint.DURING, MsgKind.FIRST,
                                                     frozenset({0})), rules=rules)
            for rules in MUTANTS.values()
        ]
        runs = [(1, 1), (4, 1), (4, 2), (16, 1), (16, 2)]

        def search_all():
            out = []
            for scenario in scenarios:
                for bounds in (ExploreBounds(max_configs=1000), ExploreBounds(max_depth=3)):
                    for chunks, workers in runs:
                        sink: set = set()
                        v = explore(scenario, bounds, chunks=chunks, workers=workers,
                                    reach_sink=sink)
                        out.append((v.outcome, v.prop, v.stats, v.trace and v.trace.to_jsonl(),
                                    sink))
            return out

        memoized = search_all()
        module = importlib.import_module("consensuslab.explore")
        dfs = module._dfs

        def afresh(cfg0, base, bounds, prefix, stats, seen, steps, *rest, **kw):
            return dfs(cfg0, base, bounds, prefix, stats, seen, None, *rest, **kw)

        def no_memo(*args):
            raise AssertionError("the oracle looked a step up")

        monkeypatch.setattr(module, "_dfs", afresh)
        monkeypatch.setattr(module, "memo_step", no_memo)
        assert search_all() == memoized
        assert any(v[0] == OUTCOME_COUNTEREXAMPLE for v in memoized)

    @pytest.mark.parametrize("n", [5, 6])
    def test_probed_digest_is_the_built_childs_digest(self, monkeypatch, n):
        # The dedupe check before the clone computes the child's digest from
        # the parent's accumulators and the memo entry.  Inside real
        # searches, it must equal the digest of the child built by a clone
        # and a fresh step, for every probed delivery: crash-free, in every
        # crash cell of one victim, and under the four mutants.  Deliveries
        # to a pending crash victim must never be probed; they take the
        # fallback path, clone first and step afresh.
        values = tuple(default_values(n))
        base = Scenario(n=n, values=values)
        mid = CrashSpec(n - 1, CrashPoint.DURING, MsgKind.FIRST, frozenset({0}))
        scenarios = [base] + [base.with_crash(c) for c in crash_grid(n)[1:] if c.victim == 1]
        scenarios += [replace(base, crash=crash, rules=rules)
                      for rules in MUTANTS.values() for crash in (None, mid)]
        module = importlib.import_module("consensuslab.explore")
        step_digest, plain = Configuration.step_digest, module.apply_deliver
        probes, fallbacks = [], []

        def checked(cfg, entry, step):
            pending = cfg.crash_pending
            assert pending is None or pending.victim != entry.message.dest
            built = cfg.clone()
            plain(built, entry)
            probed = step_digest(cfg, entry, step)
            assert probed == built.dedupe_digest()
            probes.append(probed)
            return probed

        def counted(cfg, entry):
            pending = cfg.crash_pending
            if pending is not None and pending.victim == entry.message.dest:
                fallbacks.append(entry)
            return plain(cfg, entry)

        monkeypatch.setattr(Configuration, "step_digest", checked)
        monkeypatch.setattr(module, "apply_deliver", counted)
        for scenario in scenarios:
            before = len(probes)
            explore(scenario, ExploreBounds(max_configs=400), chunks=2)
            explore(scenario, ExploreBounds(max_depth=3, max_configs=400))
            assert len(probes) > before
        assert fallbacks and len(probes) > 10 * len(scenarios)

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
                            images.append((child.dedupe_digest(), child.config_hash()))
                        assert images[0] == images[1], scenario
                        pairs += 1
        assert pairs > 1000

    def test_one_delivery_rule_matches_the_unreduced_search(self):
        # The soundness gate of the one-delivery rule.  From the
        # configuration ten deliveries before the end of seeded runs (the
        # protocol and the four mutants, crash-free and in crash cells), an
        # exhaustive search by _dfs and by the plain search must agree on
        # whether there is a violation; each witness must replay and fail
        # its property; without a violation both must reach the same
        # terminal configurations; and _dfs must store fewer configurations
        # in total.
        back = 10
        configs = {"reduced": 0, "plain": 0}
        violations = clean = 0
        for scenario in seeded_runs(5, 12):
            picks = recorded_picks(scenario)
            cfg0 = picks[-back][0]
            prefix = [m for _, m in picks[:-back]]
            results = {}
            for name, dfs in (("reduced", _dfs), ("plain", unreduced_dfs)):
                stats, sink = _new_stats(10**7), set()
                found = dfs(cfg0.clone(), scenario, ExploreBounds(), prefix, stats, set(), {}, sink)
                assert not stats["truncated"]
                configs[name] += stats["configs"]
                results[name] = (found, sink)
            (found, sink), (plain_found, plain_sink) = results["reduced"], results["plain"]
            assert (found is None) == (plain_found is None), (scenario.rules, scenario.scheduler.seed)
            if found is None:
                assert sink == plain_sink
                clean += 1
                continue
            violations += 1
            for prop, events in (found, plain_found):
                witness = run(scripted(scenario, events))
                assert prop in check_properties(witness).failures()
                assert replays_identically(witness)
        assert violations and clean
        assert configs["reduced"] < configs["plain"]

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
                             {}))
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
