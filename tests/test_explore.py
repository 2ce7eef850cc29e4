"""Fuzzing, exhaustive search, minimization, and the rule mutants."""

import importlib
from dataclasses import replace

import pytest

from consensuslab.errors import ConfigError
from consensuslab.explore import (
    MUTANTS,
    OUTCOME_ALL_PASS,
    OUTCOME_BOUND,
    OUTCOME_COUNTEREXAMPLE,
    ExploreBounds,
    explore,
    fuzz,
    minimize,
)
from consensuslab.findings import racing_scenario
from consensuslab.properties import check_properties
from consensuslab.protocol import MsgKind
from consensuslab.scenario import Scenario, SchedulerSpec, crash_grid, default_values
from consensuslab.simulation import CrashPoint, CrashSpec
from consensuslab.trace import replays_identically, run

VALUES = default_values(5)


def base_scenario(**kw):
    return Scenario(
        n=5,
        values=tuple(VALUES),
        scheduler=SchedulerSpec(type="seeded-random", seed=0, fairness_bound=64),
        **kw,
    )


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
        # The process-step memo must be invisible: every verdict, witness,
        # count and reached state equals that of a search that steps each
        # delivery afresh, with and without crashes and under the mutants.
        scenarios = [base_scenario()]
        scenarios += [base_scenario(crash=c) for c in crash_grid(5)[1::17]]
        scenarios += [
            replace(base_scenario(), crash=CrashSpec(4, CrashPoint.DURING, MsgKind.FIRST,
                                                     frozenset({0})), rules=rules)
            for rules in MUTANTS.values()
        ]

        def search_all():
            out = []
            for scenario in scenarios:
                for bounds in (ExploreBounds(max_configs=1000), ExploreBounds(max_depth=3)):
                    sink: set = set()
                    v = explore(scenario, bounds, reach_sink=sink)
                    out.append((v.outcome, v.prop, v.stats, v.trace and v.trace.to_jsonl(), sink))
            return out

        memoized = search_all()
        module = importlib.import_module("consensuslab.explore")
        plain = module.apply_deliver
        monkeypatch.setattr(module, "apply_deliver", lambda cfg, entry, steps=None: plain(cfg, entry))
        assert search_all() == memoized
        assert any(v[0] == OUTCOME_COUNTEREXAMPLE for v in memoized)

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
