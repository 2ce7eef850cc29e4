"""Acceptance gate: one test per criterion, each printing its verdict line.

Criterion 5 runs the exhaustive search at its full default budget and
dominates the suite's runtime (tens of minutes on a small machine); run
``pytest tests/test_acceptance.py -k "not criterion_5"`` while iterating.

Criteria 4 and 5 accept either a fully clean sweep or a replayable
counterexample; this protocol has reachable violations (see
consensuslab.findings), so counterexample verdicts here are expected,
verified outcomes, not test failures.  The only unacceptable result is an
inconsistency the tooling fails to notice or reproduce.
"""

import time
from dataclasses import replace

import pytest

from consensuslab.binary import bf, binary_from_async, commutativity_check
from consensuslab.cases import run_case_suite
from consensuslab.explore import (
    MUTANTS,
    OUTCOME_ALL_PASS,
    OUTCOME_BOUND,
    OUTCOME_COUNTEREXAMPLE,
    ExploreBounds,
    _explore_chunk,
    explore,
    fuzz,
    minimize,
)
from consensuslab.properties import check_properties
from consensuslab.scenario import Scenario, SchedulerSpec, default_values
from consensuslab.simulation import enabled_deliveries, new_configuration
from consensuslab.trace import replays_identically, run, scripted

FAIRNESS_BOUND = 64
MAX_EVENTS = 10_000


def _base(n):
    return Scenario(
        n=n,
        values=tuple(default_values(n)),
        scheduler=SchedulerSpec(type="seeded-random", seed=0, fairness_bound=FAIRNESS_BOUND),
        max_events=MAX_EVENTS,
    )


@pytest.fixture(scope="module")
def case_results():
    return run_case_suite()


@pytest.fixture(scope="module")
def fuzz_results():
    """Criterion 4's runs, shared with criteria 3, 6, and 7."""
    grids = {}
    start = time.perf_counter()
    for n, seeds in ((5, 10_000), (6, 1_000), (7, 1_000)):
        collected = []
        verdict = fuzz(_base(n), seeds, values_mode="bits", collect_traces=collected)
        grids[n] = (verdict, collected)
    return {"grids": grids, "elapsed": time.perf_counter() - start}


def test_criterion_1_case_suite_fidelity(case_results):
    start = time.perf_counter()
    rerun = run_case_suite()
    elapsed = time.perf_counter() - start
    failures = [r.case.case_id for r in rerun if not r.ok]
    assert not failures, f"cases deviating from their documented outcomes: {failures}"
    assert elapsed < 1.0, f"case suite took {elapsed:.2f}s, budget is 1s"
    print(f"\ncriterion 1: PASS - {len(rerun)} scripted scenarios match exactly ({elapsed:.2f}s)")


def test_criterion_2_commutativity():
    start = time.perf_counter()
    reports = [commutativity_check(n, tie) for n in (5, 6) for tie in (0, 1)]
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in reports)
    assert [r.instances for r in reports] == [192, 192, 448, 448]
    assert elapsed < 10.0
    print(
        f"\ncriterion 2: PASS - {sum(r.instances for r in reports)} instances, "
        f"0 mismatches across both tie rules ({elapsed:.2f}s)"
    )


def test_criterion_3_binary_lift(fuzz_results):
    from consensuslab.scenario import bit_values

    mismatches = 0
    lifted = 0
    # Every agreement-passing scripted case, re-run on single-bit inputs.
    for pattern in (0b01011, 0b11000):
        for result in run_case_suite(values=bit_values(5, pattern)):
            report = check_properties(result.trace)
            if not report.agreement.ok:
                continue
            for tie in (0, 1):
                lift = binary_from_async(result.trace, tie)
                lifted += 1
                assert lift.bit in (0, 1)
    # Every agreement-passing run of the criterion-4 grids (bit-valued).
    for n, (_verdict, collected) in fuzz_results["grids"].items():
        for _scenario, decided in collected:
            vectors = [v for v in decided if v is not None]
            if not vectors:
                continue
            for tie in (0, 1):
                bits = {bf(v, tie) for v in vectors}
                lifted += 1
                if len(bits) != 1:
                    mismatches += 1
    assert mismatches == 0
    print(f"\ncriterion 3: PASS - {lifted} lifted verdicts, one bit each, 0 mismatches")


def test_criterion_4_fuzz_verdict(fuzz_results):
    assert fuzz_results["elapsed"] < 300.0, "fuzz grid exceeded its five-minute budget"
    lines = []
    for n, (verdict, _collected) in fuzz_results["grids"].items():
        assert verdict.outcome in (OUTCOME_ALL_PASS, OUTCOME_COUNTEREXAMPLE)
        if verdict.outcome == OUTCOME_COUNTEREXAMPLE:
            # A reported inconsistency must be reproducible and must
            # survive minimization still failing the same property.
            assert replays_identically(verdict.trace)
            report = check_properties(verdict.trace)
            assert verdict.prop in report.failures()
            small = minimize(verdict.trace, max_replays=1500)
            assert verdict.prop in check_properties(small).failures()
            assert len(small.events) <= len(verdict.trace.events)
            lines.append(
                f"N={n}: counterexample ({verdict.prop}, seed {verdict.failing_seed}, "
                f"witness {len(verdict.trace.events)} -> {len(small.events)} events)"
            )
        else:
            lines.append(f"N={n}: all-pass over {verdict.stats['runs']} runs")
    print(f"\ncriterion 4: PASS - {'; '.join(lines)} ({fuzz_results['elapsed']:.0f}s)")


@pytest.fixture(scope="module")
def exploration():
    scenario = _base(5)
    start = time.perf_counter()
    verdict = explore(scenario, ExploreBounds(max_configs=5_000_000), chunks=16, workers=2)
    return verdict, time.perf_counter() - start


def test_criterion_5_exhaustive_small_instance(exploration):
    verdict, elapsed = exploration
    assert verdict.outcome in (OUTCOME_ALL_PASS, OUTCOME_COUNTEREXAMPLE, OUTCOME_BOUND)
    if verdict.outcome == OUTCOME_COUNTEREXAMPLE:
        assert replays_identically(verdict.trace)
        detail = f"counterexample ({verdict.prop})"
    elif verdict.outcome == OUTCOME_BOUND:
        # Accepted fallback: a coverage report over at least a million
        # distinct configurations.
        assert verdict.stats["configs"] >= 1_000_000
        detail = "bound-exhausted with coverage report"
    else:
        detail = "all-pass (exhaustive)"
    print(
        f"\ncriterion 5: PASS - {detail}; "
        f"configs={verdict.stats['configs']}, dedupe_hits={verdict.stats['dedupe_hits']}, "
        f"terminals={verdict.stats['terminals']} ({elapsed:.0f}s)"
    )


def test_criterion_5_worker_invariance():
    bounds = ExploreBounds(max_configs=20_000)
    one = explore(_base(5), bounds, chunks=8, workers=1)
    many = explore(_base(5), bounds, chunks=8, workers=2)
    assert (one.outcome, one.prop, one.stats) == (many.outcome, many.prop, many.stats)
    print("\ncriterion 5 (workers): PASS - identical verdict and stats for 1 vs 2 workers")


def test_criterion_5_race_chunk_alone():
    # Criterion 5's search power, pinned in about a second: explore splits
    # the search by first delivery into 16 chunks with a 312,500-config
    # share each, and the 16th chunk alone must find the agreement race
    # within its share, with a witness that replays.
    scenario = _base(5)
    bounds = ExploreBounds(max_configs=5_000_000)
    chunks = 16
    cfg0, _ = new_configuration(5, list(scenario.values))
    roots = [(e.message.sender, e.message.seq, e.message.dest)
             for e in reversed(enabled_deliveries(cfg0))]
    share = bounds.max_configs // chunks
    result = _explore_chunk((scenario, bounds, roots[chunks - 1::chunks], share))
    assert result["violation"] is not None
    prop, events = result["violation"]
    assert prop == "agreement"
    assert result["stats"]["configs"] <= share
    witness = run(scripted(scenario, events))
    assert prop in check_properties(witness).failures()
    assert replays_identically(witness)


def test_criterion_5_race_unchunked():
    # The state-dependent sleep sets, pinned: one search from the start
    # configuration, without chunks, finds the agreement race within
    # 500,000 configurations (it takes 429,848); with sleep sets that call
    # every two deliveries to one process dependent it runs out of budget.
    verdict = explore(_base(5), ExploreBounds(max_configs=500_000))
    assert verdict.outcome == OUTCOME_COUNTEREXAMPLE
    assert verdict.prop == "agreement"
    assert verdict.stats["configs"] <= 500_000
    assert replays_identically(verdict.trace)


def test_criterion_6_mutation_sensitivity():
    lines = []
    for name, rules in MUTANTS.items():
        scenario = replace(_base(5), rules=rules)
        verdict = fuzz(scenario, 10_000, values_mode="bits", stop_on_first=True)
        assert verdict.outcome == OUTCOME_COUNTEREXAMPLE, f"mutant {name} went undetected"
        assert replays_identically(verdict.trace)
        lines.append(f"{name}: {verdict.prop}@seed{verdict.failing_seed}")
    print(f"\ncriterion 6: PASS - every disabled rule is caught ({'; '.join(lines)})")


def test_criterion_7_determinism(case_results, fuzz_results):
    for result in case_results:
        assert replays_identically(result.trace), result.case.case_id
    for n, (verdict, _) in fuzz_results["grids"].items():
        if verdict.trace is not None:
            assert replays_identically(verdict.trace)
    again = fuzz(_base(5), 600, values_mode="bits")
    once_more = fuzz(_base(5), 600, values_mode="bits")
    assert again.stats == once_more.stats
    assert again.failing_seed == once_more.failing_seed
    assert again.outcome == once_more.outcome
    print(
        "\ncriterion 7: PASS - every emitted trace replays to its hash; "
        "same-seed fuzz aggregates are identical"
    )
