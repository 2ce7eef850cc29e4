"""Scheduler behavior: scripts fail fast, randomness is fair, the
adversary starves whom it is told to."""

import random
from dataclasses import replace

import pytest

from consensuslab.errors import SimulatorBug
from consensuslab.protocol import MsgKind, gap_indices
from consensuslab.scenario import Scenario, SchedulerSpec, crash_grid, default_values
from consensuslab.schedulers import (
    AdversarialLifoScheduler,
    SeededRandomScheduler,
    scheduler_from_spec,
)
from consensuslab.simulation import CrashPoint, CrashSpec
from consensuslab.trace import run, run_raw, scripted

VALUES = default_values(5)


def test_script_matching_nothing_fails_fast():
    scenario = Scenario(
        n=5,
        values=tuple(VALUES),
        scheduler=SchedulerSpec(type="scripted", script=(("deliver", 0, "final", 1),)),
    )
    with pytest.raises(SimulatorBug):
        run(scenario)


def test_script_exhaustion_yields_script_end():
    scenario = Scenario(
        n=5,
        values=tuple(VALUES),
        scheduler=SchedulerSpec(type="scripted", script=(("deliver", 0, "initial", 1),)),
    )
    trace = run(scenario)
    assert trace.verdict.status == "script_end"
    assert all(v is None for v in trace.verdict.decided)


def test_seeded_random_is_reproducible():
    mk = lambda: Scenario(
        n=5, values=tuple(VALUES), scheduler=SchedulerSpec(type="seeded-random", seed=99)
    )
    assert run(mk()).to_jsonl() == run(mk()).to_jsonl()


def test_fairness_guard_delivers_everything():
    # Even a tiny fairness bound ends with a fully drained buffer.
    scenario = Scenario(
        n=5,
        values=tuple(VALUES),
        scheduler=SchedulerSpec(type="seeded-random", seed=4, fairness_bound=1),
    )
    trace = run(scenario)
    assert trace.verdict.status == "complete"
    assert trace.verdict.undelivered == []


def test_adversarial_lifo_starves_the_victims_outbound():
    # Starving P4's messages keeps its value out of everyone's proposals:
    # all five decide the vector gapped at slot 4, P4 included.
    scenario = Scenario(
        n=5,
        values=tuple(VALUES),
        scheduler=SchedulerSpec(type="adversarial-lifo", seed=0, fairness_bound=64, starve=4),
    )
    trace = run(scenario)
    assert trace.verdict.status == "complete"
    expected = (VALUES[0], VALUES[1], VALUES[2], VALUES[3], None)
    assert all(vec == expected for vec in trace.verdict.decided)


def test_adversarial_lifo_without_victim_still_decides():
    scenario = Scenario(
        n=5,
        values=tuple(VALUES),
        scheduler=SchedulerSpec(type="adversarial-lifo", seed=0, fairness_bound=64),
    )
    trace = run(scenario)
    assert trace.verdict.status == "complete"
    decided = {vec for vec in trace.verdict.decided}
    assert len(decided) == 1
    vec = decided.pop()
    assert len(gap_indices(vec)) <= 1


# The fairness guard as first written: remember the pick at which each
# entry was first enabled and scan every enabled entry at every pick.  It
# is the oracle for the send-index watermark that replaced it.


class _ScanGuard:
    def __init__(self, fairness_bound):
        self.fairness_bound = fairness_bound
        self.picks = 0
        self.first_seen = {}

    def overdue(self, delivers):
        self.picks += 1
        for e in delivers:
            self.first_seen.setdefault(e.send_index, self.picks)
        overdue = [
            e
            for e in delivers
            if self.picks - self.first_seen[e.send_index] > self.fairness_bound
        ]
        return min(overdue, key=lambda e: e.send_index) if overdue else None


class _ScanSeededRandom(SeededRandomScheduler):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.scan = _ScanGuard(self.fairness_bound)

    def next(self, cfg, delivers):
        if not delivers:
            return None
        overdue = self.scan.overdue(delivers)
        if overdue is not None:
            return overdue
        return delivers[self.rng.randrange(len(delivers))]


class _ScanAdversarialLifo(AdversarialLifoScheduler):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.scan = _ScanGuard(self.fairness_bound)

    def next(self, cfg, delivers):
        if not delivers:
            return None
        overdue = self.scan.overdue(delivers)
        if overdue is not None:
            return overdue
        preferred = [e for e in delivers if e.message.sender != self.starve]
        return max(preferred or delivers, key=lambda e: e.send_index)


def _scan_oracle(spec: SchedulerSpec):
    if spec.type == "seeded-random":
        return _ScanSeededRandom(seed=spec.seed, fairness_bound=spec.fairness_bound)
    return _ScanAdversarialLifo(starve=spec.starve, fairness_bound=spec.fairness_bound)


def _differential_cells(n):
    # No crash, a crash before the first broadcast (lower pids have already
    # sent to the victim), and crashes during and after later broadcasts.
    grid = crash_grid(n)
    return [
        None,
        CrashSpec(n // 2, CrashPoint.BEFORE, MsgKind.INITIAL),
        next(c for c in grid[1:] if c.point == CrashPoint.DURING and c.kind == MsgKind.FIRST),
        next(c for c in grid[1:] if c.point == CrashPoint.AFTER and c.kind == MsgKind.SECOND),
    ]


@pytest.mark.parametrize("n", [5, 15])
@pytest.mark.parametrize("fairness_bound", [0, 1, 64])
def test_watermark_guard_matches_the_scan_oracle(n, fairness_bound):
    specs = [
        SchedulerSpec(type="seeded-random", seed=7, fairness_bound=fairness_bound),
        SchedulerSpec(type="adversarial-lifo", fairness_bound=fairness_bound),
        SchedulerSpec(type="adversarial-lifo", fairness_bound=fairness_bound, starve=1),
    ]
    for crash in _differential_cells(n):
        for spec in specs:
            scenario = Scenario(
                n=n, values=tuple(default_values(n)), crash=crash, scheduler=spec
            )
            expected = run(scenario, scheduler=_scan_oracle(spec)).to_jsonl()
            assert run(scenario).to_jsonl() == expected, (crash, spec)



class _NoGuardConfig:
    next_send_index = 0


def test_index_draw_is_randranges_stream():
    # The seeded scheduler draws its index as Random._randbelow does, so a
    # run's schedule is the one random.randrange would give, bit for bit.
    # k runs over 1 and every power of two up to 256; the fairness bound is
    # never reached, so every pick is a draw.
    for seed in range(50):
        scheduler = SeededRandomScheduler(seed, fairness_bound=1000)
        reference = random.Random(seed)
        for k in range(1, 301):
            delivers = list(range(k))
            assert scheduler.next(_NoGuardConfig, delivers) == reference.randrange(k), (seed, k)


class _Watching:
    """Passes each pick to ``inner`` and checks that it was handed the
    configuration's own list, left it as it was, and returned one of its
    entries."""

    def __init__(self, inner):
        self.inner = inner
        self.picks = 0

    def next(self, cfg, delivers):
        assert delivers is cfg.enabled
        before = list(delivers)
        choice = self.inner.next(cfg, delivers)
        assert len(delivers) == len(before)
        assert all(now is then for now, then in zip(delivers, before))
        assert choice is None or any(choice is e for e in delivers)
        self.picks += 1
        return choice


@pytest.mark.parametrize("n", [5, 15])
def test_no_scheduler_mutates_the_list_it_is_handed(n):
    base = Scenario(n=n, values=tuple(default_values(n)))
    for crash in _differential_cells(n):
        scenario = base.with_crash(crash)
        recorded = run(scenario).events
        scenarios = [
            replace(scenario, scheduler=SchedulerSpec(seed=3, fairness_bound=1)),
            replace(scenario, scheduler=SchedulerSpec(type="adversarial-lifo", starve=1)),
            scripted(scenario, recorded),
        ]
        half = scripted(scenario, recorded[: len(recorded) // 2]).scheduler
        scenarios.append(replace(scenario, scheduler=replace(half, drain_rest=True)))
        for each in scenarios:
            watching = _Watching(scheduler_from_spec(each.scheduler))
            run_raw(each, scheduler=watching)
            assert watching.picks > 1

