"""Schedule fuzzing, bounded exhaustive interleaving search, and trace
minimization.

Both drivers end in one of three outcomes: every checked run satisfied
all properties (``all-pass``), a property failed and a replayable witness
trace is attached (``counterexample``), or a budget ran out first
(``bound-exhausted``).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError, ConsensusLabError
from .properties import (
    PROPERTY_NAMES,
    check_properties,
    report_for_config,
    safety_violation,
    terminal_violation,
)
from .protocol import Rules, decode_vector, encode_vector
from .scenario import Scenario, SchedulerSpec, bit_values, crash_grid
from .schedulers import ScriptedScheduler
from .simulation import Deliver, apply_deliver, enabled_deliveries, new_configuration
from .trace import STATUS_COMPLETE, STATUS_STUCK, Trace, run, run_raw

OUTCOME_ALL_PASS = "all-pass"
OUTCOME_COUNTEREXAMPLE = "counterexample"
OUTCOME_BOUND = "bound-exhausted"

EXIT_FOR_OUTCOME = {OUTCOME_ALL_PASS: 0, OUTCOME_COUNTEREXAMPLE: 2, OUTCOME_BOUND: 3}

# The four rule mutants used to prove the checkers are not vacuous.
MUTANTS = {
    "ordering": Rules(ordered_delivery=False),
    "fill-mismatch": Rules(fill_on_gap_mismatch=False),
    "fill-relay": Rules(fill_on_second=False),
    "adopt-full": Rules(adopt_full_vector=False),
}


@dataclass(frozen=True)
class ExploreBounds:
    max_depth: Optional[int] = None  # None = bounded only by the run itself
    max_configs: int = 5_000_000
    dedupe: bool = True

    def validate(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be positive")
        if self.max_configs < 1:
            raise ConfigError("max_configs must be positive")


@dataclass
class ExploreVerdict:
    outcome: str
    prop: Optional[str] = None
    trace: Optional[Trace] = None
    stats: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return EXIT_FOR_OUTCOME[self.outcome]

    def summary(self) -> str:
        extra = f" ({self.prop})" if self.prop else ""
        stats = ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
        return f"{self.outcome}{extra} [{stats}]"


def _scripted_scenario(base: Scenario, events: list) -> Scenario:
    script = tuple(
        ("deliver_seq", ev.sender, ev.seq, ev.dest) for ev in events if isinstance(ev, Deliver)
    )
    return Scenario(
        n=base.n,
        values=base.values,
        crash=base.crash,
        scheduler=SchedulerSpec(type="scripted", script=script),
        max_events=base.max_events,
        rules=base.rules,
        final_quorum=base.final_quorum,
    )


def _witness(base: Scenario, events: list, prop: str) -> Trace:
    """Package a failing schedule as a standalone trace and prove it fails."""
    scenario = _scripted_scenario(base, events)
    trace = run(scenario)
    report = check_properties(trace)
    if report.check(prop).ok:
        raise ConsensusLabError(
            f"internal error: witness for {prop} does not reproduce the failure"
        )
    return trace


# ---------------------------------------------------------------------------
# Exhaustive interleaving search
# ---------------------------------------------------------------------------


def _dfs(cfg0, base: Scenario, bounds: ExploreBounds, prefix: list, stats: dict, seen: set,
         sink: Optional[set] = None):
    """Depth-first search over all delivery interleavings from ``cfg0``.

    Returns (property, witness_events) or None.  Children are expanded
    newest-delivery-first, which reaches adversarial reorderings early.
    Deduplication keys on the canonical state digest; when a depth bound is
    set the key also includes the depth so pruning stays exact.  ``sink``
    collects the digests of terminal and depth-frontier configurations,
    which lets tests cross-validate deduplication on and off.  Process steps
    are memoized across the search (a few hundred distinct steps recur in
    millions of deliveries on n=5).
    """
    values = list(base.values)
    steps: dict = {}
    depth_key = bounds.max_depth is not None
    depth0 = len(prefix)

    def digest(cfg, depth):
        d = cfg.dedupe_digest()
        return (d, depth) if depth_key else d

    v = safety_violation(cfg0, values)
    if v is not None:
        return v[0], list(prefix)
    stats["configs"] += 1
    if bounds.dedupe:
        seen.add(digest(cfg0, depth0))
    # enabled_deliveries lists entries in send order; popping from the end
    # expands the newest delivery first.
    stack = [(cfg0, enabled_deliveries(cfg0), depth0)]
    path = list(prefix)
    while stack:
        cfg, children, depth = stack[-1]
        if not children:
            stack.pop()
            if path and len(path) > len(prefix):
                path.pop()
            continue
        entry = children.pop()
        child = cfg.clone()
        apply_deliver(child, child.buffer[entry.send_index], steps)
        m = entry.message
        path.append(Deliver(m.sender, m.seq, m.dest, m.kind))
        if bounds.dedupe:
            key = digest(child, depth + 1)
            if key in seen:
                stats["dedupe_hits"] += 1
                path.pop()
                continue
            seen.add(key)
        stats["configs"] += 1
        v = safety_violation(child, values)
        if v is not None:
            return v[0], list(path)
        nxt = enabled_deliveries(child)
        if not nxt:
            stats["terminals"] += 1
            if sink is not None:
                sink.add(child.dedupe_digest())
            status = STATUS_COMPLETE if child.all_alive_decided() else STATUS_STUCK
            v = terminal_violation(child, values, status)
            if v is not None:
                return v[0], list(path)
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


def _new_stats(budget: int) -> dict:
    return {
        "configs": 0,
        "dedupe_hits": 0,
        "terminals": 0,
        "frontier": 0,
        "truncated": False,  # some configuration was left unexpanded
        "exhausted": False,  # the budget ran out
        "budget": budget,
    }


def _explore_chunk(args) -> dict:
    scenario_dict, bounds, first_keys, budget = args
    base = Scenario.from_dict(scenario_dict)
    cfg0, _ = new_configuration(
        base.n, list(base.values), crash=base.crash, rules=base.rules,
        final_quorum=base.final_quorum,
    )
    stats = _new_stats(budget)
    seen: set = set()
    sink: set = set()
    found = None
    for key in first_keys:
        child = cfg0.clone()
        matching = [
            e
            for e in enabled_deliveries(child)
            if (e.message.sender, e.message.seq, e.message.dest) == tuple(key)
        ]
        m = matching[0].message
        apply_deliver(child, matching[0])
        prefix = [Deliver(m.sender, m.seq, m.dest, m.kind)]
        found = _dfs(child, base, bounds, prefix, stats, seen, sink)
        if found is not None or stats["exhausted"]:
            break
    result = {"stats": {k: stats[k] for k in ("configs", "dedupe_hits", "terminals", "frontier")},
              "truncated": stats["truncated"], "violation": None, "reached": sink}
    if found is not None:
        prop, events = found
        result["violation"] = (prop, [ev.to_dict() for ev in events])
    return result


def explore(
    scenario: Scenario,
    bounds: ExploreBounds = ExploreBounds(),
    chunks: int = 1,
    workers: int = 1,
    reach_sink: Optional[set] = None,
) -> ExploreVerdict:
    """Enumerate delivery interleavings and check every reached configuration.

    With ``chunks > 1`` the search space is split by the first delivery and
    the chunks are explored independently (optionally by a process pool);
    the reported verdict is the one a sequential chunk-by-chunk run would
    give, so the worker count never changes the outcome.  Each chunk gets
    an equal share of ``max_configs`` and its own seen set, so a state
    reachable from several chunks is counted once per chunk: the ``configs``
    and ``terminals`` counts rise with ``chunks``, while the set of reached
    states collected in ``reach_sink`` does not change unless a chunk runs
    out of budget.
    """
    bounds.validate()
    cfg0, _ = new_configuration(
        scenario.n, list(scenario.values), crash=scenario.crash, rules=scenario.rules,
        final_quorum=scenario.final_quorum,
    )
    roots = list(reversed(enabled_deliveries(cfg0)))  # newest first
    root_keys = [(e.message.sender, e.message.seq, e.message.dest) for e in roots]

    if chunks <= 1:
        stats = _new_stats(bounds.max_configs)
        found = _dfs(cfg0, scenario, bounds, [], stats, set(), sink=reach_sink)
        return _verdict_from(scenario, found, [stats], stats["truncated"])

    groups = [root_keys[i::chunks] for i in range(chunks)]
    groups = [g for g in groups if g]
    budget = max(1, bounds.max_configs // len(groups))
    jobs = [(scenario.to_dict(), bounds, g, budget) for g in groups]
    if workers <= 1:
        results = [_explore_chunk(job) for job in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_explore_chunk, jobs))
    all_stats = [r["stats"] for r in results]
    if reach_sink is not None:
        for r in results:
            reach_sink |= r["reached"]
    truncated = False
    for r in results:
        if r["violation"] is not None:
            prop, event_dicts = r["violation"]
            from .simulation import event_from_dict

            events = [event_from_dict(d) for d in event_dicts]
            return _verdict_from(scenario, (prop, events), all_stats, False)
        truncated = truncated or r["truncated"]
    return _verdict_from(scenario, None, all_stats, truncated)


def _verdict_from(scenario, found, stats_list, truncated) -> ExploreVerdict:
    stats = {
        k: sum(s.get(k, 0) for s in stats_list)
        for k in ("configs", "dedupe_hits", "terminals", "frontier")
    }
    if found is not None:
        prop, events = found
        return ExploreVerdict(
            outcome=OUTCOME_COUNTEREXAMPLE,
            prop=prop,
            trace=_witness(scenario, events, prop),
            stats=stats,
        )
    stats["exhaustive"] = not truncated
    return ExploreVerdict(
        outcome=OUTCOME_BOUND if truncated else OUTCOME_ALL_PASS,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Seeded schedule fuzzing over the crash grid
# ---------------------------------------------------------------------------


def _values_for(base: Scenario, seed: int, mode: str) -> tuple:
    if mode == "fixed":
        return base.values
    # Deterministic single-bit patterns so decided vectors can feed the
    # binary interpretation layer; the multiplier spreads seeds over
    # patterns including unanimity and near-ties.
    pattern = (seed * 2654435761 + 97) & 0xFFFFFFFF
    return tuple(bit_values(base.n, pattern >> 3))


@dataclass
class FuzzVerdict:
    outcome: str
    prop: Optional[str] = None
    trace: Optional[Trace] = None
    failing_seed: Optional[int] = None
    stats: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return EXIT_FOR_OUTCOME[self.outcome]

    def summary(self) -> str:
        extra = f" ({self.prop} at seed {self.failing_seed})" if self.prop else ""
        stats = ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
        return f"{self.outcome}{extra} [{stats}]"


def _fuzz_one(base: Scenario, cells: list, seed: int, values_mode: str):
    cell = cells[seed % len(cells)]
    scenario = base.with_crash(cell).with_seed(seed)
    if values_mode != "fixed":
        scenario = replace(scenario, values=_values_for(base, seed, values_mode))
    cfg, _, status = run_raw(scenario, record_events=False)
    report = report_for_config(cfg, list(scenario.values), status)
    decided = tuple(p.decided for p in cfg.processes)
    return scenario, report, decided


def fuzz(
    base: Scenario,
    seed_count: int,
    values_mode: str = "bits",
    exhaustive_subsets: bool = False,
    stop_on_first: bool = False,
    workers: int = 1,
    collect_traces: Optional[list] = None,
) -> FuzzVerdict:
    """Run seeds 0..seed_count-1, spread round-robin over the crash grid.

    Every run is checked against all properties.  The reported
    counterexample is always the lowest failing seed, so the aggregate is
    a pure function of (base scenario, seed_count).  ``collect_traces``
    optionally receives ``(scenario, decided vectors)`` of every
    agreement-passing run for downstream checks (e.g. the binary
    interpretation layer).
    """
    if seed_count < 1:
        raise ConfigError("seed count must be positive")
    cells = crash_grid(base.n, exhaustive_subsets)
    stats = {
        "runs": 0,
        "cells": len(cells),
        "decided_runs": 0,
        **{f"fail_{name}": 0 for name in PROPERTY_NAMES},
    }
    first_failure = None

    def account(seed, scenario, report, decided):
        stats["runs"] += 1
        if report.termination.ok:
            stats["decided_runs"] += 1
        for name in PROPERTY_NAMES:
            if not report.check(name).ok:
                stats[f"fail_{name}"] += 1
        if report.agreement.ok and collect_traces is not None:
            collect_traces.append((scenario, decided))
        if not report.all_ok:
            return seed, report.failures()[0], scenario
        return None

    if workers <= 1:
        for seed in range(seed_count):
            scenario, report, decided = _fuzz_one(base, cells, seed, values_mode)
            failure = account(seed, scenario, report, decided)
            if failure is not None and first_failure is None:
                first_failure = failure
                if stop_on_first:
                    break
    else:
        jobs = [(base.to_dict(), seed, values_mode, exhaustive_subsets) for seed in range(seed_count)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for seed, (scenario_dict, report_dict, decided_hex) in enumerate(
                pool.map(_fuzz_worker, jobs, chunksize=64)
            ):
                scenario = Scenario.from_dict(scenario_dict)
                report = _report_from_flags(report_dict)
                decided = tuple(
                    None if h is None else decode_vector(bytes.fromhex(h)) for h in decided_hex
                )
                failure = account(seed, scenario, report, decided)
                if failure is not None and first_failure is None:
                    first_failure = failure

    if first_failure is None:
        return FuzzVerdict(outcome=OUTCOME_ALL_PASS, stats=stats)
    seed, prop, scenario = first_failure
    trace = run(scenario)  # deterministic re-run, now recording events
    report = check_properties(trace)
    if report.check(prop).ok:
        raise ConsensusLabError("internal error: failing seed did not reproduce")
    return FuzzVerdict(
        outcome=OUTCOME_COUNTEREXAMPLE,
        prop=prop,
        trace=trace,
        failing_seed=seed,
        stats=stats,
    )


def _fuzz_worker(args):
    base_dict, seed, values_mode, exhaustive_subsets = args
    base = Scenario.from_dict(base_dict)
    cells = crash_grid(base.n, exhaustive_subsets)
    scenario, report, decided = _fuzz_one(base, cells, seed, values_mode)
    flags = {name: report.check(name).ok for name in PROPERTY_NAMES}
    flags["decided_count"] = report.decided_count
    decided_hex = [None if v is None else encode_vector(v).hex() for v in decided]
    return scenario.to_dict(), flags, decided_hex


def _report_from_flags(flags: dict):
    from .properties import Check, PropertyReport

    return PropertyReport(
        agreement=Check(flags["agreement"]),
        validity=Check(flags["validity"]),
        termination=Check(flags["termination"]),
        same_gap_index=Check(flags["same_gap_index"]),
        full_entrants=Check(flags["full_entrants"]),
        decided_count=flags["decided_count"],
    )


# ---------------------------------------------------------------------------
# Trace minimization
# ---------------------------------------------------------------------------


def minimize(trace: Trace, max_replays: int = 4000) -> Trace:
    """Shrink a failing trace while preserving its (first) failed property.

    Classic chunk-deletion reduction over the delivery list: a candidate
    survives only if it still replays cleanly and still fails the same
    property.  The result is never longer than the input.
    """
    report = check_properties(trace)
    failures = report.failures()
    if not failures:
        raise ConfigError("minimize: the input trace passes all properties")
    prop = failures[0]
    events = [ev for ev in trace.events if isinstance(ev, Deliver)]
    replays = 0

    def still_fails(candidate: list) -> bool:
        nonlocal replays
        replays += 1
        scenario = _scripted_scenario(trace.scenario, candidate)
        try:
            cfg, _, status = run_raw(
                scenario, scheduler=ScriptedScheduler(list(scenario.scheduler.script))
            )
        except ConsensusLabError:
            return False  # deletion broke causality; not a valid shrink
        rep = report_for_config(cfg, list(scenario.values), status)
        return not rep.check(prop).ok

    granularity = 2
    while len(events) >= 2 and replays < max_replays:
        chunk = max(1, len(events) // granularity)
        shrunk = False
        start = 0
        while start < len(events) and replays < max_replays:
            candidate = events[:start] + events[start + chunk :]
            if candidate and still_fails(candidate):
                events = candidate
                shrunk = True
            else:
                start += chunk
        if shrunk:
            granularity = max(granularity - 1, 2)
        elif chunk == 1:
            break
        else:
            granularity = min(len(events), granularity * 2)

    final = run(_scripted_scenario(trace.scenario, events))
    final_report = check_properties(final)
    if final_report.check(prop).ok:
        raise ConsensusLabError("internal error: minimized trace no longer fails")
    return final
