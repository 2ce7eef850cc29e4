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
from functools import partial
from typing import Optional

from .errors import ConfigError, ConsensusLabError
from .properties import (
    PROPERTY_NAMES,
    TERMINATION,
    check_properties,
    report_for_config,
    safety_violation,
    terminal_violation,
)
from .protocol import MsgKind, Rules
from .scenario import Scenario, bit_values, crash_grid
from .simulation import (
    Deliver,
    apply_deliver,
    apply_step,
    enabled_deliveries,
    memo_step,
    new_configuration,
)
from .trace import STATUS_COMPLETE, STATUS_STUCK, Trace, run, run_raw, scripted

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


def _witness(base: Scenario, events: list, prop: str) -> Trace:
    """Package a failing schedule as a standalone trace and prove it fails."""
    scenario = scripted(base, events)
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

# Sleep sets are bitmasks over message keys (sender, seq, dest).  A process
# broadcasts each message kind at most once, so seq < len(MsgKind) and the
# masks below cover every key.


def _key_bit(m, n: int) -> int:
    """The sleep-set bit of the message key (sender, seq, dest)."""
    return 1 << ((m.seq * n + m.sender) * n + m.dest)


def _independent(n: int, dedupe: bool) -> list:
    """Per destination d, the mask keeping the keys whose destination is not d.

    Without deduplication every mask is empty, so every sleep set is too and
    the search is the plain tree of all interleavings.
    """
    if not dedupe:
        return [0] * n
    same = [0] * n
    for seq in range(len(MsgKind)):
        for sender in range(n):
            for dest in range(n):
                same[dest] |= 1 << ((seq * n + sender) * n + dest)
    return [~mask for mask in same]


def _events(messages: list) -> list:
    return [Deliver(m.sender, m.seq, m.dest, m.kind) for m in messages]


def _finished(proc) -> bool:
    """Has ``proc`` decided and sent its second proposal?  Then it will never
    broadcast again, so no crash can bite it and a delivery to it only
    records something; see ``_dfs``."""
    return proc.second_sent and proc.decided is not None


def _ample(entries: list, finished: int) -> list:
    """The deliveries to expand among ``entries``: the newest one whose
    destination is in the bitmask ``finished``, alone, if there is one;
    otherwise all of them."""
    for entry in reversed(entries):
        if finished >> entry.message.dest & 1:
            return [entry]
    return entries


def _dfs(cfg0, base: Scenario, bounds: ExploreBounds, prefix: list, stats: dict, seen: set,
         steps: Optional[dict], sink: Optional[set] = None, sleep: int = 0):
    """Depth-first search over the delivery interleavings from ``cfg0``.

    ``prefix`` lists the messages delivered to reach ``cfg0``.  Returns
    (property, witness_events) or None.  Children are expanded
    newest-delivery-first, which reaches adversarial reorderings early.
    ``seen`` holds the dedupe digests of the stored configurations; when a
    depth bound is set the key also includes the depth.  ``sink`` collects
    the digests of terminal and depth-frontier configurations, which lets
    tests cross-validate the reductions.  ``steps`` is the step memo of
    the ``explore`` call (see ``simulation.memo_step``; a few hundred
    distinct steps recur in millions of deliveries on n=5), or None to
    step every delivery afresh.

    A delivery looks its step up once, and with dedupe on checks the
    child's digest before building the child: from the parent's
    accumulators and the memo entry's digest deltas, ``step_digest`` gives
    the exact digest the child would have, so a delivery that reaches a
    stored configuration costs no clone.  Otherwise the child is cloned and
    takes that same step.  A delivery to the victim of a pending crash,
    whose step depends on the crash anchor, is cloned and stepped afresh.

    Two reductions cut the search.  Two deliveries are dependent iff they
    share a destination: a delivery changes only its destination's process
    and appends to the buffer, and a crash disables only the victim's
    inbound messages.

    One delivery to a finished process.  A process that has decided and
    sent its second proposal has broadcast all four kinds, so it never
    broadcasts again and no crash can bite it (a crash bites only at the
    victim's own broadcast).  A delivery to it only records a value, a
    tally, a second count or a final slot; these records commute with each
    other and send nothing, so such a delivery is independent of every
    other delivery, including those to the same process, and it is
    invisible: it never changes ``decided`` or ``decision_entry``.  At a
    configuration with an enabled delivery to a finished process, the
    search makes only that delivery (the newest such), a singleton ample
    set (Peled 1993); otherwise it makes every enabled delivery outside
    the sleep set.  Each stack frame carries the bitmask of the finished
    processes, which only grows along a path, so the enabled deliveries
    are scanned for the rule only when the mask is nonzero.

    Sleep sets with state caching (Godefroid 1996) skip deliveries whose
    configuration an earlier branch has already reached.  A child's sleep
    set is its parent's sleep set plus the deliveries already made from
    the parent, less those to the child's own destination; ``sleep`` is
    the sleep set of ``cfg0``.  A delivery in a sleep set is never made.

    Soundness: the search reaches the same terminal configurations as the
    unreduced search, and finds a violation iff the unreduced search does
    (both within budget).  Every path to a configuration has the same
    length (the messages sent less those still buffered), so the graph is
    acyclic, and a stored configuration reached again is deeper than every
    configuration on the stack and so fully expanded.  By induction in the
    order expansions finish, every terminal reachable from a fully
    expanded configuration x is stored.  Let z be reached from x by a path
    w.  (1) If x has an ample delivery t, t is never disabled, so it occurs
    in w, and it commutes with every delivery before it: z is reachable
    from x's t-child.  (2) Otherwise w starts with some delivery t, and z
    is reachable from x's t-child.  If t was made, that child was stored
    and fully expanded, now or before.  If t is in x's sleep set, t was
    made at an ancestor a of x (for a chunk's root, at the chunk's start)
    before the branch leading to x, and commutes with every delivery on
    the path p from a to x, so x's t-child is a's t-child followed by p,
    and a's t-child was fully expanded before x was reached.  Either way
    z is stored.  So a stored configuration reached again is not expanded
    again, even with a smaller sleep set than it was stored with:
    Godefroid's re-expansion of the difference is not needed.  Only
    terminal and frontier configurations are judged by ``full_entrants``
    and ``termination``, and every safety property reads only ``decided``
    and ``decision_entry``, which are fixed once set, so a reachable safety
    violation persists to a reachable terminal.  A finished process's step
    raises only on a property of the message itself or on a second
    proposal that differs from its fixed ``second_value``, so whether it
    raises does not depend on the order of its deliveries.  The reduced
    search stores fewer configurations than the unreduced one, so
    ``configs``, ``dedupe_hits`` and, under a depth bound deep enough for
    a process to finish, the frontier differ; ``configs + dedupe_hits`` is
    the number of deliveries made.  Until some process has finished the
    search stores the unreduced search's configurations in its order.

    The safety check runs on a new configuration only if the delivery
    changed its destination's decision or decision-stage entry: the parent
    passed it, and nothing else it reads can change.  The fields are
    compared by value, not identity: a memoized step hands back a process
    whose equal vectors may be other objects than the parent's.
    """
    values = list(base.values)
    n = base.n
    dedupe = bounds.dedupe
    independent = _independent(n, dedupe)
    max_depth = bounds.max_depth
    depth0 = len(prefix)

    def stored(d, depth) -> bool:
        """Store digest ``d`` (at ``depth`` under a depth bound), or count a
        dedupe hit if it is stored already."""
        key = d if max_depth is None else (d, depth)
        if key in seen:
            stats["dedupe_hits"] += 1
            return True
        seen.add(key)
        return False

    v = safety_violation(cfg0, values)
    if v is not None:
        return v[0], _events(prefix)
    stats["configs"] += 1
    if dedupe:
        stored(cfg0.dedupe_digest(), depth0)
    finished0 = sum(1 << i for i, p in enumerate(cfg0.processes) if _finished(p))
    # A frame is [configuration, children left, depth, sleep set plus the
    # children tried so far, finished processes].  enabled_deliveries lists
    # entries in send order; popping from the end expands the newest
    # delivery first.
    stack = [[cfg0, _ample(enabled_deliveries(cfg0), finished0), depth0, sleep, finished0]]
    path = list(prefix)
    while stack:
        frame = stack[-1]
        cfg, children, depth, tried, finished = frame
        if not children:
            stack.pop()
            if len(path) > depth0:
                path.pop()
            continue
        entry = children.pop()
        m = entry.message
        bit = 1 << ((m.seq * n + m.sender) * n + m.dest)  # _key_bit(m, n), inlined
        if tried & bit:
            continue  # asleep
        frame[3] = tried | bit
        pending = cfg.crash_pending
        if steps is not None and (pending is None or pending.victim != m.dest):
            step = memo_step(steps, cfg.processes[m.dest], m)
            if dedupe and stored(cfg.step_digest(entry, step), depth + 1):
                continue
            child = cfg.clone()
            apply_step(child, entry, step)
        else:
            child = cfg.clone()
            apply_deliver(child, entry)
            if dedupe and stored(child.dedupe_digest(), depth + 1):
                continue
        stats["configs"] += 1
        path.append(m)
        before, after = cfg.processes[m.dest], child.processes[m.dest]
        if after.decided != before.decided or after.decision_entry != before.decision_entry:
            v = safety_violation(child, values)
            if v is not None:
                return v[0], _events(path)
        nxt = enabled_deliveries(child)
        if not nxt:
            stats["terminals"] += 1
            if sink is not None:
                sink.add(child.dedupe_digest())
            status = STATUS_COMPLETE if child.all_alive_decided() else STATUS_STUCK
            v = terminal_violation(child, values, status)
            if v is not None:
                return v[0], _events(path)
            path.pop()
            continue
        if stats["configs"] >= stats["budget"]:
            stats["truncated"] = stats["exhausted"] = True
            return None
        if max_depth is not None and depth + 1 >= max_depth:
            stats["frontier"] += 1
            stats["truncated"] = True
            if sink is not None:
                sink.add(child.dedupe_digest())
            path.pop()
            continue
        if not finished >> m.dest & 1 and _finished(after):
            finished |= 1 << m.dest
        if finished:
            nxt = _ample(nxt, finished)
        stack.append([child, nxt, depth + 1, tried & independent[m.dest], finished])
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


def _explore_chunk(args, steps: Optional[dict] = None) -> dict:
    """Search the roots ``first_keys`` with the search's step memo
    ``steps``; a pool job, which gets none, builds its own."""
    base, bounds, first_keys, budget = args
    steps = {} if steps is None else steps
    cfg0, _ = new_configuration(
        base.n, list(base.values), crash=base.crash, rules=base.rules,
        final_quorum=base.final_quorum,
    )
    independent = _independent(base.n, bounds.dedupe)
    stats = _new_stats(budget)
    seen: set = set()
    sink: set = set()
    found = None
    tried = 0  # the roots this chunk has searched, as sleep-set bits
    for key in first_keys:
        child = cfg0.clone()
        entry = next(
            e for e in enabled_deliveries(child)
            if (e.message.sender, e.message.seq, e.message.dest) == tuple(key)
        )
        m = entry.message
        apply_deliver(child, entry)
        found = _dfs(child, base, bounds, [m], stats, seen, steps, sink,
                     tried & independent[m.dest])
        if found is not None or stats["exhausted"]:
            break
        tried |= _key_bit(m, base.n)
    return {"stats": {k: stats[k] for k in ("configs", "dedupe_hits", "terminals", "frontier")},
            "truncated": stats["truncated"], "violation": found, "reached": sink}


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

    Two reductions cut the search (see ``_dfs``).  Sleep sets skip
    deliveries that would reach an already stored configuration (two
    deliveries are dependent iff they share a destination).  Where a
    delivery to a finished process, one that has decided and sent its
    second proposal, is enabled, only that delivery is made: it commutes
    with every other delivery and no property can see it.  The search
    reaches the terminal configurations of the unreduced search and finds
    a violation iff that search does, but stores fewer configurations
    once some process has finished.  ``stats["dedupe_hits"]`` counts the
    deliveries that reached a stored configuration, so ``configs +
    dedupe_hits`` is the number of deliveries made.  With ``dedupe`` off
    there is no state cache and no sleep set, and the one-delivery rule
    still applies.

    Process steps are memoized for the length of the call: one memo serves
    every root of every chunk searched in this process, a pool job builds
    its own, and none outlives the call.  The memo's key, a process image,
    leaves out the rules and the final quorum, so a memo serves one
    scenario only.
    """
    bounds.validate()
    cfg0, _ = new_configuration(
        scenario.n, list(scenario.values), crash=scenario.crash, rules=scenario.rules,
        final_quorum=scenario.final_quorum,
    )
    roots = list(reversed(enabled_deliveries(cfg0)))  # newest first
    root_keys = [(e.message.sender, e.message.seq, e.message.dest) for e in roots]
    steps: dict = {}  # this call's step memo: one scenario, never kept

    if chunks <= 1:
        stats = _new_stats(bounds.max_configs)
        found = _dfs(cfg0, scenario, bounds, [], stats, set(), steps, sink=reach_sink)
        return _verdict_from(scenario, found, [stats], stats["truncated"])

    groups = [root_keys[i::chunks] for i in range(chunks)]
    groups = [g for g in groups if g]
    budget = max(1, bounds.max_configs // len(groups))
    jobs = [(scenario, bounds, g, budget) for g in groups]
    if workers <= 1:
        results = [_explore_chunk(job, steps) for job in jobs]
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
            return _verdict_from(scenario, r["violation"], all_stats, False)
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


def _fuzz_outcomes(base: Scenario, cells: list, seed_count: int, values_mode: str, workers: int):
    """Yield ``_fuzz_one``'s result for seeds 0..seed_count-1 in seed order,
    computed here or, with ``workers > 1``, by a process pool."""
    run_seed = partial(_fuzz_one, base, cells, values_mode=values_mode)
    if workers <= 1:
        yield from map(run_seed, range(seed_count))
        return
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(run_seed, range(seed_count), chunksize=64)
    finally:
        pool.shutdown(cancel_futures=True)


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

    outcomes = _fuzz_outcomes(base, cells, seed_count, values_mode, workers)
    for seed, (scenario, report, decided) in enumerate(outcomes):
        failure = account(seed, scenario, report, decided)
        if failure is not None and first_failure is None:
            first_failure = failure
            if stop_on_first:
                outcomes.close()  # cancels the seeds a pool has not started
                break

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
        scenario = scripted(trace.scenario, candidate)
        try:
            cfg, _, status = run_raw(scenario, record_events=False)
        except ConsensusLabError:
            return False  # deletion broke causality; not a valid shrink
        rep = report_for_config(cfg, list(scenario.values), status)
        return not rep.check(prop).ok

    # Without a crash, the first delivery a candidate drops stays enabled,
    # so every candidate ends in script_end, which passes termination by
    # definition: a crash-free termination witness cannot shrink.  With a
    # crash the dropped deliveries may all go to the victim, and it can.
    shrinkable = prop != TERMINATION or trace.scenario.crash is not None
    granularity = 2
    while shrinkable and len(events) >= 2 and replays < max_replays:
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

    final = run(scripted(trace.scenario, events))
    final_report = check_properties(final)
    if final_report.check(prop).ok:
        raise ConsensusLabError("internal error: minimized trace no longer fails")
    return final
