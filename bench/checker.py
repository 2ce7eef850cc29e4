"""Independent checks on what consensuslab reports.

The property checker here is written from the five property definitions in
the repository README, not from ``consensuslab.properties``: it looks only
at the decided vectors, the vectors each process entered the decision stage
with, the crashed process, and whether any message to a live process was
left undelivered.  The breadth-first search keys configurations by
``Configuration.config_hash`` rather than by the explorer's incremental
dedupe digest, so a fault in either key shows up as a count mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

AGREEMENT = "agreement"
VALIDITY = "validity"
TERMINATION = "termination"
SAME_GAP = "same_gap_index"
ENTRANT_COUNT = "full_entrants"


@dataclass(frozen=True)
class Outcome:
    """The end state of one run, as far as the five properties need it."""

    values: tuple
    decided: tuple
    entered: tuple
    crashed: Optional[int]
    judged_live: bool  # the run was not cut short by a finite script

    @classmethod
    def from_config(cls, cfg, values) -> "Outcome":
        """The end state of a seeded run, which no script can cut short."""
        return cls(
            values=tuple(values),
            decided=tuple(p.decided for p in cfg.processes),
            entered=tuple(p.decision_entry for p in cfg.processes),
            crashed=cfg.crashed,
            judged_live=True,
        )

    @classmethod
    def from_trace(cls, trace) -> "Outcome":
        v = trace.verdict
        left = any(dest != v.crashed for (_s, _q, dest) in v.undelivered)
        scripted = trace.scenario.scheduler.type == "scripted"
        return cls(
            values=tuple(trace.scenario.values),
            decided=tuple(v.decided),
            entered=tuple(v.entered),
            crashed=v.crashed,
            judged_live=not (scripted and left),
        )


def _empty_slots(vec) -> tuple:
    return tuple(k for k, slot in enumerate(vec) if slot is None)


def violations(o: Outcome) -> set:
    """Names of the properties the outcome breaks.

    * agreement: all decided vectors are identical.
    * validity: a decided vector has one slot per process, at most one empty
      slot, and every filled slot k holds process k's input.
    * termination: every process that did not crash decided.  A run that a
      finite script stopped while messages to live processes were still
      pending says nothing about liveness and is not judged.
    * same gap: every gapped decision-stage entry vector misses the same slot.
    * entrant count: never exactly one process enters the decision stage
      with the full vector.
    """
    bad = set()
    decided = [v for v in o.decided if v is not None]
    if any(v != decided[0] for v in decided[1:]):
        bad.add(AGREEMENT)
    n = len(o.values)
    for vec in decided:
        if len(vec) != n or len(_empty_slots(vec)) > 1:
            bad.add(VALIDITY)
        elif any(slot is not None and slot != o.values[k] for k, slot in enumerate(vec)):
            bad.add(VALIDITY)
    if o.judged_live and any(
        v is None for i, v in enumerate(o.decided) if i != o.crashed
    ):
        bad.add(TERMINATION)
    gaps = {_empty_slots(v) for v in o.entered if v is not None and None in v}
    if len(gaps) > 1:
        bad.add(SAME_GAP)
    if sum(1 for v in o.entered if v is not None and None not in v) == 1:
        bad.add(ENTRANT_COUNT)
    return bad


def check_witness(witness, witness_replayed, minimized, minimized_replayed, reported: str) -> list:
    """Problems with a counterexample and its minimized form (empty if none).

    Both traces must replay to their recorded ``config_hash`` and fail the
    reported property, and the minimized trace must be no longer.
    """
    problems = []
    for label, trace, again in (("witness", witness, witness_replayed),
                                ("minimized", minimized, minimized_replayed)):
        if again.verdict.config_hash != trace.verdict.config_hash:
            problems.append(f"{label} replays to {again.verdict.config_hash}, "
                            f"recorded {trace.verdict.config_hash}")
        broken = violations(Outcome.from_trace(again))
        if reported not in broken:
            problems.append(f"{label} does not fail {reported} (fails {sorted(broken)})")
    if len(minimized.events) > len(witness.events):
        problems.append(f"minimized witness is longer ({len(minimized.events)} > "
                        f"{len(witness.events)} events)")
    return problems


def bfs_level_sizes(scenario, depth: int, sim) -> list:
    """Distinct configurations at each depth 0..depth, by breadth-first search.

    ``sim`` is the ``consensuslab.simulation`` module.  Configurations are
    keyed by their canonical ``config_hash``.
    """
    cfg0, _ = sim.new_configuration(
        scenario.n, list(scenario.values), crash=scenario.crash,
        rules=scenario.rules, final_quorum=scenario.final_quorum,
    )
    level = [cfg0]
    sizes = [1]
    for _ in range(depth):
        nxt = {}
        for cfg in level:
            for entry in sim.enabled_deliveries(cfg):
                child = cfg.clone()
                sim.apply_deliver(child, child.buffer[entry.send_index])
                nxt.setdefault(child.config_hash(), child)
        level = list(nxt.values())
        sizes.append(len(level))
    return sizes
