"""Machine checks for the protocol's claimed guarantees.

For a finished run the checker evaluates:

* agreement        -- all decided vectors are bytewise equal,
* validity         -- a decided vector has at most one empty slot and every
                      filled slot k holds process k's true input value,
* termination      -- every non-crashed process decided,
* same_gap_index   -- all gapped decision-stage entry vectors miss the
                      same slot,
* full_entrants    -- the number of processes entering the decision stage
                      with the full vector is never exactly one.

A failing report always points at a trace that replays to the same
failure; the explorer additionally runs the safety subset incrementally
on every configuration it visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .protocol import gap_indices, is_full
from .simulation import Configuration
from .trace import STATUS_COMPLETE, Trace, run_script

AGREEMENT = "agreement"
VALIDITY = "validity"
TERMINATION = "termination"
SAME_GAP_INDEX = "same_gap_index"
FULL_ENTRANTS = "full_entrants"

PROPERTY_NAMES = (AGREEMENT, VALIDITY, TERMINATION, SAME_GAP_INDEX, FULL_ENTRANTS)


@dataclass(frozen=True)
class Check:
    ok: bool
    detail: Optional[str] = None


_PASS = Check(True)  # a Check is immutable, so every passing check shares one


@dataclass
class PropertyReport:
    agreement: Check
    validity: Check
    termination: Check
    same_gap_index: Check
    full_entrants: Check
    decided_count: int

    def check(self, name: str) -> Check:
        return getattr(self, name)

    @property
    def all_ok(self) -> bool:
        return all(self.check(name).ok for name in PROPERTY_NAMES)

    def failures(self) -> list:
        return [name for name in PROPERTY_NAMES if not self.check(name).ok]

    def summary(self) -> str:
        marks = ", ".join(
            f"{name}={'pass' if self.check(name).ok else 'FAIL'}" for name in PROPERTY_NAMES
        )
        return f"{marks}, decided={self.decided_count}"


def _vec_label(vec) -> str:
    if vec is None:
        return "undecided"
    gaps = gap_indices(vec)
    return "full" if not gaps else f"gap@{gaps[0]}"


def _check_agreement(decided: list) -> Check:
    got = [(i, v) for i, v in enumerate(decided) if v is not None]
    for (i, a), (j, b) in zip(got, got[1:]):
        if a != b:
            return Check(False, f"P{i} decided {_vec_label(a)} but P{j} decided {_vec_label(b)}")
    return _PASS


def _check_validity(decided: list, values: list) -> Check:
    for i, vec in enumerate(decided):
        if vec is None:
            continue
        if len(vec) != len(values):
            return Check(False, f"P{i} decided a vector of wrong width")
        if len(gap_indices(vec)) > 1:
            return Check(False, f"P{i} decided a vector with more than one empty slot")
        for k, slot in enumerate(vec):
            if slot is not None and slot != values[k]:
                return Check(False, f"P{i}'s decided slot {k} does not match P{k}'s input")
    return _PASS


def _check_termination(decided: list, crashed: Optional[int], status: str) -> Check:
    # Only judged on finished runs: a deliberately truncated script says
    # nothing about liveness.
    if status == "script_end":
        return _PASS
    undecided = [i for i, v in enumerate(decided) if v is None and i != crashed]
    if undecided:
        who = ", ".join(f"P{i}" for i in undecided)
        return Check(False, f"{who} never decided (run ended with status {status!r})")
    return _PASS


def _check_same_gap_index(entered: list) -> Check:
    gaps = {}
    for i, vec in enumerate(entered):
        if vec is None or None not in vec:
            continue
        gaps.setdefault(vec.index(None), []).append(i)
    if len(gaps) > 1:
        detail = "; ".join(
            f"slot {g} missing for {', '.join(f'P{i}' for i in who)}"
            for g, who in sorted(gaps.items())
        )
        return Check(False, f"gapped entry vectors disagree on the missing slot: {detail}")
    return _PASS


def _check_full_entrants(entered: list) -> Check:
    full = [i for i, vec in enumerate(entered) if vec is not None and is_full(vec)]
    if len(full) == 1:
        return Check(False, f"P{full[0]} is the only process that entered deciding with the full vector")
    return _PASS


def report_for_config(
    cfg: Configuration, values: list, status: str = STATUS_COMPLETE
) -> PropertyReport:
    decided = [p.decided for p in cfg.processes]
    entered = [p.decision_entry for p in cfg.processes]
    return PropertyReport(
        agreement=_check_agreement(decided),
        validity=_check_validity(decided, values),
        termination=_check_termination(decided, cfg.crashed, status),
        same_gap_index=_check_same_gap_index(entered),
        full_entrants=_check_full_entrants(entered),
        decided_count=sum(1 for v in decided if v is not None),
    )


def check_properties(trace: Trace) -> PropertyReport:
    """Replay a trace and evaluate all properties on the resulting state.

    Replaying rather than trusting the verdict record makes a reported
    failure self-certifying: the trace alone reproduces it.  Termination is
    judged on the replay's own end status, not the recorded one.
    """
    if trace.verdict is None:
        raise ConfigError("trace has no verdict record")
    _, cfg, _, status = run_script(trace.scenario, trace.events)
    if cfg.config_hash() != trace.verdict.config_hash:
        raise ConfigError(
            "trace does not replay to its recorded configuration hash "
            f"({cfg.config_hash()} != {trace.verdict.config_hash})"
        )
    return report_for_config(cfg, list(trace.scenario.values), status)


def safety_violation(cfg: Configuration, values: list) -> Optional[tuple]:
    """Incremental safety check for the explorer: properties that can already
    be judged mid-run.  Returns (property_name, detail) or None."""
    decided = [p.decided for p in cfg.processes]
    distinct = set(decided)
    distinct.discard(None)
    if len(distinct) > 1:
        return AGREEMENT, _check_agreement(decided).detail
    # Every decision is the one vector left, so checking it checks them all.
    if distinct and not _check_validity(list(distinct), values).ok:
        return VALIDITY, _check_validity(decided, values).detail
    c = _check_same_gap_index([p.decision_entry for p in cfg.processes])
    if not c.ok:
        return SAME_GAP_INDEX, c.detail
    return None


def terminal_violation(cfg: Configuration, values: list, status: str) -> Optional[tuple]:
    """Full check at a maximal configuration (no deliverable events left)."""
    v = safety_violation(cfg, values)
    if v is not None:
        return v
    report = report_for_config(cfg, values, status)
    for name in (TERMINATION, FULL_ENTRANTS):
        c = report.check(name)
        if not c.ok:
            return name, c.detail
    return None
