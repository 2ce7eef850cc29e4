"""Replayable traces and the run loop that produces them.

A trace is one header record, one record per applied event, and one
verdict record carrying per-process outcomes plus the 64-bit canonical
hash of the final configuration.  Re-running the header with the event
list as a script reproduces the verdict and the hash bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .errors import ConfigError, MalformedMessage, SimulatorBug
from .protocol import decode_vector, encode_vector
from .scenario import Scenario, SchedulerSpec, _read_input
from .schedulers import ScriptedScheduler, scheduler_from_spec
from .simulation import (
    Configuration,
    Deliver,
    apply_deliver,
    event_from_dict,
    new_configuration,
)

# Run end states: every live process decided and the buffer drained
# ("complete"), no deliverable entry left with someone undecided
# ("stuck"), the event budget was hit ("bound"), or a finite script ran
# out with deliverable entries left ("script_end").
STATUS_COMPLETE = "complete"
STATUS_STUCK = "stuck"
STATUS_BOUND = "bound"
STATUS_SCRIPT_END = "script_end"


def _vec_hex(vec) -> Optional[str]:
    return None if vec is None else encode_vector(vec).hex()


def _vec_unhex(h):
    return None if h is None else decode_vector(bytes.fromhex(h))


@dataclass
class Verdict:
    status: str
    decided: list  # per-process vector or None
    entered: list  # vector each process entered the decision stage with
    crashed: Optional[int]
    undelivered: list  # (sender, seq, dest) triples left in the buffer
    event_count: int
    config_hash: str

    def to_dict(self) -> dict:
        return {
            "type": "verdict",
            "status": self.status,
            "decided": [_vec_hex(v) for v in self.decided],
            "entered": [_vec_hex(v) for v in self.entered],
            "crashed": self.crashed,
            "undelivered": [list(t) for t in self.undelivered],
            "events": self.event_count,
            "config_hash": self.config_hash,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Verdict":
        return cls(
            status=d["status"],
            decided=[_vec_unhex(v) for v in d["decided"]],
            entered=[_vec_unhex(v) for v in d["entered"]],
            crashed=d["crashed"],
            undelivered=[tuple(t) for t in d["undelivered"]],
            event_count=int(d["events"]),
            config_hash=d["config_hash"],
        )

    @classmethod
    def from_config(cls, cfg: Configuration, status: str) -> "Verdict":
        return cls(
            status=status,
            decided=[p.decided for p in cfg.processes],
            entered=[p.decision_entry for p in cfg.processes],
            crashed=cfg.crashed,
            undelivered=sorted(
                (e.message.sender, e.message.seq, e.message.dest) for e in cfg.buffer.values()
            ),
            event_count=cfg.event_count,
            config_hash=cfg.config_hash(),
        )


@dataclass
class Trace:
    scenario: Scenario
    events: list
    verdict: Verdict

    def header_dict(self) -> dict:
        d = self.scenario.to_dict()
        d["type"] = "header"
        return d

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header_dict(), sort_keys=True)]
        lines.extend(json.dumps(ev.to_dict(), sort_keys=True) for ev in self.events)
        lines.append(json.dumps(self.verdict.to_dict(), sort_keys=True))
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        try:
            records = [json.loads(line) for line in text.splitlines() if line.strip()]
        except json.JSONDecodeError as exc:
            raise ConfigError(f"trace line is not valid JSON: {exc}") from exc
        if not all(isinstance(r, dict) for r in records):
            raise ConfigError("every trace record must be a JSON object")
        if not records or records[0].get("type") != "header":
            raise ConfigError("trace must start with a header record")
        if records[-1].get("type") != "verdict":
            raise ConfigError("trace must end with a verdict record")
        scenario = Scenario.from_dict(records[0])
        try:
            events = [event_from_dict(d) for d in records[1:-1]]
            verdict = Verdict.from_dict(records[-1])
        except (KeyError, ValueError, TypeError, MalformedMessage) as exc:
            raise ConfigError(f"bad trace record: {exc!r}") from exc
        return cls(scenario=scenario, events=events, verdict=verdict)

    @classmethod
    def load(cls, path) -> "Trace":
        return cls.from_jsonl(_read_input(Path(path), "trace"))


# Run loop ---------------------------------------------------------------------


def run_raw(scenario: Scenario, scheduler=None, record_events: bool = True) -> tuple:
    """Execute a scenario and return ``(final configuration, events, status)``.

    The loop keeps delivering after everyone decided until no deliverable
    entry remains, because a decided process may still owe a second
    proposal to a slower peer; only entries addressed to a crashed process
    may be left over.  The scheduler is asked for a step even when nothing
    is enabled, so a script with items left then is an error.  It is handed
    the configuration's own send-ordered list of enabled entries, which
    ``apply_deliver`` keeps current.
    """
    scenario.validate()
    if scheduler is None:
        scheduler = scheduler_from_spec(scenario.scheduler)
    cfg, start_events = new_configuration(
        scenario.n,
        list(scenario.values),
        crash=scenario.crash,
        rules=scenario.rules,
        final_quorum=scenario.final_quorum,
    )
    events = list(start_events) if record_events else []
    while cfg.event_count < scenario.max_events:
        delivers = cfg.enabled
        choice = scheduler.next(cfg, delivers)
        if choice is None:
            if delivers:
                return cfg, events, STATUS_SCRIPT_END
            return cfg, events, STATUS_COMPLETE if cfg.all_alive_decided() else STATUS_STUCK
        m = choice.message
        bites = apply_deliver(cfg, choice)
        if record_events:
            events.append(Deliver(m.sender, m.seq, m.dest, m.kind))
            events.extend(bites)
    return cfg, events, STATUS_BOUND


def run(scenario: Scenario, scheduler=None, record_events: bool = True) -> Trace:
    """Execute a scenario to completion and package the result as a trace."""
    cfg, events, status = run_raw(scenario, scheduler, record_events)
    return Trace(scenario=scenario, events=events, verdict=Verdict.from_config(cfg, status))


def run_config(trace_scenario: Scenario, events: list) -> Configuration:
    """Re-apply a recorded event list and return the final configuration
    (the run ``replay`` makes, with its errors)."""
    return run_script(trace_scenario, events)[1]


def scripted(base: Scenario, events: list) -> Scenario:
    """``base`` with a scripted scheduler that replays the deliveries of
    ``events`` (crash events re-trigger by themselves)."""
    script = tuple(
        ("deliver_seq", ev.sender, ev.seq, ev.dest) for ev in events if isinstance(ev, Deliver)
    )
    return replace(base, scheduler=SchedulerSpec(type="scripted", script=script))


def run_script(base: Scenario, events: list) -> tuple:
    """Run ``scripted(base, events)``; return it and ``run_raw``'s result.
    An event that the run cannot apply (a hand-edited trace) is a
    ``ConfigError`` naming the event."""
    scenario = scripted(base, events)
    scheduler = ScriptedScheduler(scenario.scheduler.script)
    try:
        return (scenario, *run_raw(scenario, scheduler=scheduler))
    except SimulatorBug as exc:
        i = [i for i, ev in enumerate(events) if isinstance(ev, Deliver)][scheduler.pos - 1]
        raise ConfigError(
            f"trace event {i} {json.dumps(events[i].to_dict(), sort_keys=True)} "
            f"cannot be replayed: {exc}"
        ) from exc


def replay(trace: Trace) -> Trace:
    """Re-run a trace's schedule from its header; the result must match it."""
    scenario, cfg, events, status = run_script(trace.scenario, trace.events)
    return Trace(scenario=scenario, events=events, verdict=Verdict.from_config(cfg, status))


def replays_identically(trace: Trace) -> bool:
    return replay(trace).verdict.to_dict() == trace.verdict.to_dict()
