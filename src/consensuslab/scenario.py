"""Scenario configuration: what to run, with which fault and scheduler.

Scenario files are JSON with the fields::

    {
      "n": 5,
      "initial_values": ["01", "02", "03", "04", "05"],   // hex strings
      "crash": {"victim": 4, "point": "during", "kind": "first",
                "delivered_to": [0]},                      // or null
      "scheduler": {"type": "seeded-random", "seed": 7, "fairness_bound": 64},
      "bounds": {"max_events": 10000}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .protocol import KIND_BY_NAME, KIND_NAMES, MIN_PROCESSES, MsgKind, Rules
from .simulation import CrashSpec, CrashPoint

DEFAULT_MAX_EVENTS = 10_000
DEFAULT_FAIRNESS_BOUND = 64
MAX_PROCESSES = 255  # encode_vector stores a vector's width in one byte
SCHEDULER_TYPES = ("seeded-random", "adversarial-lifo", "scripted")
SCHEDULER_KEYS = ("type", "seed", "fairness_bound", "starve", "script", "drain_rest")
CRASH_KEYS = ("victim", "point", "kind", "delivered_to")


def default_values(n: int) -> list:
    """Distinct one-byte values 0x01..0x0N; readable in dumps and strict for validity checks."""
    return [bytes([i + 1]) for i in range(n)]


def bit_values(n: int, pattern: int) -> list:
    """Single-bit values taken from the low n bits of ``pattern``."""
    return [bytes([(pattern >> i) & 1]) for i in range(n)]


def _check_n(n: int) -> None:
    if not MIN_PROCESSES <= n <= MAX_PROCESSES:
        raise ConfigError(f"field n: must be in [{MIN_PROCESSES}, {MAX_PROCESSES}], got {n}")


def _section(d: dict, name: str, keys) -> dict:
    """The JSON object under ``name``, whose keys must be among ``keys``;
    an absent one is empty."""
    section = d.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"field {name}: must be an object, got {section!r}")
    for key in section:
        if key not in keys:
            raise ConfigError(f"field {name}.{key}: unknown key")
    return section


def _script_item_error(item, n: int) -> Optional[str]:
    """What is wrong with a scheduler script item, or None if nothing is."""
    if not isinstance(item, (list, tuple)) or not item:
        return "must be a non-empty list"
    tag = item[0]
    if tag != "deliver" and tag != "deliver_seq":
        return 'must start with "deliver" or "deliver_seq"'
    if len(item) != 4:
        middle = "seq" if tag == "deliver_seq" else "kind"
        return f"must have 4 entries: {tag}, sender, {middle}, dest"
    _, sender, third, dest = item
    if type(sender) is not int or type(dest) is not int or not (0 <= sender < n and 0 <= dest < n):
        return "sender and dest must be process ids in [0, n)"
    if tag == "deliver_seq":
        return None if type(third) is int and third >= 0 else "seq must be a non-negative integer"
    if isinstance(third, MsgKind) or (type(third) is str and third in KIND_BY_NAME):
        return None
    return "kind must be a lowercase kind name"


def _flag(section: dict, where: str, name: str, default: bool) -> bool:
    flag = section.get(name, default)
    if type(flag) is not bool:
        raise ConfigError(f"field {where}.{name}: must be true or false, got {flag!r}")
    return flag


@dataclass(frozen=True, slots=True)
class SchedulerSpec:
    type: str = "seeded-random"
    seed: int = 0
    fairness_bound: int = DEFAULT_FAIRNESS_BOUND
    starve: Optional[int] = None
    script: tuple = ()
    drain_rest: bool = False

    def to_dict(self) -> dict:
        d = {"type": self.type, "seed": self.seed, "fairness_bound": self.fairness_bound}
        if self.starve is not None:
            d["starve"] = self.starve
        if self.type == "scripted":
            d["script"] = [
                [KIND_NAMES[x] if isinstance(x, MsgKind) else x for x in item]
                for item in self.script
            ]
            d["drain_rest"] = self.drain_rest
        return d


@dataclass(frozen=True, slots=True)
class Scenario:
    n: int
    values: tuple
    crash: Optional[CrashSpec] = None
    scheduler: SchedulerSpec = SchedulerSpec()
    max_events: int = DEFAULT_MAX_EVENTS
    rules: Rules = Rules()
    final_quorum: Optional[int] = None

    def validate(self) -> None:
        _check_n(self.n)
        if len(self.values) != self.n:
            raise ConfigError(
                f"field initial_values: expected {self.n} entries, got {len(self.values)}"
            )
        if self.max_events < 1:
            raise ConfigError("field bounds.max_events: must be positive")
        if self.crash is not None:
            self.crash.validate(self.n)
        fq = self.final_quorum
        if fq is not None and (type(fq) is not int or not 1 <= fq <= self.n - 1):
            raise ConfigError(
                f"field final_quorum: must be null or an integer in [1, {self.n - 1}], got {fq!r}"
            )
        sched = self.scheduler
        if sched.type not in SCHEDULER_TYPES:
            raise ConfigError(
                f"field scheduler.type: must be one of {', '.join(SCHEDULER_TYPES)}, "
                f"got {sched.type!r}"
            )
        for i, item in enumerate(sched.script):
            problem = _script_item_error(item, self.n)
            if problem is not None:
                raise ConfigError(f"field scheduler.script[{i}]: {problem}, got {item!r}")
        if type(sched.fairness_bound) is not int or sched.fairness_bound < 0:
            raise ConfigError(
                f"field scheduler.fairness_bound: must be a non-negative integer, "
                f"got {sched.fairness_bound!r}"
            )
        if sched.starve is not None and (
            type(sched.starve) is not int or not 0 <= sched.starve < self.n
        ):
            raise ConfigError(
                f"field scheduler.starve: must be a process id in [0, {self.n}), "
                f"got {sched.starve!r}"
            )

    def with_crash(self, crash: Optional[CrashSpec]) -> "Scenario":
        return replace(self, crash=crash)

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, scheduler=replace(self.scheduler, seed=seed))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "initial_values": [v.hex() for v in self.values],
            "crash": None if self.crash is None else self.crash.to_dict(),
            "scheduler": self.scheduler.to_dict(),
            "bounds": {"max_events": self.max_events},
            "rules": self.rules.to_dict(),
            "final_quorum": self.final_quorum,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        try:
            n = int(d["n"])
            _check_n(n)
            raw_values = d.get("initial_values")
            if raw_values is not None and not isinstance(raw_values, list):
                raise ConfigError(f"field initial_values: must be a list, got {raw_values!r}")
            values = (
                tuple(default_values(n))
                if raw_values is None
                else tuple(bytes.fromhex(v) for v in raw_values)
            )
            crash = None if d.get("crash") is None else _section(d, "crash", CRASH_KEYS)
            sched = _section(d, "scheduler", SCHEDULER_KEYS)
            bounds = _section(d, "bounds", ("max_events",))
            rules = _section(d, "rules", Rules().to_dict())
            script = sched.get("script", [])
            if not isinstance(script, list) or not all(isinstance(i, list) for i in script):
                raise ConfigError(f"field scheduler.script: must be a list of lists, got {script!r}")
            scenario = cls(
                n=n,
                values=values,
                crash=None if crash is None else CrashSpec.from_dict(crash),
                scheduler=SchedulerSpec(
                    type=sched.get("type", "seeded-random"),
                    seed=int(sched.get("seed", 0)),
                    fairness_bound=int(sched.get("fairness_bound", DEFAULT_FAIRNESS_BOUND)),
                    starve=sched.get("starve"),
                    script=tuple(tuple(item) for item in script),
                    drain_rest=_flag(sched, "scheduler", "drain_rest", False),
                ),
                max_events=int(bounds.get("max_events", DEFAULT_MAX_EVENTS)),
                rules=Rules(**{k: _flag(rules, "rules", k, True) for k in rules}),
                final_quorum=d.get("final_quorum"),
            )
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad scenario: {exc}") from exc
        scenario.validate()
        return scenario

    @classmethod
    def load(cls, path) -> "Scenario":
        p = Path(path)
        try:
            data = json.loads(_read_input(p, "scenario"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file {p} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def _read_input(path: Path, what: str) -> str:
    """The text of the ``what`` file at ``path``; ConfigError if it is
    missing, not a readable file, or not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


# Crash grid ------------------------------------------------------------------


def delivered_to_subsets(n: int, victim: int, exhaustive: bool = False) -> list:
    """Representative destination subsets for mid-broadcast crashes.

    Default: the first destination, the first half, and all but the last.
    With ``exhaustive`` every nonempty proper subset is produced instead.
    """
    dests = [d for d in range(n) if d != victim]
    if exhaustive:
        subsets = []
        for mask in range(1, (1 << len(dests)) - 1):
            subsets.append(frozenset(d for i, d in enumerate(dests) if mask >> i & 1))
        return subsets
    picks = [dests[:1], dests[: len(dests) // 2], dests[:-1]]
    seen, out = set(), []
    for p in picks:
        fs = frozenset(p)
        if fs and len(fs) < len(dests) + 1 and fs not in seen:
            seen.add(fs)
            out.append(fs)
    return out


def crash_grid(n: int, exhaustive_subsets: bool = False) -> list:
    """All crash cells checked by the fuzzer: no crash, then every victim x
    kind x point, with representative subsets for mid-broadcast crashes.

    A new list of cells built once per ``(n, exhaustive_subsets)``: every
    campaign's scenarios share the same immutable ``CrashSpec`` objects."""
    return list(_crash_cells(n, exhaustive_subsets))


@lru_cache(maxsize=8)
def _crash_cells(n: int, exhaustive_subsets: bool) -> tuple:
    cells = [None]
    for victim in range(n):
        for kind in MsgKind:
            cells.append(CrashSpec(victim, CrashPoint.BEFORE, kind))
            for subset in delivered_to_subsets(n, victim, exhaustive_subsets):
                cells.append(CrashSpec(victim, CrashPoint.DURING, kind, subset))
            cells.append(CrashSpec(victim, CrashPoint.AFTER, kind))
    return tuple(cells)
