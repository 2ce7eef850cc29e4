"""Command-line surface: run scenarios, reproduce the case suite, fuzz,
explore, replay traces, and check binary-step commutativity.

Exit codes: 0 all checks passed, 2 a property violation was found,
3 a search budget ran out first, 1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .binary import commutativity_check
from .cases import run_case_suite
from .errors import ConfigError, ConsensusLabError
from .explore import ExploreBounds, explore, fuzz
from .properties import check_properties
from .scenario import Scenario
from .trace import Trace, replay, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_BOUND = 3


class _Out:
    """Mirrors report lines to stdout and an optional report file."""

    def __init__(self, report_path=None):
        self.lines = []
        self.report_path = report_path

    def line(self, text: str = "") -> None:
        self.lines.append(text)
        print(text)

    def flush(self) -> None:
        if self.report_path:
            _write(self.report_path, "\n".join(self.lines) + "\n")


def _write(path, text: str) -> None:
    """Write ``text`` to ``path``; ConfigError if it cannot be written."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    from dataclasses import replace

    sched = scenario.scheduler
    if getattr(args, "seed", None) is not None:
        sched = replace(sched, seed=args.seed)
    if getattr(args, "fairness_bound", None) is not None:
        sched = replace(sched, fairness_bound=args.fairness_bound)
    scenario = replace(scenario, scheduler=sched)
    if getattr(args, "max_events", None) is not None:
        scenario = replace(scenario, max_events=args.max_events)
    return scenario


def _verdict_lines(out: _Out, trace: Trace) -> None:
    from .cases import outcome_label

    v = trace.verdict
    out.line(f"status: {v.status}  events: {v.event_count}  config_hash: {v.config_hash}")
    for pid in range(trace.scenario.n):
        mark = "crashed" if pid == v.crashed else (outcome_label(v.decided[pid]) or "undecided")
        entry = outcome_label(v.entered[pid]) or "-"
        out.line(f"  P{pid}: decided={mark} entered={entry}")
    if v.undelivered:
        to = " (to the crashed process)" if v.crashed is not None else ""
        out.line(f"  undelivered{to}: {len(v.undelivered)} messages")


def _cmd_run(args) -> int:
    scenario = _apply_overrides(Scenario.load(args.scenario), args)
    trace = run(scenario)
    report = check_properties(trace)
    out = _Out(args.report)
    _verdict_lines(out, trace)
    out.line(f"properties: {report.summary()}")
    out.flush()
    if args.trace:
        _write(args.trace, trace.to_jsonl())
    return EXIT_OK if report.all_ok else EXIT_VIOLATION


def _cmd_case_suite(args) -> int:
    out = _Out(args.report)
    results = run_case_suite()
    failed = []
    for res in results:
        state = "pass" if res.ok else "FAIL"
        out.line(f"{res.case.case_id}  {state}  {res.case.title}")
        if res.case.note:
            out.line(f"    note: {res.case.note}")
        for m in res.mismatches:
            out.line(f"    mismatch: {m}")
        if not res.ok:
            failed.append(res.case.case_id)
    out.line(f"{len(results) - len(failed)}/{len(results)} cases match their expected outcomes")
    out.flush()
    return EXIT_OK if not failed else EXIT_VIOLATION


def _cmd_fuzz(args) -> int:
    base = _apply_overrides(Scenario.load(args.scenario), args)
    verdict = fuzz(
        base,
        args.seeds,
        values_mode=args.values,
        workers=args.workers,
    )
    out = _Out(args.report)
    out.line(f"fuzz: {verdict.summary()}")
    if verdict.trace is not None:
        rep = check_properties(verdict.trace)
        out.line(f"counterexample properties: {rep.summary()}")
        if args.trace:
            _write(args.trace, verdict.trace.to_jsonl())
            out.line(f"counterexample trace written to {args.trace}")
    out.flush()
    return verdict.exit_code


def _cmd_explore(args) -> int:
    scenario = _apply_overrides(Scenario.load(args.scenario), args)
    bounds = ExploreBounds(max_depth=args.max_depth, max_configs=args.max_configs)
    verdict = explore(scenario, bounds, chunks=args.chunks, workers=args.workers)
    out = _Out(args.report)
    out.line(f"explore: {verdict.summary()}")
    if verdict.trace is not None and args.trace:
        _write(args.trace, verdict.trace.to_jsonl())
        out.line(f"counterexample trace written to {args.trace}")
    out.flush()
    return verdict.exit_code


def _cmd_replay(args) -> int:
    trace = Trace.load(args.trace)
    again = replay(trace)
    out = _Out(args.report)
    recorded, replayed = trace.verdict.to_dict(), again.verdict.to_dict()
    diverged = [k for k in replayed if replayed[k] != recorded[k]]
    if diverged:
        for k in diverged:
            out.line(f"REPLAY DIVERGED: {k} {replayed[k]!r} != recorded {recorded[k]!r}")
        out.flush()
        raise ConfigError(
            f"trace does not replay to its recorded verdict ({', '.join(diverged)} differ)"
        )
    report = check_properties(trace)
    _verdict_lines(out, again)
    out.line(f"replay ok: configuration hash {again.verdict.config_hash} reproduced")
    out.line(f"properties: {report.summary()}")
    out.flush()
    return EXIT_OK if report.all_ok else EXIT_VIOLATION


def _cmd_commute(args) -> int:
    out = _Out(args.report)
    report = commutativity_check(args.n, args.tie_rule)
    out.line(report.summary())
    for m in report.mismatches[:10]:
        out.line(f"  mismatch: {m}")
    out.flush()
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_version(_args) -> int:
    print(f"consensuslab {__version__}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consensuslab",
        description="simulate, fuzz, and exhaustively check a crash-tolerant "
        "vector agreement protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("scenario", help="scenario JSON file")
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--max-events", type=int, default=None)
            p.add_argument("--fairness-bound", type=int, default=None)
        p.add_argument("--report", default=None, help="also write the report to this file")

    p = sub.add_parser("run", help="run one scenario and check its properties")
    common(p)
    p.add_argument("--trace", default=None, help="write the trace to this file")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("case-suite", help="reproduce the scripted reference scenarios")
    common(p, scenario=False)
    p.set_defaults(func=_cmd_case_suite)

    p = sub.add_parser("fuzz", help="seeded random schedules across the crash grid")
    common(p)
    p.add_argument("--seeds", type=int, default=10_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--values", choices=("bits", "fixed"), default="bits")
    p.add_argument("--trace", default=None, help="write a counterexample trace here")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("explore", help="bounded exhaustive interleaving search")
    common(p)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--max-configs", type=int, default=ExploreBounds.max_configs)
    p.add_argument("--chunks", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--trace", default=None, help="write a counterexample trace here")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("replay", help="re-run a trace and verify it reproduces")
    p.add_argument("trace", help="trace JSONL file")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("commute", help="enumerate both binary finishing orders")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--tie-rule", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_commute)

    p = sub.add_parser("version", help="print the version")
    p.set_defaults(func=_cmd_version)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConsensusLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
