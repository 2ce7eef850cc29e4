"""Command surface: exit codes, determinism, artifact files."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scenario import scenarios
from test_trace_files import edited_trace

import consensuslab
from consensuslab.cli import main
from consensuslab.errors import ConfigError
from consensuslab.findings import racing_scenario
from consensuslab.properties import check_properties
from consensuslab.protocol import MsgKind
from consensuslab.scenario import Scenario, SchedulerSpec, default_values
from consensuslab.simulation import CrashPoint, CrashSpec
from consensuslab.trace import Trace, replay, replays_identically, run


@pytest.fixture
def clean_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    Scenario(
        n=5,
        values=tuple(default_values(5)),
        scheduler=SchedulerSpec(type="seeded-random", seed=1, fairness_bound=64),
    ).save(path)
    return str(path)


def test_version_exits_zero(capsys):
    assert main(["version"]) == 0
    assert "consensuslab" in capsys.readouterr().out


def test_unknown_flag_is_a_usage_error():
    assert main(["case-suite", "--definitely-not-a-flag"]) == 1


def test_missing_scenario_file_names_the_problem(capsys):
    assert main(["run", "/nonexistent/scenario.json"]) == 1
    assert "scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("fairness_bound", -1),
        ("starve", "x"),
        ("starve", 5),
        ("starve", -1),
        ("starve", 1.5),
    ],
)
def test_run_rejects_bad_scheduler_fields(tmp_path, capsys, field, value):
    path = tmp_path / "scenario.json"
    scheduler = {"type": "adversarial-lifo", "seed": 0, "fairness_bound": 64, field: value}
    path.write_text(json.dumps({"n": 5, "scheduler": scheduler}))
    assert main(["run", str(path)]) == 1
    assert f"scheduler.{field}" in capsys.readouterr().err


def test_negative_fairness_bound_flag_is_rejected(clean_scenario_file, capsys):
    assert main(["run", clean_scenario_file, "--fairness-bound", "-3"]) == 1
    assert "fairness_bound" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field",
                         [("--max-events", "0", "max_events"),
                          ("--fairness-bound", "-1", "fairness_bound")])
def test_explore_rejects_the_flags_fuzz_rejects(tmp_path, capsys, flag, value, field):
    # Victim 0 crashes before its initial broadcast: a search that passes
    # within the default budget, so only validation makes this exit 1.
    path = tmp_path / "scenario.json"
    Scenario(n=5, values=tuple(default_values(5)),
             crash=CrashSpec(0, CrashPoint.BEFORE, MsgKind.INITIAL)).save(path)
    for command in (["fuzz", "--seeds", "1"], ["explore"]):
        assert main([*command, str(path), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err


def test_run_clean_scenario_exits_zero(clean_scenario_file, capsys, tmp_path):
    trace_path = tmp_path / "out.jsonl"
    code = main(["run", clean_scenario_file, "--trace", str(trace_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "config_hash" in out
    assert trace_path.exists()


def test_run_racing_scenario_exits_two(tmp_path, capsys):
    path = tmp_path / "racing.json"
    racing_scenario().save(path)
    assert main(["run", str(path)]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_case_suite_exits_zero(capsys):
    assert main(["case-suite"]) == 0
    out = capsys.readouterr().out
    assert "case01" in out and "case15b" in out
    assert "22/22 cases match" in out


def test_case_suite_output_is_stable(capsys):
    main(["case-suite"])
    first = capsys.readouterr().out
    main(["case-suite"])
    second = capsys.readouterr().out
    assert first == second


def test_replay_roundtrip_exit_mirrors_original(tmp_path, capsys):
    clean = tmp_path / "clean.jsonl"
    run(
        Scenario(
            n=5,
            values=tuple(default_values(5)),
            scheduler=SchedulerSpec(type="seeded-random", seed=2),
        )
    ).save(clean)
    assert main(["replay", str(clean)]) == 0
    racing = tmp_path / "racing.jsonl"
    run(racing_scenario()).save(racing)
    assert main(["replay", str(racing)]) == 2
    assert "replay ok" in capsys.readouterr().out


def test_replay_detects_divergence(tmp_path, capsys):
    path = tmp_path / "tampered.jsonl"
    trace = run(
        Scenario(
            n=5,
            values=tuple(default_values(5)),
            scheduler=SchedulerSpec(type="seeded-random", seed=3),
        )
    )
    trace.verdict.config_hash = "f" * 16
    path.write_text(trace.to_jsonl())
    assert main(["replay", str(path)]) == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_fuzz_writes_counterexample_trace(clean_scenario_file, tmp_path, capsys):
    cx = tmp_path / "cx.jsonl"
    code = main(
        ["fuzz", clean_scenario_file, "--seeds", "800", "--trace", str(cx), "--report",
         str(tmp_path / "report.txt")]
    )
    assert code == 2
    assert cx.exists()
    loaded = Trace.load(cx)
    assert loaded.verdict.config_hash
    assert (tmp_path / "report.txt").read_text().startswith("fuzz:")


def test_explore_small_budget_exits_three(clean_scenario_file):
    assert main(["explore", clean_scenario_file, "--max-configs", "200"]) == 3


def test_explore_no_dedupe_is_a_usage_error(clean_scenario_file, capsys):
    # The flag is gone: the explorer always deduplicates, by an exact key.
    assert main(["explore", clean_scenario_file, "--no-dedupe"]) == 1
    err = capsys.readouterr().err
    assert "--no-dedupe" in err and "Traceback" not in err


def test_commute_exits_zero(capsys):
    assert main(["commute", "--n", "5", "--tie-rule", "1"]) == 0
    assert "192 instances" in capsys.readouterr().out


def _seeded_trace_records():
    trace = run(
        Scenario(
            n=5,
            values=tuple(default_values(5)),
            scheduler=SchedulerSpec(type="seeded-random", seed=2),
        )
    )
    return trace.to_jsonl().splitlines()


def _no_config_hash(lines):
    verdict = json.loads(lines[-1])
    del verdict["config_hash"]
    return lines[:-1] + [json.dumps(verdict)]


def _truncated_decision(lines):
    verdict = json.loads(lines[-1])
    verdict["decided"][0] = "0501"
    return lines[:-1] + [json.dumps(verdict)]


def _unmatched_event(lines):
    event = json.loads(lines[1])
    event["seq"] = 7
    return lines[:1] + [json.dumps(event)] + lines[2:]


def _copied_first_delivery(lines):
    # The copy comes after the last delivery, when nothing is enabled.
    return lines[:-1] + lines[1:2] + lines[-1:]


def _receive_empty(lines):
    return lines[:2] + [json.dumps({"type": "receive_empty", "dest": 0})] + lines[2:]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:1] + ["{not json"] + lines[1:], "not valid JSON"),
        (_no_config_hash, "config_hash"),
        (_truncated_decision, "truncated vector"),
        (_unmatched_event, 'trace event 0 {"dest": '),
        (_copied_first_delivery, "matched 0 enabled events"),
        (_receive_empty, "unknown trace event type 'receive_empty'"),
    ],
    ids=["non-json-line", "no-config-hash", "truncated-vector", "unmatched-event",
         "copied-delivery", "receive-empty-record"],
)
def test_replay_rejects_malformed_traces(tmp_path, capsys, edit, message):
    path = tmp_path / "broken.jsonl"
    path.write_text("\n".join(edit(_seeded_trace_records())) + "\n")
    assert main(["replay", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("final_quorum", 0), ("final_quorum", 5), ("final_quorum", "x"), ("n", 256)],
)
def test_run_rejects_bad_final_quorum_and_n(tmp_path, capsys, field, value):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n": 5, field: value}))
    assert main(["run", str(path)]) == 1
    assert f"field {field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scheduler, message",
    [
        ({"type": "bogus"}, "field scheduler.type"),
        ({"type": "scripted", "script": "ab"}, "field scheduler.script"),
        ({"type": "scripted", "script": [["deliver", 0, "initial", 1], "ab"]},
         "field scheduler.script"),
        ({"type": "scripted", "script": [["deliver", 0, "initial"]]}, "field scheduler.script[0]"),
        ({"type": "scripted", "script": [["deliver", 0, "nokind", 1]]},
         "field scheduler.script[0]"),
        ({"type": "scripted", "script": [["deliver", 0, "INITIAL", 1]]},
         "field scheduler.script[0]"),
        ({"type": "scripted", "script": [["deliver", 0, 1, 1]]}, "field scheduler.script[0]"),
        ({"type": "scripted", "script": [["deliver", True, "initial", 1]]},
         "field scheduler.script[0]"),
        ({"type": "scripted", "script": [["empty", 0]]}, "field scheduler.script[0]"),
        ({"type": "scripted", "script": [["deliver", 0, "initial", 1], ["empty", 0]]},
         "field scheduler.script[1]"),
        ({"type": "scripted", "script": [["deliver_seq", 0, 0, 5]]}, "field scheduler.script[0]"),
        ({"type": "scripted", "script": [["deliver_seq", 0, -1, 1]]},
         "field scheduler.script[0]"),
        ({"type": "scripted", "script": [[]]}, "field scheduler.script[0]"),
        ({"type": "scripted", "script": [["send", 0, 1]]}, "field scheduler.script[0]"),
    ],
)
def test_run_rejects_bad_scheduler_type_and_script(tmp_path, capsys, scheduler, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n": 5, "scheduler": scheduler}))
    assert main(["run", str(path)]) == 1
    assert message in capsys.readouterr().err
    with pytest.raises(ConfigError, match=message.replace("[", r"\[")):
        Scenario.from_dict({"n": 5, "scheduler": scheduler})


def test_a_copied_delivery_is_rejected_by_every_replay():
    # Replay, the identity check and the property check share one run
    # loop, so they reject the same trace with the same error.
    lines = _copied_first_delivery(_seeded_trace_records())
    trace = Trace.from_jsonl("\n".join(lines) + "\n")
    last = len(trace.events) - 1
    for check in (replay, replays_identically, check_properties):
        with pytest.raises(ConfigError, match=f"trace event {last} .*matched 0 enabled events"):
            check(trace)


def _main_reports(argv) -> int:
    """Run the command line; it must exit 0, 2 or 3, or 1 with an error line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3) or (code == 1 and "error: " in err.getvalue()), (code, err.getvalue())
    return code


# Scenario files of at most 6 processes (n=256 is rejected), so every run is
# small; half of them hold only plausible values, so that many runs start.
SMALL_SCENARIO = st.builds(
    lambda n, d: {**d, "n": n},
    st.sampled_from([4, 5, 6, 256]),
    scenarios(st.nothing()) | scenarios(st.nothing(), junk=st.nothing()),
)


@given(SMALL_SCENARIO, edited_trace())
@settings(max_examples=200, deadline=None)
def test_any_input_file_exits_with_a_verdict_or_an_error_line(tmp_path_factory, d, trace_text):
    tmp = tmp_path_factory.mktemp("inputs")
    scenario, trace = tmp / "scenario.json", tmp / "trace.jsonl"
    scenario.write_text(json.dumps(d))
    trace.write_text(trace_text)
    for argv in (["run"], ["explore", "--max-configs", "200"], ["fuzz", "--seeds", "3"]):
        _main_reports([argv[0], str(scenario), *argv[1:]])
    _main_reports(["replay", str(trace)])


def _bounded_trace():
    # Stops at max_events with nobody decided and 23 messages in flight.
    return run(
        Scenario(
            n=5,
            values=tuple(default_values(5)),
            scheduler=SchedulerSpec(type="seeded-random", seed=1),
            max_events=37,
        )
    )


def test_replay_rejects_a_trace_whose_recorded_status_was_edited(tmp_path, capsys):
    trace = _bounded_trace()
    assert trace.verdict.status == "bound"
    trace.verdict.status = "script_end"  # would excuse termination
    path = tmp_path / "edited.jsonl"
    path.write_text(trace.to_jsonl())
    # The replay's own status decides termination, whatever the record says.
    assert check_properties(trace).failures() == ["termination"]
    assert not replays_identically(trace)
    assert main(["replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert "REPLAY DIVERGED: status 'bound' != recorded 'script_end'" in captured.out
    assert "replay ok" not in captured.out
    assert "error: " in captured.err


def test_undelivered_messages_are_labelled_by_whether_someone_crashed(tmp_path, capsys):
    path = tmp_path / "bounded.jsonl"
    _bounded_trace().save(path)
    assert main(["replay", str(path)]) == 2
    out = capsys.readouterr().out
    assert "  undelivered: 23 messages" in out
    assert "crashed process" not in out
    crash = CrashSpec(0, CrashPoint.BEFORE, MsgKind.INITIAL)
    run(Scenario(n=5, values=tuple(default_values(5)), crash=crash)).save(path)
    assert main(["replay", str(path)]) == 0
    assert "  undelivered (to the crashed process): 12 messages" in capsys.readouterr().out


def test_python_dash_m_consensuslab_runs_the_cli():
    src = Path(consensuslab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "consensuslab", "version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("consensuslab ")
