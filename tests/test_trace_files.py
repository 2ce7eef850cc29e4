"""Trace files: any edit of a valid trace replays or is a ConfigError."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensuslab.errors import ConfigError
from consensuslab.explore import MUTANTS
from consensuslab.findings import racing_scenario
from consensuslab.properties import check_properties
from consensuslab.scenario import Scenario, SchedulerSpec, crash_grid, default_values
from consensuslab.trace import Trace, replay, replays_identically, run


def _traces():
    base = Scenario(n=5, values=tuple(default_values(5)),
                    scheduler=SchedulerSpec(type="seeded-random", seed=3))
    cells = crash_grid(5)
    scenarios = [base, racing_scenario(), base.with_crash(cells[7]), base.with_crash(cells[1]),
                 base.with_crash(cells[58]).with_seed(9)]
    scenarios.append(Scenario(n=5, values=tuple(default_values(5)), rules=MUTANTS["ordering"]))
    return [[json.loads(line) for line in run(s).to_jsonl().splitlines()] for s in scenarios]


TRACES = _traces()

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 300)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=6,
)
# Values that keep a record's shape but change its meaning.
PLAUSIBLE = st.sampled_from([
    0, 1, 4, 5, 6, -1, 99, 2**40, "deliver", "receive_empty", "crash", "first", "final",
    "during", "header", "verdict", "0102", "", None, [], [0], {}, ["01"] * 5,
])


@st.composite
def edited_trace(draw):
    records = [dict(r) for r in draw(st.sampled_from(TRACES))]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(records) - 1))
        edit = draw(st.sampled_from(["set", "delete", "drop", "copy", "swap"]))
        record = records[i]
        if edit == "set":
            name = draw(st.sampled_from(sorted(record)) | st.text(max_size=3))
            record[name] = draw(PLAUSIBLE | JSON)
        elif edit == "delete" and record:
            del record[draw(st.sampled_from(sorted(record)))]
        elif edit == "drop":
            del records[i]
        elif edit == "copy":
            records.insert(draw(st.integers(0, len(records))), dict(record))
        elif edit == "swap":
            j = draw(st.integers(0, len(records) - 1))
            records[i], records[j] = records[j], records[i]
        if not records:
            break
    return "\n".join(json.dumps(r) for r in records) + "\n"


@given(edited_trace())
@settings(max_examples=300, deadline=None)
def test_edited_trace_replays_or_is_a_config_error(text):
    # check_properties replays the same way, so it rejects the same traces,
    # and also every trace whose replay misses the recorded hash.
    try:
        trace = Trace.from_jsonl(text)
    except ConfigError:
        return
    try:
        again = replay(trace)
    except ConfigError:
        with pytest.raises(ConfigError):
            check_properties(trace)
        return
    assert isinstance(again, Trace)
    if again.verdict.config_hash == trace.verdict.config_hash:
        check_properties(trace)
    else:
        with pytest.raises(ConfigError, match="recorded configuration hash"):
            check_properties(trace)


def test_unedited_traces_replay():
    for records in TRACES:
        text = "\n".join(json.dumps(r) for r in records) + "\n"
        assert replays_identically(Trace.from_jsonl(text))
