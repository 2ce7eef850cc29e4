"""Scenario files: any JSON object loads as a valid scenario or is a ConfigError."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensuslab.cases import all_cases
from consensuslab.errors import ConfigError
from consensuslab.protocol import MsgKind
from consensuslab.scenario import Scenario, SchedulerSpec, default_values

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 300)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


# Plausible values of each section's keys; "x" is an unknown key.
RULES = {name: [True, False] for name in (
    "ordered_delivery", "fill_on_gap_mismatch", "fill_on_second", "adopt_full_vector")}
SCHEDULER = {
    "type": ["seeded-random", "adversarial-lifo", "scripted"],
    "seed": [0, 7],
    "fairness_bound": [0, 64],
    "starve": [None, 0, 4],
    "script": [[], [["deliver", 0, "initial", 1]], [["deliver_seq", 1, 0, 2]]],
    "drain_rest": [True, False],
}
CRASH = {
    "victim": [0, 4],
    "point": ["before", "during", "after"],
    "kind": ["initial", "first", "second", "final"],
    "delivered_to": [None, [0], [1, 2], [0, 1, 2, 3]],
}
BOUNDS = {"max_events": [1, 10_000, 0]}


def scenarios(n, junk=JSON):
    """Scenario objects holding any subset of the fields, with n drawn from
    ``n`` or ``junk``.  Each other field, and each key of a section, takes
    one of its plausible values or a value drawn from ``junk``; a section
    holds the unknown key "x" only with a value drawn from ``junk``."""

    def section(fields: dict):
        keys = {name: st.sampled_from(plausible) | junk for name, plausible in fields.items()}
        return st.fixed_dictionaries({}, optional={**keys, "x": junk})

    return st.fixed_dictionaries({}, optional={
        "n": n | junk,
        "initial_values": st.sampled_from([None, ["01", "02", "03", "04", "05"], ["0a"] * 6]) | junk,
        "crash": st.none() | section(CRASH) | junk,
        "scheduler": section(SCHEDULER) | junk,
        "bounds": section(BOUNDS) | junk,
        "rules": section(RULES) | junk,
        "final_quorum": st.sampled_from([None, 1, 3, 4]) | junk,
    })


SCENARIO = scenarios(st.sampled_from([5, 6, 4, 256]))


@given(SCENARIO)
@settings(max_examples=400, deadline=None)
def test_from_dict_gives_a_valid_scenario_or_config_error(d):
    try:
        scenario = Scenario.from_dict(d)
    except ConfigError:
        return
    scenario.validate()
    again = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert again.to_dict() == scenario.to_dict()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("rules", [True], "field rules"),
        ("rules", "ordered_delivery", "field rules"),
        ("scheduler", "seeded-random", "field scheduler"),
        ("bounds", 10_000, "field bounds"),
        ("rules", {"ordered_delivery": "false"}, "field rules.ordered_delivery"),
        ("rules", {"adopt_full_vector": 0}, "field rules.adopt_full_vector"),
        ("scheduler", {"type": "scripted", "drain_rest": "yes"}, "field scheduler.drain_rest"),
        ("crash", {"victim": 4, "point": "during", "kind": "first", "delivered_to": "01"},
         "delivered_to"),
        ("initial_values", "0102030405", "field initial_values"),
        ("scheduler", {"empty_probability": 0.5}, "field scheduler.empty_probability"),
        ("scheduler", {"empty_probability": 0.0}, "field scheduler.empty_probability"),
        ("scheduler", {"fairnes_bound": 0}, "field scheduler.fairnes_bound: unknown key"),
        ("bounds", {"max_event": 3}, "field bounds.max_event: unknown key"),
        ("crash", {"victim": 4, "point": "after", "kind": "first", "dest": 0},
         "field crash.dest: unknown key"),
        ("rules", {"ordered": False}, "field rules.ordered: unknown key"),
    ],
)
def test_from_dict_rejects_ill_typed_sections(field, value, message):
    with pytest.raises(ConfigError, match=message):
        Scenario.from_dict({"n": 5, field: value})


def test_case_scripts_validate_unchanged():
    # Every scripted reference scenario passes the script checks and keeps
    # its script through a JSON round trip.
    for case in all_cases():
        scenario = case.scenario()
        scenario.validate()
        again = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert again.scheduler.script == scenario.scheduler.script


def test_msgkind_script_items_survive_a_round_trip():
    item = ("deliver", 0, MsgKind.INITIAL, 1)
    scenario = Scenario(n=5, values=tuple(default_values(5)),
                        scheduler=SchedulerSpec(type="scripted", script=(item,)))
    scenario.validate()
    again = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert again.scheduler.script == (("deliver", 0, "initial", 1),)
