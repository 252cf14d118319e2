import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from cogsim import Agent, CompletionResult, ScriptedBackend, run_episode
from cogsim.envs.economy import ACTION_SCHEMA, EconomyConfig, EconomyEnv
from cogsim.schema import FieldSpec, ResponseSchema, canonical_json, validate_action


def test_valid_payload():
    schema = ResponseSchema.of(bid="integer")
    assert validate_action({"bid": 600}, schema) == []


def test_missing_required_field():
    schema = ResponseSchema.of(bid="integer")
    violations = validate_action({}, schema)
    assert violations == ['missing "bid"']


def test_type_mismatch():
    schema = ResponseSchema.of(bid="integer")
    violations = validate_action({"bid": "high"}, schema)
    assert len(violations) == 1
    assert 'type mismatch "bid"' in violations[0]


def test_a_number_past_the_float_range_is_out_of_range():
    schema = ResponseSchema.of(quantity="integer", price="number")
    assert validate_action({"quantity": 10**400, "price": -(10**400)}, schema) == [
        'out of range "quantity": integer does not fit a finite float',
        'out of range "price": number does not fit a finite float',
    ]
    assert validate_action({"quantity": 10**308, "price": float("nan")}, schema) == [
        'out of range "price": number does not fit a finite float'
    ]


def test_unknown_field_rejected_strict():
    schema = ResponseSchema.of(bid="integer")
    violations = validate_action({"bid": 1, "note": "x"}, schema)
    assert violations == ['unknown field "note"']


def test_optional_field_may_be_absent_or_null():
    schema = ResponseSchema.of(bid="number?", comment="string?")
    assert validate_action({}, schema) == []
    assert validate_action({"bid": None}, schema) == []
    assert validate_action({"bid": 3.5}, schema) == []


def test_bool_is_not_integer():
    schema = ResponseSchema.of(n="integer")
    assert validate_action({"n": True}, schema) != []


def test_non_object_payload():
    schema = ResponseSchema.of(bid="integer")
    assert validate_action([1, 2], schema) != []


def test_schema_validates_own_example_payloads():
    # every declared type accepts a canonical example of itself
    examples = {
        "integer": 3,
        "number": 3.5,
        "string": "s",
        "boolean": True,
        "array": [1],
        "object": {"k": 1},
    }
    for type_name, value in examples.items():
        schema = ResponseSchema(fields={"f": FieldSpec(type=type_name)})
        assert validate_action({"f": value}, schema) == []


def test_json_schema_view():
    schema = ResponseSchema.of(bid="integer", note="string?")
    js = schema.json_schema()
    assert js["type"] == "object"
    assert js["properties"]["bid"] == {"type": "integer"}
    assert js["required"] == ["bid"]
    assert js["additionalProperties"] is False


def test_hint_text_mentions_every_field():
    schema = ResponseSchema.of(bid="integer", note="string?")
    hint = schema.hint_text()
    assert "bid" in hint and "note" in hint
    assert "required" in hint and "optional" in hint


def test_scripted_economy_episode_builds_each_schema_text_once(monkeypatch):
    # every agent-step's prompt embeds the hint, and every free-text answer's
    # parse prompt the schema's JSON text; each is built once for the one schema
    built = Counter()
    for name in ("_hint", "json_text"):
        prop = vars(ResponseSchema)[name]
        monkeypatch.setattr(prop, "func", lambda schema, name=name, build=prop.func: built.update([name]) or build(schema))
        monkeypatch.delitem(vars(ACTION_SCHEMA), name, raising=False)
    prompts = []

    def answer(text):
        prompts.append(text)
        if "Based on the text provided below" in text:
            return CompletionResult(content=json.dumps({"work_propensity": 0.6, "consumption_propensity": 0.4}))
        return CompletionResult(content="I would work a lot and spend less than half.")

    env = EconomyEnv(EconomyConfig(n_households=3, months=3))
    agents = {aid: Agent(aid, backend=ScriptedBackend(default=answer), world_tag=env.name) for aid in env.agent_ids}
    assert run_episode(env, agents, max_steps=None).steps_executed == 3
    assert built == {"_hint": 1, "json_text": 1}
    hint = "- work_propensity (number, required)\n- consumption_propensity (number, required)"
    schema_text = (
        '{"additionalProperties":false,"properties":{"consumption_propensity":{"type":"number"},'
        '"work_propensity":{"type":"number"}},"required":["work_propensity","consumption_propensity"],"type":"object"}'
    )
    assert len(prompts) == 18
    assert sum(hint in text for text in prompts) == 9
    assert sum(f"```\n{schema_text}\n```" in text for text in prompts) == 9


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, database=None, deadline=None)
@given(JSON_VALUES)
def test_canonical_json_equals_dumps_at_the_same_settings(value):
    # the shared encoder must give the bytes json.dumps gives, non-ASCII,
    # non-finite floats and nested objects with unsorted keys included
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
