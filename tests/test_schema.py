import json
import math
import os
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
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


EDGE_NUMBERS = st.sampled_from(
    [2**63, -(2**63) - 1, 2**64 + 1, 10**30, math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1e16]
)
EDGE_TEXT = st.text(st.characters() | st.sampled_from("\x00\x1f\x7f\"\\é€𝄞\ud800"))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | EDGE_NUMBERS | st.text() | EDGE_TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text() | EDGE_TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(JSON_VALUES)
def test_canonical_json_equals_dumps_at_the_same_settings(value):
    # the prebuilt encoder must give the bytes json.dumps gives: bools, None,
    # ints past 2**63, non-finite, negative-zero and subnormal floats,
    # non-ASCII and control characters, and nested objects with unsorted keys
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def test_canonical_json_is_one_shared_encoder_that_refuses_a_circular_value():
    value = {"b": [1.5, "x"], "a": None}
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert set(pool.map(canonical_json, [value] * 64)) == {'{"a":null,"b":[1.5,"x"]}'}
    loop: list = []
    loop.append(loop)
    with pytest.raises(RecursionError):
        canonical_json(loop)


def test_canonical_json_without_the_c_encoder_gives_the_same_bytes():
    # with no C encoder, canonical_json falls back to JSONEncoder.encode
    script = (
        "import json.encoder; json.encoder.c_make_encoder = None\n"
        "from cogsim.schema import canonical_json\n"
        "print(canonical_json.__name__, canonical_json({'b': [float('nan'), -0.0, 2**70], 'a': '\\u00e9\\x01'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True).stdout
    assert out == 'encode {"a":"\\u00e9\\u0001","b":[NaN,-0.0,1180591620717411303424]}\n'


# --- the compiled checks against the field-by-field reference ---------------------

REFERENCE_TYPE_CHECKS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def reference_fits_a_float(value):
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def reference_validate_action(body, schema):
    """``validate_action`` as it was before its checks were compiled per schema."""
    if not isinstance(body, dict):
        return [f"payload: expected object, got {type(body).__name__}"]
    violations = []
    for name, spec in schema.fields.items():
        if name not in body:
            if spec.required:
                violations.append(f'missing "{name}"')
            continue
        value = body[name]
        if value is None and not spec.required:
            continue
        if not REFERENCE_TYPE_CHECKS[spec.type](value):
            violations.append(f'type mismatch "{name}": expected {spec.type}, got {type(value).__name__}')
        elif spec.type in ("integer", "number") and not reference_fits_a_float(value):
            violations.append(f'out of range "{name}": {spec.type} does not fit a finite float')
    for name in body:
        if name not in schema.fields:
            violations.append(f'unknown field "{name}"')
    return violations


NAMES = st.sampled_from(["a", "b", "c", "d", "e", "price", "kind"])
SCHEMAS = st.dictionaries(
    NAMES, st.tuples(st.sampled_from(sorted(REFERENCE_TYPE_CHECKS)), st.booleans()), max_size=6
).map(lambda specs: ResponseSchema({name: FieldSpec(type_, required) for name, (type_, required) in specs.items()}))
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
def draw_body(data, schema):
    """Now and then no object at all; otherwise any of the schema's fields,
    with unknown keys among them, in any order."""
    if data.draw(st.integers(0, 9), label="shape") == 0:
        return data.draw(VALUES, label="body")
    names = [name for name in schema.fields if data.draw(st.booleans(), label=f"has {name}")]
    names += data.draw(st.lists(st.sampled_from(["x", "unknown", ""]), unique=True, max_size=3), label="unknown")
    return {name: data.draw(VALUES, label=name) for name in data.draw(st.permutations(names), label="order")}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(SCHEMAS, st.data())
def test_compiled_checks_give_the_reference_violations_in_order(schema, data):
    for _ in range(data.draw(st.integers(1, 6), label="bodies")):  # one schema, several bodies: the compiled checks are reused
        body = draw_body(data, schema)
        assert validate_action(body, schema) == reference_validate_action(body, schema)
