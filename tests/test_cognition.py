import json

import pytest

from cogsim.backends import CompletionResult, ScriptedBackend, ToolCallRequest
from cogsim.cognition import Agent, PersonaConfig, agent_step, compose_prompt
from cogsim.errors import ContractViolation
from cogsim.memory import BufferMemory, MemoryStore, NullMemory
from cogsim.protocol import Message, Observation, ToolSpec
from cogsim.schema import ResponseSchema


def make_obs(**kwargs):
    defaults = dict(
        agent_id=0,
        time=0,
        context_text="hello",
        response_schema=ResponseSchema.of(move="string"),
    )
    defaults.update(kwargs)
    return Observation(**defaults)


def json_backend(payload):
    return ScriptedBackend(default=CompletionResult(content=json.dumps(payload)))


# --- prompt composition -----------------------------------------------------


def test_empty_config_and_memory_yields_observation_only():
    bundle = compose_prompt(make_obs(response_schema=None), PersonaConfig(), NullMemory())
    assert bundle.system_text == ""
    assert bundle.memory_text == ""
    assert bundle.observation_text == "hello"
    assert bundle.schema_hint == ""


def test_extra_directives_render_in_order():
    cfg = PersonaConfig(persona_text="You are a trader.", extra_directives=["first", "second"])
    bundle = compose_prompt(make_obs(), cfg, NullMemory())
    assert bundle.system_text.index("You are a trader.") < bundle.system_text.index("first")
    assert bundle.system_text.index("first") < bundle.system_text.index("second")


def test_inbox_rendered_in_delivery_order_with_attribution():
    inbox = [
        Message(time=0, src_agent_id=3, dst_agent_id=0, payload={"text": "a"}),
        Message(time=0, src_agent_id=7, dst_agent_id=0, payload={"text": "b"}),
    ]
    bundle = compose_prompt(make_obs(inbox=inbox), PersonaConfig(), NullMemory())
    text = bundle.observation_text
    assert text.index("agent 3") < text.index("agent 7")


def test_section_order_fixed():
    cfg = PersonaConfig(persona_text="PERSONA")
    mem = BufferMemory(capacity=5)
    from cogsim.memory import MemoryEntry

    mem.record(MemoryEntry(time=0, world_tag="w", role="note", content="MEMNOTE"))
    bundle = compose_prompt(make_obs(context_text="CTX"), cfg, mem)
    full = bundle.full_text()
    assert full.index("PERSONA") < full.index("MEMNOTE") < full.index("CTX") < full.index("move")


# --- agent step ---------------------------------------------------------------


def test_direct_answer_no_tool_calls():
    mem = BufferMemory(capacity=10)
    envelope = agent_step(make_obs(), PersonaConfig(), mem, json_backend({"move": "hold"}))
    assert envelope.body == {"move": "hold"}
    assert envelope.agent_id == 0
    # observation + own_action, no tool results
    roles = [e.role for e in mem.entries]
    assert roles == ["observation", "own_action"]


def test_tool_call_records_three_entries():
    tool = ToolSpec(
        name="news",
        description="daily news",
        parameter_schema=ResponseSchema.of(),
        handler=lambda: "headline",
    )
    calls = {"n": 0}

    class OneToolBackend:
        def complete(self, request):
            calls["n"] += 1
            if calls["n"] == 1:
                return CompletionResult(
                    content="", tool_calls=(ToolCallRequest(id="1", name="news", arguments_text="{}"),)
                )
            return CompletionResult(content='{"move": "buy"}')

    mem = BufferMemory(capacity=10)
    envelope = agent_step(make_obs(tools=[tool]), PersonaConfig(), mem, OneToolBackend())
    assert envelope.body == {"move": "buy"}
    assert [e.role for e in mem.entries] == ["observation", "tool_result", "own_action"]
    assert "headline" in mem.entries[1].content


def test_failing_tool_recorded_in_memory_but_step_survives():
    def broken():
        raise RuntimeError("tool exploded")

    tool = ToolSpec(name="flaky", description="", parameter_schema=ResponseSchema.of(), handler=broken)

    calls = {"n": 0}

    class Backend:
        def complete(self, request):
            calls["n"] += 1
            if calls["n"] == 1:
                return CompletionResult(
                    content="", tool_calls=(ToolCallRequest(id="1", name="flaky", arguments_text="{}"),)
                )
            return CompletionResult(content='{"move": "onward"}')

    mem = BufferMemory(capacity=10)
    envelope = agent_step(make_obs(tools=[tool]), PersonaConfig(), mem, Backend())
    assert envelope.body == {"move": "onward"}
    tool_entries = [e for e in mem.entries if e.role == "tool_result"]
    assert len(tool_entries) == 1
    assert "error" in tool_entries[0].content
    assert "tool exploded" in tool_entries[0].content


def test_missing_schema_raises_contract_violation():
    with pytest.raises(ContractViolation):
        agent_step(make_obs(response_schema=None), PersonaConfig(), NullMemory(), json_backend({}))


def test_tool_results_never_advance_time():
    obs = make_obs(time=5)
    mem = BufferMemory(capacity=10)
    envelope = agent_step(obs, PersonaConfig(), mem, json_backend({"move": "x"}))
    assert envelope.time == 5
    assert all(e.time == 5 for e in mem.entries)


def test_config_determinism_identical_agents_identical_actions():
    def build():
        return Agent(
            agent_id=1,
            config=PersonaConfig(persona_text="p"),
            memory=BufferMemory(capacity=3),
            backend=json_backend({"move": "hold"}),
        )

    a, b = build(), build()
    obs = make_obs(agent_id=1)
    env_a = a.step(obs)
    env_b = b.step(obs)
    assert env_a.body == env_b.body
    assert a.memory.entries == b.memory.entries


def test_memory_text_influences_scripted_backend():
    # backend answers differently when its prompt shows prior memory
    backend = ScriptedBackend(
        rules=[(lambda text: "[market" in text, CompletionResult(content='{"move": "informed"}'))],
        default=CompletionResult(content='{"move": "naive"}'),
    )
    fresh = Agent(agent_id=0, memory=BufferMemory(capacity=5), backend=backend)
    assert fresh.step(make_obs()).body["move"] == "naive"

    carried = Agent(agent_id=0, memory=BufferMemory(capacity=5), backend=backend, world_tag="market")
    carried.step(make_obs())  # populates memory tagged "market"
    assert carried.step(make_obs()).body["move"] == "informed"


def test_world_tag_stamped_on_entries():
    agent = Agent(agent_id=0, memory=BufferMemory(capacity=5), backend=json_backend({"move": "x"}), world_tag="market")
    agent.step(make_obs())
    agent.world_tag = "social"
    agent.step(make_obs(time=1))
    tags = [e.world_tag for e in agent.memory.entries]
    assert tags == ["market", "market", "social", "social"]


def test_archive_survives_transfer_roundtrip():
    agent = Agent(agent_id=0, memory=BufferMemory(capacity=2), backend=json_backend({"move": "x"}), world_tag="market")
    for t in range(3):
        agent.step(make_obs(time=t))
    restored = MemoryStore.from_jsonl(agent.memory.to_jsonl())
    assert restored.entries == agent.memory.entries
