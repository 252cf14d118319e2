import gc
import json
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogsim.backends import ChatTurn, CompletionRequest, CompletionResult, ScriptedBackend, ToolCallRequest
from cogsim.cognition import Agent, PersonaConfig, agent_step, compose_prompt
from cogsim.envs.economy import EconomyConfig, EconomyEnv
from cogsim.envs.market import MarketConfig, MarketEnv
from cogsim.memory import ENTRY_ROLES, MEMORY_VARIANTS, BufferMemory, MemoryEntry, MemoryStore, NullMemory
from cogsim.protocol import Message, Observation, ToolSpec, run_episode
from cogsim.schema import ResponseSchema


def make_obs(**kwargs):
    defaults = dict(
        agent_id=0,
        time=0,
        context_parts=("hello",),
        response_schema=ResponseSchema.of(move="string"),
    )
    defaults.update(kwargs)
    return Observation(**defaults)


def json_backend(payload):
    return ScriptedBackend(default=CompletionResult(content=json.dumps(payload)))


# --- prompt composition -----------------------------------------------------


def test_empty_config_and_memory_yields_observation_only():
    bundle = compose_prompt(make_obs(response_schema=ResponseSchema.of()), PersonaConfig(), NullMemory())
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
    mem.record(MemoryEntry(time=0, world_tag="w", role="note", content="MEMNOTE"))
    bundle = compose_prompt(make_obs(context_parts=("CTX",)), cfg, mem)
    full = bundle.full_text()
    assert full.index("PERSONA") < full.index("MEMNOTE") < full.index("CTX") < full.index("move")


# The prompt assembly from before the observation was kept in parts, kept
# verbatim as the reference: the memory text as each entry rendered it, the
# sections joined section by section, and the transcript line by line.


@dataclass
class OraclePromptBundle:
    system_text: str
    memory_text: str
    observation_text: str
    schema_hint: str

    def as_turns(self) -> list[ChatTurn]:
        user_parts = []
        if self.memory_text:
            user_parts.append("Your memory:\n" + self.memory_text)
        user_parts.append(self.observation_text)
        if self.schema_hint:
            user_parts.append("Respond with a JSON object with fields:\n" + self.schema_hint)
        turns = []
        if self.system_text:
            turns.append(ChatTurn(role="system", content=self.system_text))
        turns.append(ChatTurn(role="user", content="\n\n".join(user_parts)))
        return turns

    def full_text(self) -> str:
        return "\n\n".join(
            part
            for part in (self.system_text, self.memory_text, self.observation_text, self.schema_hint)
            if part
        )


def oracle_memory_render(mem: MemoryStore) -> str:
    return "\n".join(f"[{entry.world_tag} t={entry.time} {entry.role}] {entry.content}" for entry in mem.visible())


def oracle_compose_prompt(obs: Observation, cfg: PersonaConfig, mem: MemoryStore) -> OraclePromptBundle:
    context = obs.context_text
    observation_lines = [context] if context else []
    for msg in obs.inbox:
        observation_lines.append(msg.render())
    return OraclePromptBundle(
        system_text=cfg.render(),
        memory_text=oracle_memory_render(mem),
        observation_text="\n".join(observation_lines),
        schema_hint=obs.response_schema.hint_text(),
    )


def oracle_rendered(turns: list[ChatTurn]) -> str:
    parts = []
    for turn in turns:
        parts.append(f"{turn.role}: {turn.content}")
        for call in turn.tool_calls:
            parts.append(f"{turn.role} tool_call {call.name}({call.arguments_text})")
    return "\n".join(parts)


TEXTS = st.one_of(st.tuples(st.text(max_size=30)), st.lists(st.text(max_size=12), max_size=4).map(tuple))
ENTRY_ROWS = st.lists(st.tuples(st.integers(0, 9), st.text(max_size=6), st.sampled_from(ENTRY_ROLES), TEXTS), max_size=6)
INBOX = st.lists(
    st.builds(
        Message,
        time=st.integers(0, 9),
        src_agent_id=st.none() | st.integers(1, 5),
        dst_agent_id=st.just(0),
        payload=st.dictionaries(st.text(max_size=6), st.text(max_size=12), max_size=2),
    ),
    max_size=3,
)
SCHEMAS = st.just(ResponseSchema.of()) | st.just(ResponseSchema.of(move="string", size="integer?"))  # the empty one hints nothing
TOOL_CALLS = st.lists(
    st.builds(ToolCallRequest, id=st.text(min_size=1, max_size=4), name=st.text(max_size=6), arguments_text=st.text(max_size=12)),
    max_size=2,
)


@settings(derandomize=True, database=None, deadline=None)
@given(
    persona=st.text(max_size=20),
    directives=st.lists(st.text(max_size=12), max_size=3),
    variant=st.sampled_from(sorted(MEMORY_VARIANTS)),
    data=st.data(),
    rows=ENTRY_ROWS,
    context=TEXTS,
    inbox=INBOX,
    schema=SCHEMAS,
    calls=TOOL_CALLS,
)
def test_prompt_bytes_equal_the_joined_string_oracle(persona, directives, variant, data, rows, context, inbox, schema, calls):
    cls = MEMORY_VARIANTS[variant]
    mem = cls(**{name: data.draw(st.integers(0, 8), label=name) for name in cls.params})
    for time, tag, role, content in rows:
        mem.record(MemoryEntry(time=time, world_tag=tag, role=role, content=content))
    cfg = PersonaConfig(persona_text=persona, extra_directives=directives)
    obs = Observation(agent_id=0, time=3, context_parts=context, inbox=inbox, response_schema=schema)

    bundle, oracle = compose_prompt(obs, cfg, mem), oracle_compose_prompt(obs, cfg, mem)
    assert (bundle.system_text, bundle.memory_text, bundle.observation_text, bundle.schema_hint) == (
        oracle.system_text, oracle.memory_text, oracle.observation_text, oracle.schema_hint
    )
    assert bundle.full_text() == oracle.full_text()
    turns, oracle_turns = bundle.as_turns(), oracle.as_turns()
    assert turns == oracle_turns
    # a tool round after the prompt exercises the transcript's tool_call lines
    if calls:
        tail = [ChatTurn(role="assistant", content="", tool_calls=tuple(calls)), ChatTurn(role="tool", content="r", tool_call_id="c")]
        turns, oracle_turns = turns + tail, oracle_turns + tail
    assert CompletionRequest(turns=turns).rendered() == oracle_rendered(oracle_turns)


def test_agent_step_holds_no_more_than_two_prompt_copies():
    # a social-sized shared part, given by reference; the step should hold
    # the user turn and the rendered transcript, not four copies of it
    shared = "x" * 200_000
    obs = make_obs(context_parts=("t=1. header\n", shared, "\nfooter"))
    backend = json_backend({"move": "hold"})
    tracemalloc.start()
    try:
        agent_step(obs, PersonaConfig(persona_text="p"), NullMemory(), backend)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(shared)


def run_economy(n, months):
    answer = CompletionResult(content=json.dumps({"work_propensity": 0.8, "consumption_propensity": 0.4}))
    backend = ScriptedBackend(default=answer)
    agents = {aid: Agent(aid, memory=BufferMemory(capacity=4), backend=backend, world_tag="economy") for aid in range(n)}
    run_episode(EconomyEnv(EconomyConfig(n_households=n, months=months)), agents, max_steps=months, seed=0)
    return [agent.memory for agent in agents.values()]


def test_economy_archive_holds_only_each_households_own_figures():
    # the month's lines and a household's traits are shared parts, so a
    # household-month archives its wealth figure, its action, six part
    # slots and two entries' column cells: about 300 bytes at this size,
    # where a whole string each was 530
    n, months = 20, 24
    run_economy(2, 2)  # lazy imports and first-call caches stay out of the count
    tracemalloc.start()
    try:
        stores = run_economy(n, months)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(len(store.entries) for store in stores) == 2 * n * months
    assert held / (n * months) < 460


def test_economy_archive_is_columns_not_entry_objects():
    # per household-month: the wealth string and the action line, six part
    # slots and 17 bytes of columns per entry; one MemoryEntry per line and
    # a tuple per observation held about 390
    n, months = 50, 48
    run_economy(2, 2)  # lazy imports and first-call caches stay out of the count
    tracemalloc.start()
    try:
        stores = run_economy(n, months)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(len(store.entries) for store in stores) == 2 * n * months
    assert held / (n * months) < 300


def run_market(n, days):
    orders = [
        {"symbol": symbol, "side": side, "limit_price": price + offset, "quantity": 2}
        for symbol, price in (("A", 30.0), ("B", 45.0))
        for side, offset in (("buy", 0.5), ("sell", -0.5))
    ]
    backend = json_backend({"orders": orders})
    agents = {aid: Agent(aid, memory=NullMemory(), backend=backend, world_tag="market") for aid in range(n)}
    return run_episode(MarketEnv(MarketConfig(n_agents=n, days=days)), agents, max_steps=None, seed=0)


def test_market_event_log_holds_each_record_as_its_line():
    # a record is its canonical JSON line, about 290 bytes with the object
    # that holds it, where a record with its own info dict was 424
    run_market(2, 1)  # lazy imports and first-call caches stay out of the count
    tracemalloc.start()
    try:
        log = run_market(50, 2)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert {"submit_order", "trade", "clear"} <= {record.action for record in log.records}
    assert held / len(log.records) < 340


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


def test_agent_keeps_the_store_and_config_it_is_given_even_when_they_read_false():
    class SizedMemory(BufferMemory):
        def __len__(self):
            return 0  # an empty store is falsy

    class BlankPersona(PersonaConfig):
        def __bool__(self):
            return False

    store, cfg = SizedMemory(capacity=2), BlankPersona(persona_text="p")
    agent = Agent(agent_id=0, config=cfg, memory=store, backend=json_backend({"move": "x"}))
    assert agent.memory is store and agent.config is cfg
    agent.step(make_obs())
    assert [e.role for e in store.entries] == ["observation", "own_action"]


def test_archive_survives_transfer_roundtrip():
    agent = Agent(agent_id=0, memory=BufferMemory(capacity=2), backend=json_backend({"move": "x"}), world_tag="market")
    for t in range(3):
        agent.step(make_obs(time=t))
    restored = MemoryStore.from_jsonl(agent.memory.to_jsonl())
    assert restored.entries == agent.memory.entries


# --- the traced boundaries of one step ----------------------------------------------


def count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("tool_calls", [0, 1, 3])
def test_one_step_goes_through_compose_render_and_record(tool_calls, monkeypatch):
    """A step composes its prompt once, renders its memory once and records
    each write through ``MemoryStore.record``: the boundaries a tracer wraps."""
    import cogsim.cognition as cognition

    counts = dict.fromkeys(("compose_prompt", "render", "record"), 0)
    count_calls(monkeypatch, cognition, "compose_prompt", counts)
    count_calls(monkeypatch, MemoryStore, "render", counts)
    count_calls(monkeypatch, MemoryStore, "record", counts)
    env = EconomyEnv(EconomyConfig(n_households=2, months=2))
    obs = env.reset()[0]
    tool = ToolSpec(name="news", description="", parameter_schema=ResponseSchema.of(), handler=lambda: "calm")
    calls = tuple(ToolCallRequest(id=str(i), name="news", arguments_text="{}") for i in range(tool_calls))
    answer = CompletionResult(content=json.dumps({"work_propensity": 0.8, "consumption_propensity": 0.4}))
    rules = [(lambda text: "tool: calm" not in text, CompletionResult(tool_calls=calls))] if calls else []
    backend = ScriptedBackend(rules, default=answer)
    if tool_calls:
        obs = Observation(obs.agent_id, obs.time, obs.context_parts, tools=[tool], response_schema=obs.response_schema)
    agent = Agent(0, memory=BufferMemory(capacity=12), backend=backend, world_tag="economy")
    for _ in range(2):  # the second step renders a window the first one filled
        counts.update(dict.fromkeys(counts, 0))
        agent.step(obs)
        assert counts == {"compose_prompt": 1, "render": 1, "record": 2 + tool_calls}
