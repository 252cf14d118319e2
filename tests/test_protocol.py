import concurrent.futures
import copy
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogsim.errors import AgentMissing, SchemaViolation, UnknownRecipient
from cogsim.protocol import (
    ActionEnvelope,
    Environment,
    EpisodeLog,
    EventLog,
    EventRecord,
    Message,
    Observation,
    csv_table,
    read_episodes,
    route_messages,
    run_episode,
)
from cogsim.schema import ResponseSchema, canonical_json


def brute_force_delivery(outbox, population):
    """Independent oracle: an agent receives a message iff it is the named
    recipient, or the message is a broadcast it did not send."""
    inboxes = {aid: [] for aid in sorted(population)}
    for aid in sorted(population):
        for msg in outbox:
            if msg.dst_agent_id == aid or (msg.dst_agent_id is None and msg.src_agent_id != aid):
                inboxes[aid].append(msg)
    return inboxes


def test_unicast_delivers_to_exactly_one():
    msg = Message(time=0, src_agent_id=1, dst_agent_id=2)
    inboxes = route_messages([msg], {1, 2, 3})
    assert inboxes[2] == [msg]
    assert inboxes[1] == [] and inboxes[3] == []


def test_broadcast_excludes_sender():
    msg = Message(time=0, src_agent_id=1, dst_agent_id=None)
    inboxes = route_messages([msg], {1, 2, 3})
    assert inboxes[1] == []
    assert inboxes[2] == [msg] and inboxes[3] == [msg]


def test_environment_broadcast_reaches_everyone():
    msg = Message(time=0, src_agent_id=None, dst_agent_id=None)
    inboxes = route_messages([msg], {1, 2})
    assert inboxes[1] == [msg] and inboxes[2] == [msg]


def test_unknown_recipient_raises():
    msg = Message(time=0, src_agent_id=1, dst_agent_id=9)
    with pytest.raises(UnknownRecipient):
        route_messages([msg], {1, 2})


def test_src_equals_dst_rejected():
    with pytest.raises(ValueError):
        Message(time=0, src_agent_id=1, dst_agent_id=1)


def test_mixed_outbox_matches_brute_force_oracle():
    rng = random.Random(7)
    population = {0, 1, 2, 3}
    outbox = []
    for _ in range(5):
        src = rng.choice(sorted(population))
        dst = rng.choice([None] + [a for a in sorted(population) if a != src])
        outbox.append(Message(time=0, src_agent_id=src, dst_agent_id=dst))
    assert route_messages(outbox, population) == brute_force_delivery(outbox, population)


def test_routing_exhaustive_small_populations():
    # every (src, dst) combination over populations of size 1..5
    for size in range(1, 6):
        population = set(range(size))
        sources = sorted(population) + [None]
        for src in sources:
            dsts = [None] + [a for a in sorted(population) if a != src]
            for dst in dsts:
                outbox = [Message(time=0, src_agent_id=src, dst_agent_id=dst)]
                assert route_messages(outbox, population) == brute_force_delivery(outbox, population)


def test_routing_completeness_count():
    rng = random.Random(11)
    population = set(range(5))
    for _ in range(50):
        outbox = []
        for _ in range(rng.randrange(0, 8)):
            src = rng.choice(sorted(population))
            dst = rng.choice([None] + [a for a in sorted(population) if a != src])
            outbox.append(Message(time=0, src_agent_id=src, dst_agent_id=dst))
        delivered = sum(len(v) for v in route_messages(outbox, population).values())
        expected = sum(1 if m.dst_agent_id is not None else len(population) - 1 for m in outbox)
        assert delivered == expected


class ScriptedEnv(Environment):
    """Logs every move for a fixed number of steps."""

    name = "scripted"

    def __init__(self, n_agents=2, steps=3, done_immediately=False):
        super().__init__()
        self.n_agents = n_agents
        self.max_t = steps
        self.done_immediately = done_immediately
        self.t = 0

    def _obs(self):
        if self.done():
            return {}  # a finished environment emits nothing
        schema = ResponseSchema.of(move="string")
        return {
            aid: Observation(
                agent_id=aid,
                time=self.t,
                context_parts=(f"state at t={self.t}",),
                response_schema=schema,
            )
            for aid in range(self.n_agents)
        }

    def reset(self):
        self.t = 0
        return self._obs()

    def step(self, actions):
        for aid in sorted(actions):
            self.events.append(aid, self.t, "move", {"move": actions[aid].body["move"]})
        self.t += 1
        return self._obs()

    def done(self):
        return self.done_immediately or self.t >= self.max_t


def scripted_policy(obs):
    return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"move": "go"})


def test_done_immediately_yields_empty_log():
    env = ScriptedEnv(done_immediately=True)
    log = run_episode(env, {0: scripted_policy, 1: scripted_policy}, max_steps=10, seed=1)
    assert log.records == []
    assert log.total_rewards == {0: 0.0, 1: 0.0}
    assert log.steps_executed == 0


def test_identical_runs_are_byte_identical():
    logs = []
    for _ in range(2):
        env = ScriptedEnv(n_agents=2, steps=5)
        log = run_episode(env, {0: scripted_policy, 1: scripted_policy}, max_steps=20, seed=42)
        logs.append(log.to_jsonl())
    assert logs[0] == logs[1]


def test_max_steps_caps_run():
    env = ScriptedEnv(steps=100)
    log = run_episode(env, {0: scripted_policy, 1: scripted_policy}, max_steps=4, seed=0)
    assert log.steps_executed == 4


def test_missing_agent_raises():
    env = ScriptedEnv(n_agents=2, steps=1)
    with pytest.raises(AgentMissing):
        run_episode(env, {0: scripted_policy}, max_steps=5, seed=0)


def test_invalid_action_body_raises_schema_violation():
    env = ScriptedEnv(n_agents=1, steps=1)

    def bad_policy(obs):
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"move": 3})

    with pytest.raises(SchemaViolation):
        run_episode(env, {0: bad_policy}, max_steps=5, seed=0)


def test_parallel_policy_fanout_matches_sequential():
    def run(parallel):
        env = ScriptedEnv(n_agents=4, steps=5)
        agents = {aid: scripted_policy for aid in range(4)}
        return run_episode(env, agents, max_steps=10, seed=9, parallel=parallel).to_jsonl()

    assert run(False) == run(True)


def test_parallel_episode_opens_one_pool(monkeypatch):
    opened = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    env = ScriptedEnv(n_agents=4, steps=5)
    log = run_episode(env, {aid: scripted_policy for aid in range(4)}, max_steps=10, seed=9, parallel=True)
    assert log.steps_executed == 5
    assert opened == [{"max_workers": 4}]


def test_event_times_non_decreasing():
    env = ScriptedEnv(n_agents=3, steps=6)
    log = run_episode(env, {a: scripted_policy for a in range(3)}, max_steps=10, seed=0)
    times = [r.current_time for r in log.records]
    assert times == sorted(times)


def test_episode_log_jsonl_roundtrip():
    env = ScriptedEnv(n_agents=2, steps=3)
    log = run_episode(env, {0: scripted_policy, 1: scripted_policy}, max_steps=10, seed=5)
    text = log.to_jsonl()
    (back,) = read_episodes(text)
    assert back.records == log.records
    assert back.total_rewards == log.total_rewards
    assert back.seed == log.seed
    assert back.steps_executed == log.steps_executed
    assert [episode.to_jsonl() for episode in read_episodes(text * 3)] == [text] * 3
    with pytest.raises(ValueError):
        read_episodes(text + text.splitlines(keepends=True)[0])


def test_read_episodes_keeps_each_line_without_re_encoding(monkeypatch):
    env = ScriptedEnv(n_agents=3, steps=4)
    log = run_episode(env, {a: scripted_policy for a in range(3)}, max_steps=10, seed=2)
    text = log.to_jsonl()
    encodes = []
    monkeypatch.setattr("cogsim.protocol.canonical_json", lambda obj: encodes.append(obj))
    (back,) = read_episodes(text)
    assert encodes == []
    assert back.records == log.records
    assert [(r.user_id, r.current_time, r.action, r.info) for r in back.records] == [
        (r.user_id, r.current_time, r.action, r.info) for r in log.records
    ]
    monkeypatch.undo()
    assert back.to_jsonl() == text


def test_csv_table_cells_are_str_with_none_empty():
    assert csv_table(("a", "b", "c"), [(1, None, "x"), (2.5, True, "")]) == "a,b,c\n1,,x\n2.5,True,\n"
    assert csv_table(("a",), []) == "a\n"


def test_jsonl_field_names_exact():
    record = EventRecord(user_id=14, current_time=3, action="create_post", info={"post_id": 16})
    line = record.line
    assert '"user_id":14' in line
    assert '"current_time":3' in line
    assert '"action":"create_post"' in line
    assert '"info":' in line


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-0.0, 1e300, -1e300, 5e-324])
    | st.floats(allow_nan=False)
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=12
)
INFOS = st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=5)


@settings(max_examples=150, deadline=None)
@given(INFOS, st.integers(-1, 10**6), st.integers(0, 10**6), st.text(min_size=1, max_size=12))
def test_event_record_is_its_canonical_line(info, user_id, current_time, action):
    record = EventRecord(user_id, current_time, action, info)
    as_dict = {"user_id": user_id, "current_time": current_time, "action": action, "info": info}
    assert record.line == canonical_json(as_dict)
    decoded = json.loads(canonical_json(info))
    assert record.info == decoded
    record.info["added"] = 1  # a fresh dict each read: the change is not kept
    assert record.info == decoded

    log = EpisodeLog([record, EventRecord(user_id, current_time, action)], {user_id: 0.0}, seed=3, steps_executed=1)
    (back,) = read_episodes(log.to_jsonl())
    assert back.records == log.records
    assert [r.line for r in back.records] == [r.line for r in log.records]

    events, given_info = EventLog(), copy.deepcopy(info)
    appended = events.append(user_id, current_time, action, given_info)
    empty_in_place(given_info)
    given_info["added"] = 1
    assert appended == record and events.snapshot() == [record]


KEY_VALUES = st.integers() | st.sampled_from([2**63, -(2**64), True, False, 0.0, -0.0, 1.5, float("nan"), float("inf")])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(KEY_VALUES, KEY_VALUES, st.text(), st.none() | INFOS)
def test_a_record_logged_with_its_info_encoded_is_the_whole_dicts_encoding(user_id, current_time, action, info):
    # a bool or float id or time is encoded with the whole dict; a record logged
    # with its info already encoded, as the market logs its orders and trades,
    # takes exact int ids and times and gives the same bytes
    record = EventRecord(user_id, current_time, action, info)
    as_dict = {"user_id": user_id, "current_time": current_time, "action": action, "info": info or {}}
    assert record.line == canonical_json(as_dict)
    if type(user_id) is int and type(current_time) is int:
        events = EventLog()
        kept = events.append_encoded(user_id, current_time, action, canonical_json(info or {}))
        assert kept == record and events.snapshot() == [kept]
        assert (kept.user_id, kept.current_time, kept.action) == (user_id, current_time, action)


def empty_in_place(value):
    """Empty every list and dict nested in ``value``, then ``value`` itself."""
    if isinstance(value, (dict, list)):
        for inner in list(value.values() if isinstance(value, dict) else value):
            empty_in_place(inner)
        value.clear()


def test_event_record_is_frozen_and_equal_by_line():
    record = EventRecord(1, 2, "trade", {"price": 30.0, "quantity": 1})
    with pytest.raises(AttributeError):
        record.line = "{}"
    assert record == EventRecord(1, 2, "trade", {"quantity": 1, "price": 30.0})
    assert record != EventRecord(1, 2, "trade", {"price": 30.5, "quantity": 1})
    assert EventRecord(1, 2, "noop").info == {}


def test_observation_isolation_from_other_agents_memory():
    # an observation is a function of (environment state, agent id) only:
    # mutating one agent's memory never changes another agent's observation
    from cogsim.envs.market import MarketConfig, MarketEnv
    from cogsim.memory import BufferMemory, MemoryEntry

    def observe_agent_1(mutate):
        env = MarketEnv(MarketConfig(n_agents=2, days=1))
        observations = env.reset()
        if mutate:
            rogue = BufferMemory(capacity=5)
            rogue.record(MemoryEntry(time=0, world_tag="w", role="note", content="private"))
        return observations[1].context_text

    assert observe_agent_1(mutate=False) == observe_agent_1(mutate=True)


def test_duplicate_tool_names_rejected():
    from cogsim.protocol import ToolSpec

    t1 = ToolSpec(name="dup", description="", parameter_schema=ResponseSchema.of(), handler=lambda: "")
    t2 = ToolSpec(name="dup", description="", parameter_schema=ResponseSchema.of(), handler=lambda: "")
    with pytest.raises(ValueError):
        Observation(agent_id=0, time=0, context_parts=(), response_schema=ResponseSchema.of(), tools=[t1, t2])


def test_an_agent_without_an_observation_sits_out_the_step():
    class FirstAgentEnv(Environment):
        """Two agents, of which only agent 0 is observed, and so asked to act."""

        agent_ids = [0, 1]
        schema = ResponseSchema.of(move="string")

        def _setup(self):
            self.t = 0

        def _observations(self):
            return {} if self.done() else {0: Observation(0, self.t, ("your move",), self.schema)}

        def step(self, actions):
            assert set(actions) == {0}
            self.events.append(0, self.t, "move", actions[0].body)
            self.t += 1
            return self._observations()

        def done(self):
            return self.t >= 2

    def must_not_run(obs):
        raise AssertionError("agent 1 was asked to act without an observation")

    # agent 1's policy never runs, and an agent 1 with no policy at all is not missed
    for agents in ({0: scripted_policy, 1: must_not_run}, {0: scripted_policy}):
        log = run_episode(FirstAgentEnv(), agents, max_steps=5, seed=0)
        assert log.steps_executed == 2
        assert [(r.user_id, r.current_time, r.info) for r in log.records] == [(0, 0, {"move": "go"}), (0, 1, {"move": "go"})]
