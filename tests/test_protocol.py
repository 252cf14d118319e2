import concurrent.futures
import itertools
import random

import pytest

from cogsim.errors import AgentMissing, SchemaViolation, UnknownRecipient
from cogsim.protocol import (
    ActionEnvelope,
    Environment,
    EventRecord,
    Message,
    Observation,
    csv_table,
    read_episodes,
    route_messages,
    run_episode,
)
from cogsim.schema import ResponseSchema


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
        schema = ResponseSchema.of(move="string") if not self.done() else None
        return {
            aid: Observation(
                agent_id=aid,
                time=self.t,
                context_text=f"state at t={self.t}",
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


def test_csv_table_cells_are_str_with_none_empty():
    assert csv_table(("a", "b", "c"), [(1, None, "x"), (2.5, True, "")]) == "a,b,c\n1,,x\n2.5,True,\n"
    assert csv_table(("a",), []) == "a\n"


def test_jsonl_field_names_exact():
    record = EventRecord(user_id=14, current_time=3, action="create_post", info={"post_id": 16})
    line = record.to_json()
    assert '"user_id":14' in line
    assert '"current_time":3' in line
    assert '"action":"create_post"' in line
    assert '"info":' in line


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
        Observation(agent_id=0, time=0, context_text="", tools=[t1, t2])


def test_observe_only_observation_skips_policy():
    class ObserveOnlyEnv(Environment):
        def __init__(self):
            super().__init__()
            self.t = 0

        def reset(self):
            self.t = 0
            # agent 1 never acts; agent 0 does
            return {
                0: Observation(agent_id=0, time=0, context_text="", response_schema=ResponseSchema.of(move="string")),
                1: Observation(agent_id=1, time=0, context_text=""),
            }

        def step(self, actions):
            assert set(actions) == {0}
            self.t += 1
            return {}

        def done(self):
            return self.t >= 1

    env = ObserveOnlyEnv()
    # agent 1 has no policy at all; must not raise
    log = run_episode(env, {0: scripted_policy}, max_steps=5, seed=0)
    assert log.steps_executed == 1
