import concurrent.futures
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cogsim import runners
from cogsim.backends import CompletionResult, ScriptedBackend
from cogsim.cognition import Agent, PersonaConfig, compose_prompt
from cogsim.envs.market import ORDER_ITEM_SCHEMA, SYMBOLS, MarketConfig, MarketEnv, NewsItem
from cogsim.envs.questionnaire import Item, QuestionnaireEnv, ScaleSpec, score_answers
from cogsim.envs.social import ACTION_KINDS, SocialEnv, star_profiles
from cogsim.errors import SchemaViolation, SimulationError
from cogsim.memory import BufferMemory, MemoryStore
from cogsim.protocol import ActionEnvelope, run_episode, step_world
from cogsim.schema import validate_action
from cogsim.runners import (
    BACKENDS,
    AblationSetting,
    AgentsConfig,
    ExperimentConfig,
    InstrumentSpec,
    MultiWorldSchedule,
    TariffStudy,
    TransferPlan,
    ablation_agents,
    ablation_environment,
    build_environment,
    build_setup,
    compare_arms,
    default_settings,
    make,
    parse,
    run_memory_transfer,
    run_multiworld,
    run_tariff_ablation,
    trials_harness,
)


# --- trials ----------------------------------------------------------------------


def market_trials_config(trials=5, agents=4, days=1):
    raw = {
        "environment": {"kind": "market", "agents": agents, "days": days},
        "agents": {"memory": {"kind": "buffer", "capacity": 3}},
        "backend": {"kind": "scripted", "default_content": json.dumps({"orders": []})},
        "trials": trials,
        "seed": 0,
    }
    return parse(ExperimentConfig, raw)


def trials_table(result):
    """The per-seed metric rows of a trials result's ``metrics_csv``, then its mean and stddev rows."""
    header, *lines = [line.split(",") for line in result.metrics_csv.splitlines()]
    values = [{name: float(cell) for name, cell in zip(header[1:], line[1:])} for line in lines]
    rows = [(int(line[0]), metrics) for line, metrics in zip(lines[:-2], values)]
    assert [line[0] for line in lines[-2:]] == ["mean", "stddev"]
    return rows, values[-2], values[-1]


def test_deterministic_trials_identical_rows_zero_stddev():
    result = trials_harness(market_trials_config(trials=5))
    rows, means, stds = trials_table(result)
    assert [tag for tag, _ in result.episodes.logs] == [f"trial/{seed}" for seed in range(5)]
    assert [seed for seed, _ in rows] == [0, 1, 2, 3, 4]
    first = rows[0][1]
    assert all(metrics == first for _, metrics in rows)
    assert all(s == 0.0 for s in stds.values())
    assert means == first


def test_single_trial_summary_equals_row():
    rows, means, stds = trials_table(trials_harness(market_trials_config(trials=1)))
    assert means == rows[0][1]
    assert all(s == 0.0 for s in stds.values())


def test_seed_sensitive_trials_mean_is_hand_average():
    raw = {
        "environment": {"kind": "economy", "agents": 5, "months": 6},
        "backend": {
            "kind": "scripted",
            "default_content": json.dumps({"work_propensity": 1.0, "consumption_propensity": 0.3}),
        },
        "trials": 3,
        "seed": 10,
    }
    config = parse(ExperimentConfig, raw)
    rows, means, _ = trials_table(trials_harness(config))
    assert len({json.dumps(m, sort_keys=True) for _, m in rows}) == 3  # seeds differ
    for name in means:
        values = [m[name] for _, m in rows]
        assert means[name] == pytest.approx(sum(values) / len(values))


def test_failed_trial_recorded_others_proceed(monkeypatch):
    calls = {"n": 0}

    def setup(config, backend, seed):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("boom")
        env = MarketEnv(MarketConfig(n_agents=2, days=1))
        agents = {aid: Agent(agent_id=aid, backend=backend) for aid in range(2)}
        return env, agents

    monkeypatch.setattr(runners, "build_setup", setup)
    config = market_trials_config(trials=3)
    result = trials_harness(config)
    assert [tag for tag, _ in result.episodes.logs] == ["trial/0", "trial/2"]
    assert list(result.episodes.failures) == ["trial/1"]
    assert "boom" in result.episodes.failures["trial/1"]
    assert [seed for seed, _ in trials_table(result)[0]] == [0, 2]


def test_trials_csv_layout():
    result = trials_harness(market_trials_config(trials=2))
    lines = result.metrics_csv.strip().splitlines()
    assert lines[0].startswith("seed,")
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("stddev,")
    assert len(lines) == 1 + 2 + 2


# --- memory transfer -------------------------------------------------------------------


def transfer_items(points=7):
    pairs = []
    for name in ("alpha", "beta"):
        pairs += [
            Item(
                item_id=f"{name}_c",
                subscale=name,
                text=f"How convincing is the plain description of {name}?",
                scale=ScaleSpec(kind="likert", points=points),
                variant="control",
                pair_id=name,
            ),
            Item(
                item_id=f"{name}_t",
                subscale=name,
                text=f"[cue] How convincing is the slanted description of {name}?",
                scale=ScaleSpec(kind="likert", points=points),
                variant="treatment",
                pair_id=name,
            ),
        ]
    return pairs


def transfer_backend():
    """Answers one point higher on cue items when market memories are present.

    The cue must sit in the question currently being asked (the text after
    the last "Question" header), not merely anywhere in recalled memory."""

    def current_question_has_cue(text):
        return "[cue]" in text.split("Question")[-1]

    return ScriptedBackend(
        rules=[
            (
                lambda text: "single integer" in text and "[market" in text and current_question_has_cue(text),
                CompletionResult(content=json.dumps({"answer": 5})),
            ),
            (lambda text: "single integer" in text, CompletionResult(content=json.dumps({"answer": 4}))),
        ],
        default=CompletionResult(content=json.dumps({"orders": []})),
    )


def make_transfer_plan(carry=True, agent_ids=(0, 1)):
    backend = transfer_backend()
    return TransferPlan(
        source_env_factory=lambda seed: MarketEnv(MarketConfig(n_agents=len(agent_ids), days=1)),
        agent_ids=list(agent_ids),
        agent_factory=lambda aid, memory: Agent(agent_id=aid, memory=memory, backend=backend),
        memory_factory=lambda: BufferMemory(capacity=100),
        source_steps=3,
        carry_memory=carry,
        seed=0,
        phase2_seed=7,
    )


def test_identical_arms_give_exactly_zero():
    items = transfer_items()
    result = run_memory_transfer(make_transfer_plan(carry=False), InstrumentSpec(items=items))
    assert result.diffs_by_pair == {"alpha": 0.0, "beta": 0.0}
    logs = dict(result.episodes)
    carry, fresh = (score_answers(items, logs[arm].records) for arm in ("carry", "fresh"))
    assert all(carry[aid].bias_by_pair == fresh[aid].bias_by_pair for aid in carry)


def test_one_point_shift_closed_form():
    # carry arm answers 5 on treatment items, 4 elsewhere; fresh arm answers 4 everywhere.
    # bias(carry) = (5-1)/6 - (4-1)/6 = 1/6, bias(fresh) = 0 -> diff = 1/6 per pair.
    result = run_memory_transfer(make_transfer_plan(carry=True), InstrumentSpec(items=transfer_items()))
    for pair in ("alpha", "beta"):
        assert result.diffs_by_pair[pair] == pytest.approx(1 / 6)


def test_archives_tagged_with_source_world():
    stores = []

    def memory():
        stores.append(BufferMemory(capacity=100))
        return stores[-1]

    plan = replace(make_transfer_plan(carry=True), memory_factory=memory)
    run_memory_transfer(plan, InstrumentSpec(items=transfer_items()))
    for store in stores[: len(plan.agent_ids)]:  # phase 1 builds one store per agent before the arms
        lines = [json.loads(line) for line in store.to_jsonl().strip().splitlines()[1:]]
        assert lines, "phase 1 must record memories"
        assert all(entry["world_tag"] == "market" for entry in lines)


@pytest.mark.parametrize("world", ["market", "questionnaire"])
def test_run_episode_tags_every_archived_entry_with_its_world(world):
    # an Agent built with the default tag is named by the loop that steps it
    if world == "market":
        env = MarketEnv(MarketConfig(n_agents=2, days=1))
    else:
        env = QuestionnaireEnv(transfer_items(), seed=7, agent_ids=[0, 1])
    agents = {aid: Agent(aid, memory=BufferMemory(capacity=100), backend=transfer_backend()) for aid in (0, 1)}
    log = run_episode(env, agents, max_steps=None)
    assert log.steps_executed > 0
    for agent in agents.values():
        assert agent.memory.entries
        assert {entry.world_tag for entry in agent.memory.entries} == {world}
        assert MemoryStore.from_jsonl(agent.memory.to_jsonl()).render().startswith(f"[{world} t=0 observation]")


def test_transfer_symmetry_negates_diffs():
    items, plan = transfer_items(), make_transfer_plan(carry=True)
    result = run_memory_transfer(plan, InstrumentSpec(items=items))
    logs = dict(result.episodes)
    carry, fresh = (score_answers(items, logs[arm].records) for arm in ("carry", "fresh"))
    # reported diffs are exactly the agents' mean of carry minus fresh, so
    # swapping the arm labels negates every difference with no drift
    for pair, diff in result.diffs_by_pair.items():
        agents = [carry[aid].bias_by_pair[pair] - fresh[aid].bias_by_pair[pair] for aid in plan.agent_ids]
        assert diff == sum(agents) / len(agents)
    swapped = compare_arms(items, plan.agent_ids, logs["fresh"].records, logs["carry"].records)
    assert swapped.diffs_by_pair == {pair: -diff for pair, diff in result.diffs_by_pair.items()}


def test_transfer_t_test_zero_variance_reported_none():
    result = run_memory_transfer(make_transfer_plan(carry=True), InstrumentSpec(items=transfer_items()))
    # both agents shift identically -> zero variance -> no t statistic
    assert result.t_tests == {"alpha": None, "beta": None}


# --- multi-world ----------------------------------------------------------------------


def multiworld_backend():
    return ScriptedBackend(
        rules=[
            (lambda text: "social media user" in text, CompletionResult(content=json.dumps({"kind": "do_nothing"}))),
        ],
        default=CompletionResult(content=json.dumps({"orders": []})),
    )


def make_multiworld_agents(n, backend=None):
    backend = backend or multiworld_backend()
    return {
        aid: Agent(agent_id=aid, memory=BufferMemory(capacity=1000), backend=backend)
        for aid in range(n)
    }


def test_multiworld_memory_tags_market_first():
    market = MarketEnv(MarketConfig(n_agents=3, days=5))
    social = SocialEnv(star_profiles(3), seed_post="seed post")
    agents = make_multiworld_agents(3)
    run_multiworld(MultiWorldSchedule(environments=[market, social], cycles=1), agents)
    tags = [e.world_tag for e in agents[1].memory.entries]
    assert "market" in tags and "social" in tags
    assert tags.index("market") < tags.index("social")


def test_multiworld_zero_cycles_empty_log():
    market = MarketEnv(MarketConfig(n_agents=2, days=1))
    social = SocialEnv(star_profiles(2))
    log = run_multiworld(MultiWorldSchedule(environments=[market, social], cycles=0), make_multiworld_agents(2))
    assert log.records == []
    assert log.steps_executed == 0


def test_multiworld_world_tag_sequence():
    market = MarketEnv(MarketConfig(n_agents=2, days=5))
    social = SocialEnv(star_profiles(2), seed_post="seed")
    log = run_multiworld(MultiWorldSchedule(environments=[market, social], cycles=3), make_multiworld_agents(2))
    sequence = [tag for tag, _ in itertools.groupby(r.info["world"] for r in log.records)]
    assert sequence == ["market", "social"] * 3


def test_multiworld_skips_a_finished_environment():
    market = MarketEnv(MarketConfig(n_agents=2, days=1))
    social = SocialEnv(star_profiles(2), seed_post="seed")
    log = run_multiworld(MultiWorldSchedule(environments=[market, social], cycles=5), make_multiworld_agents(2))
    assert market.done() and social.t == 5
    assert log.steps_executed == 3 + 5
    sequence = [tag for tag, _ in itertools.groupby(r.info["world"] for r in log.records)]
    assert sequence == ["market", "social"] * 3  # social's steps 3 to 5 are its last group


def test_multiworld_archives_alternate_between_the_worlds():
    market = MarketEnv(MarketConfig(n_agents=2, days=5))
    social = SocialEnv(star_profiles(2), seed_post="seed")
    agents = make_multiworld_agents(2)
    run_multiworld(MultiWorldSchedule(environments=[market, social], cycles=3), agents)
    for agent in agents.values():
        sequence = [tag for tag, _ in itertools.groupby(entry.world_tag for entry in agent.memory.entries)]
        assert sequence == ["market", "social"] * 3


def test_multiworld_env_state_persists_across_cycles():
    market = MarketEnv(MarketConfig(n_agents=2, days=5))
    social = SocialEnv(star_profiles(2), seed_post="seed")
    run_multiworld(MultiWorldSchedule(environments=[market, social], cycles=4), make_multiworld_agents(2))
    # four market sessions executed without reset: clock moved to day 2, session 2
    assert (market.day, market.session) == (2, 2)
    assert social.t == 4


def test_multiworld_memory_archive_never_shrinks():
    market = MarketEnv(MarketConfig(n_agents=2, days=5))
    social = SocialEnv(star_profiles(2), seed_post="seed")
    agents = make_multiworld_agents(2)
    lengths = []
    for cycle in range(3):
        run_multiworld(MultiWorldSchedule(environments=[market, social], cycles=1), agents)
        lengths.append(len(agents[0].memory.entries))
    assert lengths == sorted(lengths)


def test_multiworld_invalid_action_body_raises_schema_violation():
    market = MarketEnv(MarketConfig(n_agents=3, days=1))
    social = SocialEnv(star_profiles(3))

    def bad_policy(obs):
        body = {"orders": [], "kind": "do_nothing", "bogus": 1}
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body=body)

    agents = {aid: bad_policy for aid in range(3)}
    with pytest.raises(SchemaViolation):
        run_multiworld(MultiWorldSchedule(environments=[market, social], cycles=2), agents)


def test_multiworld_needs_two_envs():
    with pytest.raises(ValueError):
        MultiWorldSchedule(environments=[MarketEnv(MarketConfig(n_agents=2, days=1))], cycles=1)


# --- tariff ablation --------------------------------------------------------------------


HEADLINE = "Imminent sweeping tariffs announced ahead of deadline"
SUMMARY = "Research summary: tariff announcements depress equity prices and future productivity."


def constant_order_backend():
    orders = [
        {"symbol": "A", "side": "buy", "limit_price": 30.0, "quantity": 1},
        {"symbol": "A", "side": "sell", "limit_price": 30.0, "quantity": 1},
        {"symbol": "B", "side": "buy", "limit_price": 45.0, "quantity": 1},
        {"symbol": "B", "side": "sell", "limit_price": 45.0, "quantity": 1},
    ]
    return ScriptedBackend(default=CompletionResult(content=json.dumps({"orders": orders})))


def headline_reactive_backend():
    bearish = [
        {"symbol": "A", "side": "sell", "limit_price": 29.0, "quantity": 1},
        {"symbol": "A", "side": "sell", "limit_price": 29.5, "quantity": 1},
        {"symbol": "A", "side": "buy", "limit_price": 28.0, "quantity": 1},
        {"symbol": "B", "side": "sell", "limit_price": 44.0, "quantity": 1},
        {"symbol": "B", "side": "sell", "limit_price": 44.5, "quantity": 1},
        {"symbol": "B", "side": "buy", "limit_price": 43.0, "quantity": 1},
    ]
    bullish = [
        {"symbol": "A", "side": "buy", "limit_price": 31.0, "quantity": 1},
        {"symbol": "A", "side": "buy", "limit_price": 30.5, "quantity": 1},
        {"symbol": "A", "side": "sell", "limit_price": 32.0, "quantity": 1},
        {"symbol": "B", "side": "buy", "limit_price": 46.0, "quantity": 1},
        {"symbol": "B", "side": "buy", "limit_price": 45.5, "quantity": 1},
        {"symbol": "B", "side": "sell", "limit_price": 47.0, "quantity": 1},
    ]
    return ScriptedBackend(
        rules=[(lambda text: HEADLINE in text, CompletionResult(content=json.dumps({"orders": bearish})))],
        default=CompletionResult(content=json.dumps({"orders": bullish})),
    )


def make_study(backend_factory, trials=2, agents=4, days=2):
    import datetime as dt

    feed = [
        NewsItem(date=dt.date(2025, 4, 2), headline="Sweeping levies unveiled in trade-policy shift"),
        NewsItem(date=dt.date(2025, 4, 3), headline="Blue-chip index sheds 1,600 points as tariffs land"),
    ]
    return TariffStudy(
        base_config=MarketConfig(n_agents=agents, days=days),
        headline=HEADLINE,
        research_summary=SUMMARY,
        news_feed=feed,
        backend_factory=lambda aid: backend_factory(),
        trials=trials,
        base_seed=0,
    )


def test_constant_backend_identical_rows_zero_deltas():
    table = run_tariff_ablation(make_study(constant_order_backend))
    assert len(table.rows) == 4
    assert [r.setting for r in table.rows] == [1, 2, 3, 4]
    first = table.rows[0]
    for row in table.rows[1:]:
        assert row.stock_a == pytest.approx(first.stock_a)
        assert row.stock_b == pytest.approx(first.stock_b)
        assert row.delta_a == pytest.approx(0.0)
        assert row.delta_b == pytest.approx(0.0)
    assert table.rows[0].delta_a is None and table.rows[0].delta_b is None


def test_headline_lowers_ratio_for_both_stocks():
    table = run_tariff_ablation(make_study(headline_reactive_backend), settings=default_settings()[:2])
    base, config = table.rows
    assert base.stock_a > config.stock_a
    assert base.stock_b > config.stock_b
    assert config.delta_a == pytest.approx(config.stock_a - base.stock_a)


def test_ablation_prompts_are_cumulative():
    study = make_study(constant_order_backend, agents=2, days=1)
    prompts = {}
    for setting in default_settings():
        env = ablation_environment(study, setting)
        agents = ablation_agents(study, setting)
        obs = env.reset()[0]
        prompts[setting.level] = compose_prompt(obs, agents[0].config, agents[0].memory).full_text()
    assert HEADLINE not in prompts[1]
    assert HEADLINE in prompts[2]
    assert HEADLINE in prompts[3] and SUMMARY in prompts[3]
    assert HEADLINE in prompts[4] and SUMMARY in prompts[4]
    assert SUMMARY not in prompts[2]
    # news tool appears only at level 4
    for setting in default_settings():
        env = ablation_environment(study, setting)
        names = [t.name for t in env.reset()[0].tools]
        assert ("fetch_news" in names) == (setting.level == 4)


def test_ablation_agents_take_the_whole_agents_section():
    study = replace(make_study(constant_order_backend, agents=3, days=1), agents=AgentsConfig(max_tool_rounds=1, max_parse_retries=0))
    for setting in default_settings():
        agents = ablation_agents(study, setting)
        assert len(agents) == 3
        for agent in agents.values():
            assert (agent.max_tool_rounds, agent.max_parse_retries) == (1, 0)
            assert agent.config.persona_text == "You are a stock trader."
            assert isinstance(agent.memory, BufferMemory) and agent.memory.capacity == 3


def test_ablation_flags_cumulative_definition():
    # what each level adds is checked on the prompts by test_ablation_prompts_are_cumulative
    assert [s.level for s in default_settings()] == [1, 2, 3, 4]
    for level in (0, 5):
        with pytest.raises(ValueError):
            AblationSetting(level=level)


def test_table_csv_has_four_rows_with_delta_columns():
    table = run_tariff_ablation(make_study(constant_order_backend, trials=1, agents=2, days=1))
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "setting,stock_A,stock_B,delta_A,delta_B"
    assert len(lines) == 5
    assert lines[1].split(",")[3] == ""  # no delta on the first row


# --- fan-out ---------------------------------------------------------------------------


@pytest.mark.parametrize("capped", [True, False], ids=["capped", "uncapped"])
def test_library_runs_fan_out_exactly_when_a_backend_caps_its_requests(monkeypatch, capped):
    # no run is asked for a pool: each episode opens one because its agents'
    # backend caps its in-flight requests, as a remote backend does
    opened = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)

    def backend(make):
        made = make()
        if capped:
            made.in_flight_limit = 2
        return made

    def pools(run):
        start = len(opened)
        run()
        return len(opened) - start

    def episode():
        log = run_episode(MarketEnv(MarketConfig(n_agents=2, days=1)), make_multiworld_agents(2, backend(multiworld_backend)), None)
        assert log.steps_executed > 0

    def multiworld():
        envs = [MarketEnv(MarketConfig(n_agents=2, days=1)), SocialEnv(star_profiles(2))]
        log = run_multiworld(MultiWorldSchedule(environments=envs, cycles=2), make_multiworld_agents(2, backend(multiworld_backend)))
        assert log.steps_executed == 4

    def transfer():
        shared = backend(transfer_backend)
        plan = replace(make_transfer_plan(), agent_factory=lambda aid, memory: Agent(aid, memory=memory, backend=shared))
        assert run_memory_transfer(plan, InstrumentSpec(items=transfer_items())).diffs_by_pair

    def ablation():
        study = make_study(lambda: backend(constant_order_backend), trials=2, agents=2, days=1)
        assert len(run_tariff_ablation(study).episodes) == 4 * 2

    counts = [pools(run) for run in (episode, multiworld, transfer, ablation)]
    assert counts == ([1, 1, 3, 8] if capped else [0, 0, 0, 0])
    assert set(opened) <= {2}  # one worker per agent


# --- config-driven construction ----------------------------------------------------------


def test_build_environment_market_roster_size():
    env = build_environment({"kind": "market", "agents": 50, "days": 10}, seed=0)
    assert env.config.n_agents == 50
    assert env.config.days == 10


def test_build_environment_social_seeds_post_from_influencer():
    env = build_environment({"kind": "social", "agents": 4, "influencer": 2, "seed_post": "hello world"}, seed=0)
    observations = env.reset()
    (seed,) = env.events.snapshot()
    assert (seed.user_id, seed.action, seed.info["content"]) == (2, "create_post", "hello world")
    assert "by agent 2 at t=0 (0 likes): hello world" in observations[0].context_text
    assert "Your feed is empty." in observations[2].context_text


def test_build_setup_full_stack_runs():
    config = market_trials_config(trials=1, agents=3, days=1)
    env, agents = build_setup(config, make(BACKENDS, config.backend), seed=0)
    assert len(agents) == 3
    log = run_episode(env, agents, max_steps=10, seed=0)
    assert log.steps_executed == 3


# A small spec and a valid action body, per environment kind.
AUCTION_LOTS = [{"name": n, "starting_price": 10.0, "true_value": 12.0, "estimated_value": 15.0} for n in "ab"]
CONTRACT_CASES = {
    "market": ({"kind": "market", "agents": 3, "days": 1}, {"orders": []}),
    "economy": (
        {"kind": "economy", "agents": 3, "months": 3},
        {"work_propensity": 0.6, "consumption_propensity": 0.3},
    ),
    "social": (
        {"kind": "social", "agents": 3, "seed_post": "hello"},
        {"kind": "create_comment", "content": "hi", "target_post": 1},
    ),
    "auction": ({"kind": "auction", "agents": 2, "items": AUCTION_LOTS}, {"bid": None}),
    "questionnaire": (
        {"kind": "questionnaire", "agents": 2, "items": str(Path(__file__).parent / "data" / "bias_bank.jsonl")},
        {"answer": 4},
    ),
}
# each kind as above, then the kinds that can be configured to end before their first step
ZERO_LENGTH = {"market": {"days": 0}, "economy": {"months": 0}, "auction": {"items": []}}
CONTRACT_RUNS = [(kind, {}) for kind in sorted(runners.ENVIRONMENTS)] + sorted(ZERO_LENGTH.items())


@pytest.mark.parametrize(
    "kind,overrides", CONTRACT_RUNS, ids=[kind + ("-zero-length" if overrides else "") for kind, overrides in CONTRACT_RUNS]
)
def test_environment_observation_contract(kind, overrides):
    spec, body = CONTRACT_CASES[kind]
    env = build_environment(parse(ExperimentConfig, {"environment": {**spec, **overrides}}).environment, seed=0)

    def policy(obs):
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body=dict(body))

    agents = dict.fromkeys(env.agent_ids, policy)
    assert env.name == kind  # a multiworld title names its worlds by kind, its records by env.name
    assert env.agent_ids == sorted(env.agent_ids)
    observations = env.reset()
    for _ in range(12):
        if env.done():
            assert observations == {}  # a finished environment emits nothing
            break
        assert list(observations) == env.agent_ids
        assert all(obs.time == env.t for obs in observations.values())
        # every context is a tuple of str parts
        assert all(type(obs.context_parts) is tuple for obs in observations.values())
        assert all(type(part) is str for obs in observations.values() for part in obs.context_parts)
        assert all(obs.response_schema is env.schema is not None for obs in observations.values())
        observations = step_world(env, observations, agents)
    assert env.done() == (kind != "social")
    if overrides:
        assert env.t == 0 and run_episode(env, agents, max_steps=None).steps_executed == 0


@pytest.mark.parametrize("kind", ["auction", "economy", "market", "questionnaire"])  # every kind that can finish
def test_step_on_a_finished_episode_raises(kind):
    spec, body = CONTRACT_CASES[kind]
    env = build_environment(parse(ExperimentConfig, {"environment": spec}).environment, seed=0)
    observations = env.reset()
    while not env.done():
        observations = env.step({aid: ActionEnvelope(aid, obs.time, dict(body)) for aid, obs in observations.items()})
    with pytest.raises(RuntimeError, match="step called on a finished episode"):
        env.step({aid: ActionEnvelope(aid, env.t, dict(body)) for aid in env.agent_ids})


# --- every body a schema admits: each environment refuses it or runs it ------------

FLOAT_MAX = int(sys.float_info.max)
# integers a numeric field admits, up to the float range and at its edges, and past it, where only nested values go unchecked
FITTING_INTS = st.integers(-100, 100) | st.sampled_from([-FLOAT_MAX, FLOAT_MAX]) | st.integers(-FLOAT_MAX, FLOAT_MAX)
HUGE_INTS = st.integers(FLOAT_MAX + 1, 4 * FLOAT_MAX) | st.integers(-4 * FLOAT_MAX, -FLOAT_MAX - 1)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
TEXT = st.text(max_size=6)
# the words a string field acts on, as often as any other text: market symbols and sides, social action kinds
FIELD_WORDS = {"symbol": list(SYMBOLS), "side": ["buy", "sell"], "kind": list(ACTION_KINDS)}
KEYS = st.sampled_from([lot["name"] for lot in AUCTION_LOTS]) | TEXT  # an object's keys: an auction's lots, or any text
SCALARS = st.none() | st.booleans() | FITTING_INTS | HUGE_INTS | FLOATS | TEXT
NESTED = SCALARS | st.lists(SCALARS, max_size=3) | st.dictionaries(KEYS, SCALARS, max_size=3)


def bodies(schema, item_schema=None):
    """Bodies that pass ``validate_action`` against ``schema``. An array holds any JSON values,
    and as often bodies of ``item_schema`` where one is given."""
    items = NESTED if item_schema is None else st.deferred(lambda: NESTED) | bodies(item_schema)  # deferred: not flattened
    values = {
        "integer": FITTING_INTS,
        "number": FITTING_INTS | FLOATS,
        "boolean": st.booleans(),
        "array": st.lists(items, max_size=3),
        "object": st.dictionaries(KEYS, NESTED, max_size=3),
    }

    def value(name, type_):
        if type_ == "string":
            return st.sampled_from(FIELD_WORDS[name]) | TEXT if name in FIELD_WORDS else TEXT
        return values[type_]

    return st.fixed_dictionaries(
        {name: value(name, spec.type) for name, spec in schema.fields.items() if spec.required},
        optional={name: st.none() | value(name, spec.type) for name, spec in schema.fields.items() if not spec.required},
    )


@pytest.mark.parametrize("kind", sorted(runners.ENVIRONMENTS))
@settings(
    derandomize=True, database=None, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_every_body_the_schema_admits_is_refused_or_run(kind, data):
    """Three steps of bodies that pass the schema raise nothing but a SimulationError."""
    spec, _ = CONTRACT_CASES[kind]
    env = build_environment(parse(ExperimentConfig, {"environment": spec}).environment, seed=0)
    drawn = bodies(env.schema, ORDER_ITEM_SCHEMA)  # a market's orders array holds orders

    def policy(obs):
        body = data.draw(drawn)
        assert validate_action(body, obs.response_schema) == []
        return ActionEnvelope(obs.agent_id, obs.time, body)

    agents = dict.fromkeys(env.agent_ids, policy)
    observations = env.reset()
    try:
        for _ in range(3):
            if env.done():
                break
            observations = step_world(env, observations, agents)
    except SimulationError:
        pass
