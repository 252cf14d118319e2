import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest

from cogsim import runners
from cogsim.backends import CompletionResult, ScriptedBackend
from cogsim.cognition import Agent, PersonaConfig, compose_prompt
from cogsim.envs.market import MarketConfig, MarketEnv, NewsItem
from cogsim.envs.questionnaire import Item, ScaleSpec
from cogsim.envs.social import SocialEnv, star_profiles
from cogsim.errors import SchemaViolation
from cogsim.memory import BufferMemory
from cogsim.protocol import ActionEnvelope, step_world
from cogsim.runners import (
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
    default_settings,
    parse,
    run_memory_transfer,
    run_multiworld,
    run_tariff_ablation,
    run_trials,
)


# --- run_trials ------------------------------------------------------------------


def market_trials_config(trials=5, agents=4, days=1):
    raw = {
        "environment": {"kind": "market", "agents": agents, "days": days},
        "agents": {"memory": {"kind": "buffer", "capacity": 3}},
        "backend": {"kind": "scripted", "default_content": json.dumps({"orders": []})},
        "trials": trials,
        "seed": 0,
    }
    return parse(ExperimentConfig, raw)


def test_deterministic_trials_identical_rows_zero_stddev():
    result = run_trials(market_trials_config(trials=5))
    assert len(result.rows) == 5
    assert [seed for seed, _ in result.rows] == [0, 1, 2, 3, 4]
    first = result.rows[0][1]
    assert all(metrics == first for _, metrics in result.rows)
    means, stds = result.summary()
    assert all(s == 0.0 for s in stds.values())
    assert means == first


def test_single_trial_summary_equals_row():
    result = run_trials(market_trials_config(trials=1))
    means, stds = result.summary()
    assert means == result.rows[0][1]
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
    result = run_trials(config)
    assert len({json.dumps(m, sort_keys=True) for _, m in result.rows}) == 3  # seeds differ
    means, _ = result.summary()
    for name in result.metric_names():
        values = [m[name] for _, m in result.rows]
        assert means[name] == pytest.approx(sum(values) / len(values))


def test_failed_trial_recorded_others_proceed(monkeypatch):
    calls = {"n": 0}

    def setup(config, seed):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("boom")
        env = MarketEnv(MarketConfig(n_agents=2, days=1))
        backend = ScriptedBackend(default=CompletionResult(content=json.dumps({"orders": []})))
        agents = {aid: Agent(agent_id=aid, backend=backend) for aid in range(2)}
        return env, agents

    monkeypatch.setattr(runners, "build_setup", setup)
    config = market_trials_config(trials=3)
    result = run_trials(config)
    assert len(result.rows) == 2
    assert len(result.failures) == 1
    assert "boom" in result.failures[0][1]


def test_trials_csv_layout():
    result = run_trials(market_trials_config(trials=2))
    lines = result.to_csv().strip().splitlines()
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
    result = run_memory_transfer(make_transfer_plan(carry=False), InstrumentSpec(items=transfer_items()))
    assert result.diffs_by_pair == {"alpha": 0.0, "beta": 0.0}
    for diffs in result.per_agent.values():
        assert all(d == 0.0 for d in diffs.values())


def test_one_point_shift_closed_form():
    # carry arm answers 5 on treatment items, 4 elsewhere; fresh arm answers 4 everywhere.
    # bias(carry) = (5-1)/6 - (4-1)/6 = 1/6, bias(fresh) = 0 -> diff = 1/6 per pair.
    result = run_memory_transfer(make_transfer_plan(carry=True), InstrumentSpec(items=transfer_items()))
    for pair in ("alpha", "beta"):
        assert result.diffs_by_pair[pair] == pytest.approx(1 / 6)


def test_archives_tagged_with_source_world():
    result = run_memory_transfer(make_transfer_plan(carry=True), InstrumentSpec(items=transfer_items()))
    for archive in result.source_archives.values():
        lines = [json.loads(line) for line in archive.strip().splitlines()[1:]]
        assert lines, "phase 1 must record memories"
        assert all(entry["world_tag"] == "market" for entry in lines)


def test_transfer_symmetry_negates_diffs():
    result = run_memory_transfer(make_transfer_plan(carry=True), InstrumentSpec(items=transfer_items()))
    # reported diffs are exactly carry minus fresh, so swapping the arm
    # labels negates every difference with no drift
    for aid, diffs in result.per_agent.items():
        for pair, diff in diffs.items():
            assert diff == result.carry_bias[aid][pair] - result.fresh_bias[aid][pair]
            swapped = result.fresh_bias[aid][pair] - result.carry_bias[aid][pair]
            assert swapped == -diff


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


def test_multiworld_env_state_persists_across_cycles():
    market = MarketEnv(MarketConfig(n_agents=2, days=5))
    social = SocialEnv(star_profiles(2), seed_post="seed")
    run_multiworld(MultiWorldSchedule(environments=[market, social], cycles=4), make_multiworld_agents(2))
    # four market sessions executed without reset: clock moved to day 2, session 2
    assert (market.clock.day, market.clock.session) == (2, 2)
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
    flags = [
        (s.headline_config, s.research_memory, s.news_tool) for s in default_settings()
    ]
    assert flags == [
        (False, False, False),
        (True, False, False),
        (True, True, False),
        (True, True, True),
    ]
    with pytest.raises(ValueError):
        AblationSetting(level=5)


def test_table_csv_has_four_rows_with_delta_columns():
    table = run_tariff_ablation(make_study(constant_order_backend, trials=1, agents=2, days=1))
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "setting,stock_A,stock_B,delta_A,delta_B"
    assert len(lines) == 5
    assert lines[1].split(",")[3] == ""  # no delta on the first row


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
    env, agents = build_setup(config, seed=0)
    assert len(agents) == 3
    from cogsim.protocol import run_episode

    log = run_episode(env, agents, max_steps=10, seed=0)
    assert log.steps_executed == 3


# A small spec, a valid action body and the clock stamped on observations, per environment kind.
AUCTION_LOTS = [{"name": n, "starting_price": 10.0, "true_value": 12.0, "estimated_value": 15.0} for n in "ab"]
CONTRACT_CASES = {
    "market": ({"kind": "market", "agents": 3, "days": 1}, {"orders": []}, lambda env: env.t),
    "economy": (
        {"kind": "economy", "agents": 3, "months": 3},
        {"work_propensity": 0.6, "consumption_propensity": 0.3},
        lambda env: env.state.month,
    ),
    "social": (
        {"kind": "social", "agents": 3, "seed_post": "hello"},
        {"kind": "create_comment", "content": "hi", "target_post": 1},
        lambda env: env.t,
    ),
    "auction": ({"kind": "auction", "agents": 2, "items": AUCTION_LOTS}, {"bid": None}, lambda env: env.t),
    "questionnaire": (
        {"kind": "questionnaire", "agents": 2, "items": str(Path(__file__).parent / "data" / "bias_bank.jsonl")},
        {"answer": 4},
        lambda env: env.index,
    ),
}


@pytest.mark.parametrize("kind", sorted(runners.ENVIRONMENTS))
def test_environment_observation_contract(kind):
    spec, body, clock = CONTRACT_CASES[kind]
    env = build_environment(parse(ExperimentConfig, {"environment": spec}).environment, seed=0)

    def policy(obs):
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body=dict(body))

    agents = dict.fromkeys(env.agent_ids, policy)
    assert env.name == kind  # a multiworld title names its worlds by kind, its records by env.name
    assert env.agent_ids == sorted(env.agent_ids)
    observations = env.reset()
    for _ in range(12):
        assert list(observations) == env.agent_ids
        assert all(obs.time == clock(env) for obs in observations.values())
        if env.done():
            assert all(obs.response_schema is None and obs.tools == [] for obs in observations.values())
            break
        assert all(obs.response_schema is env.schema is not None for obs in observations.values())
        observations = step_world(env, observations, agents)
    assert env.done() == (kind != "social")
