import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogsim.envs.economy import (
    EconomyConfig,
    EconomyEnv,
    EconomyState,
    HouseholdAction,
    HouseholdState,
    PolicyState,
    compute_indicators,
    indicators_csv,
    month_closes,
    monthly_step,
    phillips_okun_report,
    policy_rates,
)
from cogsim.protocol import ActionEnvelope, run_episode
from cogsim.seeds import child_rng


def make_state(n=2, wage=1.0, skill=1.0, wealth=0.0, tax=0.1, rate=0.0, price=100.0):
    households = {
        aid: HouseholdState(agent=aid, skill=skill, wealth=wealth, monthly_wage=wage)
        for aid in range(n)
    }
    return EconomyState(
        households=households,
        policy=PolicyState(tax_rate=tax, interest_rate=rate),
        price_level=price,
    )


def act(wp, cp):
    return HouseholdAction(work_propensity=wp, consumption_propensity=cp)


# --- monthly_step -----------------------------------------------------------------


def test_tax_remitted_to_government():
    state = make_state(n=2, wage=1.0, skill=1.0, tax=0.1)
    monthly_step({0: act(1.0, 0.0), 1: act(1.0, 0.0)}, state)
    assert state.policy.government_revenue == pytest.approx(0.2)


def test_nobody_works_full_unemployment_zero_gdp():
    state = make_state(n=4)
    ind = monthly_step({aid: act(0.0, 0.0) for aid in range(4)}, state)
    assert ind.unemployment == 1.0
    assert ind.gdp == 0.0


def test_zero_consumption_price_floor_term():
    # no demand: price moves only by the -kappa*supply/max(supply,eps) term
    state = make_state(n=2, wealth=100.0)
    before = state.price_level
    ind = monthly_step({aid: act(1.0, 0.0) for aid in range(2)}, state)
    supply = 2.0
    expected = before * (1 + 0.2 * (0.0 - supply) / max(supply, 1.0))
    assert state.price_level == pytest.approx(expected)


def test_work_threshold_at_half():
    state = make_state(n=2)
    ind = monthly_step({0: act(0.5, 0.0), 1: act(0.49, 0.0)}, state)
    assert state.households[0].employed_this_month
    assert not state.households[1].employed_this_month
    assert ind.unemployment == 0.5


def test_wealth_ledger_identity_hand_example():
    # one household: wealth 100, wage 2, skill 1, tax 10%, rate 12%/yr, cp 0.5
    state = make_state(n=1, wage=2.0, skill=1.0, wealth=100.0, tax=0.1, rate=0.12)
    monthly_step({0: act(1.0, 0.5)}, state)
    net = 2.0 * 0.9
    spending = 0.5 * (100.0 + net)
    interest = 100.0 * 0.12 / 12
    assert state.households[0].wealth == pytest.approx(100.0 + net - spending + interest)


def test_interest_rate_rule_clamped():
    state = make_state(n=1, wealth=1000.0, rate=0.0)
    # massive demand spike -> inflation -> rate pushed up but clamped at 0.2
    monthly_step({0: act(0.0, 1.0)}, state)
    assert 0.0 <= state.policy.interest_rate <= 0.2


def test_money_ledger_identity_over_random_run():
    rng = child_rng(5, "ledger-test")
    state = make_state(n=10, wealth=500.0, wage=2.0, rate=0.05)
    for month in range(60):
        before = math.fsum(h.wealth for h in state.households.values()) + state.policy.government_revenue
        actions = {}
        income_expected = 0.0
        spend_expected = 0.0
        interest_expected = 0.0
        for aid, hh in sorted(state.households.items()):
            wp, cp = rng.random(), rng.random()
            actions[aid] = act(wp, cp)
            income = hh.monthly_wage * hh.skill if wp >= 0.5 else 0.0
            net = income * (1 - state.policy.tax_rate)
            income_expected += income
            spend_expected += cp * (hh.wealth + net)
            interest_expected += hh.wealth * state.policy.interest_rate / 12.0
        monthly_step(actions, state)
        after = math.fsum(h.wealth for h in state.households.values()) + state.policy.government_revenue
        assert after - before == pytest.approx(
            interest_expected + income_expected - spend_expected, abs=1e-9
        )


# --- compute_indicators ----------------------------------------------------------


def test_unemployment_fraction():
    state = make_state(n=4)
    monthly_step({0: act(1.0, 0.0), 1: act(0.0, 0.0), 2: act(0.0, 0.0), 3: act(0.0, 0.0)}, state)
    assert state.households[0].employed_this_month
    ind = compute_indicators(state, 1)
    assert ind.unemployment == 0.75


def test_inflation_definition():
    state = make_state(n=1)
    state.price_history = [100.0]
    state.price_level = 102.0
    ind = compute_indicators(state, 2)
    assert ind.inflation == pytest.approx(0.02)


def test_gdp_growth_definition():
    state = make_state(n=1, skill=1.0)
    state.households[0].employed_this_month = True
    state.gdp_history = [100.0]
    state.price_level = 110.0
    ind = compute_indicators(state, 2)
    assert ind.gdp == pytest.approx(110.0)
    assert ind.gdp_growth == pytest.approx(0.10)


# --- environment ------------------------------------------------------------------


def propensity_policy(wp, cp):
    def policy(obs):
        return ActionEnvelope(
            agent_id=obs.agent_id,
            time=obs.time,
            body={"work_propensity": wp, "consumption_propensity": cp},
        )

    return policy


def seeded_policy(seed):
    def policy(obs):
        rng = child_rng(seed, "econ-policy", obs.agent_id, obs.time)
        return ActionEnvelope(
            agent_id=obs.agent_id,
            time=obs.time,
            body={"work_propensity": rng.random(), "consumption_propensity": rng.random()},
        )

    return policy


def test_env_runs_full_horizon():
    env = EconomyEnv(EconomyConfig(n_households=5, months=24))
    log = run_episode(env, {aid: propensity_policy(1.0, 0.3) for aid in range(5)}, max_steps=1000, seed=0)
    assert log.steps_executed == 24
    assert len(month_closes(log.records)) == 24


def test_env_deterministic_series():
    def run():
        env = EconomyEnv(EconomyConfig(n_households=8, months=36, seed=3))
        log = run_episode(env, {aid: seeded_policy(3) for aid in range(8)}, max_steps=1000, seed=3)
        return indicators_csv(env.config, log.records)

    assert run() == run()


def test_bounds_hold_over_long_run():
    env = EconomyEnv(EconomyConfig(n_households=10, months=120, seed=1))
    log = run_episode(env, {aid: seeded_policy(1) for aid in range(10)}, max_steps=1000, seed=1)
    indicators = month_closes(log.records)
    for ind, (rate, _) in zip(indicators, policy_rates(env.config, indicators)):
        assert 0.0 <= ind.unemployment <= 1.0
        assert 0.0 <= rate <= 0.2
        assert ind.price_level > 0.0


def test_out_of_bounds_propensities_clamped():
    env = EconomyEnv(EconomyConfig(n_households=1, months=1))
    log = run_episode(env, {0: propensity_policy(2.0, -0.5)}, max_steps=10, seed=0)
    assert month_closes(log.records)[0].unemployment == 0.0  # clamped to 1.0 -> works


def test_annual_tax_revision_hook():
    env = EconomyEnv(EconomyConfig(n_households=2, months=25, annual_tax_rates=[0.1, 0.2, 0.3]))
    log = run_episode(env, {aid: propensity_policy(1.0, 0.1) for aid in range(2)}, max_steps=1000, seed=0)
    taxes = [tax for _, tax in policy_rates(env.config, month_closes(log.records))]
    assert taxes[0] == 0.1
    assert taxes[11] == 0.1
    assert taxes[12] == 0.2
    assert taxes[24] == 0.3


PROPERTY = settings(derandomize=True, database=None, deadline=None)
PROPENSITY = st.floats(-0.5, 1.5)


@PROPERTY
@given(st.lists(st.lists(st.tuples(PROPENSITY, PROPENSITY), min_size=3, max_size=3), max_size=30), st.integers(0, 99))
def test_env_money_ledger_identity_property(months, seed):
    """Each month the change in total wealth plus government revenue equals
    interest plus gross income minus spending, at the clamped propensities."""
    env = EconomyEnv(EconomyConfig(n_households=3, months=len(months), seed=seed, annual_tax_rates=[0.1, 0.3, 0.05]))
    env.reset()
    state = env.state
    for propensities in months:
        wealth = {aid: hh.wealth for aid, hh in state.households.items()}
        before = math.fsum(wealth.values()) + state.policy.government_revenue
        rate = state.policy.interest_rate
        env.step({
            aid: ActionEnvelope(aid, state.month, {"work_propensity": wp, "consumption_propensity": cp})
            for aid, (wp, cp) in enumerate(propensities)
        })
        expected = []
        for aid, (wp, cp) in enumerate(propensities):
            hh = state.households[aid]
            income = hh.monthly_wage * hh.skill if wp >= 0.5 else 0.0
            spending = min(1.0, max(0.0, cp)) * (wealth[aid] + income * (1 - state.policy.tax_rate))
            expected += [wealth[aid] * rate / 12.0, income, -spending]
        after = math.fsum(h.wealth for h in state.households.values()) + state.policy.government_revenue
        assert after - before == pytest.approx(math.fsum(expected), abs=1e-9)
    assert env.done()


RATE = st.floats(0.0, 0.3)


@PROPERTY
@given(
    st.lists(st.lists(st.tuples(PROPENSITY, PROPENSITY), min_size=2, max_size=2), max_size=30),
    RATE, RATE, st.none() | st.lists(RATE, max_size=3),
)
def test_policy_rates_follow_the_live_policy(months, interest_rate, tax_rate, annual_tax_rates):
    """The rates derived from the month_close records are the ones the environment set, bit for bit."""
    config = EconomyConfig(
        n_households=2, months=len(months), interest_rate=interest_rate, tax_rate=tax_rate, annual_tax_rates=annual_tax_rates
    )
    env = EconomyEnv(config)
    env.reset()
    live = []
    for propensities in months:
        env.step({
            aid: ActionEnvelope(aid, env.state.month, {"work_propensity": wp, "consumption_propensity": cp})
            for aid, (wp, cp) in enumerate(propensities)
        })
        live.append((env.state.policy.interest_rate, env.state.policy.tax_rate))
    assert policy_rates(config, month_closes(env.events.snapshot())) == live


def test_indicator_csv_shape():
    env = EconomyEnv(EconomyConfig(n_households=2, months=3))
    log = run_episode(env, {aid: propensity_policy(1.0, 0.2) for aid in range(2)}, max_steps=10, seed=0)
    lines = indicators_csv(env.config, log.records).strip().splitlines()
    assert lines[0] == "month,unemployment,price_level,inflation,gdp,gdp_growth,interest_rate,tax_rate"
    assert len(lines) == 4


def test_phillips_okun_report_runs():
    env = EconomyEnv(EconomyConfig(n_households=10, months=48, seed=2))
    log = run_episode(env, {aid: seeded_policy(2) for aid in range(10)}, max_steps=1000, seed=2)
    report = phillips_okun_report(month_closes(log.records))
    assert "Phillips curve" in report
    assert "Okun's law" in report
    assert "slope=" in report
