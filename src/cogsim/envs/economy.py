"""Macroeconomic loop environment: monthly household work/consumption
decisions, a rule-based government and central bank, indicator series, and
the Phillips/Okun regressions over them.

Monthly update, in order:

1. a household works iff work_propensity >= 0.5; income = wage x skill
2. tax = tax_rate x income, remitted to cumulative government revenue
3. spending = consumption_propensity x (wealth + net income)
4. price level: p *= 1 + 0.2 x (demand - supply) / max(supply, 1),
   with demand = total spending / p and supply = total skill of workers
5. interest on start-of-month wealth at rate/12
6. wealth' = wealth + net income - spending + interest
7. the central bank nudges the rate by 0.5 x (annualized inflation - 2%),
   clamped to [0, 0.2]

These closed-form rules keep every run deterministic and the money ledger
exact: the change in (total wealth + government revenue) each month equals
interest credited plus gross production income minus spending.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

from ..seeds import child_rng
from ..protocol import ActionEnvelope, Environment, Observation
from ..errors import DegenerateX
from ..schema import ResponseSchema
from ..stats import fit_line

logger = logging.getLogger(__name__)

PRICE_KAPPA = 0.2
PRICE_EPSILON = 1.0
RATE_GAIN = 0.5
INFLATION_TARGET = 0.02
RATE_MIN, RATE_MAX = 0.0, 0.2
WORK_THRESHOLD = 0.5


@dataclass
class HouseholdState:
    agent: int
    skill: float
    wealth: float
    monthly_wage: float
    employed_this_month: bool = False


@dataclass
class PolicyState:
    tax_rate: float = 0.1
    interest_rate: float = 0.02
    government_revenue: float = 0.0


@dataclass(frozen=True)
class MacroIndicators:
    month: int
    unemployment: float
    price_level: float
    inflation: float
    gdp: float
    gdp_growth: float


@dataclass(frozen=True)
class HouseholdAction:
    work_propensity: float
    consumption_propensity: float


def clamp_action(raw: Mapping[str, float], agent: int) -> HouseholdAction:
    """Clamp propensities into [0, 1], warning when inputs were out of bounds."""
    wp = float(raw.get("work_propensity", 0.0))
    cp = float(raw.get("consumption_propensity", 0.0))
    if not (0.0 <= wp <= 1.0) or not (0.0 <= cp <= 1.0):
        logger.warning("agent %d propensities out of bounds (%.3f, %.3f); clamping", agent, wp, cp)
    return HouseholdAction(
        work_propensity=min(1.0, max(0.0, wp)),
        consumption_propensity=min(1.0, max(0.0, cp)),
    )


@dataclass
class EconomyState:
    households: dict[int, HouseholdState]
    policy: PolicyState
    price_level: float = 100.0
    month: int = 0
    gdp_history: list[float] = field(default_factory=list)
    price_history: list[float] = field(default_factory=list)


def monthly_step(
    actions: Mapping[int, HouseholdAction],
    state: EconomyState,
) -> MacroIndicators:
    """Advance the economy one month and return the month's indicators."""
    households = state.households
    if set(actions) != set(households):
        raise ValueError("monthly_step needs an action for every household")
    state.month += 1
    prev_price = state.price_level

    total_income = 0.0
    total_tax = 0.0
    total_spending = 0.0
    total_interest = 0.0
    supply = 0.0
    employed = 0

    net_incomes: dict[int, float] = {}
    spendings: dict[int, float] = {}
    interests: dict[int, float] = {}
    for aid in sorted(households):
        hh = households[aid]
        action = actions[aid]
        hh.employed_this_month = action.work_propensity >= WORK_THRESHOLD
        income = hh.monthly_wage * hh.skill if hh.employed_this_month else 0.0
        tax = state.policy.tax_rate * income
        net = income - tax
        spending = action.consumption_propensity * (hh.wealth + net)
        interest = hh.wealth * state.policy.interest_rate / 12.0

        net_incomes[aid] = net
        spendings[aid] = spending
        interests[aid] = interest
        total_income += income
        total_tax += tax
        total_spending += spending
        total_interest += interest
        if hh.employed_this_month:
            employed += 1
            supply += hh.skill

    state.policy.government_revenue += total_tax

    demand = total_spending / prev_price
    new_price = prev_price * (1.0 + PRICE_KAPPA * (demand - supply) / max(supply, PRICE_EPSILON))
    state.price_level = max(new_price, 1e-9)

    for aid in sorted(households):
        hh = households[aid]
        hh.wealth = hh.wealth + net_incomes[aid] - spendings[aid] + interests[aid]

    indicators = compute_indicators(state, state.month)
    state.gdp_history.append(indicators.gdp)
    state.price_history.append(state.price_level)

    annualized = (1.0 + indicators.inflation) ** 12 - 1.0
    adjusted = state.policy.interest_rate + RATE_GAIN * (annualized - INFLATION_TARGET)
    state.policy.interest_rate = min(RATE_MAX, max(RATE_MIN, adjusted))
    return indicators


def compute_indicators(state: EconomyState, month: int) -> MacroIndicators:
    """Unemployment, price level, inflation, nominal GDP, and GDP growth."""
    if month < 1:
        raise ValueError("month must be >= 1")
    households = state.households
    total = len(households)
    employed = sum(1 for hh in households.values() if hh.employed_this_month)
    unemployment = 1.0 - employed / total
    gdp = sum(hh.skill for hh in households.values() if hh.employed_this_month) * state.price_level
    prev_price = state.price_history[-1] if state.price_history else None
    inflation = 0.0 if prev_price is None else state.price_level / prev_price - 1.0
    prev_gdp = state.gdp_history[-1] if state.gdp_history else None
    gdp_growth = 0.0 if not prev_gdp else gdp / prev_gdp - 1.0
    return MacroIndicators(
        month=month,
        unemployment=unemployment,
        price_level=state.price_level,
        inflation=inflation,
        gdp=gdp,
        gdp_growth=gdp_growth,
    )


ACTION_SCHEMA = ResponseSchema.of(work_propensity="number", consumption_propensity="number")


@dataclass
class EconomyConfig:
    n_households: int = 100
    months: int = field(default=240, metadata={"min": 0})
    tax_rate: float = 0.1
    interest_rate: float = 0.02
    initial_price: float = 100.0
    seed: int = 0
    # optional annual revision hook: year index (0-based) -> tax rate
    annual_tax_rates: list[float] | None = None


class EconomyEnv(Environment):
    """One environment step per month; shared goods market, per-agent ledgers."""

    name = "economy"
    schema = ACTION_SCHEMA

    def __init__(self, config: EconomyConfig | None = None):
        super().__init__()
        self.config = config or EconomyConfig()
        self.agent_ids = list(range(self.config.n_households))
        self._setup()

    def _setup(self):
        cfg = self.config
        households = {}
        for aid in self.agent_ids:
            rng = child_rng(cfg.seed, "economy", aid)
            households[aid] = HouseholdState(
                agent=aid,
                skill=round(0.5 + rng.random() * 1.5, 4),
                wealth=round(100.0 + rng.random() * 900.0, 2),
                monthly_wage=round(1.0 + rng.random() * 4.0, 2),
            )
        self.state = EconomyState(
            households=households,
            policy=PolicyState(tax_rate=cfg.tax_rate, interest_rate=cfg.interest_rate),
            price_level=cfg.initial_price,
        )
        self.indicators: list[MacroIndicators] = []
        self.rate_history: list[float] = []
        self.tax_history: list[float] = []

    def done(self) -> bool:
        return self.state.month >= self.config.months

    def _context_for(self, aid: int) -> str:
        hh = self.state.households[aid]
        policy = self.state.policy
        status = "employed" if hh.employed_this_month else "not employed"
        return (
            f"Month {self.state.month + 1}. You are a household with skill {hh.skill:.2f}, "
            f"monthly wage {hh.monthly_wage:.2f} per skill unit, wealth {hh.wealth:.2f} "
            f"(last month: {status}).\n"
            f"Price level {self.state.price_level:.2f}, tax rate {policy.tax_rate:.2%}, "
            f"annual interest rate {policy.interest_rate:.2%}.\n"
            f"Decide how much to work and consume this month."
        )

    def _now(self) -> int:
        return self.state.month

    def step(self, actions: Mapping[int, ActionEnvelope]) -> dict[int, Observation]:
        if self.done():
            raise RuntimeError("step called on a finished episode")
        cfg = self.config
        if cfg.annual_tax_rates and self.state.month % 12 == 0:
            year = self.state.month // 12
            if year < len(cfg.annual_tax_rates):
                self.state.policy.tax_rate = cfg.annual_tax_rates[year]
        clamped = {aid: clamp_action(actions[aid].body, aid) for aid in self.agent_ids}
        indicators = monthly_step(clamped, self.state)
        self.indicators.append(indicators)
        self.rate_history.append(self.state.policy.interest_rate)
        self.tax_history.append(self.state.policy.tax_rate)
        self.events.append(
            -1, self.state.month - 1, "month_close",
            {
                "month": indicators.month,
                "unemployment": indicators.unemployment,
                "price_level": indicators.price_level,
                "inflation": indicators.inflation,
                "gdp": indicators.gdp,
                "gdp_growth": indicators.gdp_growth,
            },
        )
        return self._observations()

    def indicators_csv(self) -> str:
        lines = ["month,unemployment,price_level,inflation,gdp,gdp_growth,interest_rate,tax_rate"]
        for ind, rate, tax in zip(self.indicators, self.rate_history, self.tax_history):
            lines.append(
                f"{ind.month},{ind.unemployment},{ind.price_level},{ind.inflation},"
                f"{ind.gdp},{ind.gdp_growth},{rate},{tax}"
            )
        return "\n".join(lines) + "\n"

    def metrics(self) -> dict[str, float]:
        if not self.indicators:
            return {}
        last = self.indicators[-1]
        return {
            "unemployment": last.unemployment,
            "price_level": last.price_level,
            "gdp": last.gdp,
            "mean_inflation": sum(i.inflation for i in self.indicators) / len(self.indicators),
        }


def _fit_line_text(xs: list[float], ys: list[float]) -> str:
    try:
        slope, intercept, r = fit_line(xs, ys)
    except DegenerateX as exc:
        return f"  undefined ({exc})"
    return f"  slope={slope:.6f} intercept={intercept:.6f} r={r:.4f}"


def phillips_okun_report(indicators: list[MacroIndicators]) -> str:
    """Fit the two macro regularities over an indicator series.

    Phillips: inflation on unemployment. Okun: GDP growth on the change in
    unemployment (both skip month 1, which has no prior reference point). A
    fit whose x values all coincide reads ``undefined (<reason>)``.
    """
    if len(indicators) < 3:
        raise ValueError("need at least three months of indicators")
    unemp = [i.unemployment for i in indicators]
    d_unemp = [b - a for a, b in zip(unemp, unemp[1:])]
    lines = [
        "Phillips curve (x=unemployment, y=inflation):",
        _fit_line_text(unemp[1:], [i.inflation for i in indicators][1:]),
        "Okun's law (x=delta unemployment, y=gdp growth):",
        _fit_line_text(d_unemp, [i.gdp_growth for i in indicators][1:]),
    ]
    return "\n".join(lines) + "\n"
