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
   clamped to [0, 0.2]; the new rate holds from the next month

Each month closes with a ``month_close`` record of its
:class:`MacroIndicators`, which carry the policy the month ran under: the
tax rate in force during it and the interest rate set after it.

These closed-form rules keep every run deterministic and the money ledger
exact: the change in (total wealth + government revenue) each month equals
interest credited plus gross production income minus spending.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterable, Mapping

from ..seeds import child_rng
from ..protocol import ENV_ACTOR, ActionEnvelope, Environment, EventRecord, Observation
from ..errors import ConfigError, DegenerateX
from ..schema import ResponseSchema
from ..stats import fit_line

PRICE_KAPPA = 0.2
PRICE_EPSILON = 1.0
RATE_GAIN = 0.5
INFLATION_TARGET = 0.02
RATE_MIN, RATE_MAX = 0.0, 0.2
WORK_THRESHOLD = 0.5


@dataclass
class HouseholdState:
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
    interest_rate: float
    tax_rate: float


MONTH_COLUMNS = tuple(f.name for f in fields(MacroIndicators))


@dataclass(frozen=True)
class HouseholdAction:
    work_propensity: float
    consumption_propensity: float


def clamp_action(raw: Mapping[str, float], agent: int) -> HouseholdAction:
    """Clamp propensities into [0, 1], warning when inputs were out of bounds;
    ``logging`` loads with the first warning."""
    wp = float(raw.get("work_propensity", 0.0))
    cp = float(raw.get("consumption_propensity", 0.0))
    if not 0.0 <= wp <= 1.0 >= cp >= 0.0:
        import logging

        logging.getLogger(__name__).warning("agent %d propensities out of bounds (%.3f, %.3f); clamping", agent, wp, cp)
    return HouseholdAction(min(1.0, max(0.0, wp)), min(1.0, max(0.0, cp)))


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

    total_tax = 0.0
    total_spending = 0.0
    supply = 0.0
    for aid in sorted(households):
        hh = households[aid]
        action = actions[aid]
        hh.employed_this_month = action.work_propensity >= WORK_THRESHOLD
        income = hh.monthly_wage * hh.skill if hh.employed_this_month else 0.0
        tax = state.policy.tax_rate * income
        net = income - tax
        spending = action.consumption_propensity * (hh.wealth + net)
        interest = hh.wealth * state.policy.interest_rate / 12.0
        hh.wealth = hh.wealth + net - spending + interest
        total_tax += tax
        total_spending += spending
        if hh.employed_this_month:
            supply += hh.skill

    state.policy.government_revenue += total_tax

    demand = total_spending / prev_price
    new_price = prev_price * (1.0 + PRICE_KAPPA * (demand - supply) / max(supply, PRICE_EPSILON))
    state.price_level = max(new_price, 1e-9)

    indicators = compute_indicators(state)
    state.gdp_history.append(indicators.gdp)
    state.price_history.append(state.price_level)
    state.policy.interest_rate = indicators.interest_rate
    return indicators


def compute_indicators(state: EconomyState) -> MacroIndicators:
    """Unemployment, price level, inflation, nominal GDP and GDP growth in
    ``state.month``; the interest rate the central bank's rule (step 7) sets
    after it, and the tax rate in force in it."""
    policy = state.policy
    households = state.households
    total = len(households)
    employed = sum(1 for hh in households.values() if hh.employed_this_month)
    unemployment = 1.0 - employed / total
    gdp = sum(hh.skill for hh in households.values() if hh.employed_this_month) * state.price_level
    prev_price = state.price_history[-1] if state.price_history else None
    inflation = 0.0 if prev_price is None else state.price_level / prev_price - 1.0
    prev_gdp = state.gdp_history[-1] if state.gdp_history else None
    gdp_growth = 0.0 if not prev_gdp else gdp / prev_gdp - 1.0
    annualized = (1.0 + inflation) ** 12 - 1.0
    interest_rate = min(RATE_MAX, max(RATE_MIN, policy.interest_rate + RATE_GAIN * (annualized - INFLATION_TARGET)))
    return MacroIndicators(
        month=state.month,
        unemployment=unemployment,
        price_level=state.price_level,
        inflation=inflation,
        gdp=gdp,
        gdp_growth=gdp_growth,
        interest_rate=interest_rate,
        tax_rate=policy.tax_rate,
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

    def __post_init__(self):
        if self.initial_price <= 0:  # inflation divides by the previous price level
            raise ConfigError("must be > 0", field="initial_price")

    def tax_rate_in(self, month: int) -> float:
        """The tax rate in force in month ``month + 1``: that year's entry of
        ``annual_tax_rates`` (past its end, the last), else ``tax_rate``."""
        rates = self.annual_tax_rates
        return rates[min(month // 12, len(rates) - 1)] if rates else self.tax_rate


EMPLOYED = " (last month: employed).\n"
NOT_EMPLOYED = " (last month: not employed).\n"


def _head(month: int) -> str:
    return f"Month {month}. You are a household with skill "


def _traits(skill: float, monthly_wage: float) -> str:
    return f"{skill:.2f}, monthly wage {monthly_wage:.2f} per skill unit, wealth "


def _tail(price_level: float, tax_rate: float, interest_rate: float) -> str:
    return (
        f"Price level {price_level:.2f}, tax rate {tax_rate:.2%}, annual interest rate {interest_rate:.2%}.\n"
        "Decide how much to work and consume this month."
    )


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
                skill=round(0.5 + rng.random() * 1.5, 4),
                wealth=round(100.0 + rng.random() * 900.0, 2),
                monthly_wage=round(1.0 + rng.random() * 4.0, 2),
            )
        self.state = EconomyState(
            households=households,
            policy=PolicyState(tax_rate=cfg.tax_rate, interest_rate=cfg.interest_rate),
            price_level=cfg.initial_price,
        )
        self._head, self._traits, self._tail = (lru_cache(maxsize=None)(part) for part in (_head, _traits, _tail))

    def done(self) -> bool:
        return self.state.month >= self.config.months

    def _context_for(self, aid: int) -> tuple[str, str, str, str, str]:
        """Five parts: the month head, the household's traits, its wealth, its
        status and the month tail. Only the wealth is new for each household
        each month; the other parts are shared, cached by the values they render."""
        state = self.state
        hh = state.households[aid]
        policy = state.policy
        return (
            self._head(state.month + 1),
            self._traits(hh.skill, hh.monthly_wage),
            f"{hh.wealth:.2f}",
            EMPLOYED if hh.employed_this_month else NOT_EMPLOYED,
            self._tail(state.price_level, policy.tax_rate, policy.interest_rate),
        )

    @property
    def t(self) -> int:
        """The clock: the months closed so far, which :func:`monthly_step` advances."""
        return self.state.month

    def step(self, actions: Mapping[int, ActionEnvelope]) -> dict[int, Observation]:
        if self.done():
            raise RuntimeError("step called on a finished episode")
        self.state.policy.tax_rate = self.config.tax_rate_in(self.state.month)
        clamped = {aid: clamp_action(actions[aid].body, aid) for aid in self.agent_ids}
        indicators = monthly_step(clamped, self.state)
        self.events.append(ENV_ACTOR, self.state.month - 1, "month_close", vars(indicators))
        return self._observations()



def month_closes(records: Iterable[EventRecord]) -> list[MacroIndicators]:
    """Each month's indicators, from its ``month_close`` record."""
    return [MacroIndicators(**record.info) for record in records if record.action == "month_close"]


def economy_metrics(records: Iterable[EventRecord]) -> dict[str, float]:
    indicators = month_closes(records)
    if not indicators:
        return {}
    last = indicators[-1]
    return {
        "unemployment": last.unemployment,
        "price_level": last.price_level,
        "gdp": last.gdp,
        "mean_inflation": sum(i.inflation for i in indicators) / len(indicators),
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
    fit whose x values all coincide reads ``undefined (<reason>)``; under
    three months there is no report.
    """
    if len(indicators) < 3:
        return ""
    unemp = [i.unemployment for i in indicators]
    d_unemp = [b - a for a, b in zip(unemp, unemp[1:])]
    lines = [
        "Phillips curve (x=unemployment, y=inflation):",
        _fit_line_text(unemp[1:], [i.inflation for i in indicators][1:]),
        "Okun's law (x=delta unemployment, y=gdp growth):",
        _fit_line_text(d_unemp, [i.gdp_growth for i in indicators][1:]),
    ]
    return "\n".join(lines) + "\n"
