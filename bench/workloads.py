"""The benchmark's four closed-loop workloads, their seeded scripted models,
and the correctness checks run on each finished episode.

Every workload is built only through cogsim's public API. The workload seed
reaches cogsim only as generated inputs: scripted decisions drawn from
``seeds.child_rng(seed, ...)`` streams and, for the economy, the household
draw seed. Scripted models decide from short prompt features (the current
price, the newest feed posts) found by searching backwards from the end of
the prompt, so the fake model stays cheap next to the code it drives.

Each agent waits for its own completion and ``run_episode`` waits for every
agent before ``env.step``: the load is closed loop, one client per agent.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable

from cogsim import (
    Agent,
    BufferMemory,
    ChatHistoryMemory,
    CompletionResult,
    PersonaConfig,
    RemoteBackend,
    ScriptedBackend,
    ToolCallRequest,
)
from cogsim.envs.economy import EconomyConfig, EconomyEnv, HouseholdAction, monthly_step
from cogsim.envs.market import MarketConfig, MarketEnv
from cogsim.envs.social import SocialEnv, replay_events, star_profiles
from cogsim.seeds import child_rng, derive_seed
from stub_server import LATENCY_S

# (agents, environment steps) per workload; market steps are sessions, three a day.
# market_book: clearing dominates and the agent stack barely shows.
# social_feed: feed build and render dominate and grow with the steps.
# economy_agents: the agent stack (compose, memory, scripted complete, parse) dominates;
#   200 households for 240 months make as many agent-steps as 400 for 120, with
#   about half the run-to-run spread of throughput on a shared 2-vCPU machine.
# remote_fanout: transport, the in-flight cap, retries and parallel dispatch.
SIZES = {
    "market_book": (200, 9),
    "social_feed": (222, 40),
    "economy_agents": (200, 240),
    "remote_fanout": (16, 12),
}

REMOTE_IN_FLIGHT = 2

SEED_POST = "report: a new store opens downtown next week"


@dataclass
class Setup:
    """One built workload, ready for ``run_episode``."""

    name: str
    env: Any
    agents: dict[int, Agent]
    max_steps: int
    parallel: bool
    check: Callable[[Any, Any, dict[int, Agent]], list[str]]
    config: dict[str, Any]

    @property
    def scheduled(self) -> int:
        """Agent-steps the episode should answer: every agent acts every step."""
        return len(self.agents) * self.max_steps

    def steps_done(self) -> int:
        env = self.env
        return env.state.month if isinstance(env, EconomyEnv) else env.t


# --- scripted models ------------------------------------------------------------


def _number_after(text: str, marker: str) -> str:
    """The token following the last ``marker`` in ``text``, trailing dot removed."""
    start = text.rfind(marker) + len(marker)
    return text[start:start + 24].split(" ", 1)[0].rstrip(".")


class Trader:
    """Every session: one buy and one sell per symbol, limits within +/-1.0 of
    the last price in 0.1 ticks, quantities 1-3. About 1 decision in 10 reads
    the forum first and 1 in 5 posts to it."""

    def __init__(self, seed: int, aid: int):
        self.aid = aid
        self.rng = child_rng(seed, "market_book", aid)
        self.awaiting_answer = False

    def __call__(self, text: str) -> CompletionResult:
        rng = self.rng
        if not self.awaiting_answer and rng.random() < 0.1:
            self.awaiting_answer = True
            return CompletionResult(tool_calls=(ToolCallRequest(id="forum", name="read_forum", arguments_text="{}"),))
        self.awaiting_answer = False
        orders = []
        for sym in ("A", "B"):
            last = float(_number_after(text, f"Stock {sym} price "))
            for side in ("buy", "sell"):
                orders.append(
                    {
                        "symbol": sym,
                        "side": side,
                        "limit_price": round(last + rng.randint(-10, 10) / 10, 2),
                        "quantity": rng.randint(1, 3),
                    }
                )
        body: dict[str, Any] = {"orders": orders}
        if rng.random() < 0.2:
            body["forum_post"] = f"trader {self.aid} is watching {rng.choice('AB')}"
        return CompletionResult(content=json.dumps(body))


GOLDEN = 0.6180339887498949


class SocialUser:
    """Posts 25% of the time, comments on one of the three newest feed posts
    25%, likes one 20%, and otherwise does nothing.

    At each step the users' rolls are spread evenly over [0, 1): user ``aid``
    rolls ``(aid * GOLDEN + shift) % 1`` with ``shift`` drawn per step, so
    each user still acts in those shares over a run, while every step has
    almost the same number of comments on every seed. Independent rolls
    would let the comment pile, and the render work it drives, vary by seed.
    The influencer (agent 0, whom everyone follows) posts every fourth step
    for the same reason: its post count sets how much of the pile the capped
    feed shows."""

    def __init__(self, seed: int, aid: int):
        self.seed = seed
        self.aid = aid
        self.rng = child_rng(seed, "social_feed", aid)

    def _feed_post(self, text: str, start: int, pick: int) -> int | None:
        post, pos = None, start
        for _ in range(pick + 1):
            pos = text.find("\n- post ", pos)
            if pos < 0:
                break
            pos += 8
            post = int(text[pos:text.index(" ", pos)])
        return post

    def __call__(self, text: str) -> CompletionResult:
        here = text.rfind("You are a social media user.")
        now = text[text.rfind("t=", 0, here) + 2:here - 2]
        if self.aid == 0:
            roll = 0.0 if int(now) % 4 == 3 else 1.0
        else:
            roll = (self.aid * GOLDEN + derive_seed(self.seed, "social_feed", now) / 2**64) % 1.0
        body: dict[str, Any] = {"kind": "do_nothing"}
        if roll < 0.25:
            body = {"kind": "create_post", "content": f"note {self.aid} at t{now}"}
        elif roll < 0.7:
            target = self._feed_post(text, here, self.rng.randrange(3))
            if target is not None and roll < 0.5:
                body = {"kind": "create_comment", "content": "agreed", "target_post": target}
            elif target is not None:
                body = {"kind": "like_post", "target_post": target}
        return CompletionResult(content=json.dumps(body))


PARSE_MARKER = "user: Based on the text provided below"
FREE_TEXT = "I would work with propensity {} and consume {} of my means."


class Household:
    """Draws work and consumption propensities; 1 answer in 4 is free text,
    which takes the two-stage parse path through this same backend."""

    def __init__(self, seed: int, aid: int):
        self.rng = child_rng(seed, "economy_agents", aid)

    def __call__(self, text: str) -> CompletionResult:
        if text.startswith(PARSE_MARKER):
            start = text.index("propensity ") + 11
            work, _, rest = text[start:start + 60].partition(" and consume ")
            consume = rest.split(" ", 1)[0]
            return CompletionResult(
                content=json.dumps({"work_propensity": float(work), "consumption_propensity": float(consume)})
            )
        rng = self.rng
        work = round(0.3 + 0.7 * rng.random(), 3)
        consume = round(0.2 + 0.5 * rng.random(), 3)
        if rng.random() < 0.25:
            return CompletionResult(content=FREE_TEXT.format(work, consume))
        return CompletionResult(content=json.dumps({"work_propensity": work, "consumption_propensity": consume}))


# --- building a workload ---------------------------------------------------------


def build(
    name: str,
    seed: int,
    agents: int | None = None,
    steps: int | None = None,
    endpoint: str | None = None,
    session: Any = None,
    sleeper: Callable[[float], None] | None = None,
) -> Setup:
    """Build one workload's environment, backends, memory stores and agents."""
    default_agents, default_steps = SIZES[name]
    n = agents or default_agents
    steps = steps or default_steps
    config = {"workload": name, "seed": seed, "agents": n, "steps": steps}
    if name == "market_book":
        days = math.ceil(steps / 3)
        env = MarketEnv(MarketConfig(n_agents=n, days=days))
        roster = {
            aid: Agent(
                aid,
                PersonaConfig(persona_text=f"You are trader {aid}, managing your own account."),
                ChatHistoryMemory(window=8, token_limit=2048),
                ScriptedBackend(default=Trader(seed, aid)),
                world_tag="market",
            )
            for aid in range(n)
        }
        return Setup(name, env, roster, days * 3, False, check_market, config)
    if name == "social_feed":
        env = SocialEnv(star_profiles(n), seed_post=SEED_POST)
        roster = {
            aid: Agent(
                aid,
                PersonaConfig(persona_text=f"You are user {aid} of a social network."),
                ChatHistoryMemory(window=4, token_limit=4096),
                ScriptedBackend(default=SocialUser(seed, aid)),
                world_tag="social",
            )
            for aid in range(n)
        }
        return Setup(name, env, roster, steps, False, check_social, config)
    if name in ("economy_agents", "remote_fanout"):
        env = EconomyEnv(EconomyConfig(n_households=n, months=steps, seed=derive_seed(seed, name)))
        if name == "economy_agents":
            backends = {aid: ScriptedBackend(default=Household(seed, aid)) for aid in range(n)}
        else:
            if endpoint is None:
                raise ValueError("remote_fanout needs the stub server endpoint")
            # the backoff jitter keeps RemoteBackend's default fixed stream: drawn
            # from the seed, it would make the episode time swing between seeds
            shared = RemoteBackend(
                endpoint,
                in_flight_limit=REMOTE_IN_FLIGHT,
                sleeper=sleeper or time.sleep,
                session=session,
            )
            backends = dict.fromkeys(range(n), shared)
        roster = {
            aid: Agent(
                aid,
                PersonaConfig(persona_text=f"You are household {aid}."),
                BufferMemory(capacity=12),
                backends[aid],
                world_tag="economy",
            )
            for aid in range(n)
        }
        return Setup(name, env, roster, steps, name == "remote_fanout", check_economy, config)
    raise ValueError(f"unknown workload {name!r}")


def floor_s(setup: Setup) -> float:
    """Lowest possible remote episode time: each step needs
    ceil(agents / min(16, in_flight)) rounds of one stub latency."""
    rounds = math.ceil(len(setup.agents) / min(16, REMOTE_IN_FLIGHT))
    return setup.max_steps * rounds * LATENCY_S


# --- correctness checks, from outside the program ------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


def check_market(env: MarketEnv, log, agents) -> list[str]:
    """Cash and shares are conserved, nobody trades with themself, and every
    session's reported volume is the sum of its trades at its price."""
    problems = []
    cfg = env.config
    records = log.records
    loans = sum(r.info["amount"] for r in records if r.action == "loan")
    cash = sum(a.cash for a in env.accounts.values())
    if not _close(cash, cfg.n_agents * cfg.initial_cash + loans):
        problems.append(f"cash not conserved: {cash} vs {cfg.n_agents * cfg.initial_cash + loans}")
    for sym, start in cfg.initial_holdings.items():
        held = [a.holdings.get(sym, 0) for a in env.accounts.values()]
        if sum(held) != cfg.n_agents * start or min(held) < 0:
            problems.append(f"shares of {sym} not conserved: total {sum(held)}, min {min(held)}")
    session: dict[tuple, list] = {}
    for r in records:
        if r.action == "trade":
            if r.info["buyer"] == r.info["seller"]:
                problems.append(f"self-trade by agent {r.info['buyer']} at t={r.current_time}")
            session.setdefault((r.current_time, r.info["symbol"]), []).append(r.info)
        elif r.action == "clear":
            trades = session.pop((r.current_time, r.info["symbol"]), [])
            if sum(t["quantity"] for t in trades) != r.info["volume"]:
                problems.append(f"volume mismatch at t={r.current_time} {r.info['symbol']}")
            if any(t["price"] != r.info["price"] for t in trades):
                problems.append(f"trade off the clearing price at t={r.current_time}")
    if session:
        problems.append("trades without a clear record")
    return problems


def check_social(env: SocialEnv, log, agents) -> list[str]:
    """``replay_events`` rebuilds the post and comment tables exactly, and ids are dense."""
    problems = []
    rebuilt = replay_events(log.records, env.profiles)
    live = env.state

    def posts(state):
        return {p.post_id: (p.author, p.time, p.content, sorted(p.likes)) for p in state.posts.values()}

    def comments(state):
        return {c.comment_id: (c.post_id, c.author, c.time, c.content) for c in state.comments.values()}

    if posts(rebuilt) != posts(live):
        problems.append("replayed post table differs from the live one")
    if comments(rebuilt) != comments(live):
        problems.append("replayed comment table differs from the live one")
    if sorted(live.posts) != list(range(1, len(live.posts) + 1)):
        problems.append("post ids are not dense")
    if sorted(live.comments) != list(range(1, len(live.comments) + 1)):
        problems.append("comment ids are not dense")
    return problems


def check_economy(env: EconomyEnv, log, agents) -> list[str]:
    """Replays every month from the agents' recorded actions and checks that
    the money ledger identity holds each month: the change in total wealth
    plus government revenue equals interest plus gross income minus spending.
    The replay must also reproduce the run's month records and final wealth."""
    problems = []
    actions_by_month: dict[int, dict[int, HouseholdAction]] = {}
    for aid, agent in agents.items():
        for entry in agent.memory.entries:
            if entry.role == "own_action":
                body = json.loads(entry.content)
                actions_by_month.setdefault(entry.time, {})[aid] = HouseholdAction(
                    work_propensity=min(1.0, max(0.0, float(body["work_propensity"]))),
                    consumption_propensity=min(1.0, max(0.0, float(body["consumption_propensity"]))),
                )
    replay = EconomyEnv(env.config)
    state = replay.state
    closes = [r.info for r in log.records if r.action == "month_close"]
    for month in range(env.state.month):
        actions = actions_by_month.get(month, {})
        before = sum(h.wealth for h in state.households.values()) + state.policy.government_revenue
        expected = 0.0
        for aid, hh in state.households.items():
            act = actions[aid]
            income = hh.monthly_wage * hh.skill if act.work_propensity >= 0.5 else 0.0
            net = income * (1.0 - state.policy.tax_rate)
            expected += hh.wealth * state.policy.interest_rate / 12.0 + income
            expected -= act.consumption_propensity * (hh.wealth + net)
        indicators = monthly_step(actions, state)
        after = sum(h.wealth for h in state.households.values()) + state.policy.government_revenue
        if not _close(after - before, expected):
            problems.append(f"ledger identity broken in month {month + 1}: {after - before} vs {expected}")
        if month >= len(closes) or closes[month]["gdp"] != indicators.gdp or closes[month]["price_level"] != indicators.price_level:
            problems.append(f"replay diverged from the run in month {month + 1}")
            break
    for aid, hh in env.state.households.items():
        if hh.wealth != state.households[aid].wealth:
            problems.append(f"household {aid} final wealth differs from the replay")
            break
    return problems
