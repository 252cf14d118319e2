import datetime as dt
import json
import math
import random
from collections import defaultdict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogsim.envs.market import (
    CLEAR_COLUMNS,
    SYMBOLS,
    MarketConfig,
    MarketEnv,
    NewsItem,
    Order,
    Trade,
    TraderAccount,
    _grant_loan,
    _max_flow,
    _order_info,
    _trade_info,
    accrue_and_lend,
    buy_sell_ratio,
    clear_session,
    fetch_news_tool,
    market_metrics,
    price_change_rate,
    settle,
)
from cogsim.errors import LoanRefused, UndefinedRatio
from cogsim.protocol import ActionEnvelope, EventRecord, record_table, run_episode
from cogsim.runners import parse
from cogsim.schema import canonical_json


# --- oracle -------------------------------------------------------------------


def oracle_volume(book, price):
    """Self-trade-avoiding matched volume via the min-cut closed form:
    min(D, S, min_a[(D - d_a) + (S - s_a)])."""
    demand = defaultdict(int)
    supply = defaultdict(int)
    for o in book:
        if o.side == "buy" and o.limit_price >= price:
            demand[o.agent] += o.quantity
        if o.side == "sell" and o.limit_price <= price:
            supply[o.agent] += o.quantity
    D, S = sum(demand.values()), sum(supply.values())
    if D == 0 or S == 0:
        return 0
    agents = set(demand) | set(supply)
    cap = min((D - demand.get(a, 0)) + (S - supply.get(a, 0)) for a in agents)
    return min(D, S, cap)


def oracle_clear(book, prev_price):
    """Exhaustive enumeration over candidate prices with the spec tie rules."""
    best_price, best_volume = prev_price, 0
    for price in sorted({o.limit_price for o in book}):
        volume = oracle_volume(book, price)
        if volume > best_volume:
            best_price, best_volume = price, volume
        elif volume == best_volume and volume > 0:
            tie_now = (abs(price - prev_price), price)
            tie_best = (abs(best_price - prev_price), best_price)
            if tie_now < tie_best:
                best_price = price
    return best_price, best_volume


# reference for _max_flow, which must return exactly this Edmonds-Karp's flow
def oracle_max_flow(demand: dict[int, int], supply: dict[int, int]) -> dict[tuple[int, int], int]:
    """Max quantity routable from buy-agents to sell-agents with no self-edge.

    Edmonds-Karp on the tiny agent-level graph; neighbor order is sorted so
    the resulting flow is deterministic.
    """
    source, sink = ("src",), ("snk",)
    buys = {("b", a): q for a, q in sorted(demand.items()) if q > 0}
    sells = {("s", a): q for a, q in sorted(supply.items()) if q > 0}
    capacity: dict[tuple, dict[tuple, int]] = defaultdict(dict)
    inf = 1 + sum(demand.values()) + sum(supply.values())
    for bnode, q in buys.items():
        capacity[source][bnode] = q
        for snode in sells:
            if bnode[1] != snode[1]:
                capacity[bnode][snode] = inf
    for snode, q in sells.items():
        capacity[snode][sink] = q
    adjacency: dict[tuple, set[tuple]] = defaultdict(set)
    for u, edges in capacity.items():
        for v in edges:
            adjacency[u].add(v)
            adjacency[v].add(u)  # backward residual edge
    flow: dict[tuple, dict[tuple, int]] = defaultdict(lambda: defaultdict(int))

    def residual(u: tuple, v: tuple) -> int:
        return capacity[u].get(v, 0) - flow[u][v] + flow[v][u]

    while True:
        parents = {source: None}
        queue = deque([source])
        while queue and sink not in parents:
            node = queue.popleft()
            for nxt in sorted(adjacency[node]):
                if nxt not in parents and residual(node, nxt) > 0:
                    parents[nxt] = node
                    queue.append(nxt)
        if sink not in parents:
            break
        path = []
        node = sink
        while parents[node] is not None:
            path.append((parents[node], node))
            node = parents[node]
        bottleneck = min(residual(u, v) for u, v in path)
        for u, v in path:
            back = min(flow[v][u], bottleneck)
            flow[v][u] -= back
            flow[u][v] += bottleneck - back
    return {
        (bnode[1], snode[1]): flow[bnode][snode]
        for bnode in buys
        for snode in sells
        if flow[bnode][snode] > 0
    }


def random_book(rng, max_orders=8, n_agents=5):
    book = []
    for i in range(rng.randrange(0, max_orders + 1)):
        book.append(
            Order(
                id=i + 1,
                agent=rng.randrange(n_agents),
                symbol="A",
                side=rng.choice(["buy", "sell"]),
                limit_price=float(rng.randrange(90, 111)),
                quantity=rng.randrange(1, 5),
            )
        )
    return book


def order(oid, agent, side, price, qty, symbol="A"):
    return Order(id=oid, agent=agent, symbol=symbol, side=side, limit_price=float(price), quantity=qty)


# --- clear_session ------------------------------------------------------------


def test_empty_book_keeps_prev_price():
    price, trades, remaining = clear_session([], 100.0)
    assert price == 100.0
    assert trades == [] and remaining == {}


def test_simple_cross_clears_at_tie_break_price():
    book = [order(1, 1, "buy", 101, 2), order(2, 2, "sell", 100, 2)]
    price, trades, remaining = clear_session(book, 100.0)
    assert price == 100.0
    assert len(trades) == 1 and trades[0].quantity == 2
    assert remaining == {1: 0, 2: 0}


def test_spec_example_pairs_best_buy_with_best_sell():
    book = [
        order(1, 1, "buy", 102, 1),
        order(2, 2, "buy", 100, 1),
        order(3, 3, "sell", 99, 1),
        order(4, 4, "sell", 101, 1),
    ]
    price, trades, remaining = clear_session(book, 100.0)
    assert price == 100.0
    assert len(trades) == 1
    assert trades[0].buy_order_id == 1 and trades[0].sell_order_id == 3
    assert remaining == {1: 0, 2: 1, 3: 0, 4: 1}


def test_no_cross_leaves_price_and_book():
    book = [order(1, 1, "buy", 95, 1), order(2, 2, "sell", 105, 1)]
    price, trades, remaining = clear_session(book, 100.0)
    assert price == 100.0
    assert trades == []
    assert remaining == {1: 1, 2: 1}


def test_fifo_within_price_level():
    book = [
        order(1, 1, "sell", 100, 1),
        order(2, 2, "sell", 100, 1),
        order(3, 3, "buy", 100, 1),
    ]
    _, trades, _ = clear_session(book, 100.0)
    assert trades[0].sell_order_id == 1  # earlier order id fills first


def test_self_trade_never_happens():
    rng = random.Random(41)
    for _ in range(500):
        book = random_book(rng, n_agents=3)
        _, trades, _ = clear_session(book, 100.0)
        for t in trades:
            assert t.buyer != t.seller


def test_clearing_matches_exhaustive_oracle():
    rng = random.Random(1234)
    for _ in range(600):
        book = random_book(rng)
        prev = float(rng.randrange(90, 111))
        price, trades, remaining = clear_session(book, prev)
        oracle_price, oracle_vol = oracle_clear(book, prev)
        assert price == oracle_price
        assert sum(t.quantity for t in trades) == oracle_vol
        filled = defaultdict(int)
        for t in trades:
            filled[t.buy_order_id] += t.quantity
            filled[t.sell_order_id] += t.quantity
        assert remaining == {o.id: o.quantity - filled[o.id] for o in book}


def test_self_cross_book_still_achieves_oracle_volume():
    # one agent on both sides plus outsiders; naive FIFO pairing would strand volume
    book = [
        order(1, 1, "buy", 100, 1),
        order(2, 0, "buy", 100, 1),
        order(3, 2, "sell", 100, 1),
        order(4, 0, "sell", 100, 1),
    ]
    price, trades, _ = clear_session(book, 100.0)
    assert sum(t.quantity for t in trades) == oracle_volume(book, 100.0) == 2
    for t in trades:
        assert t.buyer != t.seller


def test_residual_quantities_reported():
    book = [order(1, 1, "buy", 100, 5), order(2, 2, "sell", 100, 2)]
    _, trades, remaining = clear_session(book, 100.0)
    assert sum(t.quantity for t in trades) == 2
    assert remaining == {1: 3, 2: 0}


# --- settle ------------------------------------------------------------------


def make_accounts(n, cash=10_000.0, shares=50):
    return {
        aid: TraderAccount(cash=cash, holdings={"A": shares, "B": shares})
        for aid in range(n)
    }


def test_settle_double_entry():
    accounts = make_accounts(2)
    book = [order(1, 0, "buy", 100, 2), order(2, 1, "sell", 100, 2)]
    _, trades, _ = clear_session(book, 100.0)
    settle(trades, accounts)
    assert accounts[0].cash == 10_000.0 - 200.0
    assert accounts[0].holdings["A"] == 52
    assert accounts[1].cash == 10_000.0 + 200.0
    assert accounts[1].holdings["A"] == 48


def test_settle_no_trades_no_change():
    accounts = make_accounts(2)
    before = {aid: (a.cash, dict(a.holdings)) for aid, a in accounts.items()}
    settle([], accounts)
    for aid, account in accounts.items():
        assert (account.cash, account.holdings) == (before[aid][0], before[aid][1])


def test_settle_conserves_cash_and_shares():
    rng = random.Random(77)
    for _ in range(1000):
        accounts = make_accounts(5)
        total_cash = sum(a.cash for a in accounts.values())
        total_shares = sum(a.holdings["A"] for a in accounts.values())
        book = random_book(rng)
        _, trades, _ = clear_session(book, 100.0)
        settle(trades, accounts)
        assert math.isclose(sum(a.cash for a in accounts.values()), total_cash, abs_tol=1e-9)
        assert sum(a.holdings["A"] for a in accounts.values()) == total_shares


# --- properties (derandomized, so tier-1 stays deterministic) -------------------

AGENT = st.integers(0, 39)


@st.composite
def demand_supply(draw):
    demand = draw(st.dictionaries(AGENT, st.integers(0, 20), max_size=40))
    supply = draw(st.dictionaries(AGENT, st.integers(0, 20), max_size=40))
    if draw(st.booleans()):  # one agent heavy on both sides forces rerouting through it
        dominant = draw(AGENT)
        demand[dominant] = draw(st.integers(20, 200))
        supply[dominant] = draw(st.integers(20, 200))
    return demand, supply


@st.composite
def books(draw):
    rows = draw(
        st.lists(
            st.tuples(AGENT, st.sampled_from(["buy", "sell"]), st.integers(90, 110), st.integers(1, 9)),
            max_size=80,
        )
    )
    return [order(i + 1, agent, side, price, qty) for i, (agent, side, price, qty) in enumerate(rows)]


PROPERTY = settings(derandomize=True, database=None, deadline=None)


@PROPERTY
@given(demand_supply())
def test_max_flow_equals_edmonds_karp(maps):
    demand, supply = maps
    assert list(_max_flow(demand, supply).items()) == list(oracle_max_flow(demand, supply).items())


@PROPERTY
@given(books(), st.integers(90, 110))
def test_clearing_price_and_volume_equal_oracle(book, prev):
    price, trades, _ = clear_session(book, float(prev))
    assert (price, sum(t.quantity for t in trades)) == oracle_clear(book, float(prev))


@PROPERTY
@given(books())
def test_clearing_has_no_self_trades_and_settle_conserves(book):
    accounts = make_accounts(40, cash=1e6, shares=1_000)
    _, trades, _ = clear_session(book, 100.0)
    assert all(t.buyer != t.seller for t in trades)
    settle(trades, accounts)
    assert math.isclose(sum(a.cash for a in accounts.values()), 40 * 1e6, abs_tol=1e-6)
    assert sum(a.holdings["A"] for a in accounts.values()) == 40 * 1_000


# --- loans ---------------------------------------------------------------------


def test_interest_accrues_daily():
    accounts = {0: TraderAccount(cash=0.0, holdings={}, loan_principal=100.0)}
    accrue_and_lend(accounts, 0.01)
    assert accounts[0].loan_principal == pytest.approx(101.0)


def test_zero_rate_keeps_principal():
    accounts = {0: TraderAccount(cash=0.0, holdings={}, loan_principal=123.0)}
    for _ in range(10):
        accrue_and_lend(accounts, 0.0)
    assert accounts[0].loan_principal == 123.0


def test_loan_cap_closed_form():
    # portfolio value 1000 (cash only), LTV 0.5, existing principal 400 -> max new loan 100
    def account():
        return {0: TraderAccount(cash=1000.0, holdings={}, loan_principal=400.0)}

    accounts = account()
    _grant_loan(accounts, 0, 100.0, 0.5, {"A": 1.0, "B": 1.0})
    assert accounts[0].cash == 1100.0
    assert accounts[0].loan_principal == 500.0

    with pytest.raises(LoanRefused):
        _grant_loan(account(), 0, 100.5, 0.5, {"A": 1.0, "B": 1.0})


# --- ratios and rates ------------------------------------------------------------


def test_price_change_rate():
    assert price_change_rate([100.0, 110.0]) == pytest.approx(0.10)
    assert price_change_rate([100.0, 100.0, 100.0]) == 0.0
    assert price_change_rate([100.0, 80.0]) == pytest.approx(-0.20)
    assert price_change_rate([100.0]) == 0.0


class FakeRecord:
    def __init__(self, action, info):
        self.action = action
        self.info = info


def submit(symbol, side, day):
    return FakeRecord("submit_order", {"symbol": symbol, "side": side, "day": day, "session": 1})


def test_buy_sell_ratio_balanced():
    records = []
    for day in (1, 2):
        records += [submit("A", "buy", day) for _ in range(10)]
        records += [submit("A", "sell", day) for _ in range(10)]
    assert buy_sell_ratio(records, "A") == 1.0


def test_buy_sell_ratio_hand_mean():
    records = (
        [submit("A", "buy", 1)] * 4 + [submit("A", "sell", 1)] * 2
        + [submit("A", "buy", 2)] * 2 + [submit("A", "sell", 2)] * 4
    )
    assert buy_sell_ratio(records, "A") == pytest.approx(1.25)


def test_buy_sell_ratio_zero_sells_raises():
    records = [submit("A", "buy", 1)]
    with pytest.raises(UndefinedRatio):
        buy_sell_ratio(records, "A")


# --- news tool --------------------------------------------------------------------


def make_feed():
    return [
        NewsItem(date=dt.date(2025, 4, 2), headline="Sweeping levies unveiled"),
        NewsItem(date=dt.date(2025, 4, 3), headline="Index drops sharply", body="details"),
    ]


def test_fetch_news_exact_date():
    feed = make_feed()
    assert fetch_news_tool(feed, dt.date(2025, 4, 2)) == "Sweeping levies unveiled"
    assert "Index drops sharply" in fetch_news_tool(feed, dt.date(2025, 4, 3))


def test_fetch_news_absent_date():
    assert fetch_news_tool(make_feed(), dt.date(2025, 4, 9)) == "no news available"


def test_news_feed_loader_rejects_duplicates():
    entries = [{"date": "2025-04-02", "headline": "a"}, {"date": "2025-04-02", "headline": "b"}]
    with pytest.raises(ValueError):
        parse(list[NewsItem], entries, "news")


def test_news_feed_loader_roundtrip(tmp_path):
    path = tmp_path / "news.jsonl"
    path.write_text('{"date": "2025-04-02", "headline": "a", "body": "b"}\n')
    feed = parse(list[NewsItem], str(path), "news")
    assert feed == [NewsItem(date=dt.date(2025, 4, 2), headline="a", body="b")]


# --- environment ---------------------------------------------------------------------


def hold_policy(obs):
    return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"orders": []})


@PROPERTY
@given(sessions_per_day=st.integers(1, 5), days=st.integers(0, 4))
def test_clock_advances_session_major(sessions_per_day, days):
    """Day and session follow ``t`` by the session-major rule, and the episode
    ends at the first ``t`` past the last day."""
    env = MarketEnv(MarketConfig(n_agents=1, days=days, sessions_per_day=sessions_per_day))
    observations, clock = env.reset(), (1, 1)
    while not env.done():
        assert (env.day, env.session) == clock and observations[0].time == env.t
        observations = env.step({0: hold_policy(observations[0])})
        day, session = clock
        clock = (day, session + 1) if session < sessions_per_day else (day + 1, 1)
    assert env.t == days * sessions_per_day and (env.day, env.session) == clock
    assert observations == {}


def test_full_run_has_exactly_days_times_sessions_steps():
    env = MarketEnv(MarketConfig(n_agents=50, days=10))
    agents = {aid: hold_policy for aid in range(50)}
    log = run_episode(env, agents, max_steps=10_000, seed=0)
    assert log.steps_executed == 30
    assert env.done()


def test_all_holding_keeps_prices_constant():
    env = MarketEnv(MarketConfig(n_agents=4, days=3))
    log = run_episode(env, {aid: hold_policy for aid in range(4)}, max_steps=100, seed=0)
    for sym in ("A", "B"):
        prices = {r.info["price"] for r in log.records if r.action == "clear" and r.info["symbol"] == sym}
        assert prices == {env.config.initial_prices[sym]}


def test_sell_of_unowned_stock_rejected_and_logged():
    def greedy_seller(obs):
        return ActionEnvelope(
            agent_id=obs.agent_id,
            time=obs.time,
            body={"orders": [{"symbol": "A", "side": "sell", "limit_price": 10.0, "quantity": 10_000}]},
        )

    env = MarketEnv(MarketConfig(n_agents=2, days=1))
    log = run_episode(env, {0: greedy_seller, 1: hold_policy}, max_steps=10, seed=0)
    rejections = [r for r in log.records if r.action == "reject_order"]
    assert rejections and all(r.info["reason"] == "insufficient holdings" for r in rejections)
    # the other agent and the market are unaffected
    assert env.accounts[1].holdings["A"] == env.config.initial_holdings["A"]
    assert env.accounts[0].holdings["A"] == env.config.initial_holdings["A"]


def test_zero_quantity_order_rejected_and_logged():
    def empty_buyer(obs):
        order = {"symbol": "A", "side": "buy", "limit_price": 30.0, "quantity": 0}
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"orders": [order]})

    log = run_episode(MarketEnv(MarketConfig(n_agents=2, days=1)), {0: empty_buyer, 1: hold_policy}, max_steps=1)
    rejections = [r for r in log.records if r.action == "reject_order"]
    assert [(r.user_id, r.info["reason"]) for r in rejections] == [(0, "quantity must be positive")]
    assert not any(r.action == "submit_order" for r in log.records)


def make_trading_policy(seed):
    """Deterministic pseudo-random traders: small orders around the mid price."""
    from cogsim.seeds import child_rng

    def policy(obs):
        rng = child_rng(seed, "trader", obs.agent_id, obs.time)
        orders = []
        for sym, mid in (("A", 30.0), ("B", 45.0)):
            roll = rng.random()
            side = "buy" if roll < 0.5 else "sell"
            price = round(mid * (0.9 + 0.2 * rng.random()), 2)
            orders.append({"symbol": sym, "side": side, "limit_price": price, "quantity": rng.randrange(1, 4)})
        body = {"orders": orders}
        if rng.random() < 0.2:
            body["forum_post"] = f"agent {obs.agent_id} thinks t={obs.time}"
        if rng.random() < 0.1:
            body["loan_request"] = 100.0
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body=body)

    return policy


def test_trading_run_conserves_shares_and_books_cash():
    env = MarketEnv(MarketConfig(n_agents=10, days=3))
    policy = make_trading_policy(7)
    log = run_episode(env, {aid: policy for aid in range(10)}, max_steps=100, seed=7)

    total_shares = {sym: sum(a.holdings[sym] for a in env.accounts.values()) for sym in ("A", "B")}
    assert total_shares["A"] == 10 * env.config.initial_holdings["A"]
    assert total_shares["B"] == 10 * env.config.initial_holdings["B"]

    # cash changed only by granted loans
    granted = sum(r.info["amount"] for r in log.records if r.action == "loan")
    total_cash = sum(a.cash for a in env.accounts.values())
    assert total_cash == pytest.approx(10 * env.config.initial_cash + granted, abs=1e-6)

    trades = [r for r in log.records if r.action == "trade"]
    assert trades, "scripted traders should produce at least one trade"


def test_forum_tool_returns_only_previous_day():
    env = MarketEnv(MarketConfig(n_agents=2, days=3))

    def poster(obs):
        return ActionEnvelope(
            agent_id=obs.agent_id, time=obs.time, body={"orders": [], "forum_post": f"t={obs.time}"}
        )

    env.reset()
    # day 1: three sessions of posts
    for _ in range(3):
        env.step({aid: poster(obs) for aid, obs in env._observations().items()})
    assert env.day == 2
    text = env._read_forum()
    assert text == "\n".join(f"agent {aid} (day 1): t={t}" for t in range(3) for aid in (0, 1))
    # posts from the current day never appear
    env.step({aid: poster(obs) for aid, obs in env._observations().items()})
    text = env._read_forum()
    assert "t=3" not in text


def test_rejected_loan_outside_session_one():
    env = MarketEnv(MarketConfig(n_agents=1, days=1))
    env.reset()
    env.step({0: ActionEnvelope(agent_id=0, time=0, body={"orders": []})})
    out = env.step({0: ActionEnvelope(agent_id=0, time=1, body={"orders": [], "loan_request": 50.0})})
    rejects = [r for r in env.events.snapshot() if r.action == "reject_loan"]
    assert len(rejects) == 1


@pytest.mark.parametrize("days", [0, 2])
def test_market_metrics_match_the_live_prices(days):
    config = MarketConfig(n_agents=4, days=days, initial_prices={"A": 31.7, "B": 44})
    env = MarketEnv(config)
    log = run_episode(env, {aid: make_trading_policy(5) for aid in range(4)}, max_steps=100, seed=5)
    metrics = market_metrics(config.initial_prices, log.records)
    for sym in ("A", "B"):
        assert metrics[f"price_{sym}"] == env.stocks[sym].price
        assert metrics[f"price_change_{sym}"] == price_change_rate([config.initial_prices[sym], env.stocks[sym].price])
    clears = [r.info for r in log.records if r.action == "clear"]
    assert metrics["volume"] == float(sum(c["volume"] for c in clears))
    assert (metrics["volume"] > 0) == (days > 0)


def test_session_metrics_csv_shape():
    env = MarketEnv(MarketConfig(n_agents=4, days=2))
    log = run_episode(env, {aid: make_trading_policy(3) for aid in range(4)}, max_steps=100, seed=3)
    csv_text = record_table(log.records, "clear", CLEAR_COLUMNS)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "day,session,symbol,price,volume,n_buys,n_sells"
    # 2 days x 3 sessions x 2 symbols rows
    assert len(lines) == 1 + 2 * 3 * 2



def strict_json(line):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(line, parse_constant=refuse)


@pytest.mark.parametrize("price", ["NaN", "Infinity", "1e999", "1" + "0" * 400], ids=["nan", "inf", "1e999", "10**400"])
def test_a_limit_price_past_the_float_range_never_reaches_the_book(price):
    from cogsim.backends import CompletionResult, ScriptedBackend
    from cogsim.cognition import Agent

    sell = f'{{"orders": [{{"symbol": "A", "side": "sell", "limit_price": {price}, "quantity": 1}}]}}'
    buy = '{"orders": [{"symbol": "A", "side": "buy", "limit_price": 30, "quantity": 1}]}'
    backend = ScriptedBackend(
        [
            (lambda text: "output JSON" in text, CompletionResult(content='{"orders": []}')),  # the parse pass
            (lambda text: "style conservative" in text, CompletionResult(content=sell)),  # agent 0
        ],
        default=CompletionResult(content=buy),
    )
    agents = {aid: Agent(aid, backend=backend) for aid in range(2)}
    log = run_episode(MarketEnv(MarketConfig(n_agents=2, days=1)), agents, max_steps=1)
    records = [strict_json(record.line) for record in log.records]
    submitted = [r["info"]["limit_price"] for r in records if r["action"] == "submit_order"]
    assert submitted == [30.0]
    rejected = [r["info"]["reason"] for r in records if r["action"] == "reject_order"]
    # the model text refuses NaN and infinities outright; an integer too big for a float is a schema violation
    assert rejected == (['out of range "limit_price": number does not fit a finite float'] if price.isdigit() else [])


# --- observation parts ----------------------------------------------------------


def reference_context(env, aid):
    """One trader's context as a single text, line by line: the oracle its parts must join to."""
    cfg, account = env.config, env.accounts[aid]
    lines = [f"Day {env.day} ({env.current_date.isoformat()}), session {env.session} of {cfg.sessions_per_day}."]
    for sym in SYMBOLS:
        lines.append(f"Stock {sym} price {env.stocks[sym].price:.2f}. {env.stocks[sym].profile_text}")
    holdings = ", ".join(f"{sym}={account.holdings.get(sym, 0)}" for sym in SYMBOLS)
    lines.append(
        f"Your account: cash {account.cash:.2f}, holdings {holdings}, "
        f"loan {account.loan_principal:.2f}, style {account.style}."
    )
    return "\n".join(lines)


MONEY = st.floats(0.005, 1e9, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(
    prices=st.tuples(MONEY, MONEY),
    cash=st.floats(-1e6, 1e12),
    holdings=st.tuples(st.integers(-5, 10**7), st.integers(0, 10**7)),
    loan=st.floats(0, 1e9),
    t=st.integers(0, 8),
)
def test_context_parts_join_to_the_reference_text(prices, cash, holdings, loan, t):
    env = MarketEnv(MarketConfig(n_agents=3, days=3))
    env.t = t
    for sym, price in zip(SYMBOLS, prices):
        env.stocks[sym].record_price(price)
    account = env.accounts[1]
    account.cash, account.loan_principal, account.holdings = cash, loan, dict(zip(SYMBOLS, holdings))
    for aid in env.agent_ids:
        assert "".join(env._context_for(aid)) == reference_context(env, aid)


def post_only(env):
    return {aid: ActionEnvelope(agent_id=aid, time=env.t, body={"orders": [], "forum_post": f"{aid} at t={env.t}"}) for aid in env.agent_ids}


def test_one_session_shares_its_head_and_one_day_shares_its_forum_read():
    env = MarketEnv(MarketConfig(n_agents=4, days=3))
    observations = env.reset()
    heads, _ = zip(*(obs.context_parts for obs in observations.values()))
    assert all(head is heads[0] for head in heads)
    for _ in range(3):
        observations = env.step(post_only(env))
    read_forum = observations[0].tools[0].handler
    first = read_forum()
    assert "0 at t=2" in first
    reads = [obs.tools[0].handler() for obs in observations.values()]
    observations = env.step(post_only(env))  # today's posts do not show, so the read is unchanged
    reads += [obs.tools[0].handler() for obs in observations.values()]
    assert all(read is first for read in reads)


def test_a_price_edit_and_a_forum_post_show_in_the_next_observation():
    env = MarketEnv(MarketConfig(n_agents=2, days=2))
    env.reset()
    for _ in range(3):
        observations = env.step(post_only(env))
    before = observations[0].context_text
    env.stocks["A"].record_price(12.34)
    env.forum[1].append("agent 1 (day 1): a late word")
    observations = env._observations()
    assert "Stock A price 12.34." in observations[0].context_text != before
    assert observations[0].context_text == reference_context(env, 0)
    assert observations[1].tools[0].handler().endswith("agent 1 (day 1): a late word")


def test_traders_reading_one_days_forum_archive_one_string():
    from cogsim.backends import CompletionResult, ToolCallRequest
    from cogsim.cognition import Agent
    from cogsim.memory import BufferMemory

    class ForumReader:
        def complete(self, request):
            if request.turns[-1].role == "tool":
                return CompletionResult(content='{"orders": [], "forum_post": "still here"}')
            return CompletionResult(tool_calls=(ToolCallRequest(id="1", name="read_forum", arguments_text="{}"),))

    agents = {aid: Agent(aid, memory=BufferMemory(capacity=50), backend=ForumReader()) for aid in range(3)}
    run_episode(MarketEnv(MarketConfig(n_agents=3, days=2)), agents, max_steps=None)
    reads = [entry.parts for agent in agents.values() for entry in agent.memory.entries if entry.role == "tool_result"]
    day_two = [parts for parts in reads if "still here" in parts[1]]
    assert len(day_two) == 3 * 3 and all(parts[1] is day_two[0][1] for parts in day_two)
    assert day_two[0][0] == "read_forum: "


def test_market_determinism_byte_identical():
    def run():
        env = MarketEnv(MarketConfig(n_agents=6, days=2))
        policy = make_trading_policy(11)
        return run_episode(env, {aid: policy for aid in range(6)}, max_steps=100, seed=11).to_jsonl()

    assert run() == run()


# --- event lines formatted from the order's and trade's fields ----------------------

EDGE_PRICES = st.sampled_from([5e-324, 1e16, 0.1 + 0.2, 1.7976931348623157e308]) | st.floats(
    min_value=5e-324, allow_nan=False, allow_infinity=False
)
BIG_INTS = st.integers(0, 2**70) | st.sampled_from([2**63, 2**64 + 1])


# symbol and side are quoted even though the market validates them: any text stays canonical
WORDS = st.sampled_from([*SYMBOLS, "buy", "sell", 'A"\\', "é\x01\u2028"]) | st.text()


@PROPERTY
@given(st.lists(BIG_INTS, min_size=7, max_size=7), WORDS, WORDS, EDGE_PRICES)
def test_order_and_trade_lines_are_the_canonical_json_of_their_records(ints, symbol, side, price):
    t, day, session, oid, agent, other, quantity = ints
    info = {
        "order_id": oid, "symbol": symbol, "side": side, "limit_price": price,
        "quantity": quantity, "day": day, "session": session,
    }
    expected = canonical_json({"user_id": agent, "current_time": t, "action": "submit_order", "info": info})
    order_info = _order_info(Order(oid, agent, symbol, side, price, quantity), day, session)
    assert EventRecord.encoded(agent, t, "submit_order", order_info).line == expected
    info = {
        "symbol": symbol, "price": price, "quantity": quantity, "buyer": agent,
        "seller": other, "buy_order_id": oid, "sell_order_id": oid + 1,
    }
    expected = canonical_json({"user_id": agent, "current_time": t, "action": "trade", "info": info})
    trade_info = _trade_info(Trade(symbol, price, quantity, agent, other, oid, oid + 1))
    assert EventRecord.encoded(agent, t, "trade", trade_info).line == expected


@PROPERTY
@given(EDGE_PRICES, st.integers(1, 2**66))
def test_a_sessions_every_line_is_the_canonical_json_of_its_record(price, quantity):
    cfg = MarketConfig(n_agents=2, days=1, sessions_per_day=1, initial_cash=1e300, initial_holdings={"A": 2**66, "B": 1})
    env = MarketEnv(cfg)
    env.reset()
    orders = [{"symbol": "A", "side": side, "limit_price": price, "quantity": quantity} for side in ("buy", "sell")]
    env.step({aid: ActionEnvelope(aid, 0, {"orders": [order]}) for aid, order in enumerate(orders)})
    records = env.events.snapshot()
    as_dicts = [{"user_id": r.user_id, "current_time": r.current_time, "action": r.action, "info": r.info} for r in records]
    assert [r.line for r in records] == [canonical_json(d) for d in as_dicts]
    actions = [r.action for r in records]
    assert actions.count("submit_order") + actions.count("reject_order") == 2
    assert ("trade" in actions) == (price * quantity <= cfg.initial_cash)
