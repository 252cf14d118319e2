"""Two-stock trading environment: session clock, call-auction clearing,
accounts with loans and interest, a forum tool, and news injection.

Each environment step is one trading session (three per day by default), and
the day and session derive from the session count ``t``. Orders live for a
single session: agents re-decide every session, the book clears once per
session at a single price, and unmatched orders expire. Clearing is a call
auction: among the submitted limit prices, the clearing price is the one
maximizing matched volume, ties broken toward the previous price and then
downward. Matched volume is the maximum quantity pairable without any agent
trading with itself. Agents are paired first: the lowest-id buyer with
demand left takes the lowest-id other seller with supply left (the next
buyer takes it when that buyer is the only seller left); then, if one agent
x still holds both demand and supply, existing pairs z -> y are rerouted
into z -> x and x -> y, lowest y and then lowest z first. Orders fill those
agent budgets with priority to higher-priced buys and lower-priced sells,
FIFO within a price level.

The ``info`` of each ``submit_order`` and ``trade`` event is formatted from its
order's or trade's fields, whose types the market fixes (int ids, times and
quantities, finite float prices, validated str symbol and side), and logged
through ``EventLog.append_encoded``; ``tests/test_market.py`` pins each line to
the ``canonical_json`` of its record.
"""

from __future__ import annotations

import datetime as dt
import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii as quote
from typing import Any, Mapping, NamedTuple

from ..errors import ConfigError, LoanRefused, UndefinedRatio
from ..protocol import ENV_ACTOR, ActionEnvelope, Environment, EventRecord, Observation, ToolSpec
from ..schema import ResponseSchema, validate_action

SYMBOLS = ("A", "B")
STYLES = ("conservative", "aggressive", "balanced", "growth")

# the calendar date of day 1
START_DATE = dt.date(2025, 4, 1)

DEFAULT_PROFILES = {
    "A": "Established chemical company with a 10-year listing history; revenue has "
    "been slipping but operations are stable under a new, proactive CEO.",
    "B": "Tech company listed 3 years ago with high growth potential but questioned "
    "data reliability and past disclosure issues around its IPO.",
}


@dataclass
class StockState:
    price: float
    profile_text: str = ""

    def record_price(self, price: float) -> None:
        if price <= 0:
            raise ValueError("stock price must stay positive")
        self.price = price


@dataclass
class TraderAccount:
    cash: float
    holdings: dict[str, int]
    loan_principal: float = 0.0
    style: str = "balanced"

    def portfolio_value(self, prices: Mapping[str, float]) -> float:
        return self.cash + sum(self.holdings.get(sym, 0) * prices[sym] for sym in prices)


class Order(NamedTuple):
    id: int
    agent: int
    symbol: str
    side: str  # buy | sell
    limit_price: float
    quantity: int


class Trade(NamedTuple):
    symbol: str
    price: float
    quantity: int
    buyer: int
    seller: int
    buy_order_id: int
    sell_order_id: int


def _order_info(order: Order, day: int, session: int) -> str:
    """The ``canonical_json`` of ``order``'s ``submit_order`` info, formatted from its fields."""
    oid, _, symbol, side, price, quantity = order
    return (
        f'{{"day":{day},"limit_price":{price!r},"order_id":{oid},"quantity":{quantity},'
        f'"session":{session},"side":{quote(side)},"symbol":{quote(symbol)}}}'
    )


def _trade_info(trade: Trade) -> str:
    """The ``canonical_json`` of ``trade``'s ``trade`` info, formatted from its fields."""
    symbol, price, quantity, buyer, seller, buy_id, sell_id = trade
    return (
        f'{{"buy_order_id":{buy_id},"buyer":{buyer},"price":{price!r},"quantity":{quantity},'
        f'"sell_order_id":{sell_id},"seller":{seller},"symbol":{quote(symbol)}}}'
    )


@dataclass(frozen=True)
class NewsItem:
    date: dt.date
    headline: str
    body: str = ""


def check_news_feed(feed: list[NewsItem]) -> None:
    """Raise ``ValueError`` if two items share a date: the news tool serves one item a day."""
    seen = set()
    for item in feed:
        if item.date in seen:
            raise ValueError(f"duplicate news date {item.date}")
        seen.add(item.date)


def fetch_news_tool(feed: list[NewsItem], current_date: dt.date) -> str:
    """Return the feed item dated exactly ``current_date``, or a no-news note."""
    for item in feed:
        if item.date == current_date:
            return f"{item.headline}\n{item.body}".strip()
    return "no news available"


# --- call-auction clearing ---------------------------------------------------


def _max_flow(demand: dict[int, int], supply: dict[int, int]) -> dict[tuple[int, int], int]:
    """Max quantity routable from buy-agents to sell-agents with no self-pair.

    Returns (buyer, seller) -> quantity in two phases, the augmenting paths
    an Edmonds-Karp with id-sorted neighbours finds, in its order:

    1. Pair the lowest-id buyer with demand left with the lowest-id other
       seller with supply left; if that buyer is the only seller left, the
       next buyer with demand takes its supply instead. Each pairing moves
       the smaller of the two remainders.
    2. When one agent x is left with both demand and supply, take the pair
       z -> y (lowest y, then lowest z, neither x) and move
       min(x's demand, x's supply, f[z, y]) of it onto z -> x and x -> y,
       until x runs out or no such pair is left.
    """
    need = {a: q for a, q in demand.items() if q > 0}
    have = {a: q for a, q in supply.items() if q > 0}
    buyers = sorted(need, reverse=True)  # stacks: lowest id last
    sellers = sorted(have, reverse=True)
    flow: dict[tuple[int, int], int] = defaultdict(int)
    while buyers and sellers:
        bi = si = -1
        if buyers[-1] == sellers[-1]:
            if len(sellers) > 1:
                si = -2
            elif len(buyers) > 1:
                bi = -2
            else:
                break
        b, s = buyers[bi], sellers[si]
        q = min(need[b], have[s])
        flow[b, s] += q
        need[b] -= q
        have[s] -= q
        if not need[b]:
            buyers.pop(bi)
        if not have[s]:
            sellers.pop(si)
    if buyers and sellers:
        x = buyers[0]
        left = min(need[x], have[x])
        for y, z in sorted((s, b) for b, s in flow if x not in (b, s)):
            q = min(left, flow[z, y])
            flow[z, y] -= q
            flow[z, x] += q
            flow[x, y] += q
            left -= q
            if not left:
                break
    return {pair: q for pair, q in sorted(flow.items()) if q}


def _eligible(book: list[Order], price: float) -> tuple[list[Order], list[Order]]:
    buys = sorted(
        (o for o in book if o.side == "buy" and o.limit_price >= price),
        key=lambda o: (-o.limit_price, o.id),
    )
    sells = sorted(
        (o for o in book if o.side == "sell" and o.limit_price <= price),
        key=lambda o: (o.limit_price, o.id),
    )
    return buys, sells


def _volumes(book: list[Order]) -> list[tuple[float, int]]:
    """(price, max self-trade-avoiding volume) at each limit price, ascending.

    For per-agent demand d_a (buys at or above p) and supply s_a (sells at or
    below p) the maximum flow on the complete-minus-diagonal bipartite graph
    is V(p) = min(D, S, D + S - max_a(d_a + s_a)) (Gale 1957). One ascending
    sweep adds each sell at its limit and drops each buy just above its
    limit, keeping d_a + s_a per agent and its maximum in a lazy heap.
    """
    prices = sorted({o.limit_price for o in book})
    rank = {p: k for k, p in enumerate(prices)}
    shifts: dict[int, list[tuple[int, int, int]]] = defaultdict(list)  # rank -> (agent, d_a change, s_a change)
    held: dict[int, int] = defaultdict(int)
    total_d = total_s = 0
    for o in book:
        if o.side == "buy":
            held[o.agent] += o.quantity
            total_d += o.quantity
            shifts[rank[o.limit_price] + 1].append((o.agent, -o.quantity, 0))
        else:
            shifts[rank[o.limit_price]].append((o.agent, 0, o.quantity))
    heap = [(-q, a) for a, q in held.items()]
    heapq.heapify(heap)
    volumes = []
    for k, price in enumerate(prices):
        for agent, dd, ds in shifts[k]:
            total_d, total_s = total_d + dd, total_s + ds
            held[agent] += dd + ds
            heapq.heappush(heap, (-held[agent], agent))
        while -heap[0][0] != held[heap[0][1]]:
            heapq.heappop(heap)
        volumes.append((price, min(total_d, total_s, total_d + total_s + heap[0][0])))
    return volumes


def clear_session(
    book: list[Order], prev_price: float
) -> tuple[float, list[Trade], dict[int, int]]:
    """Clear one session's order book at a single price.

    Returns (clearing_price, trades, remaining), where ``remaining`` maps each
    order id to its unfilled quantity. With no crossing volume the price stays
    at ``prev_price`` and every order expires unfilled.
    """
    symbols = {o.symbol for o in book}
    if len(symbols) > 1:
        raise ValueError("clear_session expects a single-symbol book")
    volumes = _volumes(book)
    best_volume = max((volume for _, volume in volumes), default=0)
    if best_volume == 0:
        return prev_price, [], {o.id: o.quantity for o in book}
    best_price = min((p for p, volume in volumes if volume == best_volume), key=lambda p: (abs(p - prev_price), p))

    buys, sells = _eligible(book, best_price)
    demand: dict[int, int] = defaultdict(int)
    supply: dict[int, int] = defaultdict(int)
    for o in buys:
        demand[o.agent] += o.quantity
    for o in sells:
        supply[o.agent] += o.quantity
    budgets = _max_flow(demand, supply)
    if sum(budgets.values()) != best_volume:
        raise AssertionError("flow decomposition fell short of the clearing volume")

    # each buyer scans, in priority order, only the sells it holds a budget with
    buyers_of: dict[int, list[int]] = defaultdict(list)
    for buyer, seller in budgets:
        buyers_of[seller].append(buyer)
    partners: dict[int, list[Order]] = defaultdict(list)
    for sell in sells:
        for buyer in buyers_of[sell.agent]:
            partners[buyer].append(sell)
    remaining = {o.id: o.quantity for o in book}
    trades: list[Trade] = []
    for buy in buys:
        for sell in partners[buy.agent]:
            if remaining[buy.id] == 0:
                break
            pair = (buy.agent, sell.agent)
            quota = budgets[pair]
            if quota == 0 or remaining[sell.id] == 0:
                continue
            qty = min(remaining[buy.id], remaining[sell.id], quota)
            budgets[pair] = quota - qty
            remaining[buy.id] -= qty
            remaining[sell.id] -= qty
            trades.append(Trade(buy.symbol, best_price, qty, buy.agent, sell.agent, buy.id, sell.id))
    return best_price, trades, remaining


def settle(trades: list[Trade], accounts: dict[int, TraderAccount]) -> dict[int, TraderAccount]:
    """Apply trades double-entry: cash and shares move between the two parties."""
    for trade in trades:
        buyer = accounts[trade.buyer]
        seller = accounts[trade.seller]
        amount = trade.price * trade.quantity
        buyer.cash -= amount
        buyer.holdings[trade.symbol] = buyer.holdings.get(trade.symbol, 0) + trade.quantity
        seller.cash += amount
        seller.holdings[trade.symbol] = seller.holdings.get(trade.symbol, 0) - trade.quantity
        if buyer.cash < -1e-9 or seller.holdings[trade.symbol] < 0:
            raise AssertionError("settlement violated account constraints")
    return accounts


def _grant_loan(
    accounts: dict[int, TraderAccount], aid: int, amount: float, loan_to_value: float, prices: Mapping[str, float]
) -> None:
    """Lend ``amount`` to ``aid``, or raise :class:`LoanRefused` if its total
    principal would exceed ``loan_to_value`` times its pre-loan
    mark-to-market portfolio value.
    """
    account = accounts[aid]
    cap = loan_to_value * account.portfolio_value(prices)
    if account.loan_principal + amount > cap + 1e-9:
        raise LoanRefused(f"agent {aid}: principal {account.loan_principal + amount:.2f} would exceed cap {cap:.2f}")
    account.cash += amount
    account.loan_principal += amount


def accrue_and_lend(accounts: dict[int, TraderAccount], interest_rate: float) -> None:
    """Daily interest: grow every loan principal by ``interest_rate``.

    It only accrues; :meth:`MarketEnv._daily_loans` grants the day's loans. The
    name stays because the benchmark's tracer reports
    ``envs.market.accrue_and_lend.self_s`` under it.
    """
    for aid in sorted(accounts):
        accounts[aid].loan_principal *= 1.0 + interest_rate


def price_change_rate(history: list[float]) -> float:
    """(last - first) / first over a price series; 0.0 for a single price."""
    if not history:
        raise ValueError("need at least one price")
    return (history[-1] - history[0]) / history[0]


def buy_sell_ratio(records: list[EventRecord], symbol: str) -> float:
    """Mean over days of (#submitted buys / #submitted sells) for one stock."""
    buys: dict[int, int] = defaultdict(int)
    sells: dict[int, int] = defaultdict(int)
    days = set()
    for info in (record.info for record in records if record.action == "submit_order"):
        if info.get("symbol") != symbol:
            continue
        day = info["day"]
        days.add(day)
        if info["side"] == "buy":
            buys[day] += 1
        else:
            sells[day] += 1
    if not days:
        raise UndefinedRatio(f"no orders for {symbol}")
    ratios = []
    for day in sorted(days):
        if sells[day] == 0:
            raise UndefinedRatio(f"day {day} has zero sell orders for {symbol}")
        ratios.append(buys[day] / sells[day])
    return sum(ratios) / len(ratios)


CLEAR_COLUMNS = ("day", "session", "symbol", "price", "volume", "n_buys", "n_sells")


def market_metrics(initial_prices: Mapping[str, float], records: list[EventRecord]) -> dict[str, float]:
    """Each stock's last clearing price (its initial one if it never cleared) and
    change since ``initial_prices``, then the ``clear`` records' totals."""
    prices = dict(initial_prices)
    totals = dict.fromkeys(("volume", "n_buys", "n_sells"), 0)
    for info in (record.info for record in records if record.action == "clear"):
        prices[info["symbol"]] = info["price"]
        for name in totals:
            totals[name] += info[name]
    out: dict[str, float] = {}
    for sym in SYMBOLS:
        out[f"price_{sym}"] = prices[sym]
        out[f"price_change_{sym}"] = price_change_rate([initial_prices[sym], prices[sym]])
    return out | {name: float(total) for name, total in totals.items()}


# --- environment ----------------------------------------------------------------


def _session_head(day: int, date: dt.date, session: int, sessions: int, stocks: tuple[tuple[str, float, str], ...]) -> str:
    lines = [f"Day {day} ({date.isoformat()}), session {session} of {sessions}.\n"]
    lines += (f"Stock {sym} price {price:.2f}. {profile}\n" for sym, price, profile in stocks)
    return "".join(lines)


def _forum_text(lines: tuple[str, ...]) -> str:
    return "\n".join(lines) if lines else "no forum posts from the previous day"


@dataclass
class MarketConfig:
    n_agents: int = 50
    days: int = field(default=10, metadata={"min": 0})
    sessions_per_day: int = field(default=3, metadata={"min": 1})
    initial_cash: float = field(default=100_000.0, metadata={"min": 0})
    initial_prices: dict[str, float] = field(default_factory=lambda: {"A": 30.0, "B": 45.0})
    initial_holdings: dict[str, int] = field(default_factory=lambda: {"A": 100, "B": 100})
    interest_rate: float = field(default=0.01, metadata={"min": 0})  # per day, on loan principal
    loan_to_value: float = field(default=0.5, metadata={"min": 0})
    profiles: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_PROFILES))
    enable_news_tool: bool = False
    news_feed: list[NewsItem] = field(default_factory=list)

    def __post_init__(self):
        for name in ("initial_prices", "initial_holdings"):
            if set(getattr(self, name)) != set(SYMBOLS):
                raise ConfigError(f"must have exactly the symbols {', '.join(SYMBOLS)}", field=name)
        if min(self.initial_prices.values()) <= 0:
            raise ConfigError("every price must be > 0", field="initial_prices")


ACTION_SCHEMA = ResponseSchema.of(loan_request="number?", orders="array", forum_post="string?")

ORDER_ITEM_SCHEMA = ResponseSchema.of(
    symbol="string", side="string", limit_price="number", quantity="integer"
)


class MarketEnv(Environment):
    """Session-stepped two-stock market; one ``step`` call per session."""

    name = "market"
    schema = ACTION_SCHEMA

    def __init__(self, config: MarketConfig | None = None):
        super().__init__()
        self.config = config or MarketConfig()
        self.agent_ids = list(range(self.config.n_agents))
        self._setup()

    def _setup(self):
        cfg = self.config
        self.t = 0
        self.stocks = {
            sym: StockState(cfg.initial_prices[sym], cfg.profiles.get(sym, ""))
            for sym in SYMBOLS
        }
        self.accounts = {
            aid: TraderAccount(
                cash=cfg.initial_cash,
                holdings=dict(cfg.initial_holdings),
                style=STYLES[aid % len(STYLES)],
            )
            for aid in self.agent_ids
        }
        self.forum: dict[int, list[str]] = {}  # day -> that day's post lines, in posting order
        self._next_order_id = 1
        self._head, self._forum_text = (
            lru_cache(maxsize=None)(part) for part in (_session_head, _forum_text)
        )

    @property
    def day(self) -> int:
        """The day of session ``t``, from 1: (d, 1) -> ... -> (d, sessions_per_day) -> (d + 1, 1)."""
        return self.t // self.config.sessions_per_day + 1

    @property
    def session(self) -> int:
        """The session of ``t`` within its day, from 1."""
        return self.t % self.config.sessions_per_day + 1

    @property
    def current_date(self) -> dt.date:
        return START_DATE + dt.timedelta(days=self.day - 1)

    def done(self) -> bool:
        return self.day > self.config.days

    # -- tools -----------------------------------------------------------

    def _read_forum(self) -> str:
        """The previous day's posts, built once for every reader that day."""
        return self._forum_text(tuple(self.forum.get(self.day - 1, ())))

    def _tools(self) -> list[ToolSpec]:
        tools = [
            ToolSpec(
                name="read_forum",
                description="Read market forum comments posted the previous day.",
                parameter_schema=ResponseSchema.of(),
                handler=self._read_forum,
            )
        ]
        if self.config.enable_news_tool:
            tools.append(
                ToolSpec(
                    name="fetch_news",
                    description="Fetch today's market news headline.",
                    parameter_schema=ResponseSchema.of(),
                    handler=lambda: fetch_news_tool(self.config.news_feed, self.current_date),
                )
            )
        return tools

    # -- observations -------------------------------------------------------

    def _context_for(self, aid: int) -> tuple[str, str]:
        """Two parts: the session head (the day, the date, the session and the
        stock lines) and the trader's account line. Only the account line is
        new for each trader; the head is shared, cached by the values it renders."""
        cfg = self.config
        stocks = tuple((sym, self.stocks[sym].price, self.stocks[sym].profile_text) for sym in SYMBOLS)
        account = self.accounts[aid]
        holdings = ", ".join(f"{sym}={account.holdings.get(sym, 0)}" for sym in SYMBOLS)
        return (
            self._head(self.day, self.current_date, self.session, cfg.sessions_per_day, stocks),
            f"Your account: cash {account.cash:.2f}, holdings {holdings}, "
            f"loan {account.loan_principal:.2f}, style {account.style}.",
        )

    # -- transition --------------------------------------------------------------

    def step(self, actions: Mapping[int, ActionEnvelope]) -> dict[int, Observation]:
        if self.done():
            raise RuntimeError("step called on a finished episode")
        day, session = self.day, self.session

        if session == 1:
            self._daily_loans(actions)
        else:
            for aid in sorted(actions):
                request = actions[aid].body.get("loan_request")
                if request:
                    self.events.append(
                        aid, self.t, "reject_loan",
                        {"reason": "loans are granted at the first session of the day", "requested": request},
                    )

        books = self._collect_orders(actions, day, session)
        for sym in SYMBOLS:
            self._clear_symbol(sym, books[sym], day, session)

        for aid in sorted(actions):
            post = actions[aid].body.get("forum_post")
            if post:
                self.forum.setdefault(day, []).append(f"agent {aid} (day {day}): {post}")
                self.events.append(aid, self.t, "forum_post", {"day": day, "text": str(post)})

        self.t += 1
        return self._observations()

    def _daily_loans(self, actions: Mapping[int, ActionEnvelope]) -> None:
        """Accrue the day's interest, then grant each positive ``loan_request`` in
        ascending agent id, logging a ``loan``, or a ``reject_loan`` over the cap."""
        accrue_and_lend(self.accounts, self.config.interest_rate)
        prices = {sym: self.stocks[sym].price for sym in SYMBOLS}
        for aid in sorted(actions):
            amount = actions[aid].body.get("loan_request")
            if not (isinstance(amount, (int, float)) and amount > 0):
                continue
            amount = float(amount)
            try:
                _grant_loan(self.accounts, aid, amount, self.config.loan_to_value, prices)
            except LoanRefused as exc:
                self.events.append(aid, self.t, "reject_loan", {"reason": str(exc), "requested": amount})
                continue
            self.events.append(aid, self.t, "loan", {"amount": amount, "principal": self.accounts[aid].loan_principal})

    def _collect_orders(self, actions: Mapping[int, ActionEnvelope], day: int, session: int) -> dict[str, list[Order]]:
        books: dict[str, list[Order]] = {sym: [] for sym in SYMBOLS}
        reserved_cash: dict[int, float] = defaultdict(float)
        reserved_shares: dict[tuple[int, str], int] = defaultdict(int)
        for aid in sorted(actions):
            raw_orders = actions[aid].body.get("orders") or []
            for raw in raw_orders:
                reason = self._order_problem(aid, raw, reserved_cash, reserved_shares)
                if reason:
                    self.events.append(aid, self.t, "reject_order", {"reason": reason, "order": raw})
                    continue
                order = Order(
                    self._next_order_id, aid, raw["symbol"], raw["side"], float(raw["limit_price"]), int(raw["quantity"])
                )
                self._next_order_id += 1
                if order.side == "buy":
                    reserved_cash[aid] += order.limit_price * order.quantity
                else:
                    reserved_shares[(aid, order.symbol)] += order.quantity
                books[order.symbol].append(order)
                self.events.append_encoded(aid, self.t, "submit_order", _order_info(order, day, session))
        return books

    def _order_problem(
        self,
        aid: int,
        raw: Any,
        reserved_cash: dict[int, float],
        reserved_shares: dict[tuple[int, str], int],
    ) -> str | None:
        if not isinstance(raw, dict):
            return "order must be an object"
        violations = validate_action(raw, ORDER_ITEM_SCHEMA)
        if violations:
            return "; ".join(violations)
        if raw["symbol"] not in SYMBOLS:
            return f"unknown symbol {raw['symbol']!r}"
        if raw["side"] not in ("buy", "sell"):
            return f"unknown side {raw['side']!r}"
        if raw["limit_price"] <= 0:
            return "limit_price must be positive"
        if raw["quantity"] <= 0:
            return "quantity must be positive"
        account = self.accounts[aid]
        if raw["side"] == "buy":
            needed = float(raw["limit_price"]) * raw["quantity"]  # a float: a cost past its range is inf, and refused
            if reserved_cash[aid] + needed > account.cash + 1e-9:
                return "insufficient cash"
        else:
            key = (aid, raw["symbol"])
            if reserved_shares[key] + raw["quantity"] > account.holdings.get(raw["symbol"], 0):
                return "insufficient holdings"
        return None

    def _clear_symbol(self, sym: str, book: list[Order], day: int, session: int) -> None:
        stock = self.stocks[sym]
        price, trades, _ = clear_session(book, stock.price)
        settle(trades, self.accounts)
        for trade in trades:
            self.events.append_encoded(trade.buyer, self.t, "trade", _trade_info(trade))
        stock.record_price(price)
        self.events.append(
            ENV_ACTOR, self.t, "clear",
            {
                "day": day,
                "session": session,
                "symbol": sym,
                "price": price,
                "volume": sum(t.quantity for t in trades),
                "n_buys": sum(1 for o in book if o.side == "buy"),
                "n_sells": sum(1 for o in book if o.side == "sell"),
            },
        )
