"""Two-stock trading environment: session clock, call-auction clearing,
accounts with loans and interest, a forum tool, and news injection.

Each environment step is one trading session (three per day). Orders live
for a single session: agents re-decide every session, the book clears once
per session at a single price, and unmatched orders expire. Clearing is a
call auction: among the submitted limit prices, the clearing price is the
one maximizing matched volume, ties broken toward the previous price and
then downward. Matched volume is the maximum quantity pairable without any
agent trading with itself. Agents are paired first: the lowest-id buyer with
demand left takes the lowest-id other seller with supply left (the next buyer
takes it when that buyer is the only seller left); then, if one agent x still
holds both demand and supply, existing pairs z -> y are rerouted into z -> x
and x -> y, lowest y and then lowest z first. Orders fill those agent
budgets with priority to higher-priced buys and lower-priced sells, FIFO
within a price level.
"""

from __future__ import annotations

import datetime as dt
import heapq
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..errors import ConfigError, LoanRefused, UndefinedRatio
from ..protocol import ActionEnvelope, Environment, EventRecord, Observation, ToolSpec, csv_table
from ..schema import ResponseSchema, validate_action

SYMBOLS = ("A", "B")
STYLES = ("conservative", "aggressive", "balanced", "growth")

# user_id stamped on environment-originated log records (session clears)
ENV_ACTOR = -1

DEFAULT_PROFILES = {
    "A": "Established chemical company with a 10-year listing history; revenue has "
    "been slipping but operations are stable under a new, proactive CEO.",
    "B": "Tech company listed 3 years ago with high growth potential but questioned "
    "data reliability and past disclosure issues around its IPO.",
}


@dataclass(frozen=True)
class MarketClock:
    """Session-major clock: (d,1) -> (d,2) -> (d,3) -> (d+1,1)."""

    day: int = 1
    session: int = 1

    def advanced(self, sessions_per_day: int = 3) -> "MarketClock":
        if self.session < sessions_per_day:
            return MarketClock(day=self.day, session=self.session + 1)
        return MarketClock(day=self.day + 1, session=1)


@dataclass
class StockState:
    symbol: str
    price: float
    profile_text: str = ""

    def record_price(self, price: float) -> None:
        if price <= 0:
            raise ValueError("stock price must stay positive")
        self.price = price


@dataclass
class TraderAccount:
    agent: int
    cash: float
    holdings: dict[str, int]
    loan_principal: float = 0.0
    style: str = "balanced"

    def portfolio_value(self, prices: Mapping[str, float]) -> float:
        return self.cash + sum(self.holdings.get(sym, 0) * prices[sym] for sym in prices)


@dataclass(frozen=True)
class Order:
    id: int
    agent: int
    symbol: str
    side: str  # buy | sell
    limit_price: float
    quantity: int


@dataclass(frozen=True)
class Trade:
    symbol: str
    price: float
    quantity: int
    buyer: int
    seller: int
    buy_order_id: int
    sell_order_id: int


@dataclass(frozen=True)
class ForumPost:
    agent: int
    day: int
    text: str


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
) -> tuple[float, list[Trade], list[Order]]:
    """Clear one session's order book at a single price.

    Returns (clearing_price, trades, unmatched). With no crossing volume the
    price stays at ``prev_price`` and everything expires unmatched.
    Unmatched entries carry their residual quantity.
    """
    symbols = {o.symbol for o in book}
    if len(symbols) > 1:
        raise ValueError("clear_session expects a single-symbol book")
    volumes = _volumes(book)
    best_volume = max((volume for _, volume in volumes), default=0)
    if best_volume == 0:
        return prev_price, [], list(book)
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
    unmatched = [replace(o, quantity=remaining[o.id]) for o in book if remaining[o.id] > 0]
    return best_price, trades, unmatched


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
    for record in records:
        if record.action != "submit_order" or record.info.get("symbol") != symbol:
            continue
        day = record.info["day"]
        days.add(day)
        if record.info["side"] == "buy":
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


def session_metrics_csv(records: list[EventRecord]) -> str:
    """Per-session market metrics: the ``clear`` events' info, one row each."""
    rows = ([record.info[column] for column in CLEAR_COLUMNS] for record in records if record.action == "clear")
    return csv_table(CLEAR_COLUMNS, rows)


def market_metrics(initial_prices: Mapping[str, float], records: list[EventRecord]) -> dict[str, float]:
    """Each stock's last clearing price (its initial one if it never cleared) and
    change since ``initial_prices``, then the ``clear`` records' totals."""
    prices = dict(initial_prices)
    totals = dict.fromkeys(("volume", "n_buys", "n_sells"), 0)
    for record in records:
        if record.action == "clear":
            prices[record.info["symbol"]] = record.info["price"]
            for name in totals:
                totals[name] += record.info[name]
    out: dict[str, float] = {}
    for sym in SYMBOLS:
        out[f"price_{sym}"] = prices[sym]
        out[f"price_change_{sym}"] = price_change_rate([initial_prices[sym], prices[sym]])
    return out | {name: float(total) for name, total in totals.items()}


# --- environment ----------------------------------------------------------------


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
    start_date: dt.date = dt.date(2025, 4, 1)
    profiles: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_PROFILES))
    enable_news_tool: bool = False
    news_feed: list[NewsItem] = field(default_factory=list)
    events_by_day: dict[int, str] = field(default_factory=dict)

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
        self.clock = MarketClock(1, 1)
        self.t = 0
        self.stocks = {
            sym: StockState(sym, cfg.initial_prices[sym], cfg.profiles.get(sym, ""))
            for sym in SYMBOLS
        }
        self.accounts = {
            aid: TraderAccount(
                agent=aid,
                cash=cfg.initial_cash,
                holdings=dict(cfg.initial_holdings),
                style=STYLES[aid % len(STYLES)],
            )
            for aid in self.agent_ids
        }
        self.forum: list[ForumPost] = []
        self._next_order_id = 1

    @property
    def current_date(self) -> dt.date:
        return self.config.start_date + dt.timedelta(days=self.clock.day - 1)

    def done(self) -> bool:
        return self.clock.day > self.config.days

    # -- tools -----------------------------------------------------------

    def _read_forum(self) -> str:
        previous_day = self.clock.day - 1
        posts = [p for p in self.forum if p.day == previous_day]
        if not posts:
            return "no forum posts from the previous day"
        return "\n".join(f"agent {p.agent} (day {p.day}): {p.text}" for p in posts)

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

    def _context_for(self, aid: int) -> str:
        cfg = self.config
        account = self.accounts[aid]
        lines = [
            f"Day {self.clock.day} ({self.current_date.isoformat()}), "
            f"session {self.clock.session} of {cfg.sessions_per_day}."
        ]
        for sym in SYMBOLS:
            stock = self.stocks[sym]
            lines.append(f"Stock {sym} price {stock.price:.2f}. {stock.profile_text}")
        holdings = ", ".join(f"{sym}={account.holdings.get(sym, 0)}" for sym in SYMBOLS)
        lines.append(
            f"Your account: cash {account.cash:.2f}, holdings {holdings}, "
            f"loan {account.loan_principal:.2f}, style {account.style}."
        )
        notice = cfg.events_by_day.get(self.clock.day)
        if notice:
            lines.append(f"Today's notice: {notice}")
        return "\n".join(lines)

    # -- transition --------------------------------------------------------------

    def step(self, actions: Mapping[int, ActionEnvelope]) -> dict[int, Observation]:
        if self.done():
            raise RuntimeError("step called on a finished episode")
        cfg = self.config
        day, session = self.clock.day, self.clock.session

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

        books = self._collect_orders(actions)
        for sym in SYMBOLS:
            self._clear_symbol(sym, books[sym])

        for aid in sorted(actions):
            post = actions[aid].body.get("forum_post")
            if post:
                self.forum.append(ForumPost(agent=aid, day=day, text=str(post)))
                self.events.append(aid, self.t, "forum_post", {"day": day, "text": str(post)})

        self.clock = self.clock.advanced(cfg.sessions_per_day)
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

    def _collect_orders(self, actions: Mapping[int, ActionEnvelope]) -> dict[str, list[Order]]:
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
                    id=self._next_order_id,
                    agent=aid,
                    symbol=raw["symbol"],
                    side=raw["side"],
                    limit_price=float(raw["limit_price"]),
                    quantity=int(raw["quantity"]),
                )
                self._next_order_id += 1
                if order.side == "buy":
                    reserved_cash[aid] += order.limit_price * order.quantity
                else:
                    reserved_shares[(aid, order.symbol)] += order.quantity
                books[order.symbol].append(order)
                self.events.append(
                    aid, self.t, "submit_order",
                    {
                        "order_id": order.id,
                        "symbol": order.symbol,
                        "side": order.side,
                        "limit_price": order.limit_price,
                        "quantity": order.quantity,
                        "day": self.clock.day,
                        "session": self.clock.session,
                    },
                )
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
            needed = raw["limit_price"] * raw["quantity"]
            if reserved_cash[aid] + needed > account.cash + 1e-9:
                return "insufficient cash"
        else:
            key = (aid, raw["symbol"])
            if reserved_shares[key] + raw["quantity"] > account.holdings.get(raw["symbol"], 0):
                return "insufficient holdings"
        return None

    def _clear_symbol(self, sym: str, book: list[Order]) -> None:
        stock = self.stocks[sym]
        price, trades, _unmatched = clear_session(book, stock.price)
        settle(trades, self.accounts)
        for trade in trades:
            self.events.append(trade.buyer, self.t, "trade", vars(trade))
        stock.record_price(price)
        self.events.append(
            ENV_ACTOR, self.t, "clear",
            {
                "day": self.clock.day,
                "session": self.clock.session,
                "symbol": sym,
                "price": price,
                "volume": sum(t.quantity for t in trades),
                "n_buys": sum(1 for o in book if o.side == "buy"),
                "n_sells": sum(1 for o in book if o.side == "sell"),
            },
        )
