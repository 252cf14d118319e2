"""Open ascending-price auction environment: sequential items, round-based
bidding, budget enforcement, profit accounting, and per-round priority
scores kept on the environment's ``report``.

One environment step is one bidding round. A round with at least one valid
bid raises the standing bid (ties to the lowest agent id) and re-invites
everyone; a round with no valid bid closes the item, selling to the
standing bidder or discarding it unsold. Items show bidders an
intentionally optimistic estimated value; profit is booked against the
hidden true value, so overpaying realizes the winner's curse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..errors import ConfigError
from ..protocol import ActionEnvelope, Environment, EventRecord, Observation
from ..schema import ResponseSchema

DEFAULT_BUDGET = 20_000.0
MIN_INCREMENT = 1.0


@dataclass(frozen=True)
class AuctionItem:
    name: str
    starting_price: float
    true_value: float
    estimated_value: float

    def __post_init__(self):
        if self.starting_price <= 0 or self.true_value <= 0:
            raise ValueError("prices must be positive")
        if self.estimated_value < self.true_value:
            raise ValueError("estimated_value must be >= true_value")


@dataclass
class BidderState:
    agent: int
    budget: float
    items_won: list[str] = field(default_factory=list)
    profit: float = 0.0
    objective: str = "profit_first"  # profit_first | item_first


@dataclass
class RoundState:
    item_index: int
    standing_bid: tuple[int, float] | None = None
    round_number: int = 1


@dataclass(frozen=True)
class Sale:
    item_index: int
    winner: int | None  # None = unsold
    price: float | None


@dataclass
class PriorityReport:
    """Self-reported priority scores: one row per (round, agent, remaining item)."""

    rows: list[tuple[int, int, str, float]] = field(default_factory=list)

    def add(self, round_no: int, agent: int, item: str, score: float) -> None:
        self.rows.append((round_no, agent, item, score))


def resolve_round(
    bids: Mapping[int, float | None],
    round_state: RoundState,
    min_increment: float = MIN_INCREMENT,
    starting_price: float = 0.0,
) -> RoundState | Sale:
    """Resolve one bidding round; bids must already be validated.

    No bids closes the item: a sale to the standing bidder, or unsold if
    nobody ever bid. Otherwise the highest bid (ties to the lowest agent
    id) becomes the standing bid and a fresh round begins.
    """
    live = {aid: amount for aid, amount in bids.items() if amount is not None}
    if not live:
        if round_state.standing_bid is None:
            return Sale(item_index=round_state.item_index, winner=None, price=None)
        winner, price = round_state.standing_bid
        return Sale(item_index=round_state.item_index, winner=winner, price=price)
    best_agent = min(live, key=lambda aid: (-live[aid], aid))
    best_amount = live[best_agent]
    floor = (
        round_state.standing_bid[1] + min_increment
        if round_state.standing_bid is not None
        else starting_price
    )
    if best_amount < floor:
        raise ValueError("resolve_round received a bid below the current floor")
    return RoundState(
        item_index=round_state.item_index,
        standing_bid=(best_agent, best_amount),
        round_number=round_state.round_number + 1,
    )


def settle_sale(sale: Sale, bidders: dict[int, BidderState], item: AuctionItem) -> dict[int, BidderState]:
    """Book a completed sale: budget down, item won, profit vs true value."""
    if sale.winner is None:
        return bidders
    state = bidders[sale.winner]
    if sale.price > state.budget + 1e-9:
        raise AssertionError("sale price exceeds winner budget")
    state.budget -= sale.price
    state.items_won.append(item.name)
    state.profit += item.true_value - sale.price
    return bidders


BID_SCHEMA = ResponseSchema.of(bid="number?", priorities="object?")


class AuctionEnv(Environment):
    """Sequential English auctions over a fixed item list; one step per round."""

    name = "auction"
    schema = BID_SCHEMA

    def __init__(
        self,
        items: list[AuctionItem],
        bidder_ids: list[int],
        budget: float = DEFAULT_BUDGET,
        min_increment: float = MIN_INCREMENT,
        objectives: Mapping[int, str] | None = None,
    ):
        super().__init__()
        if len(bidder_ids) < 2:
            raise ValueError("an auction needs at least two bidders")
        if min_increment <= 0:  # a repeated bid would keep the item open for ever
            raise ConfigError("must be > 0", field="min_increment")
        self.items = list(items)
        self.agent_ids = sorted(bidder_ids)
        self.initial_budget = budget
        self.min_increment = min_increment
        self.objectives = dict(objectives or {})
        self._setup()

    def _setup(self):
        self.bidders = {
            aid: BidderState(agent=aid, budget=self.initial_budget, objective=self.objectives.get(aid, "profit_first"))
            for aid in self.agent_ids
        }
        self.round_state = RoundState(item_index=0)
        self.report = PriorityReport()
        self.global_round = 0
        self.t = 0

    def done(self) -> bool:
        return self.round_state.item_index >= len(self.items)

    def _remaining_items(self) -> list[AuctionItem]:
        return self.items[self.round_state.item_index:]

    def _context_for(self, aid: int) -> str:
        item = self.items[self.round_state.item_index]
        state = self.bidders[aid]
        standing = (
            f"standing bid {self.round_state.standing_bid[1]:.2f} by agent {self.round_state.standing_bid[0]}"
            if self.round_state.standing_bid
            else "no bids yet"
        )
        remaining = ", ".join(i.name for i in self._remaining_items())
        return (
            f"Auction for {item.name} (round {self.round_state.round_number}): "
            f"starting price {item.starting_price:.2f}, estimated value {item.estimated_value:.2f}, {standing}.\n"
            f"Minimum valid bid: {self._floor():.2f}.\n"
            f"Your budget {state.budget:.2f}, profit so far {state.profit:.2f}, "
            f"items won: {state.items_won or 'none'}. Objective: {state.objective}.\n"
            f"Remaining items: {remaining}.\n"
            f"Bid null to pass; include priorities as a map of remaining item name to a 0-100 score."
        )

    def _final_context(self, aid: int) -> str:
        state = self.bidders[aid]
        return (
            f"Auction over. Final profit {state.profit:.2f}, budget left {state.budget:.2f}, "
            f"items won: {state.items_won or 'none'}."
        )

    def _floor(self) -> float:
        item = self.items[self.round_state.item_index]
        if self.round_state.standing_bid is None:
            return item.starting_price
        return self.round_state.standing_bid[1] + self.min_increment

    def step(self, actions: Mapping[int, ActionEnvelope]) -> dict[int, Observation]:
        if self.done():
            raise RuntimeError("step called on a finished episode")
        item = self.items[self.round_state.item_index]
        self.global_round += 1

        bids: dict[int, float | None] = {}
        for aid in sorted(actions):
            body = actions[aid].body
            self._capture_priorities(aid, body.get("priorities"))
            bids[aid] = self._validated_bid(aid, body.get("bid"))

        outcome = resolve_round(bids, self.round_state, self.min_increment, item.starting_price)
        if isinstance(outcome, Sale):
            self._close_item(outcome, item)
        else:
            self.round_state = outcome
            winner, amount = outcome.standing_bid
            self.events.append(winner, self.t, "standing_bid", {"item": item.name, "amount": amount})
        self.t += 1
        return self._observations()

    def _capture_priorities(self, aid: int, priorities: Any) -> None:
        if not isinstance(priorities, dict):
            return
        remaining = {i.name for i in self._remaining_items()}
        for item_name in sorted(priorities):
            score = priorities[item_name]
            if item_name in remaining and isinstance(score, (int, float)) and not isinstance(score, bool):
                self.report.add(self.global_round, aid, item_name, max(0.0, min(100.0, float(score))))

    def _validated_bid(self, aid: int, bid: Any) -> float | None:
        if bid is None:
            return None
        if not isinstance(bid, (int, float)) or isinstance(bid, bool):
            self.events.append(aid, self.t, "reject_bid", {"reason": "bid must be a number", "bid": str(bid)})
            return None
        amount = float(bid)
        if amount < self._floor():
            self.events.append(
                aid, self.t, "reject_bid",
                {"reason": f"bid below minimum {self._floor():.2f}", "bid": amount},
            )
            return None
        if amount > self.bidders[aid].budget + 1e-9:
            self.events.append(
                aid, self.t, "reject_bid",
                {"reason": "bid exceeds remaining budget", "bid": amount},
            )
            return None
        self.events.append(aid, self.t, "bid", {"item": self.items[self.round_state.item_index].name, "amount": amount})
        return amount

    def _close_item(self, sale: Sale, item: AuctionItem) -> None:
        if sale.winner is None:
            self.events.append(-1, self.t, "unsold", {"item": item.name})
        else:
            settle_sale(sale, self.bidders, item)
            self.events.append(
                sale.winner, self.t, "sale",
                {"item": item.name, "price": sale.price, "profit_delta": item.true_value - sale.price},
            )
        self.round_state = RoundState(item_index=self.round_state.item_index + 1)


def auction_metrics(records: list[EventRecord], bidder_ids: Iterable[int], budget: float) -> dict[str, float]:
    """Each bidder's profit, items won and spend, then the items sold, from the ``sale``
    records; spend is ``budget`` less what each sale price in turn left of it."""
    sales = [record for record in records if record.action == "sale"]
    out: dict[str, float] = {}
    for aid in bidder_ids:
        won = [sale.info for sale in sales if sale.user_id == aid]
        left = budget
        for info in won:
            left -= info["price"]
        out[f"profit_{aid}"] = sum((info["profit_delta"] for info in won), 0.0)
        out[f"items_won_{aid}"] = float(len(won))
        out[f"spend_{aid}"] = budget - left
    out["items_sold"] = float(len(sales))
    return out
