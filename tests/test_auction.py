import random

import pytest

from cogsim.envs.auction import (
    AuctionEnv,
    AuctionItem,
    BidderState,
    RoundState,
    Sale,
    auction_metrics,
    resolve_round,
    settle_sale,
)
from cogsim.protocol import ActionEnvelope, run_episode


def item(name="lamp", start=400.0, true=550.0, estimated=700.0):
    return AuctionItem(name=name, starting_price=start, true_value=true, estimated_value=estimated)


def make_items(n, start=100.0):
    return [
        AuctionItem(name=f"item{i}", starting_price=start, true_value=start * 1.2, estimated_value=start * 1.5)
        for i in range(n)
    ]


# --- resolve_round ---------------------------------------------------------------


def test_highest_bid_takes_standing():
    rs = RoundState(item_index=0)
    out = resolve_round({1: 500.0, 2: 600.0}, rs, starting_price=400.0)
    assert isinstance(out, RoundState)
    assert out.standing_bid == (2, 600.0)
    assert out.round_number == 2


def test_all_pass_with_standing_sells():
    rs = RoundState(item_index=0, standing_bid=(2, 600.0))
    out = resolve_round({1: None, 2: None}, rs)
    assert out == Sale(winner=2, price=600.0)


def test_all_pass_fresh_item_unsold():
    rs = RoundState(item_index=3)
    out = resolve_round({1: None, 2: None}, rs)
    assert out == Sale(winner=None, price=None)


def test_tie_goes_to_lowest_agent_id():
    rs = RoundState(item_index=0)
    out = resolve_round({5: 500.0, 2: 500.0, 9: 500.0}, rs, starting_price=400.0)
    assert out.standing_bid == (2, 500.0)


# --- settle_sale ------------------------------------------------------------------


def test_winners_curse_negative_profit():
    bidders = {1: BidderState(budget=20_000.0)}
    settle_sale(Sale(winner=1, price=600.0), bidders, item(true=550.0))
    assert bidders[1].profit == pytest.approx(-50.0)
    assert bidders[1].budget == pytest.approx(19_400.0)
    assert bidders[1].items_won == ["lamp"]


def test_pay_true_value_leaves_profit_flat():
    bidders = {1: BidderState(budget=1_000.0)}
    settle_sale(Sale(winner=1, price=550.0), bidders, item(true=550.0))
    assert bidders[1].profit == 0.0


def test_two_wins_stack_spend():
    bidders = {1: BidderState(budget=1_000.0)}
    settle_sale(Sale(winner=1, price=300.0), bidders, item(name="a", true=550.0))
    settle_sale(Sale(winner=1, price=200.0), bidders, item(name="b", true=550.0))
    assert bidders[1].budget == pytest.approx(500.0)
    assert bidders[1].items_won == ["a", "b"]


# --- policies -------------------------------------------------------------------


def pass_policy(obs):
    return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"bid": None})


def minimal_bidder(obs):
    """Bids the stated minimum only when nobody is standing yet."""
    if "no bids yet" in obs.context_text:
        floor = float(obs.context_text.split("Minimum valid bid: ")[1].split(".\n")[0])
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"bid": floor})
    return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"bid": None})


def make_ladder_bidder(step=100.0):
    """Raises by ``step`` whenever not currently standing, budget permitting."""

    def policy(obs):
        if f"by agent {obs.agent_id}" in obs.context_text:
            return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"bid": None})
        floor = float(obs.context_text.split("Minimum valid bid: ")[1].split(".\n")[0])
        budget = float(obs.context_text.split("Your budget ")[1].split(",")[0])
        if "no bids yet" in obs.context_text:
            amount = floor
        else:
            standing = float(obs.context_text.split("standing bid ")[1].split(" ")[0])
            amount = standing + step
        if amount < floor:
            amount = floor
        if amount > budget:
            return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"bid": None})
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"bid": amount})

    return policy


# --- environment -------------------------------------------------------------------


def test_lone_minimal_bidder_wins_everything_at_start_price():
    items = make_items(4)
    env = AuctionEnv(items, bidder_ids=[0, 1, 2])
    log = run_episode(env, {0: minimal_bidder, 1: pass_policy, 2: pass_policy}, max_steps=10_000)
    assert env.bidders[0].items_won == [i.name for i in items]
    sales = [r for r in log.records if r.action == "sale"]
    assert [r.info["price"] for r in sales] == [i.starting_price for i in items]


def test_all_pass_leaves_items_unsold():
    items = make_items(2)
    env = AuctionEnv(items, bidder_ids=[0, 1])
    log = run_episode(env, {0: pass_policy, 1: pass_policy}, max_steps=10_000)
    assert all(not b.items_won for b in env.bidders.values())
    assert sum(1 for r in log.records if r.action == "unsold") == 2


def simulate_ladder_by_hand(start, step, budgets):
    """Independent oracle for two alternating +step bidders.

    Both bid each round; the tie rule favors agent 0 at the opening price,
    then the non-standing agent raises by ``step`` until their budget caps
    out; the other side then holds and wins at the final standing bid.
    """
    standing_agent, standing = 0, start
    while True:
        challenger = 1 - standing_agent
        nxt = standing + step
        if nxt > budgets[challenger]:
            return standing_agent, standing
        standing_agent, standing = challenger, nxt


def test_two_ladder_bidders_match_hand_simulation():
    budgets = 20_000.0
    items = [AuctionItem(name="big", starting_price=1_000.0, true_value=15_000.0, estimated_value=30_000.0)]
    policy = make_ladder_bidder(100.0)
    env = AuctionEnv(items, bidder_ids=[0, 1], budget=budgets)
    log = run_episode(env, {0: policy, 1: policy}, max_steps=10_000)
    winner, price = simulate_ladder_by_hand(1_000.0, 100.0, {0: budgets, 1: budgets})
    sales = [r for r in log.records if r.action == "sale"]
    assert sales[0].user_id == winner
    assert sales[0].info["price"] == price
    # winner pays within one increment of the loser's exhaustion point
    assert budgets - price <= 100.0


def seeded_random_policy(seed):
    from cogsim.seeds import child_rng

    def policy(obs):
        rng = child_rng(seed, "auction", obs.agent_id, obs.time)
        floor = float(obs.context_text.split("Minimum valid bid: ")[1].split(".\n")[0])
        budget = float(obs.context_text.split("Your budget ")[1].split(",")[0])
        if f"by agent {obs.agent_id}" in obs.context_text or rng.random() < 0.4 or floor > budget:
            body = {"bid": None}
        else:
            body = {"bid": round(min(budget, floor + rng.random() * 50.0), 2)}
        remaining = obs.context_text.split("Remaining items: ")[1].split(".\n")[0].split(", ")
        body["priorities"] = {name: round(rng.random() * 100, 1) for name in remaining}
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body=body)

    return policy


def test_seeded_auctions_hold_invariants():
    for seed in range(25):
        items = make_items(3, start=50.0)
        policy = seeded_random_policy(seed)
        agents = {aid: policy for aid in range(3)}
        env = AuctionEnv(items, bidder_ids=[0, 1, 2], budget=500.0)
        log = run_episode(env, agents, max_steps=10_000, seed=seed)
        # budget safety
        for bidder in env.bidders.values():
            assert bidder.budget >= -1e-9
            spend = 500.0 - bidder.budget
            assert spend <= 500.0 + 1e-9
        # standing bids strictly increase per item; winner pays final standing bid
        standing: dict[str, list[float]] = {}
        for record in log.records:
            if record.action == "standing_bid":
                standing.setdefault(record.info["item"], []).append(record.info["amount"])
            if record.action == "sale":
                seq = standing.get(record.info["item"], [])
                assert seq, "a sale requires at least one standing bid"
                assert record.info["price"] == seq[-1]
        for seq in standing.values():
            assert all(b > a for a, b in zip(seq, seq[1:]))


def test_metrics_from_records_match_the_bidders_state():
    for seed in range(25):
        env = AuctionEnv(make_items(3, start=50.3), bidder_ids=[0, 1, 2], budget=500.7)
        log = run_episode(env, dict.fromkeys(range(3), seeded_random_policy(seed)), max_steps=10_000, seed=seed)
        metrics = auction_metrics(log.records, [0, 1, 2], 500.7)
        for aid, bidder in env.bidders.items():
            assert metrics[f"profit_{aid}"] == bidder.profit
            assert metrics[f"spend_{aid}"] == 500.7 - bidder.budget
            assert metrics[f"items_won_{aid}"] == len(bidder.items_won)
        assert metrics["items_sold"] == sum(len(b.items_won) for b in env.bidders.values())


def test_priority_report_rows():
    items = make_items(2)
    policy = seeded_random_policy(5)
    env = AuctionEnv(items, bidder_ids=[0, 1, 2], budget=500.0)
    log = run_episode(env, {0: policy, 1: policy, 2: policy}, max_steps=10_000)
    reports = [record for record in log.records if record.action == "priorities"]
    # every bidder scores the remaining items in every round, in one record
    assert sorted((r.current_time, r.user_id) for r in reports) == [
        (t, aid) for t in range(log.steps_executed) for aid in (0, 1, 2)
    ]
    for record in reports:
        assert record.info and set(record.info) <= {item.name for item in items}
        assert all(0.0 <= score <= 100.0 for score in record.info.values())


def test_invalid_bids_rejected_and_treated_as_pass():
    def overbidder(obs):
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"bid": 10_000_000.0})

    items = make_items(1)
    env = AuctionEnv(items, bidder_ids=[0, 1], budget=500.0)
    log = run_episode(env, {0: overbidder, 1: pass_policy}, max_steps=10_000)
    rejects = [r for r in log.records if r.action == "reject_bid"]
    assert rejects and rejects[0].info["reason"] == "bid exceeds remaining budget"
    assert not env.bidders[0].items_won


def test_needs_two_bidders():
    with pytest.raises(ValueError):
        AuctionEnv(make_items(1), bidder_ids=[0])


def test_estimated_value_must_cover_true_value():
    with pytest.raises(ValueError):
        AuctionItem(name="x", starting_price=1.0, true_value=10.0, estimated_value=5.0)


def test_true_value_hidden_from_observations():
    items = [AuctionItem(name="x", starting_price=100.0, true_value=123.456, estimated_value=200.0)]
    env = AuctionEnv(items, bidder_ids=[0, 1])
    obs = env.reset()
    for o in obs.values():
        assert "123.456" not in o.context_text
        assert "200.00" in o.context_text
