import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogsim.envs.questionnaire import (
    Item,
    QuestionnaireEnv,
    ResponseSheet,
    ScaleSpec,
    score,
    score_answers,
    shuffle_items,
)
from cogsim.errors import IncompleteSheet
from cogsim.protocol import ActionEnvelope, run_episode
from cogsim.runners import parse
from cogsim.seeds import child_rng

DATA = Path(__file__).parent / "data"


def likert_item(item_id, subscale="s", variant="neutral", pair_id=None, points=7):
    return Item(
        item_id=item_id,
        subscale=subscale,
        text=f"item {item_id}",
        scale=ScaleSpec(kind="likert", points=points),
        variant=variant,
        pair_id=pair_id,
    )


def make_pair(pair_id, points=7):
    return [
        likert_item(f"{pair_id}_c", subscale=pair_id, variant="control", pair_id=pair_id, points=points),
        likert_item(f"{pair_id}_t", subscale=pair_id, variant="treatment", pair_id=pair_id, points=points),
    ]


# --- scales -----------------------------------------------------------------


def test_likert_scale_range():
    scale = ScaleSpec(kind="likert", points=7)
    grid = [1, 2, 3, 4, 5, 6, 7]
    assert [scale.snap(value) for value in grid] == grid
    assert (scale.snap(0), scale.snap(7.4), scale.snap(99)) == (1, 7, 7)
    assert scale.normalize(4) == pytest.approx(0.5)


def test_percentage_scale_range():
    scale = ScaleSpec(kind="percentage", points=11)
    grid = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert [scale.snap(value) for value in grid] == grid
    assert (scale.snap(-5), scale.snap(104)) == (0, 100)
    assert scale.normalize(50) == pytest.approx(0.5)


def test_snap_clamps_and_grids():
    scale = ScaleSpec(kind="percentage", points=11)
    assert scale.snap(47) == 50
    assert scale.snap(44) == 40
    assert scale.snap(-3) == 0
    assert scale.snap(250) == 100
    likert = ScaleSpec(kind="likert", points=7)
    assert likert.snap(0) == 1
    assert likert.snap(9.7) == 7


# --- shuffling ---------------------------------------------------------------


def test_single_item_identity():
    items = [likert_item("a")]
    assert shuffle_items(items, seed=5) == items


def test_same_seed_same_permutation():
    items = [likert_item(f"i{k}") for k in range(10)]
    assert shuffle_items(items, 42) == shuffle_items(items, 42)
    assert shuffle_items(items, 42) != shuffle_items(items, 43)


def test_shuffle_is_bijection():
    items = [likert_item(f"i{k}") for k in range(20)]
    for seed in range(10):
        shuffled = shuffle_items(items, seed)
        assert Counter(i.item_id for i in shuffled) == Counter(i.item_id for i in items)


def fisher_yates(items, seed):
    """A hand-written seeded Fisher-Yates: one ``randrange(i + 1)`` draw per index, top index first."""
    rng = child_rng(seed, "questionnaire-order")
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


@settings(derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.integers(0, 40))
def test_shuffle_makes_the_draws_of_a_hand_written_fisher_yates(seed, size):
    items = [likert_item(f"i{k}") for k in range(size)]
    assert shuffle_items(items, seed) == fisher_yates(items, seed)


# --- scoring ------------------------------------------------------------------


def sheet_for(items, value):
    return ResponseSheet(responses={i.item_id: value for i in items}, order=[i.item_id for i in items], seed=0)


def test_midpoint_everywhere_gives_half():
    items = [likert_item("a", subscale="x"), likert_item("b", subscale="y")]
    report = score(sheet_for(items, 4), items)
    assert report.subscale_normalized == {"x": 0.5, "y": 0.5}


def test_bias_hand_normalization():
    items = make_pair("p")
    sheet = ResponseSheet(responses={"p_c": 4, "p_t": 6}, order=["p_c", "p_t"], seed=0)
    report = score(sheet, items)
    # (6-1)/6 - (4-1)/6 = 5/6 - 1/2 = 1/3
    assert report.bias_by_pair["p"] == pytest.approx(1 / 3)


def test_single_item_subscale_equals_its_value():
    items = [likert_item("only", subscale="solo")]
    report = score(sheet_for(items, 6), items)
    assert report.subscale_normalized["solo"] == pytest.approx((6 - 1) / 6)


def test_incomplete_sheet_raises():
    items = [likert_item("a"), likert_item("b")]
    sheet = ResponseSheet(responses={"a": 3}, order=["a", "b"], seed=0)
    with pytest.raises(IncompleteSheet):
        score(sheet, items)


def test_score_order_invariant():
    items = make_pair("p") + [likert_item("n", subscale="neutral")]
    responses = {"p_c": 2, "p_t": 5, "n": 7}
    a = score(ResponseSheet(responses=responses, order=["p_c", "p_t", "n"], seed=0), items)
    b = score(ResponseSheet(responses=responses, order=["n", "p_t", "p_c"], seed=9), items)
    assert a == b


def test_bias_bounds_and_zero_on_equal_responses():
    rng = random.Random(2)
    for _ in range(50):
        items = make_pair("p")
        responses = {"p_c": rng.randrange(1, 8), "p_t": rng.randrange(1, 8)}
        report = score(ResponseSheet(responses=responses, order=list(responses), seed=0), items)
        assert -1.0 <= report.bias_by_pair["p"] <= 1.0
        if responses["p_c"] == responses["p_t"]:
            assert report.bias_by_pair["p"] == 0.0


# --- item banks ------------------------------------------------------------------


def test_bundled_banks_load():
    bias_items = parse(list[Item], str(DATA / "bias_bank.jsonl"), "items")
    trait_items = parse(list[Item], str(DATA / "trait_bank.jsonl"), "items")
    assert len(bias_items) == 6
    assert len(trait_items) == 4
    pairs = {i.pair_id for i in bias_items}
    assert pairs == {"anchoring", "framing", "loss_aversion"}


def test_mixed_scale_pair_rejected():
    lines = [
        json.dumps(
            {
                "item_id": "c",
                "subscale": "s",
                "text": "t",
                "scale": {"kind": "likert", "points": 7},
                "variant": "control",
                "pair_id": "p",
            }
        ),
        json.dumps(
            {
                "item_id": "t",
                "subscale": "s",
                "text": "t",
                "scale": {"kind": "percentage", "points": 11},
                "variant": "treatment",
                "pair_id": "p",
            }
        ),
    ]
    with pytest.raises(ValueError):
        parse(list[Item], [json.loads(line) for line in lines], "items")


# --- environment -------------------------------------------------------------------


def fixed_answer_policy(value):
    def policy(obs):
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"answer": value})

    return policy


def test_env_administers_every_item_once():
    items = parse(list[Item], str(DATA / "trait_bank.jsonl"), "items")
    env = QuestionnaireEnv(items, seed=4, agent_ids=[0, 1])
    log = run_episode(env, {0: fixed_answer_policy(4), 1: fixed_answer_policy(7)}, max_steps=100, seed=4)
    assert log.steps_executed == len(items)
    for aid in (0, 1):
        answered = [r.info["item_id"] for r in log.records if r.action == "answer" and r.user_id == aid]
        assert sorted(answered) == sorted(i.item_id for i in items)


def test_env_scoring_and_offscale_snap():
    items = [likert_item("a"), likert_item("b")]
    env = QuestionnaireEnv(items, seed=0, agent_ids=[0])
    log = run_episode(env, {0: fixed_answer_policy(99)}, max_steps=10, seed=0)
    report = score_answers(items, log.records)[0]
    assert report.subscale_normalized["s"] == 1.0  # snapped to scale max


def test_an_unfinished_sheet_has_no_score():
    items = [likert_item("a"), likert_item("b")]
    env = QuestionnaireEnv(items, seed=0, agent_ids=[0, 1])
    log = run_episode(env, {0: fixed_answer_policy(3), 1: fixed_answer_policy(5)}, max_steps=1, seed=0)
    assert score_answers(items, log.records) == {}


def test_env_respects_seeded_order():
    items = [likert_item(f"i{k}") for k in range(6)]
    env_a = QuestionnaireEnv(items, seed=8)
    env_b = QuestionnaireEnv(items, seed=8)
    assert [i.item_id for i in env_a.order] == [i.item_id for i in env_b.order]
    env_c = QuestionnaireEnv(items, seed=9)
    assert [i.item_id for i in env_a.order] != [i.item_id for i in env_c.order]

