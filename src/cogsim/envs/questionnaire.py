"""Instrument engine for scaled questionnaires: seeded order randomization,
subscale scoring, and control/treatment bias deltas.

Items come from user-supplied newline-delimited JSON banks; the engine is
content-agnostic. Scores normalize each response into [0, 1] on its scale,
subscales average their items, and a pair's bias is the normalized
treatment mean minus the control mean (so it always lands in [-1, 1]).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..errors import ConfigError, IncompleteSheet
from ..protocol import ActionEnvelope, Environment, EventRecord, Observation
from ..schema import ResponseSchema
from ..seeds import child_rng

logger = logging.getLogger(__name__)

VARIANTS = ("neutral", "control", "treatment")


@dataclass(frozen=True)
class ScaleSpec:
    kind: str  # likert | percentage
    points: int

    def __post_init__(self):
        if self.kind not in ("likert", "percentage"):
            raise ValueError(f"unknown scale kind {self.kind!r}")
        if self.points < 2:
            raise ValueError("a scale needs at least two points")

    @property
    def minimum(self) -> int:
        return 1 if self.kind == "likert" else 0

    @property
    def maximum(self) -> int:
        return self.points if self.kind == "likert" else 100

    @property
    def step(self) -> float:
        if self.kind == "likert":
            return 1.0
        return 100.0 / (self.points - 1)

    def normalize(self, value: float) -> float:
        return (value - self.minimum) / (self.maximum - self.minimum)

    def snap(self, value: float) -> int:
        """Clamp to range and snap onto the scale's grid."""
        clamped = min(self.maximum, max(self.minimum, value))
        steps = round((clamped - self.minimum) / self.step)
        return round(self.minimum + steps * self.step)

    def describe(self) -> str:
        if self.kind == "likert":
            return f"a {self.points}-point scale from {self.minimum} to {self.maximum}"
        return f"a percentage scale from 0 to 100 in steps of {round(self.step)}"


@dataclass(frozen=True)
class Item:
    item_id: str
    subscale: str
    text: str
    scale: ScaleSpec
    variant: str = "neutral"
    pair_id: str | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant in ("control", "treatment") and not self.pair_id:
            raise ValueError("control/treatment items need a pair_id")


def check_item_bank(items: Sequence[Item]) -> None:
    """Raise ``ValueError`` if a control/treatment pair mixes scales."""
    by_pair: dict[str, list[Item]] = {}
    for item in items:
        if item.pair_id:
            by_pair.setdefault(item.pair_id, []).append(item)
    for pair_id, members in by_pair.items():
        scales = {m.scale for m in members}
        if len(scales) > 1:
            raise ValueError(f"pair {pair_id} mixes scales")


@dataclass
class ResponseSheet:
    """One respondent's answers by item id, the ids in the order asked, and that
    order's seed (None when the sheet is read back from answer records)."""

    responses: dict[str, int]
    order: list[str]
    seed: int | None = None


@dataclass(frozen=True)
class ScoreReport:
    subscale_normalized: dict[str, float]
    bias_by_pair: dict[str, float]


def shuffle_items(items: Sequence[Item], seed: int) -> list[Item]:
    """Seeded Fisher-Yates permutation of the item list."""
    out = list(items)
    child_rng(seed, "questionnaire-order").shuffle(out)
    return out


def score(sheet: ResponseSheet, items: Sequence[Item]) -> ScoreReport:
    """Normalized subscale means plus per-pair bias scores."""
    missing = [item.item_id for item in items if item.item_id not in sheet.responses]
    if missing:
        raise IncompleteSheet(f"missing responses for {missing}")
    norm_by_subscale: dict[str, list[float]] = {}
    norm_by_pair: dict[str, dict[str, list[float]]] = {}
    for item in items:
        value = sheet.responses[item.item_id]
        normalized = item.scale.normalize(value)
        norm_by_subscale.setdefault(item.subscale, []).append(normalized)
        if item.pair_id and item.variant in ("control", "treatment"):
            norm_by_pair.setdefault(item.pair_id, {}).setdefault(item.variant, []).append(normalized)
    bias = {}
    for pair_id, sides in norm_by_pair.items():
        if "control" in sides and "treatment" in sides:
            mean_t = sum(sides["treatment"]) / len(sides["treatment"])
            mean_c = sum(sides["control"]) / len(sides["control"])
            bias[pair_id] = mean_t - mean_c
    return ScoreReport(
        subscale_normalized={k: sum(v) / len(v) for k, v in norm_by_subscale.items()},
        bias_by_pair=bias,
    )


ANSWER_SCHEMA = ResponseSchema.of(answer="integer")


class QuestionnaireEnv(Environment):
    """Administers one item per step to every enrolled agent."""

    name = "questionnaire"
    schema = ANSWER_SCHEMA

    def __init__(self, items: Sequence[Item], seed: int = 0, agent_ids: Sequence[int] = (0,)):
        super().__init__()
        if not items:
            raise ConfigError("a questionnaire needs at least one item", field="items")
        self.items = list(items)
        self.seed = seed
        self.agent_ids = sorted(agent_ids)
        self._setup()

    def _setup(self):
        self.order = shuffle_items(self.items, self.seed)
        self.t = 0

    def done(self) -> bool:
        return self.t >= len(self.order)

    def _context_for(self, aid: int) -> tuple[str]:
        item = self.order[self.t]
        return (
            f"Question {self.t + 1} of {len(self.order)}.\n"
            f"{item.text}\n"
            f"Answer with a single integer on {item.scale.describe()}.",
        )

    def step(self, actions: Mapping[int, ActionEnvelope]) -> dict[int, Observation]:
        if self.done():
            raise RuntimeError("step called on a finished episode")
        item = self.order[self.t]
        for aid in sorted(actions):
            raw = actions[aid].body["answer"]
            snapped = item.scale.snap(float(raw))
            if snapped != raw:
                logger.warning("agent %d answer %r off-scale for %s; snapped to %d", aid, raw, item.item_id, snapped)
            self.events.append(aid, self.t, "answer", {"item_id": item.item_id, "value": snapped})
        self.t += 1
        return self._observations()


def score_answers(items: Sequence[Item], records: Iterable[EventRecord]) -> dict[int, ScoreReport]:
    """Each respondent's :func:`score` over ``items``, from its ``answer``
    records, by ascending agent id; one that left an item unanswered has none."""
    sheets: dict[int, ResponseSheet] = {}
    for record in records:
        if record.action == "answer":
            sheet = sheets.setdefault(record.user_id, ResponseSheet({}, []))
            info = record.info
            sheet.responses[info["item_id"]] = info["value"]
            sheet.order.append(info["item_id"])
    reports = {}
    for aid in sorted(sheets):
        try:
            reports[aid] = score(sheets[aid], items)
        except IncompleteSheet:
            continue
    return reports


def questionnaire_metrics(items: Sequence[Item], records: Iterable[EventRecord]) -> dict[str, float]:
    """Each complete respondent's normalized subscale means and pair biases, from :func:`score_answers`."""
    out: dict[str, float] = {}
    for aid, report in score_answers(items, records).items():
        for name, value in report.subscale_normalized.items():
            out[f"subscale_{name}_{aid}"] = value
        for name, value in report.bias_by_pair.items():
            out[f"bias_{name}_{aid}"] = value
    return out
