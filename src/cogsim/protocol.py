"""Agent/environment contract, message routing, and the episode runner.

The simulation advances in discrete time steps. Each step the environment
emits per-agent observations; agents reply with action envelopes; the
environment applies the full action map as one transition. Tool calls made
while an agent deliberates never advance the clock. Inter-agent
communication is environment-mediated: agents act only through their
action bodies; the environment emits :class:`Message` values and
:func:`route_messages` delivers them into inboxes on the next observation.
"""

from __future__ import annotations

import json
import threading
from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Iterable, Mapping

from .errors import AgentMissing, SchemaViolation, UnknownRecipient
from .schema import ResponseSchema, canonical_json, validate_action

if TYPE_CHECKING:
    from concurrent.futures import Executor

AgentId = int
TimeStep = int

Text = str | tuple[str, ...]
"""Text given whole, or as a tuple of parts that reads as their concatenation.
Parts let many holders share one large string, such as a feed every follower
sees in the same step, by reference."""


def join_text(text: Text) -> str:
    """``text`` as one str; a str is returned as it is."""
    return text if isinstance(text, str) else "".join(text)


def csv_table(header: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    """The CSV format of every table a run writes: each cell is ``str(value)``,
    ``None`` is an empty cell, and every line ends in a newline."""
    lines = [",".join(header)]
    lines += (",".join("" if value is None else str(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Message:
    """One unit of environment-mediated communication.

    ``src_agent_id`` absent means environment-originated; ``dst_agent_id``
    absent means broadcast (delivered to everyone except the sender).
    """

    time: TimeStep
    src_agent_id: AgentId | None
    dst_agent_id: AgentId | None
    payload: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if (
            self.src_agent_id is not None
            and self.dst_agent_id is not None
            and self.src_agent_id == self.dst_agent_id
        ):
            raise ValueError("message src and dst must differ")

    def render(self) -> str:
        src = "env" if self.src_agent_id is None else f"agent {self.src_agent_id}"
        return f"[t={self.time} from {src}] {canonical_json(self.payload)}"


@dataclass(frozen=True)
class ToolSpec:
    """A callable capability advertised to an agent through its observation.

    ``handler`` receives the parsed arguments as keyword args and returns the
    tool result text. Handlers must be read-only with respect to environment
    state; they run between observations without advancing the clock.
    """

    name: str
    description: str
    parameter_schema: ResponseSchema
    handler: Callable[..., str]


@dataclass
class Observation:
    """Per-agent view of the environment for one step.

    ``response_schema`` present means an action is expected this step;
    observe-only observations leave it ``None`` and the runner skips the
    agent's policy. ``context_text`` is given as :data:`Text` and kept as
    given in ``context_parts``, so memory can archive a shared part by
    reference; reading ``context_text`` joins the parts.
    """

    agent_id: AgentId
    time: TimeStep
    context_text: InitVar[Text]
    inbox: list[Message] = field(default_factory=list)
    tools: list[ToolSpec] = field(default_factory=list)
    response_schema: ResponseSchema | None = None
    context_parts: Text = field(init=False)

    def __post_init__(self, context_text: Text):
        self.context_parts = context_text
        names = [tool.name for tool in self.tools]
        if len(names) != len(set(names)):
            raise ValueError("tool names must be unique within one observation")


# an InitVar leaves the name free for this read-only view
Observation.context_text = property(lambda obs: join_text(obs.context_parts), doc="The context as one str.")


@dataclass
class ActionEnvelope:
    """One agent's action body for one step; ``step_world`` validates it against the schema."""

    agent_id: AgentId
    time: TimeStep
    body: dict[str, Any]


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One append-only simulation log line; its fields are the line's keys.

    Slotted, so ``to_json`` reads the fields by name: ``vars()`` would attach
    a dict to every record an episode keeps.
    """

    user_id: AgentId
    current_time: TimeStep
    action: str
    info: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return canonical_json({name: getattr(self, name) for name in self.__slots__})


class EventLog:
    """Single-writer append channel for :class:`EventRecord`.

    Records are totally ordered by append position; the environment must
    append with non-decreasing ``current_time``.
    """

    def __init__(self):
        self._records: list[EventRecord] = []
        self._lock = threading.Lock()

    def append(self, user_id: AgentId, current_time: TimeStep, action: str, info: dict[str, Any] | None = None) -> EventRecord:
        record = EventRecord(user_id=user_id, current_time=current_time, action=action, info=dict(info or {}))
        with self._lock:
            self._records.append(record)
        return record

    def snapshot(self, start: int = 0) -> list[EventRecord]:
        with self._lock:
            return list(self._records[start:])


class Environment(ABC):
    """Reset/step/done state machine owning the global simulation state.

    ``step`` is the only mutator of environment state; ``done()`` is
    monotone until the next ``reset``. Simultaneous actions are applied in
    ascending agent id so replays are deterministic.

    A subclass supplies ascending ``agent_ids``, its action ``schema``,
    ``_setup`` (build the initial state), ``_context_for`` (one agent's
    context :data:`Text`), ``step`` and ``done``. It overrides ``_now``,
    ``_final_context``, ``_tools`` or ``_inbox`` where it differs.
    """

    name: str = "env"
    agent_ids: list[AgentId]
    schema: ResponseSchema | None = None

    def __init__(self):
        self.events = EventLog()

    def reset(self) -> dict[AgentId, Observation]:
        """Reinitialize state and return the first observations."""
        self.events = EventLog()
        self._setup()
        return self._observations()

    @abstractmethod
    def step(self, actions: Mapping[AgentId, ActionEnvelope]) -> dict[AgentId, Observation]:
        """Apply one joint action map and return the next observations."""

    @abstractmethod
    def done(self) -> bool:
        """True once the episode has ended; stays true until reset."""

    def _setup(self) -> None:
        raise NotImplementedError

    def _context_for(self, aid: AgentId) -> Text:
        raise NotImplementedError

    def _now(self) -> TimeStep:
        """The time stamped on observations."""
        return self.t

    def _final_context(self, aid: AgentId) -> Text:
        """``aid``'s context once ``done()`` holds."""
        return self._context_for(aid)

    def _tools(self) -> list[ToolSpec]:
        return []

    def _inbox(self, aid: AgentId) -> list[Message]:
        return []

    def _observations(self) -> dict[AgentId, Observation]:
        """One observation per agent; once ``done()`` holds, the final context
        with no schema and no tools."""
        if self.done():
            context, tools, schema = self._final_context, [], None
        else:
            context, tools, schema = self._context_for, self._tools(), self.schema
        now = self._now()
        return {
            aid: Observation(
                agent_id=aid, time=now, context_text=context(aid), inbox=self._inbox(aid), tools=tools, response_schema=schema
            )
            for aid in self.agent_ids
        }


@dataclass
class EpisodeLog:
    """Everything produced by one episode: events, all-zero reward totals, seed."""

    records: list[EventRecord]
    total_rewards: dict[AgentId, float]
    seed: int
    steps_executed: int

    def to_jsonl(self) -> str:
        """Newline-delimited JSON: one line per record plus a trailing summary."""
        lines = [record.to_json() for record in self.records]
        summary = {
            "summary": {
                "seed": self.seed,
                "steps_executed": self.steps_executed,
                "total_rewards": {str(k): v for k, v in sorted(self.total_rewards.items())},
            }
        }
        lines += (canonical_json(summary), "")  # the empty last line ends the text in "\n"
        return "\n".join(lines)


def read_episodes(text: str) -> list[EpisodeLog]:
    """The episodes of concatenated :meth:`EpisodeLog.to_jsonl` texts, each ended by its summary line."""
    logs: list[EpisodeLog] = []
    records: list[EventRecord] = []
    for line in filter(str.strip, text.splitlines()):
        obj = json.loads(line)
        if "summary" not in obj:
            records.append(EventRecord(**obj))
            continue
        summary = obj["summary"]
        rewards = {int(k): v for k, v in summary["total_rewards"].items()}
        logs.append(EpisodeLog(records, rewards, summary["seed"], summary["steps_executed"]))
        records = []
    if records:
        raise ValueError("event records after the last episode's summary line")
    return logs


def route_messages(
    outbox: Iterable[Message], population: set[AgentId]
) -> dict[AgentId, list[Message]]:
    """Deliver an outbox into per-agent inboxes.

    Unicast goes to exactly the named recipient; broadcast (no dst) goes to
    every agent except the sender. Inbox order preserves outbox order.
    """
    inboxes: dict[AgentId, list[Message]] = {aid: [] for aid in population}
    for msg in outbox:
        if msg.dst_agent_id is not None:
            if msg.dst_agent_id not in population:
                raise UnknownRecipient(f"message to unknown agent {msg.dst_agent_id}")
            inboxes[msg.dst_agent_id].append(msg)
        else:
            for aid in sorted(population):
                if aid != msg.src_agent_id:
                    inboxes[aid].append(msg)
    return inboxes


def _invoke_policy(policy: Any, obs: Observation) -> ActionEnvelope:
    step = getattr(policy, "step", None)
    if callable(step):
        return step(obs)
    return policy(obs)


def step_world(
    env: Environment,
    observations: Mapping[AgentId, Observation],
    agents: Mapping[AgentId, Any],
    pool: Executor | None = None,
) -> dict[AgentId, Observation]:
    """Advance ``env`` by one step and return its next observations.

    Observations without a response schema are observe-only and skip the
    policy. Policies run in ascending agent id, or all at once on ``pool``;
    every body is validated against its schema before the joint action map
    is applied.
    """
    pending: list[tuple[AgentId, Observation]] = []
    for aid in sorted(observations):
        obs = observations[aid]
        if obs.response_schema is None:
            continue
        if aid not in agents:
            raise AgentMissing(f"actionable observation for unknown agent {aid}")
        pending.append((aid, obs))

    if pool is not None and len(pending) > 1:
        futures = [pool.submit(_invoke_policy, agents[aid], obs) for aid, obs in pending]
        envelopes = [future.result() for future in futures]
    else:
        envelopes = [_invoke_policy(agents[aid], obs) for aid, obs in pending]

    actions: dict[AgentId, ActionEnvelope] = {}
    for (aid, obs), envelope in zip(pending, envelopes):
        violations = validate_action(envelope.body, obs.response_schema)
        if violations:
            raise SchemaViolation(f"agent {aid} action failed validation", violations)
        actions[aid] = envelope
    return env.step(actions)


def policy_pool(agents: Mapping[AgentId, Any], parallel: bool) -> ContextManager[Executor | None]:
    """The thread pool a run's ``step_world`` calls fan out to, or no pool unless
    ``parallel``; a serial run never imports the pool."""
    if not parallel:
        return nullcontext()
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=min(len(agents), 16) or 1)


def run_episode(
    env: Environment,
    agents: Mapping[AgentId, Any],
    max_steps: int | None,
    seed: int = 0,
    parallel: bool = False,
) -> EpisodeLog:
    """Run one episode: observe, act, step, until done or ``max_steps`` (``None``: until done).

    Policies are objects with ``step(obs) -> ActionEnvelope`` (or bare
    callables). With ``parallel=True`` policy calls within a step fan out
    to one thread pool kept for the whole episode; results are still applied
    in ascending agent id.
    """
    observations = env.reset()
    steps = 0
    with policy_pool(agents, parallel) as pool:
        while not env.done() and (max_steps is None or steps < max_steps):
            observations = step_world(env, observations, agents, pool)
            steps += 1
    return EpisodeLog(
        records=env.events.snapshot(),
        total_rewards=dict.fromkeys(agents, 0.0),
        seed=seed,
        steps_executed=steps,
    )
