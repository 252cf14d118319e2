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
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Iterable, Mapping, Sequence

from .errors import AgentMissing, SchemaViolation, UnknownRecipient
from .schema import ResponseSchema, canonical_json, validate_action

if TYPE_CHECKING:
    from concurrent.futures import Executor

AgentId = int
TimeStep = int

Text = tuple[str, ...]
"""Text as a tuple of parts that reads as their concatenation. Parts let many
holders share one large string, such as a feed every follower sees in the same
step, by reference."""


def csv_table(header: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    """The CSV format of every table a run writes: each cell is ``str(value)``,
    ``None`` is an empty cell, and every line ends in a newline."""
    lines = [",".join(header)]
    lines += (",".join("" if value is None else str(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def record_table(records: Iterable[EventRecord], action: str, columns: Sequence[str]) -> str:
    """A :func:`csv_table` of one row per record of ``action``: its info's ``columns``, in order."""
    infos = (record.info for record in records if record.action == action)
    return csv_table(columns, ([info[column] for column in columns] for info in infos))


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
    """Per-agent view of the environment for one step, stamped with the
    environment's clock ``t``.

    Every observation asks for an action that ``response_schema`` (the
    environment's ``schema``) validates. An environment lets an agent sit
    out a step by emitting no observation for it. The context is kept as
    :data:`Text` parts, so memory can archive a shared part by reference;
    ``context_text`` joins them.
    """

    agent_id: AgentId
    time: TimeStep
    context_parts: Text
    response_schema: ResponseSchema
    inbox: list[Message] = field(default_factory=list)
    tools: list[ToolSpec] = field(default_factory=list)

    def __post_init__(self):
        if len(self.tools) > 1 and len({tool.name for tool in self.tools}) != len(self.tools):
            raise ValueError("tool names must be unique within one observation")

    @property
    def context_text(self) -> str:
        """The context as one str."""
        return "".join(self.context_parts)


@dataclass
class ActionEnvelope:
    """One agent's action body for one step; ``step_world`` validates it against the schema."""

    agent_id: AgentId
    time: TimeStep
    body: dict[str, Any]


ENV_ACTOR: AgentId = -1  # the user_id of records an environment writes itself


@dataclass(frozen=True, slots=True, init=False, eq=False)
class EventRecord:
    """One append-only simulation log line, kept as that line: the canonical
    JSON of its four keys, encoded once when the record is made.

    ``info`` decodes the line on each read into a fresh dict, so a change to
    that dict is not kept, and a run's metrics read exactly the values that
    ``score`` reads back from ``events.jsonl``. Records are equal when their
    lines are.
    """

    user_id: AgentId
    current_time: TimeStep
    action: str
    line: str

    def __init__(self, user_id: AgentId, current_time: TimeStep, action: str, info: dict[str, Any] | None = None):
        line = canonical_json({"user_id": user_id, "current_time": current_time, "action": action, "info": info or {}})
        self._set(user_id, current_time, action, line)

    def _set(self, user_id: AgentId, current_time: TimeStep, action: str, line: str) -> "EventRecord":
        init = object.__setattr__  # frozen: each field is set once, here
        init(self, "user_id", user_id)
        init(self, "current_time", current_time)
        init(self, "action", action)
        init(self, "line", line)
        return self

    @classmethod
    def encoded(cls, user_id: int, current_time: int, action: str, info_json: str) -> "EventRecord":
        """The record whose ``info`` the caller encoded as ``info_json``, its
        ``canonical_json``: the four keys are formatted, sorted, around it, which
        gives the whole dict's bytes while ``user_id`` and ``current_time`` are
        exactly ``int`` and ``action`` exactly ``str``."""
        line = f'{{"action":{encode_basestring_ascii(action)},"current_time":{current_time},"info":{info_json},"user_id":{user_id}}}'
        return cls.__new__(cls)._set(user_id, current_time, action, line)

    @classmethod
    def from_line(cls, line: str, obj: dict[str, Any]) -> "EventRecord":
        """The record read back as ``line``, which decodes to ``obj``.

        The line is kept as read, not re-encoded: it must be one that a
        record wrote, as in an ``events.jsonl`` whose hash has been checked.
        """
        return cls.__new__(cls)._set(obj["user_id"], obj["current_time"], obj["action"], line)

    @property
    def info(self) -> dict[str, Any]:
        return json.loads(self.line)["info"]

    def __eq__(self, other: object) -> bool:
        return self.line == other.line if isinstance(other, EventRecord) else NotImplemented


class EventLog:
    """Single-writer append channel for :class:`EventRecord`.

    Records are totally ordered by append position; the environment must
    append with non-decreasing ``current_time``.
    """

    def __init__(self):
        self._records: list[EventRecord] = []
        self._lock = threading.Lock()

    def append(self, user_id: AgentId, current_time: TimeStep, action: str, info: dict[str, Any] | None = None) -> EventRecord:
        """Log a new record; encoding ``info`` snapshots it, so a later change to it is not kept."""
        return self._keep(EventRecord(user_id, current_time, action, info))

    def append_encoded(self, user_id: int, current_time: int, action: str, info_json: str) -> EventRecord:
        """Log a record whose ``info`` the caller encoded (see :meth:`EventRecord.encoded`)."""
        return self._keep(EventRecord.encoded(user_id, current_time, action, info_json))

    def _keep(self, record: EventRecord) -> EventRecord:
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
    ``_setup`` (build the initial state and set the clock ``t``),
    ``_context_for`` (one agent's context, a :data:`Text` tuple of parts),
    ``step`` and ``done``. It overrides ``_tools`` or ``_inbox`` where it
    differs. ``t`` is the only clock: every observation is stamped with it.
    A finished environment emits no observations.
    """

    name: str = "env"
    agent_ids: list[AgentId]
    schema: ResponseSchema

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

    def _tools(self) -> list[ToolSpec]:
        return []

    def _inbox(self, aid: AgentId) -> list[Message]:
        return []

    def _observations(self) -> dict[AgentId, Observation]:
        """One observation per agent, stamped ``t``; none once ``done()`` holds."""
        if self.done():
            return {}
        t, tools, schema = self.t, self._tools(), self.schema
        return {aid: Observation(aid, t, self._context_for(aid), schema, self._inbox(aid), tools) for aid in self.agent_ids}


@dataclass
class EpisodeLog:
    """Everything produced by one episode: events, all-zero reward totals, seed."""

    records: list[EventRecord]
    total_rewards: dict[AgentId, float]
    seed: int
    steps_executed: int

    def to_jsonl(self) -> str:
        """Newline-delimited JSON: one line per record plus a trailing summary."""
        lines = [record.line for record in self.records]
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
    """The episodes of concatenated :meth:`EpisodeLog.to_jsonl` texts, each ended by its summary line.

    Each record keeps the line it was read from, so ``text`` must be as
    written (``read_bundle`` checks the file's sha256 first).
    """
    logs: list[EpisodeLog] = []
    records: list[EventRecord] = []
    for line in filter(str.strip, text.splitlines()):
        obj = json.loads(line)
        if "summary" not in obj:
            records.append(EventRecord.from_line(line, obj))
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

    The loop names each observed agent's world first: an agent with a
    ``world_tag`` gets ``env.name``, so its memory tags what this step
    records with the world it came from. Then each observed agent's policy
    runs, in ascending agent id, or all at once on ``pool``; an agent with no
    observation sits the step out. Every body is validated against its
    observation's schema before the joint action map is applied.
    """
    pending = sorted(observations.items())
    for aid, _ in pending:
        if aid not in agents:
            raise AgentMissing(f"observation for unknown agent {aid}")
        if hasattr(agents[aid], "world_tag"):
            agents[aid].world_tag = env.name

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


def policy_pool(agents: Mapping[AgentId, Any], parallel: bool = False) -> ContextManager[Executor | None]:
    """The thread pool a run's ``step_world`` calls fan out to, or no pool.

    A pool opens when any agent's backend caps its in-flight requests (a
    positive ``in_flight_limit``, as a remote backend has), or when
    ``parallel`` asks for one; otherwise the pool is never imported.
    One worker per agent, up to 16, or up to the largest ``in_flight_limit``
    where that is larger, so that every request a backend allows can be open
    at once. A limit below 16 does not shrink the pool: a worker sleeping out
    a retry's backoff must not hold up the rest.
    """
    backends = (getattr(agent, "backend", None) for agent in agents.values())
    limit = max((getattr(backend, "in_flight_limit", 0) for backend in backends), default=0)
    if not (parallel or limit > 0):
        return nullcontext()
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=min(len(agents), max(16, limit)) or 1)


def run_episode(
    env: Environment,
    agents: Mapping[AgentId, Any],
    max_steps: int | None,
    seed: int = 0,
    parallel: bool = False,
) -> EpisodeLog:
    """Run one episode: observe, act, step, until done or ``max_steps`` (``None``: until done).

    Policies are objects with ``step(obs) -> ActionEnvelope`` (or bare
    callables). Policy calls within a step fan out to one thread pool kept
    for the whole episode when :func:`policy_pool` opens one: when an agent's
    backend caps its in-flight requests, or with ``parallel=True`` where none
    does. Results are still applied in ascending agent id.
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
