"""Agent-side policy: persona config + memory + prompt assembly + backend pipeline.

One agent step composes a prompt from its observation, runs the tool loop,
parses the final text into a schema-valid body, and records what happened
into memory. However many tools the agent calls, the environment clock
does not move until the action envelope is returned.

The prompt is joined once per agent step: the observation stays in the
parts its environment gave (a social feed is one string shared by every
follower), and the user turn is built from them in one join.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backends import ChatTurn, CompletionBackend, parse_structured, run_tool_loop
from .memory import MemoryEntry, MemoryStore, NullMemory
from .protocol import ActionEnvelope, Observation, Text
from .schema import canonical_json


@dataclass
class PersonaConfig:
    """Static identity: persona text plus ordered extra directives."""

    persona_text: str = ""
    extra_directives: list[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [self.persona_text] if self.persona_text else []
        parts.extend(self.extra_directives)
        return "\n".join(parts)


@dataclass(slots=True)
class PromptBundle:
    """The four prompt sections, always in this order.

    The observation is kept as :data:`~cogsim.protocol.Text` parts;
    ``observation_text`` joins them, and ``as_turns`` and ``full_text`` join
    straight from the parts.
    """

    system_text: str
    memory_text: str
    observation_parts: Text
    schema_hint: str

    @property
    def observation_text(self) -> str:
        """The observation as one str."""
        return "".join(self.observation_parts)

    def as_turns(self) -> list[ChatTurn]:
        user = ["Your memory:\n", self.memory_text, "\n\n"] if self.memory_text else []
        user += self.observation_parts
        if self.schema_hint:
            user += ("\n\nRespond with a JSON object with fields:\n", self.schema_hint)
        turn = ChatTurn("user", "".join(user))
        return [ChatTurn("system", self.system_text), turn] if self.system_text else [turn]

    def full_text(self) -> str:
        sections = ((self.system_text,), (self.memory_text,), self.observation_parts, (self.schema_hint,))
        text = [part for section in sections if any(section) for part in ("\n\n", *section)]
        return "".join(text[1:])


def compose_prompt(obs: Observation, cfg: PersonaConfig, mem: MemoryStore) -> PromptBundle:
    """Assemble the prompt sections for one observation.

    The observation stays in parts: the context's, then the inbox lines.
    """
    observation = obs.context_parts
    if obs.inbox:
        inbox = "\n".join(msg.render() for msg in obs.inbox)
        observation = (*observation, "\n", inbox) if any(observation) else (inbox,)
    return PromptBundle(cfg.render(), mem.render(), observation, obs.response_schema.hint_text())


def agent_step(
    obs: Observation,
    cfg: PersonaConfig,
    mem: MemoryStore,
    backend: CompletionBackend,
    world_tag: str = "world",
    max_tool_rounds: int = 5,
    max_parse_retries: int = 2,
) -> ActionEnvelope:
    """Run one full decision: prompt, tool loop, structured parse, memory writes.

    The final text is parsed against the observation's ``response_schema``.
    Tool failures surface as error-text results in memory and keep the step
    alive; parse failures propagate.
    """
    bundle = compose_prompt(obs, cfg, mem)
    mem.record(MemoryEntry(obs.time, world_tag, "observation", obs.context_parts))
    final_text, trace = run_tool_loop(backend, bundle.as_turns(), obs.tools, max_rounds=max_tool_rounds)
    for call, result_text in trace:
        mem.record(
            MemoryEntry(
                time=obs.time,
                world_tag=world_tag,
                role="tool_result",
                content=(f"{call.name}: ", result_text),
            )
        )
    body = parse_structured(final_text, obs.response_schema, backend, max_retries=max_parse_retries)
    mem.record(MemoryEntry(obs.time, world_tag, "own_action", (canonical_json(body),)))
    return ActionEnvelope(obs.agent_id, obs.time, body)


class Agent:
    """Binds an id to its persona, memory, and backend; one agent per pair."""

    def __init__(
        self,
        agent_id: int,
        config: PersonaConfig | None = None,
        memory: MemoryStore | None = None,
        backend: CompletionBackend | None = None,
        world_tag: str = "world",
        max_tool_rounds: int = 5,
        max_parse_retries: int = 2,
    ):
        if backend is None:
            raise ValueError("agent requires a completion backend")
        self.agent_id = agent_id
        self.config = PersonaConfig() if config is None else config
        self.memory = NullMemory() if memory is None else memory
        self.backend = backend
        self.world_tag = world_tag
        self.max_tool_rounds = max_tool_rounds
        self.max_parse_retries = max_parse_retries

    def step(self, obs: Observation) -> ActionEnvelope:
        return agent_step(
            obs, self.config, self.memory, self.backend, self.world_tag, self.max_tool_rounds, self.max_parse_retries
        )
