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

from dataclasses import InitVar, dataclass, field

from .backends import ChatTurn, CompletionBackend, parse_structured, run_tool_loop
from .errors import ContractViolation
from .memory import MemoryEntry, MemoryStore, NullMemory
from .protocol import ActionEnvelope, Observation, Text, join_text
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


@dataclass
class PromptBundle:
    """The four prompt sections, always in this order.

    ``observation_text`` is given as :data:`~cogsim.protocol.Text` and kept
    as a tuple of parts in ``observation_parts``; reading
    ``observation_text`` joins them. ``as_turns`` and ``full_text`` join
    straight from the parts.
    """

    system_text: str
    memory_text: str
    observation_text: InitVar[Text]
    schema_hint: str
    observation_parts: tuple[str, ...] = field(init=False)

    def __post_init__(self, observation_text: Text):
        self.observation_parts = (observation_text,) if isinstance(observation_text, str) else observation_text

    def as_turns(self) -> list[ChatTurn]:
        user: list[str] = []
        if self.memory_text:
            user += ("Your memory:\n", self.memory_text, "\n\n")
        user += self.observation_parts
        if self.schema_hint:
            user += ("\n\nRespond with a JSON object with fields:\n", self.schema_hint)
        turns = []
        if self.system_text:
            turns.append(ChatTurn(role="system", content=self.system_text))
        turns.append(ChatTurn(role="user", content="".join(user)))
        return turns

    def full_text(self) -> str:
        sections = ((self.system_text,), (self.memory_text,), self.observation_parts, (self.schema_hint,))
        text = [part for section in sections if any(section) for part in ("\n\n", *section)]
        return "".join(text[1:])


# an InitVar leaves the name free for this read-only view
PromptBundle.observation_text = property(
    lambda bundle: join_text(bundle.observation_parts), doc="The observation as one str."
)


def compose_prompt(obs: Observation, cfg: PersonaConfig, mem: MemoryStore) -> PromptBundle:
    """Assemble the prompt sections for one observation.

    The observation stays in parts: the context's, then the inbox lines.
    """
    observation = obs.context_parts
    inbox = "\n".join(msg.render() for msg in obs.inbox)
    if inbox:
        context = (observation,) if isinstance(observation, str) else observation
        observation = (*context, "\n", inbox) if any(context) else inbox
    return PromptBundle(
        system_text=cfg.render(),
        memory_text=mem.render(),
        observation_text=observation,
        schema_hint=obs.response_schema.hint_text() if obs.response_schema else "",
    )


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

    Requires an actionable observation (``response_schema`` present). Tool
    failures surface as error-text results in memory and keep the step
    alive; parse failures propagate.
    """
    if obs.response_schema is None:
        raise ContractViolation("agent_step requires an observation with a response schema")
    bundle = compose_prompt(obs, cfg, mem)
    mem.record(MemoryEntry(time=obs.time, world_tag=world_tag, role="observation", content=obs.context_parts))
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
    mem.record(MemoryEntry(time=obs.time, world_tag=world_tag, role="own_action", content=canonical_json(body)))
    return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body=body)


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
            obs,
            self.config,
            self.memory,
            self.backend,
            world_tag=self.world_tag,
            max_tool_rounds=self.max_tool_rounds,
            max_parse_retries=self.max_parse_retries,
        )
