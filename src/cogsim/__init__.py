"""cogsim: modular multi-agent simulation with composable agent cognition.

Agents are built from a persona config, a memory store, tools, and a
pluggable completion backend; environments own all shared state and mediate
every interaction. Scripted backends make whole simulations deterministic
and testable offline.
"""

from .backends import (
    ChatTurn,
    CompletionBackend,
    CompletionRequest,
    CompletionResult,
    RecordingBackend,
    RemoteBackend,
    ReplayBackend,
    ScriptedBackend,
    ToolCallRequest,
    parse_structured,
    request_fingerprint,
    run_tool_loop,
)
from .cognition import Agent, PersonaConfig, PromptBundle, agent_step, compose_prompt
from .memory import (
    BufferMemory,
    ChatHistoryMemory,
    MemoryEntry,
    MemoryStore,
    NullMemory,
    estimate_tokens,
)
from .protocol import (
    ActionEnvelope,
    AgentId,
    Environment,
    EpisodeLog,
    EventLog,
    EventRecord,
    Message,
    Observation,
    TimeStep,
    ToolSpec,
    route_messages,
    run_episode,
    step_world,
)
from .schema import FieldSpec, ResponseSchema, canonical_json, validate_action
from .seeds import child_rng, derive_seed
from .stats import fit_line, mae, paired_t_test, sorted_ot_mae

__version__ = "0.1.0"
