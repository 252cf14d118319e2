"""Agent memory stores: the dynamic internal state carried across steps and worlds.

Every store keeps the full append-only archive; capacity, window, and token
limits only restrict what ``render()`` shows. The archive is what transfers
between environments, tagged per entry with the world it came from.

An entry's content is :data:`~cogsim.protocol.Text`: a plain str, or the
parts of an observation as the environment gave them. Parts are held by
reference, so the followers of one social feed archive that step's feed
string once between them, not once each. An economy observation is five
parts: the month's lines are shared by every household and a household's
traits across months, so each archive holds only its own wealth figures.
A tool result is two parts, ``"name: "`` and the result text, so every
trader who reads one day's market forum archives the same string.
Everything that reads content
joins the parts (``content``, ``render``, ``to_jsonl``, equality), so
prompts and archives are byte-equal to those of a store fed the joined text;
token budgets are sized from the summed part lengths without joining.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from typing import Any, Iterable, Mapping

from .errors import ConfigError
from .protocol import Text, join_text

ENTRY_ROLES = ("observation", "own_action", "tool_result", "note")


def estimate_tokens(text: Text) -> int:
    """Cheap deterministic token estimate: ceil(len/4), over all parts."""
    chars = len(text) if isinstance(text, str) else sum(map(len, text))
    return (chars + 3) // 4


@dataclass(frozen=True, slots=True, eq=False)
class MemoryEntry:
    """One immutable memory line: when, where, what kind, and the content.

    ``content`` is kept as given in ``parts`` and reads back as one str;
    entries are equal when their joined content is.
    """

    time: int
    world_tag: str
    role: str
    content: InitVar[Text]
    parts: Text = field(init=False)

    def __post_init__(self, content: Text):
        if self.role not in ENTRY_ROLES:
            raise ValueError(f"unknown memory role {self.role!r}")
        object.__setattr__(self, "parts", content)

    def _key(self) -> tuple[int, str, str, str]:
        return (self.time, self.world_tag, self.role, self.content)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, MemoryEntry) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def render(self) -> str:
        return _render_lines((self,))


# an InitVar leaves the name free for this read-only view
MemoryEntry.content = property(lambda entry: join_text(entry.parts), doc="The content as one str.")


def _render_lines(entries: Iterable[MemoryEntry]) -> str:
    """One line per entry, ``[world_tag t=time role] content``, joined by
    newlines in a single join over every entry's prefix and parts."""
    text: list[str] = []
    for entry in entries:
        text.append(f"\n[{entry.world_tag} t={entry.time} {entry.role}] ")
        parts = entry.parts
        if isinstance(parts, str):
            text.append(parts)
        else:
            text += parts
    if text:
        text[0] = text[0][1:]  # no newline before the first line
    return "".join(text)


class MemoryStore:
    """Base store: archives everything, renders nothing by itself."""

    variant = "null"
    params: tuple[str, ...] = ()  # constructor arguments, archived in the header

    def __init__(self):
        self.entries: list[MemoryEntry] = []

    def record(self, entry: MemoryEntry) -> None:
        self.entries.append(entry)

    def visible(self) -> list[MemoryEntry]:
        """Entries that survive the store's rendering policy, oldest first."""
        return []

    def render(self) -> str:
        return _render_lines(self.visible())

    def to_jsonl(self) -> str:
        """Versioned archive: a header line, then one entry per line."""
        header = {"version": 1, "variant": self.variant}
        header.update({name: getattr(self, name) for name in self.params})
        lines = [json.dumps(header, sort_keys=True)]
        for entry in self.entries:
            lines.append(
                json.dumps(
                    {
                        "time": entry.time,
                        "world_tag": entry.world_tag,
                        "role": entry.role,
                        "content": entry.content,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_jsonl(text: str) -> "MemoryStore":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty memory archive")
        header = json.loads(lines[0])
        header.pop("version", None)
        store = _build_store(header.pop("variant", None), header)
        for line in lines[1:]:
            obj = json.loads(line)
            store.record(
                MemoryEntry(
                    time=obj["time"],
                    world_tag=obj["world_tag"],
                    role=obj["role"],
                    content=obj["content"],
                )
            )
        return store


class NullMemory(MemoryStore):
    """Archives entries but never renders any."""

    variant = "null"


class BufferMemory(MemoryStore):
    """Renders at most the ``capacity`` most recent entries."""

    variant = "buffer"
    params = ("capacity",)

    def __init__(self, capacity: int):
        super().__init__()
        if capacity < 0:
            raise ConfigError("must be >= 0", field="capacity")
        self.capacity = capacity

    def visible(self) -> list[MemoryEntry]:
        if self.capacity == 0:
            return []
        return self.entries[-self.capacity:]


class ChatHistoryMemory(MemoryStore):
    """Renders at most ``window`` entries and ~``token_limit`` content tokens.

    Packing is greedy from the newest entry backwards, dropping oldest
    first. The newest entry always renders (window permitting) even when it
    alone exceeds the token budget; otherwise an oversized latest entry
    would blank the whole memory.
    """

    variant = "chat_history"
    params = ("window", "token_limit")

    def __init__(self, window: int, token_limit: int):
        super().__init__()
        for name, value in (("window", window), ("token_limit", token_limit)):
            if value < 0:
                raise ConfigError("must be >= 0", field=name)
        self.window = window
        self.token_limit = token_limit

    def visible(self) -> list[MemoryEntry]:
        survivors: list[MemoryEntry] = []
        tokens = 0
        for entry in reversed(self.entries):
            if len(survivors) >= self.window:
                break
            cost = estimate_tokens(entry.parts)
            if survivors and tokens + cost > self.token_limit:
                break
            survivors.append(entry)
            tokens += cost
        survivors.reverse()
        return survivors


MEMORY_VARIANTS: dict[str, type[MemoryStore]] = {
    cls.variant: cls for cls in (NullMemory, BufferMemory, ChatHistoryMemory)
}


def _build_store(variant: Any, params: Mapping[str, Any]) -> MemoryStore:
    cls = MEMORY_VARIANTS.get(variant)
    if cls is None:
        raise ConfigError(f"unknown memory kind {variant!r}", field="archive.kind")
    for key in sorted(params.keys() ^ set(cls.params)):
        problem = "unknown key" if key in params else "missing key"
        raise ConfigError(f'{problem} "{key}" for {variant} memory', field=f"archive.{key}")
    return cls(**params)
