"""Agent memory stores: the dynamic internal state carried across steps and worlds.

Every store keeps the full append-only archive; capacity, window, and token
limits only restrict what ``render()`` shows. The archive is what transfers
between environments, tagged per entry with the world it came from.

An entry's content is :data:`~cogsim.protocol.Text`: a tuple of parts, such
as an observation's parts as the environment gave them. Parts are held by
reference, so the followers of one social feed archive that step's feed
string once between them, not once each. An economy observation is five
parts: the month's lines are shared by every household and a household's
traits across months, so each archive holds only its own wealth figures.
A tool result is two parts, ``"name: "`` and the result text, so every
trader who reads one day's market forum archives the same string.

A store keeps its archive as columns, not as one :class:`MemoryEntry` per
line: per entry a 64-bit time, a one-byte code into the store's small table
of kinds (each a ``(world_tag, role)`` pair), the end offset of its parts
and its token estimate, with the parts themselves in one flat list.
``record`` splits an entry into the columns; ``entries`` and ``visible()``
build entries from them on each read, as snapshots. ``render``, the windows
and ``to_jsonl`` read the columns directly.

Between renders a store keeps its window's items in one flat list: per
window entry its ``"\n[tag t=T role] "`` prefix, then references to the
entry's parts, never a copy of their text. When the window moves forward a
render drops the leading entries' items and appends the new entries'; any
other move rebuilds the list. A render is then one join. A store has one
writer: ``record`` appends to several columns and ``render`` updates the
kept list, and neither is atomic.

Everything that reads content joins the parts (``content``, ``render``,
``to_jsonl``, equality), so prompts and archives are byte-equal to those of
a store fed the joined text; token budgets are sized from the summed part
lengths without joining.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from typing import Any, Mapping

from .errors import ConfigError
from .protocol import Text

ENTRY_ROLES = ("observation", "own_action", "tool_result", "note")


def estimate_tokens(text: Text) -> int:
    """Cheap deterministic token estimate: ceil(len/4), over all parts."""
    return (sum(map(len, text)) + 3) // 4


@dataclass(frozen=True, slots=True, init=False, eq=False)
class MemoryEntry:
    """One immutable memory line: when, where, what kind, and the content.

    ``content`` is kept as given in ``parts`` and reads back as one str;
    entries are equal when their joined content is. A str given as
    ``content`` is taken as one part.
    """

    time: int
    world_tag: str
    role: str
    parts: Text

    def __init__(self, time: int, world_tag: str, role: str, content: Text | str):
        if role not in ENTRY_ROLES:
            raise ValueError(f"unknown memory role {role!r}")
        init = object.__setattr__  # frozen: each field is set once, here
        init(self, "time", time)
        init(self, "world_tag", world_tag)
        init(self, "role", role)
        init(self, "parts", (content,) if isinstance(content, str) else content)

    @property
    def content(self) -> str:
        """The content as one str."""
        return "".join(self.parts)

    def _key(self) -> tuple[int, str, str, str]:
        return (self.time, self.world_tag, self.role, self.content)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, MemoryEntry) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class MemoryStore:
    """Base store: archives everything, renders nothing by itself."""

    variant = "null"
    params: tuple[str, ...] = ()  # constructor arguments, archived in the header

    def __init__(self):
        self._times = array("q")
        self._codes = array("B")
        self._offsets = array("I", [0])  # entry i's parts are _parts[_offsets[i]:_offsets[i + 1]]
        self._tokens = array("I")
        self._parts: list[str] = []
        self._kinds: list[tuple[str, str]] = []  # code -> (world_tag, role)
        self._kind_codes: dict[tuple[str, str], int] = {}
        self._kept = (0, 0)  # the window render last joined, as (start, stop)
        self._flat: list[str] = []  # its items: per entry a line prefix, then the entry's parts

    def record(self, entry: MemoryEntry) -> None:
        """Append ``entry`` to the columns; one writer per store."""
        parts = entry.parts
        tokens = estimate_tokens(parts)
        key = (entry.world_tag, entry.role)
        code = self._kind_codes.get(key)
        if code is None:
            code = self._add_kind(key)
        # nothing is appended before the time, the one value a column can refuse
        self._times.append(entry.time)
        self._codes.append(code)
        self._parts += parts
        self._offsets.append(len(self._parts))
        self._tokens.append(tokens)

    def _add_kind(self, key: tuple[str, str]) -> int:
        code = len(self._kinds)
        if code == 256:  # past one byte: widen the code column once
            self._codes = array("I", self._codes)
        self._kinds.append(key)
        self._kind_codes[key] = code
        return code

    def _entry(self, i: int) -> MemoryEntry:
        world_tag, role = self._kinds[self._codes[i]]
        parts = tuple(self._parts[self._offsets[i]:self._offsets[i + 1]])
        return MemoryEntry(self._times[i], world_tag, role, parts)

    @property
    def entries(self) -> list[MemoryEntry]:
        """The whole archive, oldest first, as a fresh list on each read."""
        return [self._entry(i) for i in range(len(self._times))]

    def _window(self) -> range:
        """Indices of the entries the rendering policy keeps, oldest first."""
        return range(0)

    def visible(self) -> list[MemoryEntry]:
        """Entries that survive the store's rendering policy, oldest first."""
        return [self._entry(i) for i in self._window()]

    def render(self) -> str:
        """One line per visible entry, ``[world_tag t=time role] content``,
        joined by newlines in a single join over the kept window's items."""
        window = self._window()
        start, stop = window.start, window.stop
        kept_start, kept_stop = self._kept
        flat, offsets = self._flat, self._offsets
        if start < kept_start or start > kept_stop or stop < kept_stop:
            flat.clear()
            kept_start = kept_stop = start
        elif start > kept_start:  # forward: drop each leaving entry's prefix and parts
            del flat[:start - kept_start + offsets[start] - offsets[kept_start]]
        kinds, codes, times, parts = self._kinds, self._codes, self._times, self._parts
        for i in range(kept_stop, stop):
            world_tag, role = kinds[codes[i]]
            flat.append(f"\n[{world_tag} t={times[i]} {role}] ")
            flat += parts[offsets[i]:offsets[i + 1]]
        self._kept = (start, stop)
        if flat and flat[0][0] == "\n":  # no newline before the first line
            flat[0] = flat[0][1:]
        return "".join(flat)

    def to_jsonl(self) -> str:
        """Versioned archive: a header line, then one entry per line."""
        header = {"version": 1, "variant": self.variant}
        header.update({name: getattr(self, name) for name in self.params})
        lines = [json.dumps(header, sort_keys=True)]
        offsets = self._offsets
        for i, (time, code) in enumerate(zip(self._times, self._codes)):
            world_tag, role = self._kinds[code]
            content = "".join(self._parts[offsets[i]:offsets[i + 1]])
            lines.append(json.dumps({"time": time, "world_tag": world_tag, "role": role, "content": content}, sort_keys=True))
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
                    content=(obj["content"],),
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

    def _window(self) -> range:
        end = len(self._times)
        return range(max(0, end - self.capacity), end)


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

    def _window(self) -> range:
        end = len(self._times)
        start, oldest, tokens = end, max(0, end - self.window), 0
        while start > oldest:
            cost = self._tokens[start - 1]
            if start < end and tokens + cost > self.token_limit:
                break
            start -= 1
            tokens += cost
        return range(start, end)


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
