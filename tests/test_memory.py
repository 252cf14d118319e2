import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogsim.memory import (
    ENTRY_ROLES,
    MEMORY_VARIANTS,
    BufferMemory,
    ChatHistoryMemory,
    MemoryEntry,
    MemoryStore,
    NullMemory,
    estimate_tokens,
)
from cogsim.runners import MEMORIES, make


def entry(i, content=None, world="w"):
    return MemoryEntry(time=i, world_tag=world, role="note", content=content or f"entry {i}")


def test_estimate_tokens_empty():
    assert estimate_tokens(()) == estimate_tokens(("",)) == 0


def test_estimate_tokens_definition():
    assert estimate_tokens(("abcd",)) == 1
    assert estimate_tokens(("abcdefghi",)) == 3  # ceil(9/4)
    assert estimate_tokens(("abcd", "efghi")) == 3  # over all parts


def test_estimate_tokens_monotone():
    text = ""
    last = 0
    for ch in "x" * 40:
        text += ch
        now = estimate_tokens((text,))
        assert now >= last
        last = now


def test_buffer_memory_renders_most_recent():
    store = BufferMemory(capacity=3)
    for i in range(1, 6):
        store.record(entry(i))
    lines = store.render().splitlines()
    assert len(lines) == 3
    assert "entry 3" in lines[0]
    assert "entry 4" in lines[1]
    assert "entry 5" in lines[2]
    # archive keeps everything
    assert len(store.entries) == 5


def test_null_memory_renders_empty_but_archives():
    store = NullMemory()
    for i in range(4):
        store.record(entry(i))
    assert store.render() == ""
    assert len(store.entries) == 4


def test_chat_history_window():
    store = ChatHistoryMemory(window=5, token_limit=10**6)
    for i in range(7):
        store.record(entry(i))
    visible = store.visible()
    assert [e.time for e in visible] == [2, 3, 4, 5, 6]


def greedy_packing_oracle(entries, window, token_limit):
    """Independent oracle: walk from newest, admit the first entry always,
    then admit while the running token total stays within the limit."""
    chosen = []
    total = 0
    for e in reversed(entries):
        if len(chosen) >= window:
            break
        cost = estimate_tokens(e.content)
        if chosen and total + cost > token_limit:
            break
        chosen.append(e)
        total += cost
    return list(reversed(chosen))


def test_chat_history_token_limit_keeps_newest():
    store = ChatHistoryMemory(window=5, token_limit=2)
    for i in range(4):
        store.record(entry(i, content="x" * 9))  # 3 tokens each
    visible = store.visible()
    assert visible == greedy_packing_oracle(store.entries, 5, 2)
    assert [e.time for e in visible] == [3]


def test_chat_history_matches_packing_oracle():
    import random

    rng = random.Random(3)
    for trial in range(50):
        window = rng.randrange(1, 6)
        limit = rng.randrange(0, 20)
        store = ChatHistoryMemory(window=window, token_limit=limit)
        for i in range(rng.randrange(0, 12)):
            store.record(entry(i, content="y" * rng.randrange(0, 30)))
        assert store.visible() == greedy_packing_oracle(store.entries, window, limit)


def test_render_format_and_order():
    store = BufferMemory(capacity=10)
    store.record(MemoryEntry(time=0, world_tag="market", role="observation", content="prices"))
    store.record(MemoryEntry(time=1, world_tag="social", role="own_action", content="posted"))
    text = store.render()
    lines = text.splitlines()
    assert lines[0] == "[market t=0 observation] prices"
    assert lines[1] == "[social t=1 own_action] posted"
    assert text.index("market") < text.index("social")


def test_entries_immutable():
    e = entry(0)
    with pytest.raises(Exception):
        e.content = "changed"


def test_unknown_role_rejected():
    with pytest.raises(ValueError):
        MemoryEntry(time=0, world_tag="w", role="thought", content="x")


def test_null_memory_records_but_renders_nothing():
    store = NullMemory()
    store.record(entry(0))
    assert store.entries == [entry(0)]
    assert store.render() == ""


@pytest.mark.parametrize(
    "store_factory",
    [
        lambda: NullMemory(),
        lambda: BufferMemory(capacity=3),
        lambda: ChatHistoryMemory(window=5, token_limit=100),
    ],
)
def test_serialization_roundtrip_deep_equal(store_factory):
    store = store_factory()
    for i in range(7):
        store.record(entry(i, world="market" if i < 4 else "social"))
    text = store.to_jsonl()
    restored = MemoryStore.from_jsonl(text)
    assert type(restored) is type(store)
    assert restored.entries == store.entries
    assert restored.render() == store.render()
    assert restored.to_jsonl() == text


@pytest.mark.parametrize(
    "text,message",
    [
        ("\n  \n", "empty memory archive"),
        ('{"variant": "vector", "version": 1}\n', "unknown memory kind 'vector'"),
        ('{"variant": "buffer", "version": 1}\n', 'missing key "capacity" for buffer memory'),
    ],
    ids=["empty", "unknown-variant", "missing-parameter"],
)
def test_from_jsonl_refuses_an_archive_it_cannot_rebuild(text, message):
    with pytest.raises(ValueError, match=message):
        MemoryStore.from_jsonl(text)


ENTRIES = st.lists(
    st.builds(
        MemoryEntry,
        time=st.integers(-5, 10**6),
        world_tag=st.text(max_size=8),
        role=st.sampled_from(ENTRY_ROLES),
        content=st.text(max_size=40),
    ),
    max_size=12,
)


@settings(derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(MEMORY_VARIANTS)), st.data(), ENTRIES)
def test_archive_roundtrip_keeps_variant_params_entries_and_render(variant, data, entries):
    cls = MEMORY_VARIANTS[variant]
    params = {name: data.draw(st.integers(0, 50), label=name) for name in cls.params}
    store = cls(**params)
    for item in entries:
        store.record(item)
    restored = MemoryStore.from_jsonl(store.to_jsonl())
    assert restored.variant == variant
    assert {name: getattr(restored, name) for name in cls.params} == params
    assert restored.entries == store.entries
    assert restored.render() == store.render()


TEXTS = st.one_of(st.tuples(st.text(max_size=40)), st.lists(st.text(max_size=12), max_size=4).map(tuple))


@pytest.mark.parametrize("variant", sorted(MEMORY_VARIANTS))
@settings(derandomize=True, database=None, deadline=None)
@given(
    data=st.data(),
    rows=st.lists(st.tuples(st.integers(-5, 10**6), st.text(max_size=8), st.sampled_from(ENTRY_ROLES), TEXTS), max_size=12),
)
def test_entries_in_parts_read_as_their_joined_text(variant, data, rows):
    cls = MEMORY_VARIANTS[variant]
    params = {name: data.draw(st.integers(0, 50), label=name) for name in cls.params}
    split, joined = cls(**params), cls(**params)
    for time, tag, role, text in rows:
        split.record(MemoryEntry(time=time, world_tag=tag, role=role, content=text))
        joined.record(MemoryEntry(time=time, world_tag=tag, role=role, content=("".join(text),)))
    assert [(e.time, e.content) for e in split.visible()] == [(e.time, e.content) for e in joined.visible()]
    assert split.render() == joined.render()
    archive = split.to_jsonl()
    assert archive.encode() == joined.to_jsonl().encode()
    restored = MemoryStore.from_jsonl(archive)
    assert restored.entries == split.entries == joined.entries
    assert restored.to_jsonl() == archive


@settings(derandomize=True, database=None, deadline=None)
@given(
    variant=st.sampled_from(sorted(MEMORY_VARIANTS)),
    data=st.data(),
    rows=st.lists(st.tuples(st.integers(-5, 10**6), st.text(max_size=8), st.sampled_from(ENTRY_ROLES), TEXTS), max_size=16),
)
def test_render_joins_each_visible_entry_line(variant, data, rows):
    """One join over every prefix and part reads as the entries' own lines."""
    cls = MEMORY_VARIANTS[variant]
    store = cls(**{name: data.draw(st.integers(0, 20), label=name) for name in cls.params})
    for time, tag, role, text in rows:
        store.record(MemoryEntry(time=time, world_tag=tag, role=role, content=text))
    visible = store.visible()
    assert store.render() == "\n".join(f"[{e.world_tag} t={e.time} {e.role}] {''.join(e.parts)}" for e in visible)


TIMES = st.integers(-(2**63), 2**63 - 1)
TAGS = st.one_of(st.sampled_from(["market", "social", "economy", ""]), st.text(max_size=4))
SHAPES = st.one_of(
    st.sampled_from([("",), (), ("a",)]),
    st.tuples(st.text(max_size=20)),
    st.lists(st.text(max_size=8), min_size=1, max_size=5).map(tuple),
)


def reference_window(store, reference):
    """The entries each policy shows, from the reference list alone."""
    if isinstance(store, BufferMemory):
        return reference[-store.capacity:] if store.capacity else []
    if isinstance(store, ChatHistoryMemory):
        return greedy_packing_oracle(reference, store.window, store.token_limit)
    return []


def reference_archive(store, reference):
    header = {"version": 1, "variant": store.variant, **{name: getattr(store, name) for name in store.params}}
    lines = [json.dumps(header, sort_keys=True)]
    for e in reference:
        lines.append(json.dumps({"time": e.time, "world_tag": e.world_tag, "role": e.role, "content": e.content}, sort_keys=True))
    return "\n".join(lines) + "\n"


def exactly(entries):
    """Each entry's fields with its parts as kept; equality compares only their join."""
    return [(e.time, e.world_tag, e.role, e.parts) for e in entries]


@pytest.mark.parametrize("variant", sorted(MEMORY_VARIANTS))
@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data(), rows=st.lists(st.tuples(TIMES, TAGS, st.sampled_from(ENTRY_ROLES), SHAPES), max_size=16))
def test_column_archive_agrees_with_a_reference_list(variant, data, rows):
    cls = MEMORY_VARIANTS[variant]
    store = cls(**{name: data.draw(st.integers(0, 40), label=name) for name in cls.params})
    reference = []
    for time, tag, role, parts in rows:
        item = MemoryEntry(time=time, world_tag=tag, role=role, content=parts)
        store.record(item)
        reference.append(item)
        window = reference_window(store, reference)
        assert exactly(store.visible()) == exactly(window)
        assert store.render() == "\n".join(f"[{e.world_tag} t={e.time} {e.role}] {''.join(e.parts)}" for e in window)
    assert exactly(store.entries) == exactly(reference)
    assert store.to_jsonl() == reference_archive(store, reference)
    store.entries.clear()  # a snapshot: the store keeps its archive
    assert exactly(store.entries) == exactly(reference)
    with pytest.raises(AttributeError):
        store.entries = []


def test_archive_keeps_past_256_kinds():
    store = BufferMemory(capacity=2)
    reference = [MemoryEntry(time=i, world_tag=f"w{i}", role="note", content=("x", str(i))) for i in range(300)]
    for item in reference:
        store.record(item)
    assert exactly(store.entries) == exactly(reference)
    assert store.render() == "[w298 t=298 note] x298\n[w299 t=299 note] x299"


def test_a_refused_entry_leaves_the_archive_as_it_was():
    store = ChatHistoryMemory(window=5, token_limit=100)
    store.record(entry(1))
    for bad in (entry(2**63), MemoryEntry(time=2, world_tag="w", role="note", content=(1, 2))):
        with pytest.raises((OverflowError, TypeError)):
            store.record(bad)
    store.record(entry(3))
    assert exactly(store.entries) == exactly([entry(1), entry(3)])
    assert store.render() == "[w t=1 note] entry 1\n[w t=3 note] entry 3"


def test_render_builds_no_entry(monkeypatch):
    store = BufferMemory(capacity=3)
    for i in range(10_000):
        store.record(entry(i, content=("entry ", str(i)) if i % 2 else f"entry {i}"))
    built = []
    init = MemoryEntry.__init__
    monkeypatch.setattr(MemoryEntry, "__init__", lambda self, *args, **kwargs: built.append(init(self, *args, **kwargs)))
    text = store.render()
    assert built == []
    assert text == "\n".join(f"[w t={i} note] entry {i}" for i in range(9997, 10_000))
    assert len(store.visible()) == len(built) == 3  # the hook does see entries built


def test_entry_has_no_instance_dict():
    # slotted entries keep the snapshots that entries and visible() build small
    assert not hasattr(entry(0), "__dict__")
    assert MemoryEntry(time=0, world_tag="w", role="note", content=("a", "b")).content == "ab"


def test_a_str_content_is_taken_as_one_part():
    assert MemoryEntry(time=0, world_tag="w", role="note", content="x").parts == ("x",)
    assert MemoryEntry(time=0, world_tag="w", role="note", content="").parts == ("",)


def test_transfer_preserves_world_tags_and_order():
    store = BufferMemory(capacity=2)
    store.record(entry(0, world="market"))
    store.record(entry(1, world="social"))
    restored = MemoryStore.from_jsonl(store.to_jsonl())
    assert [e.world_tag for e in restored.entries] == ["market", "social"]


def test_archive_monotone_under_recording():
    store = ChatHistoryMemory(window=1, token_limit=1)
    sizes = []
    for i in range(10):
        store.record(entry(i))
        sizes.append(len(store.entries))
        assert len(store.visible()) <= len(store.entries)
    assert sizes == sorted(sizes)


def test_memory_from_spec():
    assert isinstance(make(MEMORIES, {"kind": "null"}), NullMemory)
    buf = make(MEMORIES, {"kind": "buffer", "capacity": 3})
    assert isinstance(buf, BufferMemory) and buf.capacity == 3
    chm = make(MEMORIES, {"kind": "chat_history", "window": 5, "token_limit": 100000})
    assert isinstance(chm, ChatHistoryMemory) and chm.window == 5


class DrawnWindow(MemoryStore):
    """A store whose window the test sets, so a render can see it move back or jump."""

    window = range(0)

    def _window(self) -> range:
        return self.window


def fresh_render(store):
    return "\n".join(f"[{e.world_tag} t={e.time} {e.role}] {e.content}" for e in store.visible())


def stores_of_every_kind():
    """(label, params) per memory kind, with every limit at 0 as well as above it."""
    kinds = [("null", {}), ("buffer", {"capacity": 0}), ("buffer", {"capacity": 1}), ("buffer", {"capacity": 4})]
    for window in (0, 1, 3, 8):
        for token_limit in (0, 2, 12, 60):
            kinds.append(("chat_history", {"window": window, "token_limit": token_limit}))
    assert {kind for kind, _ in kinds} == set(MEMORY_VARIANTS)
    return kinds


# a tuple or str of any size, with oversized ones that alone pass any drawn token limit
KEPT_TEXTS = st.one_of(
    st.text(max_size=12),
    st.lists(st.text(max_size=6), max_size=4).map(tuple),
    st.integers(0, 3).map(lambda n: ("big ", "x" * 300, str(n))),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(stores_of_every_kind()),
    rounds=st.lists(
        st.tuples(
            st.lists(st.tuples(st.sampled_from(["market", "social", ""]), st.sampled_from(ENTRY_ROLES), KEPT_TEXTS), max_size=5),
            st.booleans(),
        ),
        max_size=12,
    ),
)
def test_kept_window_renders_what_a_fresh_render_would(kind, rounds):
    """Between renders 0-5 records move the window by several entries; some
    rounds rebuild the store from its archive, which starts its window afresh."""
    variant, params = kind
    store = MEMORY_VARIANTS[variant](**params)
    time = 0
    for records, restore in rounds:
        for tag, role, text in records:
            store.record(MemoryEntry(time=time, world_tag=tag, role=role, content=text))
            time += 1
        if restore:
            store = MemoryStore.from_jsonl(store.to_jsonl())
        assert store.render() == fresh_render(store)
        assert store.render() == fresh_render(store)  # a render that moves nothing


@settings(derandomize=True, database=None, deadline=None)
@given(st.data(), st.lists(TEXTS, min_size=1, max_size=10))
def test_kept_window_follows_any_move(data, texts):
    """Forward by any step, back, past the kept range, or empty."""
    store = DrawnWindow()
    for time, text in enumerate(texts):
        store.record(MemoryEntry(time=time, world_tag="w", role="note", content=text))
    for _ in range(data.draw(st.integers(1, 8), label="renders")):
        start = data.draw(st.integers(0, len(texts)), label="start")
        store.window = range(start, data.draw(st.integers(start, len(texts)), label="stop"))
        assert store.render() == fresh_render(store)


def test_kept_window_holds_references_not_copies():
    """Twenty small windows over one shared 100 KB feed hold well under one
    copy of it: the kept items are the feed itself plus a prefix per line."""
    feed = "f" * 100_000
    BufferMemory(capacity=1).render()  # first-call work stays out of the count
    tracemalloc.start()
    try:
        stores = [BufferMemory(capacity=4) for _ in range(20)]
        for step in range(10):
            for store in stores:
                store.record(MemoryEntry(time=step, world_tag="social", role="observation", content=("header", feed, "footer")))
                assert len(store.render()) > len(feed)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 200_000
