"""Run-time span tracing of cogsim, installed from the benchmark's own files.

``Tracer.install`` wraps every public function and every public method of
the classes defined in the traced modules, and rebinds each reference to a
wrapped function that those modules hold, so calls between modules go
through the wrappers too. Each call becomes a span with a name, a parent,
a start and an end, kept in flat arrays in memory. A span opened on a
worker thread with nothing open on that thread takes the main thread's
innermost open span as its parent, which is how ``run_episode(parallel=True)``
hands work to its pool. Nothing is installed unless the benchmark asks for a
traced run, and ``uninstall`` restores every original.

Self time is a span's duration minus the union of its children's intervals.
The per-layer ``*.self_s`` metrics credit each span's self time to its
nearest ancestor-or-self listed in ``ANCHORS``, so a metric counts the time
inside that function that is not inside another measured function; calls to
unlisted helpers (an ``EventLog.append``, a ``MemoryEntry.render``) count
toward the measured function that made them. ``layer_share.*`` metrics use
raw self time, grouped by the module the span's code lives in, as a share
of all traced self time.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

MODULES = ("protocol", "cognition", "memory", "backends", "envs.market", "envs.social", "envs.economy", "cli")

HTTP = "backends.remote.http"
BACKOFF = "backends.remote.backoff"
MODEL = "bench.scripted_model"
ENV_STEPS = (
    "envs.market.MarketEnv.step", "envs.market.MarketEnv.reset",
    "envs.social.SocialEnv.step", "envs.social.SocialEnv.reset",
    "envs.economy.EconomyEnv.step", "envs.economy.EconomyEnv.reset",
)
COMPLETES = (
    "backends.complete", "backends.CompletionBackend.complete", "backends.ScriptedBackend.complete",
    "backends.ReplayBackend.complete", "backends.RecordingBackend.complete", "backends.RemoteBackend.complete",
)

# span name -> the family its self time is reported under
ANCHORS = {
    "envs.market.clear_session": "envs.market.clear_session",
    "envs.market.settle": "envs.market.settle",
    "envs.market.accrue_and_lend": "envs.market.accrue_and_lend",
    "envs.market.MarketEnv.step": "envs.market.step",
    "envs.market.MarketEnv.reset": "envs.market.step",
    "envs.social.build_feed": "envs.social.build_feed",
    "envs.social.SocialEnv.step": "envs.social.step",
    "envs.social.SocialEnv.reset": "envs.social.step",
    "envs.social.apply_social_action": "envs.social.apply_social_action",
    "envs.economy.EconomyEnv.step": "envs.economy.step",
    "envs.economy.EconomyEnv.reset": "envs.economy.step",
    "envs.economy.monthly_step": "envs.economy.monthly_step",
    "cognition.agent_step": "cognition.agent_step",
    "cognition.Agent.step": "cognition.agent_step",
    "cognition.compose_prompt": "cognition.compose_prompt",
    "memory.MemoryStore.render": "memory.render",
    "memory.render_memory": "memory.render",
    "memory.MemoryStore.record": "memory.record",
    "memory.record": "memory.record",
    **{name: "backends.complete" for name in COMPLETES},
    "backends.run_tool_loop": "backends.run_tool_loop",
    "backends.parse_structured": "backends.parse_structured",
    "protocol.run_episode": "protocol.run_episode",
    "protocol.validate_action": "protocol.validate_action",
    "protocol.route_messages": "protocol.route_messages",
    "protocol.EpisodeLog.to_jsonl": "protocol.to_jsonl",
    "cli.BundleWriter.write": "cli.BundleWriter.write",
    HTTP: HTTP,
    BACKOFF: BACKOFF,
    MODEL: MODEL,
}

# (name, unit, better) of every per-layer metric, in report order. Some are
# diagnostic, not costs, and a move in them is no gain: book_orders and
# price_levels are input properties, matched_volume moves only when behaviour
# changes, and a layer_share falls whenever another layer gets slower.
LAYER_METRICS = [
    ("envs.market.clear_session.calls", "count", "lower"),
    ("envs.market.clear_session.self_s", "s", "lower"),
    ("envs.market.settle.self_s", "s", "lower"),
    ("envs.market.accrue_and_lend.self_s", "s", "lower"),
    ("envs.market.step.self_s", "s", "lower"),
    ("envs.market.book_orders", "count", "lower"),
    ("envs.market.price_levels", "count", "lower"),
    ("envs.market.matched_volume", "count", "higher"),
    ("envs.social.build_feed.calls", "count", "lower"),
    ("envs.social.build_feed.self_s", "s", "lower"),
    ("envs.social.step.self_s", "s", "lower"),
    ("envs.social.apply_social_action.self_s", "s", "lower"),
    ("envs.social.feed_comments", "count", "lower"),
    ("envs.social.distinct_post_share", "ratio", "lower"),
    ("envs.social.observation_chars", "chars", "lower"),
    ("envs.economy.step.self_s", "s", "lower"),
    ("envs.economy.monthly_step.self_s", "s", "lower"),
    ("cognition.agent_step.calls", "count", "lower"),
    ("cognition.agent_step.self_s", "s", "lower"),
    ("cognition.agent_step_ms_p50", "ms", "lower"),
    ("cognition.agent_step_ms_p90", "ms", "lower"),
    ("cognition.compose_prompt.self_s", "s", "lower"),
    ("cognition.prompt_chars", "chars", "lower"),
    ("memory.render.calls", "count", "lower"),
    ("memory.render.self_s", "s", "lower"),
    ("memory.rendered_chars", "chars", "lower"),
    ("memory.record.calls", "count", "lower"),
    ("memory.record.self_s", "s", "lower"),
    ("memory.archive_chars", "chars", "lower"),
    ("backends.complete.calls", "count", "lower"),
    ("backends.complete.self_s", "s", "lower"),
    ("backends.completions_per_agent_step", "ratio", "lower"),
    ("backends.run_tool_loop.self_s", "s", "lower"),
    ("backends.tool_calls", "count", "lower"),
    ("backends.parse_structured.self_s", "s", "lower"),
    ("backends.parse_fallback_share", "ratio", "lower"),
    ("backends.remote.http_s", "s", "lower"),
    ("backends.remote.backoff_s", "s", "lower"),
    ("backends.remote.cap_wait_s", "s", "lower"),
    ("backends.remote.attempts", "count", "lower"),
    ("backends.remote.retries", "count", "lower"),
    ("protocol.run_episode.self_s", "s", "lower"),
    ("protocol.validate_action.self_s", "s", "lower"),
    ("protocol.dispatch_wait_s", "s", "lower"),
    ("protocol.floor_efficiency", "ratio", "higher"),
    ("protocol.route_messages.self_s", "s", "lower"),
    ("protocol.to_jsonl.self_s", "s", "lower"),
    ("cli.BundleWriter.write.self_s", "s", "lower"),
    ("output.bytes", "bytes", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("layer_share.protocol", "ratio", "lower"),
    ("layer_share.cognition", "ratio", "lower"),
    ("layer_share.memory", "ratio", "lower"),
    ("layer_share.backends", "ratio", "lower"),
    ("layer_share.agent_stack", "ratio", "lower"),
    ("layer_share.remote_transport", "ratio", "lower"),
    ("layer_share.envs.market", "ratio", "lower"),
    ("layer_share.envs.social", "ratio", "lower"),
    ("layer_share.envs.economy", "ratio", "lower"),
    ("layer_share.cli", "ratio", "lower"),
    ("layer_share.scripted_model", "ratio", "lower"),
]

# ``layer_share`` groups: remote waiting (the post, the backoff sleeps and the
# rest of RemoteBackend.complete) is kept apart from the CPU layers
TRANSPORT = (HTTP, BACKOFF, "backends.RemoteBackend.complete")


# --- probes: counts read from arguments and results at the traced boundaries ---------


def _probe_clear(tracer, args, kwargs, result):
    book = args[0]
    tracer.counters["book_orders"] += len(book)
    tracer.counters["price_levels"] += len({o.limit_price for o in book})
    tracer.counters["matched_volume"] += sum(t.quantity for t in result[1])


def _probe_feed(tracer, args, kwargs, result):
    now = kwargs["now"] if "now" in kwargs else (args[4] if len(args) > 4 else None)
    tracer.counters["feed_entries"] += len(result)
    tracer.counters["feed_comments"] += sum(len(comments) for _, comments in result)
    tracer.feed_posts[now].update(post.post_id for post, _ in result)


def _probe_social_obs(tracer, args, kwargs, result):
    tracer.counters["observation_chars"] += sum(len(obs.context_text) for obs in result.values())


def _probe_prompt(tracer, args, kwargs, result):
    tracer.counters["prompt_chars"] += (
        len(result.system_text) + len(result.memory_text) + len(result.observation_text) + len(result.schema_hint)
    )


def _probe_render(tracer, args, kwargs, result):
    tracer.counters["rendered_chars"] += len(result)


def _probe_record(tracer, args, kwargs, result):
    tracer.counters["archive_chars"] += len(args[1].content)


def _probe_tool_loop(tracer, args, kwargs, result):
    tracer.counters["tool_calls"] += len(result[1])


PROBES = {
    "envs.market.clear_session": _probe_clear,
    "envs.social.build_feed": _probe_feed,
    "envs.social.SocialEnv.step": _probe_social_obs,
    "envs.social.SocialEnv.reset": _probe_social_obs,
    "cognition.compose_prompt": _probe_prompt,
    "memory.MemoryStore.render": _probe_render,
    "memory.MemoryStore.record": _probe_record,
    "backends.run_tool_loop": _probe_tool_loop,
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.feed_posts: dict[Any, set] = defaultdict(set)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main_thread else []
            self._local.stack = stack
        return stack

    def wrap(self, fn: Callable, name: str, probe: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records one span called ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock, lock, main_stack = time.perf_counter, self._lock, self._main_stack
        name_of, parents, starts, ends = self.name_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = -1
            with lock:
                idx = len(starts)
                name_of.append(nid)
                parents.append(parent)
                ends.append(0.0)
                starts.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        """Trace one method of a class outside the traced modules (the benchmark's own)."""
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name))

    def install(self) -> None:
        """Wrap the public functions and methods of every module in ``MODULES``."""
        package = importlib.import_module("cogsim")
        modules = {short: importlib.import_module(f"cogsim.{short}") for short in MODULES}
        wrapped: dict[int, tuple[Any, Any]] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = (obj, self.wrap(obj, name, PROBES.get(name)))
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        protocol = modules["protocol"]
        self._set(protocol, "validate_action", self.wrap(protocol.validate_action, "protocol.validate_action"))
        for namespace in [package, *modules.values()]:
            for attr, obj in list(vars(namespace).items()):
                pair = wrapped.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._set(namespace, attr, pair[1])

    def _wrap_class(self, short: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or getattr(value, "__isabstractmethod__", False):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            probe = PROBES.get(name)
            if isinstance(value, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(value.__func__, name, probe)))
            elif isinstance(value, classmethod):
                self._set(cls, attr, classmethod(self.wrap(value.__func__, name, probe)))
            elif inspect.isfunction(value):
                self._set(cls, attr, self.wrap(value, name, probe))

    def uninstall(self) -> None:
        """Put back every original the tracer replaced, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def timed_session(self, session: Any) -> Any:
        """``session`` with its ``post`` traced as the HTTP transport span."""
        session.post = self.wrap(session.post, HTTP)
        return session

    def timed_sleeper(self) -> Callable[[float], None]:
        """A sleeper for RemoteBackend that calls ``time.sleep`` inside a backoff span."""
        return self.wrap(time.sleep, BACKOFF)

    def write_spans(self, out_dir: Path) -> None:
        """Write the spans as ``spans.json`` (the name table and the span count)
        plus ``spans.bin``: the name ids, parent indexes (-1 for none), starts
        and ends in seconds, one native-endian array after another, each of
        span-count items (``array`` type codes i, i, d, d)."""
        (out_dir / "spans.json").write_text(json.dumps({"names": self.names, "count": len(self.start)}))
        with open(out_dir / "spans.bin", "wb") as fh:
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(fh)

    # --- analysis -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals.

        Spans are allocated in start order, so a parent's children arrive in
        start order and a running union suffices, also for overlapping
        children on pool threads."""
        n = len(self.start)
        starts, ends, parents = self.start, self.end, self.parent
        covered = [0.0] * n
        cover_end = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p < 0:
                continue
            s, e = max(starts[i], cover_end[p], starts[p]), min(ends[i], ends[p])
            if e > s:
                covered[p] += e - s
                cover_end[p] = e
        return [ends[i] - starts[i] - covered[i] for i in range(n)]

    def metrics(self, agent_steps: int) -> dict[str, float]:
        """Per-layer metrics of one traced episode that answered ``agent_steps`` observations."""
        names, name_of, parents = self.names, self.name_of, self.parent
        starts, ends = self.start, self.end
        n = len(starts)
        self_s = self.self_times()
        anchor_ids = {i: ANCHORS[name] for i, name in enumerate(names) if name in ANCHORS}
        anchor_of = array("i", [-1]) * n
        family_self: dict[str, float] = defaultdict(float)
        by_name_self: dict[str, float] = defaultdict(float)
        by_name_calls: dict[str, int] = defaultdict(int)
        by_name_total: dict[str, float] = defaultdict(float)
        for i in range(n):
            nid = name_of[i]
            anchor = i if nid in anchor_ids else (anchor_of[parents[i]] if parents[i] >= 0 else -1)
            anchor_of[i] = anchor
            if anchor >= 0:
                family_self[anchor_ids[name_of[anchor]]] += self_s[i]
            by_name_self[names[nid]] += self_s[i]
            by_name_calls[names[nid]] += 1
            by_name_total[names[nid]] += ends[i] - starts[i]

        remote_credit = 0.0
        remote_id = self._ids.get("backends.RemoteBackend.complete")
        agent_step_ms: list[float] = []
        agent_step_id = self._ids.get("cognition.agent_step")
        parse_id = self._ids.get("backends.parse_structured")
        complete_ids = {self._ids[name] for name in COMPLETES if name in self._ids}
        fallback_parses: set[int] = set()
        env_ids = {self._ids[name] for name in ENV_STEPS if name in self._ids}
        env_ends: list[float] = []
        policy_id = self._ids.get("cognition.Agent.step")
        policy_starts: list[float] = []
        for i in range(n):
            nid = name_of[i]
            if nid == agent_step_id:
                agent_step_ms.append((ends[i] - starts[i]) * 1e3)
            elif nid in complete_ids and parents[i] >= 0 and name_of[parents[i]] == parse_id:
                fallback_parses.add(parents[i])
            elif nid in env_ids:
                env_ends.append(ends[i])
            elif nid == policy_id:
                policy_starts.append(starts[i])
            if anchor_of[i] >= 0 and name_of[anchor_of[i]] == remote_id:
                remote_credit += self_s[i]
        env_ends.sort()
        dispatch_wait = 0.0
        for s in policy_starts:
            k = bisect.bisect_right(env_ends, s)
            if k:
                dispatch_wait += s - env_ends[k - 1]
        agent_step_ms.sort()

        def pct(q: float) -> float:
            if not agent_step_ms:
                return 0.0
            return agent_step_ms[min(len(agent_step_ms) - 1, int(q * len(agent_step_ms)))]

        def calls(*span_names: str) -> int:
            return sum(by_name_calls.get(name, 0) for name in span_names)

        counters = self.counters
        clear_calls = calls("envs.market.clear_session")
        parse_calls = calls("backends.parse_structured")
        complete_calls = calls(*COMPLETES)
        attempts = calls(HTTP)
        out = {
            "envs.market.clear_session.calls": clear_calls,
            "envs.market.book_orders": counters["book_orders"] / clear_calls if clear_calls else 0.0,
            "envs.market.price_levels": counters["price_levels"] / clear_calls if clear_calls else 0.0,
            "envs.market.matched_volume": counters["matched_volume"],
            "envs.social.build_feed.calls": calls("envs.social.build_feed"),
            "envs.social.feed_comments": counters["feed_comments"],
            "envs.social.distinct_post_share": (
                sum(len(posts) for posts in self.feed_posts.values()) / counters["feed_entries"]
                if counters["feed_entries"] else 0.0
            ),
            "envs.social.observation_chars": counters["observation_chars"],
            "cognition.agent_step.calls": calls("cognition.agent_step"),
            "cognition.agent_step_ms_p50": pct(0.5),
            "cognition.agent_step_ms_p90": pct(0.9),
            "cognition.prompt_chars": counters["prompt_chars"],
            "memory.render.calls": calls("memory.MemoryStore.render", "memory.render_memory"),
            "memory.rendered_chars": counters["rendered_chars"],
            "memory.record.calls": calls("memory.MemoryStore.record", "memory.record"),
            "memory.archive_chars": counters["archive_chars"],
            "backends.complete.calls": complete_calls,
            "backends.completions_per_agent_step": complete_calls / agent_steps if agent_steps else 0.0,
            "backends.tool_calls": counters["tool_calls"],
            "backends.parse_fallback_share": len(fallback_parses) / parse_calls if parse_calls else 0.0,
            "backends.remote.http_s": by_name_total[HTTP],
            "backends.remote.backoff_s": by_name_total[BACKOFF],
            "backends.remote.cap_wait_s": remote_credit,
            "backends.remote.attempts": attempts,
            "backends.remote.retries": max(0, attempts - calls("backends.RemoteBackend.complete")),
            "protocol.dispatch_wait_s": dispatch_wait,
        }
        for family in set(ANCHORS.values()):
            out[f"{family}.self_s"] = family_self[family]

        groups: dict[str, float] = defaultdict(float)
        for name, seconds in by_name_self.items():
            if name in TRANSPORT:
                groups["remote_transport"] += seconds
            elif name == MODEL:
                groups["scripted_model"] += seconds
            else:
                groups[".".join(name.split(".", 2)[:2]) if name.startswith("envs.") else name.split(".", 1)[0]] += seconds
        # shares of all traced self time, which exceeds wall time when pool threads overlap
        total = sum(self_s) or 1.0
        for group in ("protocol", "cognition", "memory", "backends", "remote_transport",
                      "envs.market", "envs.social", "envs.economy", "cli", "scripted_model"):
            out[f"layer_share.{group}"] = groups[group] / total
        out["layer_share.agent_stack"] = (groups["cognition"] + groups["memory"] + groups["backends"]) / total
        return out
