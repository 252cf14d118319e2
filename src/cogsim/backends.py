"""Completion backends, the bounded tool-call loop, and two-stage structured parsing.

Backends share one interface: ``complete(request) -> CompletionResult``.
Scripted and replay backends are pure functions of the request, which is
what makes whole simulations testable offline; the remote backend speaks
the common chat-completions wire shape with bounded retries and an
in-flight cap.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .errors import ConfigError, ParseFailure, RemoteExhausted, RemoteTimeout, ReplayMiss
from .protocol import ToolSpec
from .schema import ResponseSchema, canonical_json, validate_action


@dataclass(frozen=True)
class ToolCallRequest:
    """A tool invocation requested by the model."""

    id: str
    name: str
    arguments_text: str


def _call_to_json(call: ToolCallRequest) -> dict[str, str]:
    """A tool call as transcripts write it, in fingerprints and in replay files alike."""
    return {"id": call.id, "name": call.name, "arguments": call.arguments_text}


def _call_from_json(obj: dict[str, str]) -> ToolCallRequest:
    return ToolCallRequest(id=obj["id"], name=obj["name"], arguments_text=obj["arguments"])


@dataclass(frozen=True)
class ChatTurn:
    """One turn of a chat transcript; role=tool turns answer a prior request."""

    role: str  # system | user | assistant | tool
    content: str
    tool_calls: tuple[ToolCallRequest, ...] = ()
    tool_call_id: str | None = None

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant", "tool"):
            raise ValueError(f"unknown turn role {self.role!r}")
        if self.role == "tool" and not self.tool_call_id:
            raise ValueError("tool turns require tool_call_id")


@dataclass
class CompletionRequest:
    turns: list[ChatTurn]
    model_id: str = "scripted"
    temperature: float = 0.0
    tools: list[ToolSpec] = field(default_factory=list)
    response_schema: ResponseSchema | None = None
    max_retries: int = 2

    def __post_init__(self):
        if not self.turns:
            raise ValueError("completion request needs at least one turn")

    def rendered(self) -> str:
        """Flat text view of the transcript, used by scripted rule predicates."""
        parts: list[str] = []
        for turn in self.turns:
            parts += ("\n", turn.role, ": ", turn.content)
            for call in turn.tool_calls:
                parts += ("\n", turn.role, " tool_call ", call.name, "(", call.arguments_text, ")")
        return "".join(parts[1:])


@dataclass(frozen=True)
class CompletionResult:
    content: str = ""
    tool_calls: tuple[ToolCallRequest, ...] = ()

    def __post_init__(self):
        if not self.content and not self.tool_calls:
            raise ValueError("completion result must carry content or tool calls")


def request_fingerprint(request: CompletionRequest) -> str:
    """Stable hash of (turns, tools, schema); model and temperature are
    excluded, so recorded transcripts survive cosmetic config changes."""
    payload: dict[str, Any] = {
        "turns": [
            {
                "role": t.role,
                "content": t.content,
                "tool_calls": [_call_to_json(c) for c in t.tool_calls],
                "tool_call_id": t.tool_call_id,
            }
            for t in request.turns
        ],
        "tools": [
            {"name": tool.name, "schema": tool.parameter_schema.json_schema()}
            for tool in request.tools
        ],
        "schema": request.response_schema.json_schema() if request.response_schema else None,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class CompletionBackend:
    """Interface: a shared, concurrently-callable completion provider."""

    def complete(self, request: CompletionRequest) -> CompletionResult:
        raise NotImplementedError


RulePredicate = Callable[[str], bool]
RuleResult = CompletionResult | Callable[[str], CompletionResult]


class ScriptedBackend(CompletionBackend):
    """Deterministic rule-table backend: first matching predicate fires.

    Predicates and callable results receive the rendered transcript text.
    The table is read-only after construction, so one instance can serve
    many agents concurrently.
    """

    def __init__(self, rules: Sequence[tuple[RulePredicate, RuleResult]] = (), default: RuleResult | None = None):
        self.rules = list(rules)
        self.default = default if default is not None else CompletionResult(content="ok")

    def complete(self, request: CompletionRequest) -> CompletionResult:
        text = request.rendered()
        for predicate, result in self.rules:
            if predicate(text):
                return result(text) if callable(result) else result
        default = self.default
        return default(text) if callable(default) else default


class ReplayBackend(CompletionBackend):
    """Serves recorded results keyed by request fingerprint; a request with no
    recorded result raises :class:`ReplayMiss`."""

    def __init__(self, transcript: dict[str, CompletionResult] | None = None):
        self.transcript = dict(transcript or {})

    def complete(self, request: CompletionRequest) -> CompletionResult:
        key = request_fingerprint(request)
        if key not in self.transcript:
            raise ReplayMiss(f"no recorded result for fingerprint {key[:16]}...")
        return self.transcript[key]

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "fingerprint": fingerprint,
                    "result": {"content": result.content, "tool_calls": [_call_to_json(c) for c in result.tool_calls]},
                },
                sort_keys=True,
            )
            for fingerprint, result in sorted(self.transcript.items())
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_jsonl(text: str) -> "ReplayBackend":
        transcript = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            result = obj["result"]
            calls = tuple(_call_from_json(c) for c in result.get("tool_calls", []))
            transcript[obj["fingerprint"]] = CompletionResult(content=result.get("content", ""), tool_calls=calls)
        return ReplayBackend(transcript)


class RecordingBackend(CompletionBackend):
    """Wraps another backend and captures (fingerprint, result) pairs for replay."""

    def __init__(self, inner: CompletionBackend):
        self.inner = inner
        self.transcript: dict[str, CompletionResult] = {}
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResult:
        result = self.inner.complete(request)
        key = request_fingerprint(request)
        with self._lock:
            self.transcript[key] = result
        return result

    def to_replay(self) -> ReplayBackend:
        return ReplayBackend(self.transcript)


class RemoteBackend(CompletionBackend):
    """Chat-completions-compatible HTTP backend.

    Auth comes from the environment variable named by ``auth_env`` (never
    from config files). Transport errors, 5xx and 429 responses are retried
    up to ``request.max_retries`` times with exponential backoff (attempt n
    waits 2^n x 100 ms, jittered from the injected stream), or as long as a
    429's ``Retry-After`` delta-seconds say (RFC 9110 section 10.2.3). Other
    4xx responses are fatal. At most ``in_flight_limit`` requests are open.

    ``requests`` is imported when the first remote backend is built, so a
    run on a local backend never loads an HTTP client.
    """

    def __init__(
        self,
        endpoint: str,
        auth_env: str | None = None,
        in_flight_limit: int = 4,
        timeout: float = 30.0,
        rng: random.Random | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        session: Any = None,  # a requests.Session; None opens one
    ):
        import requests

        if in_flight_limit < 1:
            raise ConfigError("must be >= 1", field="in_flight_limit")
        self.endpoint = endpoint
        self.auth_env = auth_env
        self.timeout = timeout
        self._semaphore = threading.BoundedSemaphore(in_flight_limit)
        self._rng = rng or random.Random(0)
        self._rng_lock = threading.Lock()
        self._sleeper = sleeper
        self._session = session or requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.auth_env:
            token = os.environ.get(self.auth_env, "")
            if token:
                headers["Authorization"] = f"Bearer {token}"
        return headers

    def _body(self, request: CompletionRequest) -> dict[str, Any]:
        messages = []
        for turn in request.turns:
            msg: dict[str, Any] = {"role": turn.role, "content": turn.content}
            if turn.tool_calls:
                msg["tool_calls"] = [
                    {
                        "id": c.id,
                        "type": "function",
                        "function": {"name": c.name, "arguments": c.arguments_text},
                    }
                    for c in turn.tool_calls
                ]
            if turn.tool_call_id is not None:
                msg["tool_call_id"] = turn.tool_call_id
            messages.append(msg)
        body: dict[str, Any] = {
            "model": request.model_id,
            "temperature": request.temperature,
            "messages": messages,
        }
        if request.tools:
            body["tools"] = [
                {
                    "type": "function",
                    "function": {
                        "name": tool.name,
                        "description": tool.description,
                        "parameters": tool.parameter_schema.json_schema(),
                    },
                }
                for tool in request.tools
            ]
        if request.response_schema is not None:
            body["response_format"] = {"type": "json_object"}
        return body

    def _backoff(self, attempt: int) -> float:
        with self._rng_lock:
            jitter = self._rng.uniform(0.5, 1.5)
        return 0.1 * (2**attempt) * jitter

    def complete(self, request: CompletionRequest) -> CompletionResult:
        import requests  # already loaded by __init__

        body = self._body(request)
        last_error: Exception | None = None
        timed_out = False
        for attempt in range(request.max_retries + 1):
            if attempt > 0:
                self._sleeper(self._backoff(attempt) if retry_after is None else retry_after)
            retry_after: float | None = None  # set by a 429 for the next attempt's wait
            try:
                with self._semaphore:
                    response = self._session.post(
                        self.endpoint, json=body, headers=self._headers(), timeout=self.timeout
                    )
            except requests.Timeout as exc:
                last_error, timed_out = exc, True
                continue
            except requests.RequestException as exc:
                last_error, timed_out = exc, False
                continue
            if response.status_code == 429:
                header = response.headers.get("Retry-After", "").strip()
                retry_after = float(header) if header.isascii() and header.isdigit() else None
                last_error, timed_out = RuntimeError("rate limited (429)"), False
                continue
            if response.status_code >= 500:
                last_error, timed_out = RuntimeError(f"server error {response.status_code}"), False
                continue
            if response.status_code >= 400:
                raise RemoteExhausted(f"remote rejected request: {response.status_code} {response.text[:200]}")
            return self._parse_response(response.json())
        if timed_out:
            raise RemoteTimeout(f"remote timed out after {request.max_retries + 1} attempts") from last_error
        raise RemoteExhausted(f"remote failed after {request.max_retries + 1} attempts: {last_error}")

    @staticmethod
    def _parse_response(payload: dict[str, Any]) -> CompletionResult:
        message = payload["choices"][0]["message"]
        calls = tuple(
            ToolCallRequest(
                id=c["id"],
                name=c["function"]["name"],
                arguments_text=c["function"]["arguments"],
            )
            for c in message.get("tool_calls") or []
        )
        return CompletionResult(content=message.get("content") or "", tool_calls=calls)


def run_tool_loop(
    backend: CompletionBackend,
    turns: list[ChatTurn],
    tools: list[ToolSpec],
    max_rounds: int = 5,
) -> tuple[str, list[tuple[ToolCallRequest, str]]]:
    """Let the model call tools for up to ``max_rounds`` rounds, then answer.

    Each round: complete with tools; if the result has no tool calls its
    content is the answer. Otherwise every requested tool runs (unknown
    names and handler failures become error-text tool turns) and the loop
    continues. After ``max_rounds`` tool rounds one final completion runs
    without tools and its content is returned regardless.

    Returns (final_text, trace) where trace lists each executed tool call
    with its result text.
    """
    by_name = {tool.name: tool for tool in tools}
    history = list(turns)
    trace: list[tuple[ToolCallRequest, str]] = []
    for _ in range(max_rounds):
        result = backend.complete(CompletionRequest(turns=history, tools=tools))
        if not result.tool_calls:
            return result.content, trace
        history.append(ChatTurn(role="assistant", content=result.content, tool_calls=result.tool_calls))
        for call in result.tool_calls:
            history.append(
                ChatTurn(role="tool", content=_execute_tool(call, by_name, trace), tool_call_id=call.id)
            )
    final = backend.complete(CompletionRequest(turns=history))
    return final.content, trace


def _execute_tool(
    call: ToolCallRequest,
    by_name: dict[str, ToolSpec],
    trace: list[tuple[ToolCallRequest, str]],
) -> str:
    tool = by_name.get(call.name)
    if tool is None:
        text = f"error: unknown tool {call.name}"
        trace.append((call, text))
        return text
    try:
        args = json.loads(call.arguments_text) if call.arguments_text.strip() else {}
        if not isinstance(args, dict):
            raise ValueError("tool arguments must be a JSON object")
        violations = validate_action(args, tool.parameter_schema)
        if violations:
            raise ValueError("; ".join(violations))
        text = str(tool.handler(**args))
    except Exception as exc:  # handler failures are non-fatal by design
        text = f"error: {exc}"
    trace.append((call, text))
    return text


PARSE_PROMPT = """Based on the text provided below, output JSON. If the input is plain text,
extract the necessary information while preserving the original wording
as much as possible. If the input is JSON, output it unchanged, except
fix any formatting errors you find.
```
{text}
```

The JSON should follow the schema below:
```
{schema}
```"""


def _try_parse_json_object(text: str) -> dict[str, Any] | None:
    candidate = text.strip()
    if candidate.startswith("```"):
        lines = candidate.splitlines()
        if len(lines) >= 2 and lines[-1].strip().startswith("```"):
            candidate = "\n".join(lines[1:-1]).strip()
    try:
        obj = json.loads(candidate)
    except (json.JSONDecodeError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


def parse_structured(
    raw_text: str,
    schema: ResponseSchema,
    backend: CompletionBackend,
    max_retries: int = 2,
) -> dict[str, Any]:
    """Convert free text into a schema-valid payload via a second parsing pass.

    Raw text that already parses as a valid JSON object short-circuits the
    backend entirely. Otherwise the text is re-submitted with the
    schema embedded; each invalid round retries with the violation list
    appended, up to ``max_retries`` extra attempts. These parse retries
    leave each request's transport retry budget at its default.

    Raises :class:`ParseFailure` (carrying the last violations) when the
    retries are exhausted.
    """
    direct = _try_parse_json_object(raw_text)
    if direct is not None and not validate_action(direct, schema):
        return direct
    prompt = PARSE_PROMPT.format(text=raw_text, schema=schema.json_text)
    violations: list[str] = ["not valid JSON"]
    for attempt in range(max_retries + 1):
        content = prompt
        if attempt > 0:
            content = prompt + "\n\nThe previous output was invalid:\n" + "\n".join(violations)
        result = backend.complete(
            CompletionRequest(turns=[ChatTurn(role="user", content=content)], response_schema=schema)
        )
        payload = _try_parse_json_object(result.content)
        if payload is None:
            violations = ["parser output was not a JSON object"]
            continue
        violations = validate_action(payload, schema)
        if not violations:
            return payload
    raise ParseFailure(f"no valid payload after {max_retries + 1} attempts", violations)
