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
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .errors import ConfigError, ParseFailure, RemoteExhausted, RemoteTimeout, ReplayMiss
from .protocol import ToolSpec
from .schema import ResponseSchema, canonical_json, validate_action

REMOTE_ATTEMPTS = 3  # how many times a RemoteBackend sends one request before it gives up


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


@dataclass(frozen=True, slots=True, init=False)
class ChatTurn:
    """One turn of a chat transcript; role=tool turns answer a prior request."""

    role: str  # system | user | assistant | tool
    content: str
    tool_calls: tuple[ToolCallRequest, ...]
    tool_call_id: str | None

    def __init__(
        self, role: str, content: str, tool_calls: tuple[ToolCallRequest, ...] = (), tool_call_id: str | None = None
    ):
        if role not in ("system", "user", "assistant", "tool"):
            raise ValueError(f"unknown turn role {role!r}")
        if role == "tool" and not tool_call_id:
            raise ValueError("tool turns require tool_call_id")
        init = object.__setattr__  # frozen: each field is set once, here
        init(self, "role", role)
        init(self, "content", content)
        init(self, "tool_calls", tool_calls)
        init(self, "tool_call_id", tool_call_id)


@dataclass
class CompletionRequest:
    turns: list[ChatTurn]
    tools: list[ToolSpec] = field(default_factory=list)
    response_schema: ResponseSchema | None = None

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


@dataclass(frozen=True, slots=True, init=False)
class CompletionResult:
    content: str
    tool_calls: tuple[ToolCallRequest, ...]

    def __init__(self, content: str = "", tool_calls: tuple[ToolCallRequest, ...] = ()):
        if not content and not tool_calls:
            raise ValueError("completion result must carry content or tool calls")
        init = object.__setattr__  # frozen: each field is set once, here
        init(self, "content", content)
        init(self, "tool_calls", tool_calls)


def request_fingerprint(request: CompletionRequest) -> str:
    """Stable hash of the whole request: turns, tools and schema. Model, temperature
    and retries are the backend's, so a recorded transcript replays under any of them."""
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

    def close(self) -> None:
        """Release what the backend keeps open between requests; the base keeps nothing."""


ScriptedDefault = CompletionResult | Callable[[str], CompletionResult]


class ScriptedBackend(CompletionBackend):
    """Deterministic rule-table backend: the first matching predicate's result
    answers, else ``default``.

    Predicates and a callable ``default`` receive the rendered transcript text.
    The table is read-only after construction, so one instance can serve
    many agents concurrently.
    """

    def __init__(self, rules: Sequence[tuple[Callable[[str], bool], CompletionResult]] = (), *, default: ScriptedDefault):
        self.rules = list(rules)
        self.default = default

    def complete(self, request: CompletionRequest) -> CompletionResult:
        text = request.rendered()
        for predicate, result in self.rules:
            if predicate(text):
                return result
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
        """The backend a :meth:`to_jsonl` text records; a line that is not a
        recorded result raises ``ValueError`` naming the line's number."""
        transcript = {}
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                result = obj["result"]
                content = result.get("content", "")
                if not isinstance(content, str):
                    raise TypeError(f"content is {type(content).__name__}, not a string")
                calls = tuple(_call_from_json(c) for c in result.get("tool_calls", []))
                transcript[obj["fingerprint"]] = CompletionResult(content=content, tool_calls=calls)
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                raise ValueError(f"line {number}: not a recorded result ({type(exc).__name__}: {exc})") from exc
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


def _readable(sock: Any) -> bool:
    """Whether ``sock`` has something to read now; ``poll``, where there is one,
    takes descriptors of any number, ``select`` only those below 1024."""
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class _ConnectionPool:
    """Keep-alive ``http.client`` connections to one endpoint.

    A request borrows an idle connection, or opens one, and returns it once
    the whole answer is read, unless the answer closes it; the backend's
    ``in_flight_limit`` bounds how many are open at once. An idle socket
    that is readable was dropped by the server (EOF, or bytes nobody asked
    for), so it is closed and skipped, as urllib3 does, and the request
    never reaches a connection the server has already closed.
    """

    def __init__(self, endpoint: str, timeout: float):
        import http.client
        from urllib.parse import urlsplit

        parts = urlsplit(endpoint)
        if parts.scheme == "https":
            import ssl

            context = ssl.create_default_context()
            self._connect = lambda: http.client.HTTPSConnection(
                parts.hostname, parts.port, timeout=timeout, context=context
            )
        elif parts.scheme == "http":
            self._connect = lambda: http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
        else:
            raise ConfigError(f"must be an http or https URL, got {endpoint!r}", field="endpoint")
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._idle: list[Any] = []
        self._lock = threading.Lock()

    def _borrow(self) -> Any:
        with self._lock:
            while self._idle:
                conn = self._idle.pop()
                if not _readable(conn.sock):
                    return conn
                conn.close()
        return self._connect()

    def post(self, data: bytes, headers: dict[str, str]) -> tuple[int, Any, bytes]:
        """Send ``data`` in one request and return the answer's status, headers
        and body; raises ``OSError`` (``TimeoutError`` on a timeout) or
        ``http.client.HTTPException`` when the exchange fails."""
        conn = self._borrow()
        try:
            conn.request("POST", self._target, body=data, headers=headers)
            answer = conn.getresponse()
            response = answer.status, answer.headers, answer.read()
        except BaseException:
            conn.close()
            raise
        if answer.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return response

    def close(self) -> None:
        """Close every idle connection; borrowed ones close or come back as usual."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class RemoteBackend(CompletionBackend):
    """Chat-completions-compatible HTTP backend.

    Auth comes from the environment variable named by ``auth_env`` (never
    from config files). A request goes out as model ``"scripted"`` at
    temperature 0.0, up to ``REMOTE_ATTEMPTS`` times: transport errors, 5xx
    and 429 responses retry after an exponential backoff (attempt n waits
    2^n x 100 ms, jittered from a fixed ``random.Random(0)`` stream) or a 429's
    ``Retry-After`` delta-seconds (RFC 9110 section 10.2.3), up to ``timeout``.
    Other 4xx responses are fatal. At most ``in_flight_limit`` requests are open.

    Requests go over keep-alive ``http.client`` connections (``https``
    endpoints with the default verifying SSL context), imported when the
    first remote backend is built, so a run on a local backend never loads
    an HTTP client. ``session`` replaces that transport with any object that
    has the shape of ``requests.Session.post(url, json=, headers=,
    timeout=)`` and raises ``OSError`` when the transport fails, a
    ``TimeoutError`` when it times out.
    """

    def __init__(
        self,
        endpoint: str,
        auth_env: str | None = None,
        in_flight_limit: int = 4,
        timeout: float = 30.0,
        sleeper: Callable[[float], None] = time.sleep,
        session: Any = None,
    ):
        if in_flight_limit < 1:
            raise ConfigError("must be >= 1", field="in_flight_limit")
        self.endpoint = endpoint
        self.auth_env = auth_env
        self.in_flight_limit = in_flight_limit
        self.timeout = timeout
        self._semaphore = threading.BoundedSemaphore(in_flight_limit)
        self._rng = random.Random(0)
        self._rng_lock = threading.Lock()
        self._sleeper = sleeper
        self._session = session
        self._pool = None if session is not None else _ConnectionPool(endpoint, timeout)

    def close(self) -> None:
        """Close the idle keep-alive connections; an injected ``session`` is its owner's to close."""
        if self._pool is not None:
            self._pool.close()

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
            "model": "scripted",
            "temperature": 0.0,
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

    def _post(self, body: dict[str, Any], data: bytes) -> tuple[int, Any, bytes]:
        """One attempt: the answer's status, headers (with a case-insensitive
        ``get``) and body."""
        if self._pool is not None:
            return self._pool.post(data, self._headers())
        response = self._session.post(self.endpoint, json=body, headers=self._headers(), timeout=self.timeout)
        return response.status_code, response.headers, response.content

    def complete(self, request: CompletionRequest) -> CompletionResult:
        import http.client  # already loaded by __init__ or by the injected session

        body = self._body(request)
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        last_error: Exception | None = None
        timed_out = False
        for attempt in range(REMOTE_ATTEMPTS):
            if attempt > 0:
                self._sleeper(self._backoff(attempt) if retry_after is None else min(retry_after, self.timeout))
            retry_after: float | None = None  # set by a 429 for the next attempt's wait
            try:
                with self._semaphore:
                    status, headers, content = self._post(body, data)
            except TimeoutError as exc:
                last_error, timed_out = exc, True
                continue
            except (OSError, http.client.HTTPException) as exc:
                last_error, timed_out = exc, False
                continue
            if status == 429:
                header = headers.get("Retry-After", "").strip()
                retry_after = float(header) if header.isascii() and header.isdigit() else None
                last_error, timed_out = RuntimeError("rate limited (429)"), False
                continue
            if status >= 500:
                last_error, timed_out = RuntimeError(f"server error {status}"), False
                continue
            if status >= 400:
                text = content[:200].decode("utf-8", "replace")
                raise RemoteExhausted(f"remote rejected request: {status} {text}")
            return self._parse_response(content)
        if timed_out:
            raise RemoteTimeout(f"remote timed out after {REMOTE_ATTEMPTS} attempts") from last_error
        raise RemoteExhausted(f"remote failed after {REMOTE_ATTEMPTS} attempts: {last_error}")

    @staticmethod
    def _parse_response(content: bytes) -> CompletionResult:
        """The answer a 2xx body carries; a body that is not one (a malformed tool
        call included) raises :class:`RemoteExhausted` quoting its first 200 bytes."""
        try:
            message = json.loads(content)["choices"][0]["message"]
            answer = message.get("content") or ""
            if not isinstance(answer, str):
                raise TypeError("message content is not a string")
            calls = tuple(
                ToolCallRequest(
                    id=c["id"],
                    name=c["function"]["name"],
                    arguments_text=c["function"]["arguments"],
                )
                for c in message.get("tool_calls") or []
            )
            if any(not isinstance(part, str) or not c.id for c in calls for part in (c.id, c.name, c.arguments_text)):
                raise TypeError("a tool call's id, name or arguments is not a str, or its id is empty")
            return CompletionResult(content=answer, tool_calls=calls)
        except (ValueError, LookupError, TypeError, AttributeError, RecursionError) as exc:
            text = content[:200].decode("utf-8", "replace")
            raise RemoteExhausted(f"remote sent a malformed answer: {text}") from exc


def _finite_number(token: str) -> float:
    """A JSON number token of model text as a float; ``NaN``, ``Infinity`` and
    a number past the float range (``1e999``) raise ``ValueError``, since no
    event line could hold them as JSON."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


_model_json = json.JSONDecoder(parse_float=_finite_number, parse_constant=_finite_number)


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
    by_name: dict[str, ToolSpec] | None = None  # built, with a history of its own, at the first tool call
    history = turns
    trace: list[tuple[ToolCallRequest, str]] = []
    for _ in range(max_rounds):
        result = backend.complete(CompletionRequest(turns=history, tools=tools))
        if not result.tool_calls:
            return result.content, trace
        if by_name is None:
            by_name = {tool.name: tool for tool in tools}
            history = list(turns)
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
        args = _model_json.decode(call.arguments_text) if call.arguments_text.strip() else {}
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
    if not candidate.startswith("{"):  # free text stops here, not in a decode error: an object starts with a brace
        return None
    try:  # decode without its whitespace scans, which stripped text does not need
        obj, end = _model_json.raw_decode(candidate)
    except ValueError:
        return None
    return obj if end == len(candidate) else None


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
    appended, up to ``max_retries`` extra attempts. Each parse attempt is
    one request, which the backend may retry on its own transport.

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
            CompletionRequest(turns=[ChatTurn("user", content)], response_schema=schema)
        )
        payload = _try_parse_json_object(result.content)
        if payload is None:
            violations = ["parser output was not a JSON object"]
            continue
        violations = validate_action(payload, schema)
        if not violations:
            return payload
    raise ParseFailure(f"no valid payload after {max_retries + 1} attempts", violations)
