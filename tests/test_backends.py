import dataclasses
import gc
import hashlib
import http.client
import json
import socket
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogsim.backends import (
    REMOTE_ATTEMPTS,
    ChatTurn,
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
from cogsim.cli import main
from cogsim.errors import ParseFailure, RemoteExhausted, RemoteTimeout, ReplayMiss
from cogsim.protocol import ToolSpec
from cogsim.schema import ResponseSchema


def simple_request(text="hello", **kwargs):
    return CompletionRequest(turns=[ChatTurn(role="user", content=text)], **kwargs)


class CountingBackend:
    def __init__(self, results):
        self.results = list(results)
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        result = self.results[min(self.calls - 1, len(self.results) - 1)]
        return result(request) if callable(result) else result


# --- scripted -------------------------------------------------------------


def test_scripted_default_fires_with_empty_rules():
    backend = ScriptedBackend(default=CompletionResult(content="ok"))
    assert backend.complete(simple_request("anything")).content == "ok"


def test_scripted_first_matching_rule_wins():
    backend = ScriptedBackend(
        rules=[
            (lambda text: "sell" in text, CompletionResult(content="selling")),
            (lambda text: "stock" in text, CompletionResult(content="fallthrough")),
        ],
        default=CompletionResult(content="default"),
    )
    assert backend.complete(simple_request("time to sell stock")).content == "selling"
    assert backend.complete(simple_request("stocks")).content == "fallthrough"
    assert backend.complete(simple_request("hm")).content == "default"


def test_scripted_is_pure():
    backend = ScriptedBackend(default=CompletionResult(content="x"))
    a = backend.complete(simple_request("q"))
    b = backend.complete(simple_request("q"))
    assert a == b


# --- replay ----------------------------------------------------------------


def test_replay_hit_and_miss():
    request = simple_request("what is the answer")
    key = request_fingerprint(request)
    backend = ReplayBackend({key: CompletionResult(content="42")})
    assert backend.complete(request).content == "42"
    assert backend.complete(simple_request("what is the answer")).content == "42"
    with pytest.raises(ReplayMiss):
        backend.complete(simple_request("perturbed"))


def test_fingerprint_sensitive_to_turns_tools_schema():
    # a request holds exactly what its fingerprint hashes; model, temperature and retries are the backend's
    assert [f.name for f in dataclasses.fields(CompletionRequest)] == ["turns", "tools", "response_schema"]
    base = request_fingerprint(simple_request("q"))
    assert request_fingerprint(simple_request("q!")) != base
    tool = ToolSpec(name="t", description="d", parameter_schema=ResponseSchema.of(), handler=lambda: "")
    assert request_fingerprint(simple_request("q", tools=[tool])) != base
    assert request_fingerprint(simple_request("q", response_schema=ResponseSchema.of(a="integer"))) != base


def test_fingerprint_stable_across_processes():
    import subprocess
    import sys

    code = (
        "from cogsim.backends import ChatTurn, CompletionRequest, request_fingerprint;"
        "print(request_fingerprint(CompletionRequest(turns=[ChatTurn(role='user', content='q')])))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == request_fingerprint(simple_request("q"))


def test_replay_transcript_jsonl_roundtrip():
    request = simple_request("q")
    recording = RecordingBackend(ScriptedBackend(default=CompletionResult(content="a")))
    recording.complete(request)
    replay = ReplayBackend(recording.transcript)
    text = replay.to_jsonl()
    restored = ReplayBackend.from_jsonl(text)
    assert restored.complete(simple_request("q")).content == "a"
    assert restored.to_jsonl() == text


def test_fingerprint_and_transcript_bytes_are_pinned():
    call = ToolCallRequest(id="call_1", name="news", arguments_text='{"topic": "tariffs"}')
    request = CompletionRequest(
        turns=[
            ChatTurn(role="user", content="q"),
            ChatTurn(role="assistant", content="", tool_calls=(call,)),
            ChatTurn(role="tool", content="none", tool_call_id="call_1"),
        ],
        tools=[make_tool("news", lambda topic: "", topic="string")],
        response_schema=ResponseSchema.of(a="integer"),
    )
    key = request_fingerprint(request)
    assert key == "60fabfcc7fbeec247f112455861f78c0ff5a9bef62af72a94e38064e986424e8"
    text = ReplayBackend({key: CompletionResult(content="checking", tool_calls=(call,))}).to_jsonl()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "d832dfc94f5574cb7738c4ee5d26e0e8bc213f47914cdbe3e2a416a682fc894b"
    assert ReplayBackend.from_jsonl(text).complete(request).tool_calls == (call,)


# --- tool loop ---------------------------------------------------------------


def make_tool(name, handler, **schema):
    return ToolSpec(
        name=name,
        description=f"tool {name}",
        parameter_schema=ResponseSchema.of(**schema),
        handler=handler,
    )


def tool_call(name, args="{}", call_id="c1"):
    return CompletionResult(
        content="", tool_calls=(ToolCallRequest(id=call_id, name=name, arguments_text=args),)
    )


def test_direct_answer_is_single_completion():
    backend = CountingBackend([CompletionResult(content="done")])
    text, trace = run_tool_loop(backend, [ChatTurn(role="user", content="q")], tools=[])
    assert text == "done"
    assert trace == []
    assert backend.calls == 1


def test_one_tool_call_then_answer():
    hits = []

    def news_handler(topic):
        hits.append(topic)
        return f"news about {topic}"

    tool = make_tool("news", news_handler, topic="string")
    backend = CountingBackend(
        [tool_call("news", json.dumps({"topic": "tariffs"})), CompletionResult(content="final")]
    )
    text, trace = run_tool_loop(backend, [ChatTurn(role="user", content="q")], tools=[tool])
    assert text == "final"
    assert len(trace) == 1
    assert hits == ["tariffs"]
    assert trace[0][1] == "news about tariffs"


def test_always_tools_hits_round_cap_plus_final():
    tool = make_tool("t", lambda: "r")
    backend = CountingBackend([tool_call("t")])
    text, trace = run_tool_loop(backend, [ChatTurn(role="user", content="q")], tools=[tool], max_rounds=5)
    # 5 tool rounds then one final completion without tools
    assert backend.calls == 6
    assert len(trace) == 5


def test_unknown_tool_surfaces_error_and_continues():
    backend = CountingBackend([tool_call("ghost"), CompletionResult(content="end")])
    text, trace = run_tool_loop(backend, [ChatTurn(role="user", content="q")], tools=[])
    assert text == "end"
    assert trace[0][1] == "error: unknown tool ghost"


def test_failing_handler_is_non_fatal():
    def boom():
        raise RuntimeError("kaput")

    tool = make_tool("boom", boom)
    backend = CountingBackend([tool_call("boom"), CompletionResult(content="survived")])
    text, trace = run_tool_loop(backend, [ChatTurn(role="user", content="q")], tools=[tool])
    assert text == "survived"
    assert trace[0][1].startswith("error:")


def test_bad_tool_arguments_become_error_text():
    tool = make_tool("t", lambda n: str(n), n="integer")
    backend = CountingBackend([tool_call("t", '{"n": "NaN"}'), CompletionResult(content="end")])
    _, trace = run_tool_loop(backend, [ChatTurn(role="user", content="q")], tools=[tool])
    assert trace[0][1].startswith("error:")


@pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e999"])
def test_a_non_finite_tool_argument_becomes_error_text(number):
    tool = make_tool("t", lambda n: str(n), n="number")
    backend = CountingBackend([tool_call("t", f'{{"n": {number}}}'), CompletionResult(content="end")])
    _, trace = run_tool_loop(backend, [ChatTurn(role="user", content="q")], tools=[tool])
    assert trace[0][1] == f"error: {number} is not a finite number"


def test_tool_turns_reference_prior_calls():
    captured = []

    class Spy:
        def complete(self, request):
            captured.append(request.turns)
            if len(captured) == 1:
                return tool_call("t", call_id="id-7")
            return CompletionResult(content="x")

    tool = make_tool("t", lambda: "r")
    run_tool_loop(Spy(), [ChatTurn(role="user", content="q")], tools=[tool])
    final_turns = captured[-1]
    tool_turns = [t for t in final_turns if t.role == "tool"]
    assert len(tool_turns) == 1
    assert tool_turns[0].tool_call_id == "id-7"
    call_ids = {c.id for t in final_turns for c in t.tool_calls}
    assert tool_turns[0].tool_call_id in call_ids


def test_zero_rounds_goes_straight_to_final():
    backend = CountingBackend([CompletionResult(content="only")])
    text, trace = run_tool_loop(backend, [ChatTurn(role="user", content="q")], tools=[], max_rounds=0)
    assert text == "only"
    assert backend.calls == 1
    assert trace == []


def test_loop_bound_holds_for_all_paths():
    for max_rounds in range(0, 4):
        tool = make_tool("t", lambda: "r")
        backend = CountingBackend([tool_call("t")])
        run_tool_loop(backend, [ChatTurn(role="user", content="q")], tools=[tool], max_rounds=max_rounds)
        assert backend.calls <= max_rounds + 2


# --- two-stage parsing --------------------------------------------------------


def test_parse_short_circuits_valid_json():
    backend = CountingBackend([CompletionResult(content="should not be called")])
    schema = ResponseSchema.of(bid="integer")
    payload = parse_structured('{"bid": 600}', schema, backend)
    assert payload == {"bid": 600}
    assert backend.calls == 0


def test_parse_stage_two_extracts():
    backend = ScriptedBackend(default=CompletionResult(content='{"bid": 600}'))
    schema = ResponseSchema.of(bid="integer")
    payload = parse_structured("I will bid 600 dollars", schema, backend)
    assert payload == {"bid": 600}


def test_parse_failure_after_exact_attempts():
    backend = CountingBackend([CompletionResult(content='{"bid": "high"}')])
    schema = ResponseSchema.of(bid="integer")
    with pytest.raises(ParseFailure) as err:
        parse_structured("whatever", schema, backend, max_retries=2)
    assert backend.calls == 3  # max_retries + 1 attempts
    assert any("bid" in v for v in err.value.violations)


def test_parse_retry_feedback_appends_violations():
    seen = []

    class Spy:
        def complete(self, request):
            seen.append(request.turns[0].content)
            return CompletionResult(content='{"bid": "high"}')

    with pytest.raises(ParseFailure):
        parse_structured("text", ResponseSchema.of(bid="integer"), Spy(), max_retries=1)
    assert "invalid" in seen[1]
    assert "bid" in seen[1]


def test_parse_recovers_on_retry():
    backend = CountingBackend(
        [CompletionResult(content="not json"), CompletionResult(content='{"bid": 3}')]
    )
    payload = parse_structured("text", ResponseSchema.of(bid="integer"), backend, max_retries=2)
    assert payload == {"bid": 3}
    assert backend.calls == 2


def test_parse_handles_fenced_json():
    backend = CountingBackend([CompletionResult(content='```json\n{"bid": 1}\n```')])
    payload = parse_structured("text", ResponseSchema.of(bid="integer"), backend)
    assert payload == {"bid": 1}


def test_parse_never_accepts_invalid_silently():
    import random

    rng = random.Random(99)
    schema = ResponseSchema.of(bid="integer")
    for _ in range(40):
        # parser that always emits an invalid payload of random shape
        bad = rng.choice(['{"bid": "x"}', "{}", '{"other": 1}', "garbage"])
        backend = ScriptedBackend(default=CompletionResult(content=bad))
        with pytest.raises(ParseFailure):
            parse_structured("malformed input", schema, backend, max_retries=1)


# --- remote ------------------------------------------------------------------


class StubHandler(BaseHTTPRequestHandler):
    fail_times = 0
    fail_status = 500
    fail_headers: dict[str, str] = {}
    seen_bodies = []
    concurrent = 0
    max_concurrent = 0
    lock = threading.Lock()
    delay = 0.0
    content = "stub says hi"

    def do_POST(self):
        cls = type(self)
        with cls.lock:
            cls.concurrent += 1
            cls.max_concurrent = max(cls.max_concurrent, cls.concurrent)
        # a request stops counting before its answer is sent: once the client
        # has read the answer and released its slot, the next request may
        # arrive before this handler returns
        try:
            length = int(self.headers["Content-Length"])
            body = json.loads(self.rfile.read(length))
            with cls.lock:
                cls.seen_bodies.append((body, dict(self.headers)))
                should_fail = cls.fail_times > 0
                if should_fail:
                    cls.fail_times -= 1
            content = cls.content(body) if callable(cls.content) else cls.content
            if cls.delay:
                time.sleep(cls.delay)
        finally:
            with cls.lock:
                cls.concurrent -= 1
        if should_fail:
            self.send_response(cls.fail_status)
            for name, value in cls.fail_headers.items():
                self.send_header(name, value)
            self.end_headers()
            return
        if isinstance(content, bytes):  # a whole answer body, sent as it is
            data = content
        else:
            data = json.dumps({"choices": [{"message": {"content": content, "tool_calls": None}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    class Handler(StubHandler):
        fail_times = 0
        seen_bodies = []
        concurrent = 0
        max_concurrent = 0
        lock = threading.Lock()
        delay = 0.0

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", Handler
    server.shutdown()
    server.server_close()


def test_remote_round_trip(stub_server, monkeypatch):
    url, handler = stub_server
    monkeypatch.setenv("STUB_TOKEN", "sekrit")
    backend = RemoteBackend(url, auth_env="STUB_TOKEN", sleeper=lambda s: None)
    tool = ToolSpec(name="t", description="d", parameter_schema=ResponseSchema.of(q="string"), handler=lambda q: q)
    request = CompletionRequest(
        turns=[ChatTurn(role="system", content="sys"), ChatTurn(role="user", content="hi")],
        tools=[tool],
        response_schema=ResponseSchema.of(a="integer"),
    )
    result = backend.complete(request)
    assert result.content == "stub says hi"
    body, headers = handler.seen_bodies[0]
    # every request posts the same model and temperature, first, as the backend's own settings
    assert list(body)[:3] == ["model", "temperature", "messages"]
    assert body["model"] == "scripted"
    assert body["temperature"] == 0.0
    assert body["messages"][0] == {"role": "system", "content": "sys"}
    assert body["tools"][0]["type"] == "function"
    assert body["tools"][0]["function"]["name"] == "t"
    assert body["response_format"] == {"type": "json_object"}
    assert headers["Authorization"] == "Bearer sekrit"


def test_remote_retries_on_5xx_then_succeeds(stub_server):
    url, handler = stub_server
    handler.fail_times = 2
    waits = []
    backend = RemoteBackend(url, sleeper=waits.append)
    result = backend.complete(simple_request("q"))
    assert result.content == "stub says hi"
    assert len(handler.seen_bodies) == 3
    assert len(waits) == 2
    # exponential backoff: attempt 1 ~0.2s, attempt 2 ~0.4s, jitter in [0.5, 1.5]
    assert 0.1 <= waits[0] <= 0.3
    assert 0.2 <= waits[1] <= 0.6
    assert waits[1] > waits[0]


def test_remote_retries_429_after_retry_after(stub_server):
    url, handler = stub_server
    handler.fail_times, handler.fail_status, handler.fail_headers = 1, 429, {"Retry-After": "0"}
    waits = []
    backend = RemoteBackend(url, sleeper=waits.append)
    assert backend.complete(simple_request("q")).content == "stub says hi"
    assert len(handler.seen_bodies) == 2
    assert waits == [0]


@pytest.mark.parametrize("retry_after", ["86400", "9" * 400], ids=["a_day", "parses_to_inf"])
def test_remote_429_waits_at_most_timeout(stub_server, retry_after):
    url, handler = stub_server
    handler.fail_times, handler.fail_status, handler.fail_headers = 2, 429, {"Retry-After": retry_after}
    waits = []
    backend = RemoteBackend(url, timeout=5.0, sleeper=waits.append)
    assert backend.complete(simple_request("q")).content == "stub says hi"
    assert len(handler.seen_bodies) == 3
    assert waits == [backend.timeout, backend.timeout]


def test_remote_429_with_http_date_waits_backoff(stub_server):
    url, handler = stub_server
    handler.fail_times, handler.fail_status = 1, 429
    handler.fail_headers = {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}
    waits = []
    backend = RemoteBackend(url, sleeper=waits.append)
    assert backend.complete(simple_request("q")).content == "stub says hi"
    assert len(waits) == 1 and 0.1 <= waits[0] <= 0.3


def test_remote_other_4xx_is_fatal(stub_server):
    url, handler = stub_server
    handler.fail_times, handler.fail_status = 1, 400
    backend = RemoteBackend(url, sleeper=lambda s: None)
    with pytest.raises(RemoteExhausted):
        backend.complete(simple_request("q"))
    assert len(handler.seen_bodies) == 1


def test_remote_exhausts_retries(stub_server):
    url, handler = stub_server
    handler.fail_times = 99
    backend = RemoteBackend(url, sleeper=lambda s: None)
    with pytest.raises(RemoteExhausted, match="after 3 attempts"):
        backend.complete(simple_request("q"))
    assert len(handler.seen_bodies) == REMOTE_ATTEMPTS == 3


def test_remote_timeout_raises_dedicated_error(stub_server):
    url, handler = stub_server
    handler.delay = 0.5
    backend = RemoteBackend(url, timeout=0.05, sleeper=lambda s: None)
    from cogsim.errors import RemoteTimeout

    with pytest.raises(RemoteTimeout):
        backend.complete(simple_request("q"))


def test_remote_in_flight_limit(stub_server):
    url, handler = stub_server
    handler.delay = 0.05
    backend = RemoteBackend(url, in_flight_limit=2, sleeper=lambda s: None)
    threads = [
        threading.Thread(target=lambda: backend.complete(simple_request(f"q{i}")))
        for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert handler.max_concurrent <= 2
    assert len(handler.seen_bodies) == 8


class ClosingServer(ThreadingHTTPServer):
    """Answers the first request as HTTP/1.1 without ``Connection: close``, so
    the client keeps the connection, then closes it anyway; later answers say
    ``Connection: close``, so that the client keeps no socket open."""

    def __init__(self):
        class Handler(StubHandler):
            protocol_version = "HTTP/1.1"
            seen_bodies = []
            lock = threading.Lock()

            def end_headers(self):
                if len(self.seen_bodies) > 1:
                    self.send_header("Connection", "close")
                super().end_headers()

            def do_POST(self):
                super().do_POST()
                self.close_connection = True

        super().__init__(("127.0.0.1", 0), Handler)
        self.handler = Handler
        self.closed = threading.Semaphore(0)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


def test_remote_reconnects_for_free_when_the_server_dropped_a_kept_connection():
    server = ClosingServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        waits = []
        backend = RemoteBackend(f"http://127.0.0.1:{server.server_address[1]}/v1", sleeper=waits.append)
        assert backend.complete(simple_request("first")).content == "stub says hi"
        assert server.closed.acquire(timeout=5)
        assert backend.complete(simple_request("second")).content == "stub says hi"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert waits == []
    assert [body["messages"][0]["content"] for body, _ in server.handler.seen_bodies] == ["first", "second"]


def test_remote_threads_share_kept_connections_without_handing_one_out_twice():
    class Handler(StubHandler):
        protocol_version = "HTTP/1.1"
        seen_bodies = []
        lock = threading.Lock()
        connections = 0

        def setup(self):
            super().setup()
            with self.lock:
                type(self).connections += 1

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    waits = []
    backend = RemoteBackend(f"http://127.0.0.1:{server.server_address[1]}/v1", in_flight_limit=3, sleeper=waits.append)

    def ask(worker):
        for i in range(25):
            assert backend.complete(simple_request(f"w{worker} q{i}")).content == "stub says hi"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=ask, args=(w,)) for w in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        backend.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not any(worker.is_alive() for worker in workers)
    assert waits == []
    assert len(Handler.seen_bodies) == 8 * 25
    assert Handler.connections <= 3


def test_remote_connection_refused_spends_every_attempt():
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]  # closed again before the backend connects
    waits = []
    backend = RemoteBackend(f"http://127.0.0.1:{port}/v1", sleeper=waits.append)
    with pytest.raises(RemoteExhausted, match="after 3 attempts") as failure:
        backend.complete(simple_request("q"))
    assert "refused" in str(failure.value).lower()
    assert len(waits) == 2
    assert 0.1 <= waits[0] <= 0.3 and 0.2 <= waits[1] <= 0.6


class FailingSession:
    """A ``requests.Session`` stand-in whose every post fails with ``error``."""

    def __init__(self, error):
        self.error, self.posts = error, 0

    def post(self, url, json, headers, timeout):
        self.posts += 1
        raise self.error


@pytest.mark.parametrize(
    "error,raised",
    [
        (TimeoutError("read timed out"), RemoteTimeout),
        (ConnectionResetError("reset by peer"), RemoteExhausted),
        (http.client.IncompleteRead(b""), RemoteExhausted),
    ],
    ids=["timeout", "os-error", "http-exception"],
)
def test_remote_injected_session_failures_are_retried_then_raised(error, raised):
    session = FailingSession(error)
    backend = RemoteBackend("http://127.0.0.1:9/v1", sleeper=lambda s: None, session=session)
    with pytest.raises(raised):
        backend.complete(simple_request("q"))
    assert session.posts == 3


class AnsweringSession:
    """A ``requests.Session`` stand-in that answers every post with 200 and ``content``."""

    def __init__(self, content):
        self.content, self.bodies = content, []

    def post(self, url, json, headers, timeout):
        self.bodies.append(json)
        return SimpleNamespace(status_code=200, headers={}, content=self.content)


def test_remote_injected_session_answer_is_parsed():
    session = AnsweringSession(tool_call_answer(content='{"kind": "do_nothing"}'))
    backend = RemoteBackend("http://127.0.0.1:9/v1", sleeper=lambda s: None, session=session)
    assert backend.complete(simple_request("q")) == CompletionResult(content='{"kind": "do_nothing"}')
    assert [body["messages"] for body in session.bodies] == [[{"role": "user", "content": "q"}]]


MARKET = {"kind": "market", "agents": 4, "days": 1}
ORDERS = [
    {"symbol": symbol, "side": side, "limit_price": price, "quantity": 1}
    for symbol, price in (("A", 30.0), ("B", 45.0))
    for side in ("buy", "sell")
]
ITEM = {"item_id": "q1", "subscale": "s", "text": "How sure are you?", "scale": {"kind": "likert", "points": 7}}


def trader_or_respondent(body):
    """Answers a questionnaire item; places ORDERS on every other prompt."""
    prompt = body["messages"][-1]["content"]
    return json.dumps({"answer": 4} if "- answer (" in prompt else {"orders": ORDERS})


HARNESS_SECTIONS = pytest.mark.parametrize(
    "command,section",
    [
        ("run", {}),
        ("trials", {"trials": 2}),
        ("transfer", {"transfer": {"source": MARKET, "items": [ITEM]}}),
        ("multiworld", {"multiworld": {"environments": [MARKET, MARKET]}}),
        ("ablation", {"ablation": {"headline": "h", "summary": "s", "news": [], "settings": [1]}}),
    ],
    ids=["run", "trials", "transfer", "multiworld", "ablation"],
)


@HARNESS_SECTIONS
def test_remote_harnesses_fan_out_from_the_cli(command, section, stub_server, tmp_path):
    url, handler = stub_server
    handler.delay, handler.content = 0.05, trader_or_respondent
    config = {
        "environment": MARKET,
        "backend": {"kind": "remote", "endpoint": url, "in_flight_limit": 4},
        "out": str(tmp_path / "out"),
        **section,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 0
    assert handler.max_concurrent >= 2


def test_remote_in_flight_limit_above_16_opens_that_many_requests(stub_server, tmp_path):
    url, handler = stub_server
    handler.delay, handler.content = 0.2, trader_or_respondent
    config = {
        "environment": {**MARKET, "agents": 32},
        "backend": {"kind": "remote", "endpoint": url, "in_flight_limit": 32},
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 0
    assert handler.max_concurrent > 16


def run_on_a_keep_alive_stub(command, section, content, tmp_path, monkeypatch):
    """``command``'s exit code on a remote backend whose stub keeps each
    connection open and answers ``content``, with a ``ResourceWarning`` as an
    error; also the stub's handler and every error raised where none could be."""

    class Handler(StubHandler):
        protocol_version = "HTTP/1.1"  # keep-alive: the pool keeps each connection
        seen_bodies = []
        lock = threading.Lock()

    Handler.content = staticmethod(content)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    config = {
        "environment": MARKET,
        "backend": {"kind": "remote", "endpoint": f"http://127.0.0.1:{server.server_address[1]}/v1", "in_flight_limit": 4},
        "out": str(tmp_path / "out"),
        **section,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            code = main([command, "--config", str(path)])
            gc.collect()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return code, Handler, [str(hook.exc_value) for hook in unraisable]


@HARNESS_SECTIONS
def test_remote_harnesses_close_their_kept_connections(command, section, tmp_path, monkeypatch):
    code, handler, unraisable = run_on_a_keep_alive_stub(command, section, trader_or_respondent, tmp_path, monkeypatch)
    assert code == 0
    assert handler.seen_bodies
    assert unraisable == []


def test_a_failed_remote_run_still_closes_its_kept_connections(tmp_path, monkeypatch, capsys):
    def off_schema(body):
        return json.dumps({"orders": "none"})  # and so is every answer to a parse retry

    code, handler, unraisable = run_on_a_keep_alive_stub("run", {}, off_schema, tmp_path, monkeypatch)
    assert code == 2
    assert "ParseFailure" in capsys.readouterr().err
    assert handler.seen_bodies
    assert unraisable == []


def tool_call_answer(*calls, content=None):
    return json.dumps({"choices": [{"message": {"content": content, "tool_calls": list(calls)}}]}).encode()


MALFORMED_TOOL_CALL_BODIES = [
    tool_call_answer({"id": "", "type": "function", "function": {"name": "read_forum", "arguments": "{}"}}),
    tool_call_answer({"id": 7, "type": "function", "function": {"name": "read_forum", "arguments": {"x": 1}}}),
    tool_call_answer({"id": "c1", "type": "function", "function": {"name": None, "arguments": "{}"}}),
]


@pytest.mark.parametrize("body", MALFORMED_TOOL_CALL_BODIES, ids=["empty-id", "int-id-dict-arguments", "null-name"])
def test_a_malformed_tool_call_is_refused_quoting_the_body(body, tmp_path, monkeypatch, capsys):
    with pytest.raises(RemoteExhausted) as caught:
        RemoteBackend._parse_response(body)
    assert body[:200].decode() in str(caught.value)
    code, handler, unraisable = run_on_a_keep_alive_stub("run", {}, lambda request: body, tmp_path, monkeypatch)
    assert code == 2
    assert "runtime failure: RemoteExhausted" in capsys.readouterr().err
    assert unraisable == []


def test_a_body_nested_past_the_recursion_limit_is_refused():
    body = b'{"choices":[{"message":{"content":' + b"[" * 100_000 + b"]" * 100_000 + b"}}]}"
    with pytest.raises(RemoteExhausted):
        RemoteBackend._parse_response(body)


def test_tool_calls_and_tool_results_go_on_the_wire_in_chat_completions_shape():
    # the answer's tool call is parsed, run, and sent back: the assistant turn
    # carries it as tool_calls, and the tool turn answers it by tool_call_id
    backend = RemoteBackend("http://127.0.0.1:9/v1", sleeper=lambda s: None, session=object())
    answers = [
        tool_call_answer({"id": "call-1", "type": "function", "function": {"name": "echo", "arguments": '{"q": "hi"}'}}),
        tool_call_answer(content="done"),
    ]
    bodies = []

    class WireBackend:
        def complete(self, request):
            bodies.append(json.loads(json.dumps(backend._body(request), allow_nan=False)))
            return RemoteBackend._parse_response(answers[len(bodies) - 1])

    echo = ToolSpec(name="echo", description="d", parameter_schema=ResponseSchema.of(q="string"), handler=lambda q: q)
    text, trace = run_tool_loop(WireBackend(), [ChatTurn(role="user", content="go")], [echo])
    assert text == "done"
    assert trace == [(ToolCallRequest(id="call-1", name="echo", arguments_text='{"q": "hi"}'), "hi")]
    assert bodies[1]["messages"] == [
        {"role": "user", "content": "go"},
        {
            "role": "assistant",
            "content": "",
            "tool_calls": [{"id": "call-1", "type": "function", "function": {"name": "echo", "arguments": '{"q": "hi"}'}}],
        },
        {"role": "tool", "content": "hi", "tool_call_id": "call-1"},
    ]
    assert [tool["function"]["name"] for tool in bodies[1]["tools"]] == ["echo"]


def test_a_level_4_market_agent_fetches_news_over_the_wire_then_trades(stub_server):
    # the model asks for fetch_news, the tool runs, and the next request carries
    # the call and its result; memory keeps the result and the market the order
    import datetime as dt

    from cogsim.envs.market import MarketConfig, NewsItem
    from cogsim.protocol import run_episode
    from cogsim.runners import AblationSetting, TariffStudy, ablation_agents, ablation_environment

    url, handler = stub_server
    call = {"id": "call-news", "type": "function", "function": {"name": "fetch_news", "arguments": "{}"}}
    order = {"symbol": "A", "side": "sell", "limit_price": 29.0, "quantity": 3}

    def answer(body):
        return json.dumps({"orders": [order]}) if body["messages"][-1]["role"] == "tool" else tool_call_answer(call)

    handler.content = answer
    backend = RemoteBackend(url, sleeper=lambda s: None)
    study = TariffStudy(
        base_config=MarketConfig(n_agents=1, days=1),
        headline="Tariffs loom.",
        research_summary="Research summary: tariffs cut prices.",
        news_feed=[NewsItem(date=dt.date(2025, 4, 1), headline="Stocks tumble on tariffs.")],
        backend_factory=lambda aid: backend,
    )
    setting = AblationSetting(4)
    env, agents = ablation_environment(study, setting), ablation_agents(study, setting)
    try:
        log = run_episode(env, agents, max_steps=1)
    finally:
        backend.close()
    first, second = (body for body, _ in handler.seen_bodies)
    assert [tool["function"]["name"] for tool in first["tools"]] == ["read_forum", "fetch_news"]
    assert second["messages"][:-2] == first["messages"]
    assert second["messages"][-2:] == [
        {"role": "assistant", "content": "", "tool_calls": [call]},
        {"role": "tool", "content": "Stocks tumble on tariffs.", "tool_call_id": "call-news"},
    ]
    entries = agents[0].memory.entries
    assert [(entry.world_tag, entry.role) for entry in entries] == [
        ("market", role) for role in ("note", "observation", "tool_result", "own_action")
    ]
    assert "".join(entries[2].parts) == "fetch_news: Stocks tumble on tariffs."
    (submitted,) = (record for record in log.records if record.action == "submit_order")
    assert submitted.user_id == 0
    assert {key: submitted.info[key] for key in order} == order


WIRE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)
FUNCTIONS = st.fixed_dictionaries(
    {},
    optional={
        "name": st.sampled_from(["echo", "", "nope"]) | WIRE_VALUES,
        "arguments": st.sampled_from(["{}", '{"q": "x"}', '{"q": 1}', "[1]", "{", ""]) | WIRE_VALUES,
    },
)
TOOL_CALLS = st.fixed_dictionaries(
    {}, optional={"id": st.sampled_from(["c1", ""]) | WIRE_VALUES, "type": WIRE_VALUES, "function": FUNCTIONS | WIRE_VALUES}
)
MESSAGES = st.fixed_dictionaries(
    {},
    optional={
        "content": st.sampled_from(["ok", ""]) | WIRE_VALUES,
        "tool_calls": st.lists(TOOL_CALLS | WIRE_VALUES, max_size=3) | WIRE_VALUES,
    },
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(MESSAGES)
def test_every_tool_call_shape_is_refused_or_runs(message):
    body = json.dumps({"choices": [{"message": message}]}).encode()
    backend = RemoteBackend("http://127.0.0.1:9/v1", sleeper=lambda s: None, session=object())

    class WireBackend:
        calls = 0

        def complete(self, request):
            json.dumps(backend._body(request), allow_nan=False)  # every request the loop makes goes on the wire
            self.calls += 1
            return RemoteBackend._parse_response(body) if self.calls == 1 else CompletionResult(content="done")

    echo = ToolSpec(name="echo", description="d", parameter_schema=ResponseSchema.of(q="string"), handler=lambda q: q)
    try:
        run_tool_loop(WireBackend(), [ChatTurn(role="user", content="go")], [echo])
    except RemoteExhausted:
        pass


@pytest.mark.parametrize(
    "body",
    [
        b"{}",
        b'{"choices": []}',
        b"not json",
        b"[1]",
        b'{"choices":[{"message":{"content":null}}]}',
        b'{"choices":[{"message":{"content":5}}]}',
    ],
)
def test_a_malformed_remote_answer_ends_the_run_with_exit_2(body, tmp_path, monkeypatch, capsys):
    code, handler, unraisable = run_on_a_keep_alive_stub("run", {}, lambda request: body, tmp_path, monkeypatch)
    assert code == 2
    assert "runtime failure: RemoteExhausted" in capsys.readouterr().err
    assert handler.seen_bodies
    assert unraisable == []
