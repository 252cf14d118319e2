import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cogsim.backends import (
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
from cogsim.errors import ParseFailure, RemoteExhausted, ReplayMiss
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


def test_fingerprint_ignores_model_and_temperature_by_default():
    a = request_fingerprint(simple_request("q", model_id="m1", temperature=0.0))
    b = request_fingerprint(simple_request("q", model_id="m2", temperature=1.0))
    assert a == b


def test_fingerprint_sensitive_to_turns_tools_schema():
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
    replay = recording.to_replay()
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


def test_parse_retries_leave_transport_retries_at_default():
    seen = []

    class Spy:
        def complete(self, request):
            seen.append(request.max_retries)
            return CompletionResult(content='{"bid": "high"}')

    with pytest.raises(ParseFailure):
        parse_structured("text", ResponseSchema.of(bid="integer"), Spy(), max_retries=0)
    assert seen == [CompletionRequest.max_retries]


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

    def do_POST(self):
        cls = type(self)
        with cls.lock:
            cls.concurrent += 1
            cls.max_concurrent = max(cls.max_concurrent, cls.concurrent)
        try:
            length = int(self.headers["Content-Length"])
            body = json.loads(self.rfile.read(length))
            with cls.lock:
                cls.seen_bodies.append((body, dict(self.headers)))
                should_fail = cls.fail_times > 0
                if should_fail:
                    cls.fail_times -= 1
            if cls.delay:
                time.sleep(cls.delay)
            if should_fail:
                self.send_response(cls.fail_status)
                for name, value in cls.fail_headers.items():
                    self.send_header(name, value)
                self.end_headers()
                return
            payload = {
                "choices": [
                    {"message": {"content": "stub says hi", "tool_calls": None}}
                ]
            }
            data = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        finally:
            with cls.lock:
                cls.concurrent -= 1

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
        model_id="test-model",
        temperature=0.5,
        tools=[tool],
        response_schema=ResponseSchema.of(a="integer"),
    )
    result = backend.complete(request)
    assert result.content == "stub says hi"
    body, headers = handler.seen_bodies[0]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.5
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
    result = backend.complete(simple_request("q", max_retries=3))
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
    with pytest.raises(RemoteExhausted):
        backend.complete(simple_request("q", max_retries=2))
    assert len(handler.seen_bodies) == 3


def test_remote_timeout_raises_dedicated_error(stub_server):
    url, handler = stub_server
    handler.delay = 0.5
    backend = RemoteBackend(url, timeout=0.05, sleeper=lambda s: None)
    from cogsim.errors import RemoteTimeout

    with pytest.raises(RemoteTimeout):
        backend.complete(simple_request("q", max_retries=1))


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
