"""Backend tests: scripted mock, remote client against a loopback stub,
prompt templates, and the dual-generation contract."""

import json
import math
import socket
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from gatemix import backend as backend_module
from gatemix.backend import (
    BackendError,
    BackendRequest,
    CapabilityError,
    DecodingConfig,
    GenerationTrace,
    MalformedReplyError,
    MockBackend,
    RemoteBackend,
    RetryableTransportError,
    MODES,
    build_prompt,
    dual_generate,
    trace_from_dict,
    trace_to_dict,
)
from gatemix.cli import dispatch
from gatemix.evalharness import BenchmarkInstance, alpha_sweep, run_eval

# A socket left open (a leaked server or pooled connection) fails the test.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")

GOLDEN = Path(__file__).parent / "golden"

QUESTION = "What color is the square?"


def _trace(text="A"):
    return GenerationTrace(
        text=text,
        token_logprobs=(math.log(0.5),),
        img_rep=(1.0, 0.0),
        txt_rep=(0.0, 1.0),
    )


class TestDecodingConfig:
    def test_mode_defaults(self):
        direct = MODES["direct"][1]
        cot = MODES["cot"][1]
        assert (direct.temperature, direct.top_p) == (1.0, 1.0)
        assert (cot.temperature, cot.top_p) == (0.4, 0.9)
        assert direct.max_tokens == cot.max_tokens == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            DecodingConfig(max_tokens=0)
        with pytest.raises(ValueError):
            DecodingConfig(temperature=-0.1)
        with pytest.raises(ValueError):
            DecodingConfig(top_p=0.0)
        with pytest.raises(ValueError):
            DecodingConfig(top_p=1.2)


class TestGenerationTrace:
    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError):
            GenerationTrace("x", (0.5,), (1.0,), (1.0,))

    def test_nonempty_text_needs_logprobs(self):
        with pytest.raises(ValueError):
            GenerationTrace("x", (), (1.0,), (1.0,))

    def test_dict_roundtrip(self):
        t = _trace("The answer is B.")
        assert list(trace_to_dict(t)) == ["text", "token_logprobs", "img_rep", "txt_rep"]
        assert trace_from_dict(trace_to_dict(t)) == t

    # a misspelt key would otherwise leave the neutral pair in place and change S
    @pytest.mark.parametrize("extra", [{"img_reps": [0.5, 0.5]}, {"prompt_mode": "direct"}])
    def test_unknown_key_rejected(self, extra):
        with pytest.raises(ValueError, match=f"unknown trace key {next(iter(extra))!r}"):
            trace_from_dict({**trace_to_dict(_trace()), **extra})

    @pytest.mark.parametrize("rep", ["img_rep", "txt_rep"])
    def test_one_representation_without_the_other_rejected(self, rep):
        with pytest.raises(ValueError, match="both img_rep and txt_rep or neither"):
            trace_from_dict({"text": "A", "token_logprobs": [-0.1], rep: [1.0, 0.0]})

    def test_no_representations_give_the_neutral_pair(self):
        trace = trace_from_dict({"text": "A", "token_logprobs": [-0.1]})
        assert np.array_equal(trace.img_rep, [1.0, 0.0])
        assert np.array_equal(trace.txt_rep, [0.0, 1.0])

    @pytest.mark.parametrize("field, values", [
        ("token_logprobs", (-0.1, float("nan"))),
        ("token_logprobs", (float("-inf"),)),
        ("img_rep", (float("nan"), 1.0)),
        ("txt_rep", (float("inf"), 0.0)),
        ("txt_rep", (float("-inf"), 1.0)),
    ])
    def test_non_finite_values_rejected(self, field, values):
        fields = {"text": "x", "token_logprobs": (-0.1,), "img_rep": (1.0, 0.0),
                  "txt_rep": (0.0, 1.0), field: values}
        with pytest.raises(ValueError, match="finite"):
            GenerationTrace(**fields)

    @pytest.mark.parametrize("field, value", [
        ("text", None),
        ("text", 5),
        ("token_logprobs", (None,)),
        ("token_logprobs", -0.1),
        ("img_rep", ([1.0], 0.0)),
        ("token_logprobs", [[-0.1]]),
        ("img_rep", "10"),
        ("token_logprobs", [-10 ** 400]),
    ])
    def test_wrong_types_are_value_errors(self, field, value):
        fields = {"text": "x", "token_logprobs": (-0.1,), "img_rep": (1.0, 0.0),
                  "txt_rep": (0.0, 1.0), field: value}
        with pytest.raises(ValueError):
            GenerationTrace(**fields)

    @pytest.mark.parametrize("field", ["token_logprobs", "img_rep", "txt_rep"])
    def test_float_fields_are_read_only_float64_arrays(self, field):
        trace = _trace()
        values = getattr(trace, field)
        assert values.dtype == np.float64 and values.ndim == 1
        with pytest.raises(ValueError, match="read-only"):
            values[0] = -1.0
        with pytest.raises(AttributeError):
            setattr(trace, field, (-1.0,))

    @pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
    def test_later_writes_to_the_inputs_leave_the_trace_unchanged(self, make):
        lps, img, txt = make([-0.5, -0.25]), make([1.0, 2.0]), make([3.0, 4.0])
        trace = GenerationTrace("A", lps, img, txt)
        lps[0], img[0], txt[0] = -9.0, 9.0, 9.0
        assert trace_to_dict(trace) == {"text": "A", "token_logprobs": [-0.5, -0.25],
                                        "img_rep": [1.0, 2.0], "txt_rep": [3.0, 4.0]}

    def test_equality(self):
        fields = {"text": "A", "token_logprobs": [-0.5], "img_rep": [1.0, 0.0], "txt_rep": [0.0, 1.0]}
        trace = GenerationTrace(**fields)
        assert trace == GenerationTrace(**fields)
        assert trace == trace_from_dict(trace_to_dict(trace))
        assert trace != GenerationTrace(**{**fields, "text": "B"})
        assert trace != GenerationTrace(**{**fields, "token_logprobs": [-0.25]})
        assert trace != GenerationTrace(**{**fields, "txt_rep": [0.0, 2.0]})
        assert trace != trace_to_dict(trace)

    @pytest.mark.parametrize("img_rep, txt_rep", [
        ((1.0, 0.0), (1.0,)),
        ((1.0,), (0.0, 1.0, 0.0)),
        ((0.0, 0.0), (0.0, 1.0)),
        ((1.0, 0.0), (0.0, 0.0)),
        ((), ()),
    ])
    def test_degenerate_representations_rejected(self, img_rep, txt_rep):
        with pytest.raises(ValueError, match="img_rep and txt_rep"):
            GenerationTrace("x", (-0.1,), img_rep, txt_rep)


class TestModes:
    @pytest.mark.parametrize("mode", ["direct", "cot"])
    def test_request_reads_prompt_and_decoding_from_modes(self, mode):
        req = BackendRequest("img1", QUESTION, mode)
        assert req.prompt == build_prompt(QUESTION, mode) == MODES[mode][0].format(question=QUESTION)
        assert req.decoding is MODES[mode][1]

    @pytest.mark.parametrize("mode", ["CoT", "", None, ["cot"]])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="prompt mode must be one of"):
            BackendRequest("img1", QUESTION, mode)


class TestPrompts:
    def test_direct_matches_golden(self):
        assert build_prompt(QUESTION, "direct") == (GOLDEN / "prompt_direct.txt").read_text()

    def test_cot_matches_golden(self):
        assert build_prompt(QUESTION, "cot") == (GOLDEN / "prompt_cot.txt").read_text()

    def test_question_embedded_verbatim(self):
        for mode in ("direct", "cot"):
            assert QUESTION in build_prompt(QUESTION, mode)

    def test_prompts_differ_only_in_task_section(self):
        direct = build_prompt(QUESTION, "direct").splitlines()
        cot = build_prompt(QUESTION, "cot").splitlines()
        assert direct[:2] == cot[:2]  # shared preamble + question line
        assert direct[2:] != cot[2:]  # task section differs


class TestMockBackend:
    def test_scripted_key_returns_exact_trace(self):
        scripted = _trace("The answer is C.")
        mock = MockBackend(entries={("img1", QUESTION, "cot"): scripted})
        req = BackendRequest("img1", QUESTION, "cot")
        assert mock.generate(req) is scripted

    def test_unscripted_key_returns_default(self):
        default = {"text": "B", "token_logprobs": [-0.1], "img_rep": [1, 0], "txt_rep": [0, 1]}
        mock = MockBackend(default=default)
        req = BackendRequest("nope", "???", "direct")
        trace = mock.generate(req)
        assert trace.text == "B"

    def test_scripted_and_default_traces_are_read_only(self):
        # the backend hands the same trace objects to every caller
        mock = MockBackend.from_json(Path(__file__).parent / "fixtures" / "easy_hard_script.json")
        for req in (BackendRequest("img-e1", "question e1", "cot"), BackendRequest("?", "?", "direct")):
            trace = mock.generate(req)
            for field in ("token_logprobs", "img_rep", "txt_rep"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(trace, field)[0] = 0.0

    def test_one_default_serves_both_modes(self):
        mock = MockBackend()
        direct, cot = (mock.generate(BackendRequest("nope", "???", mode)) for mode in MODES)
        assert direct is cot
        assert direct.text == "A"

    @pytest.mark.parametrize("entry, message", [
        ({"prompt_mode": "CoT"}, "entry 1: prompt mode must be one of ('direct', 'cot'), got 'CoT'"),
        ({"trace": {"text": "A", "token_logprobs": [-0.1], "img_reps": [1, 0], "txt_rep": [0, 1]}},
         "entry 1: unknown trace key 'img_reps'"),
    ])
    def test_bad_entry_is_named(self, tmp_path, entry, message):
        good = {"image_ref": "img1", "question": QUESTION, "prompt_mode": "direct",
                "trace": {"text": "A", "token_logprobs": [-0.1]}}
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"entries": [good, {**good, **entry}]}))
        with pytest.raises(ValueError) as exc:
            MockBackend.from_json(path)
        assert message in str(exc.value)

    def test_referentially_transparent_across_loads(self, tmp_path):
        script = {
            "default": {"text": "A", "token_logprobs": [-0.2], "img_rep": [1, 0], "txt_rep": [0, 1]},
            "entries": [
                {
                    "image_ref": "img9",
                    "question": QUESTION,
                    "prompt_mode": "direct",
                    "trace": {
                        "text": "The answer is D.",
                        "token_logprobs": [-0.3, -0.1],
                        "img_rep": [0.5, 0.5],
                        "txt_rep": [0.5, -0.5],
                    },
                }
            ],
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        req = BackendRequest("img9", QUESTION, "direct")
        first = MockBackend.from_json(path).generate(req)
        second = MockBackend.from_json(path).generate(req)
        assert first == second

    def test_completion_rules(self):
        mock = MockBackend(
            completions=[{"contains": "### Given CoT:", "reply": "rewritten text"}],
            default_completion="Scoring: 0.5",
        )
        assert mock.complete_text("... ### Given CoT: ...") == "rewritten text"
        assert mock.complete_text("anything else") == "Scoring: 0.5"

    def test_completion_without_script_raises(self):
        with pytest.raises(CapabilityError):
            MockBackend().complete_text("prompt")


class _StubHandler(BaseHTTPRequestHandler):
    reply: dict = {}
    requests: list = []
    missing_bytes: int = 0  # declared in Content-Length but never sent
    statuses: list = []  # status of each next request; 200 once used up
    extra_headers: dict = {}  # sent with every non-200 reply

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).requests.append(json.loads(self.rfile.read(length)))
        body = json.dumps(type(self).reply).encode()
        status = type(self).statuses.pop(0) if type(self).statuses else 200
        self.send_response(status)
        for name, value in (type(self).extra_headers.items() if status != 200 else ()):
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body) + type(self).missing_bytes))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.requests = []
    _StubHandler.missing_bytes = 0
    _StubHandler.statuses = []
    _StubHandler.extra_headers = {}
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def keepalive_server():
    """An HTTP/1.1 server that counts the connections and requests it
    receives. ``counts["mode"]`` says what it does with each request:
    "keep" replies and keeps the connection open, "drop" replies and then
    closes the connection without announcing it, "reset" resets the
    connection instead of replying."""
    counts = {"connections": 0, "requests": 0, "mode": "keep"}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = 5  # an idle connection left open ends its thread

        def setup(self):
            super().setup()
            with lock:
                counts["connections"] += 1

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            with lock:
                counts["requests"] += 1
            if counts["mode"] == "reset":
                self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                self.close_connection = True
                return
            body = b'{"text": "B", "logprobs": [-0.1]}'
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self.close_connection = counts["mode"] == "drop"

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = False  # so server_close joins the connection threads
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1", counts
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def sleeps(monkeypatch):
    """The waits between retries, recorded instead of slept."""
    waits = []
    monkeypatch.setattr(backend_module.time, "sleep", waits.append)
    return waits


class TestRemoteBackend:
    def test_trace_fields_equal_stub_payload(self, stub_server):
        endpoint, handler = stub_server
        handler.reply = {
            "text": "The answer is B.",
            "logprobs": [-0.25, -0.5],
            "embeddings": {"prompt": [0.1, 0.9], "completion": [0.9, 0.1]},
        }
        backend = RemoteBackend(endpoint)
        req = BackendRequest("img1", QUESTION, "cot")
        trace = backend.generate(req)
        assert trace.text == "The answer is B."
        assert np.array_equal(trace.token_logprobs, [-0.25, -0.5])
        assert np.array_equal(trace.img_rep, [0.1, 0.9])
        assert np.array_equal(trace.txt_rep, [0.9, 0.1])
        sent = handler.requests[-1]
        assert sent["want_logprobs"] is True and sent["want_embeddings"] is True
        assert sent["temperature"] == 0.4 and sent["top_p"] == 0.9
        assert sent["max_tokens"] == 1024
        assert QUESTION in sent["prompt"]

    def test_missing_logprobs_is_capability_error(self, stub_server):
        endpoint, handler = stub_server
        handler.reply = {"text": "B"}
        backend = RemoteBackend(endpoint)
        req = BackendRequest("img1", QUESTION, "direct")
        with pytest.raises(CapabilityError, match="logprobs"):
            backend.generate(req)

    @pytest.mark.parametrize("reply", [None, ["text"], "text"])
    def test_non_object_reply_is_backend_error(self, stub_server, reply):
        endpoint, handler = stub_server
        handler.reply = reply
        req = BackendRequest("img1", QUESTION, "direct")
        with pytest.raises(BackendError, match="not a JSON object"):
            RemoteBackend(endpoint).generate(req)

    @pytest.mark.parametrize("reply", [
        {"text": "B", "logprobs": [None]},
        {"text": 5, "logprobs": [-0.1]},
        {"text": "B", "logprobs": [-0.1], "embeddings": {"prompt": 1, "completion": [0.0]}},
    ])
    def test_malformed_trace_fields_are_value_errors(self, stub_server, reply):
        endpoint, handler = stub_server
        handler.reply = reply
        req = BackendRequest("img1", QUESTION, "direct")
        with pytest.raises(ValueError):
            RemoteBackend(endpoint).generate(req)

    @pytest.mark.parametrize("reply", [
        {"text": "B", "logprobs": [None]},
        {"text": "B", "logprobs": ["-0.1x"]},
        {"text": "B", "logprobs": [float("nan")]},
        {"text": 5, "logprobs": [-0.1]},
        {"text": "B", "logprobs": [-0.1], "embeddings": {"prompt": 1, "completion": [0.0]}},
        {"text": "B", "logprobs": [-0.1], "embeddings": {"prompt": [1.0, 0.0], "completion": [1.0]}},
    ])
    def test_malformed_trace_fields_are_backend_errors(self, stub_server, reply):
        # the service is at fault, not the caller's input
        endpoint, handler = stub_server
        handler.reply = reply
        req = BackendRequest("img1", QUESTION, "direct")
        with pytest.raises(MalformedReplyError, match="not a valid trace") as exc:
            RemoteBackend(endpoint).generate(req)
        assert isinstance(exc.value, BackendError)
        assert len(handler.requests) == 1

    def test_malformed_reply_is_an_instance_error(self, stub_server):
        endpoint, handler = stub_server
        handler.reply = {"text": "B", "logprobs": [float("nan")]}
        inst = BenchmarkInstance(id="i1", image_ref="img1", question=QUESTION,
                                 options=[("A", "red"), ("B", "blue")], gold_answer="B")
        report = run_eval(RemoteBackend(endpoint), [inst], "sv")
        assert [r["branch"] for r in report.records] == ["error"]
        assert "not a valid trace" in report.records[0]["error"]
        assert alpha_sweep(RemoteBackend(endpoint), [inst], grid=[0.0, 0.7]) == [(0.0, 0.0), (0.7, 0.0)]

    def test_malformed_reply_exits_2_from_the_cli(self, stub_server, tmp_path, capsys):
        endpoint, handler = stub_server
        handler.reply = {"text": "B", "logprobs": [-0.1],
                         "embeddings": {"prompt": [1.0, 0.0], "completion": [1.0]}}
        code = dispatch(["verify", "--image-ref", "img1", "--question", QUESTION,
                         "--option", "red", "--option", "blue",
                         "--backend", f"remote:{endpoint}", "--out", str(tmp_path)])
        assert code == 2
        assert "not a valid trace" in capsys.readouterr().err

    def test_missing_embeddings_degrades_to_neutral(self, stub_server, caplog):
        endpoint, handler = stub_server
        handler.reply = {"text": "B", "logprobs": [-0.1]}
        backend = RemoteBackend(endpoint)
        req = BackendRequest("img1", QUESTION, "direct")
        with caplog.at_level("WARNING"):
            trace = backend.generate(req)
        assert np.array_equal(trace.img_rep, [1.0, 0.0])
        assert np.array_equal(trace.txt_rep, [0.0, 1.0])
        assert any("embeddings" in rec.message for rec in caplog.records)

    # 1e400 parses to inf; 1e12 s overflows a socket's time_t timeout
    @pytest.mark.parametrize("setting", [{"retries": 0}, {"max_in_flight": 0}, {"timeout": 0.0},
                                         {"timeout": 1e400}, {"timeout": 1e12}])
    def test_settings_that_cannot_serve_are_rejected(self, setting):
        with pytest.raises(ValueError, match=">= 1"):
            RemoteBackend("http://127.0.0.1:9", **setting)

    def test_largest_timeout_a_socket_holds_is_accepted(self):
        assert RemoteBackend("http://127.0.0.1:9", timeout=9.2e9).timeout == 9.2e9
        with socket.socket() as sock:
            sock.settimeout(threading.TIMEOUT_MAX)

    def test_transport_failure_carries_attempts(self):
        backend = RemoteBackend("http://127.0.0.1:1", retries=2, retry_wait=0.0, timeout=0.5)
        req = BackendRequest("img1", QUESTION, "direct")
        with pytest.raises(RetryableTransportError) as exc:
            backend.generate(req)
        assert exc.value.attempts == 2

    def test_truncated_reply_is_contained(self, stub_server):
        endpoint, handler = stub_server
        handler.reply = {"text": "B", "logprobs": [-0.1]}
        handler.missing_bytes = 10
        backend = RemoteBackend(endpoint, retries=2, retry_wait=0.0)
        req = BackendRequest("img1", QUESTION, "direct")
        with pytest.raises(RetryableTransportError, match="IncompleteRead"):
            backend.generate(req)
        inst = BenchmarkInstance(id="i1", image_ref="img1", question=QUESTION,
                                 options=[("A", "red"), ("B", "blue")], gold_answer="B")
        report = run_eval(backend, [inst], "sv")
        assert [r["branch"] for r in report.records] == ["error"]
        assert report.accuracy == 0.0

    def test_rate_limited_request_is_retried(self, stub_server):
        endpoint, handler = stub_server
        handler.reply = {"text": "B", "logprobs": [-0.1]}
        handler.statuses = [429]
        backend = RemoteBackend(endpoint, retries=2, retry_wait=0.0)
        req = BackendRequest("img1", QUESTION, "direct")
        assert backend.generate(req).text == "B"
        assert len(handler.requests) == 2

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_is_honoured(self, stub_server, sleeps, status):
        endpoint, handler = stub_server
        handler.reply = {"text": "B", "logprobs": [-0.1]}
        handler.statuses = [status]
        handler.extra_headers = {"Retry-After": "2"}
        backend = RemoteBackend(endpoint, retries=2, retry_wait=0.0)
        req = BackendRequest("img1", QUESTION, "direct")
        assert backend.generate(req).text == "B"
        assert sleeps == [2.0]

    def test_retry_after_is_capped_at_the_timeout(self, stub_server, sleeps):
        endpoint, handler = stub_server
        handler.reply = {"text": "B", "logprobs": [-0.1]}
        handler.statuses = [503]
        handler.extra_headers = {"Retry-After": "120"}
        backend = RemoteBackend(endpoint, retries=2, retry_wait=0.0, timeout=5.0)
        req = BackendRequest("img1", QUESTION, "direct")
        assert backend.generate(req).text == "B"
        assert sleeps == [5.0]

    @pytest.mark.parametrize("status, headers", [
        (500, {}),
        (503, {}),
        (500, {"Retry-After": "3"}),  # only 429 and 503 carry a usable Retry-After
        (429, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}),  # not delta-seconds
        (503, {"Retry-After": "-1"}),
    ])
    def test_backoff_is_exponential_otherwise(self, stub_server, sleeps, status, headers):
        endpoint, handler = stub_server
        handler.reply = {"text": "B", "logprobs": [-0.1]}
        handler.statuses = [status] * 3
        handler.extra_headers = headers
        backend = RemoteBackend(endpoint, retries=4, retry_wait=0.1)
        req = BackendRequest("img1", QUESTION, "direct")
        assert backend.generate(req).text == "B"
        assert sleeps == [0.1, 0.2, 0.4]
        assert len(handler.requests) == 4

    @pytest.mark.parametrize("status", [400, 404])
    def test_client_error_is_not_retried(self, stub_server, status):
        endpoint, handler = stub_server
        handler.reply = {"text": "B", "logprobs": [-0.1]}
        handler.statuses = [status]
        req = BackendRequest("img1", QUESTION, "direct")
        with pytest.raises(BackendError, match=f"HTTP {status}"):
            RemoteBackend(endpoint, retries=2, retry_wait=0.0).generate(req)
        assert len(handler.requests) == 1

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_neither_followed_nor_retried(self, stub_server, status):
        endpoint, handler = stub_server
        handler.reply = {"text": "B", "logprobs": [-0.1]}
        handler.statuses = [status]
        handler.extra_headers = {"Location": f"{endpoint}/elsewhere"}
        req = BackendRequest("img1", QUESTION, "direct")
        with pytest.raises(BackendError, match=f"HTTP {status}"):
            RemoteBackend(endpoint, retries=2, retry_wait=0.0).generate(req)
        assert len(handler.requests) == 1

    def test_complete_text(self, stub_server):
        endpoint, handler = stub_server
        handler.reply = {"text": "Scoring: 0.8"}
        assert RemoteBackend(endpoint).complete_text("score this") == "Scoring: 0.8"

    def test_non_string_completion_is_malformed_reply(self, stub_server, tmp_path, capsys):
        endpoint, handler = stub_server
        handler.reply = {"text": 5}
        with pytest.raises(MalformedReplyError, match="string 'text'"):
            RemoteBackend(endpoint).complete_text("score this")
        records = Path(__file__).parent / "fixtures" / "curation_records.jsonl"
        code = dispatch(["curate", "--records", str(records),
                         "--backend", f"remote:{endpoint}", "--out", str(tmp_path)])
        assert code == 2
        assert "string 'text'" in capsys.readouterr().err


class TestConnectionReuse:
    def test_sequential_calls_share_one_connection(self, keepalive_server):
        endpoint, counts = keepalive_server
        backend = RemoteBackend(endpoint)
        try:
            for _ in range(5):
                assert backend.complete_text("score this") == "B"
        finally:
            backend.close()
        assert (counts["connections"], counts["requests"]) == (1, 5)

    def test_idle_connection_closed_by_the_server_costs_one_reconnect(self, keepalive_server):
        endpoint, counts = keepalive_server
        counts["mode"] = "drop"
        backend = RemoteBackend(endpoint, retries=1)
        try:
            for _ in range(3):
                assert backend.complete_text("score this") == "B"
        finally:
            backend.close()
        assert (counts["connections"], counts["requests"]) == (3, 3)

    def test_failure_on_a_new_connection_spends_an_attempt(self, keepalive_server, sleeps):
        endpoint, counts = keepalive_server
        counts["mode"] = "reset"
        backend = RemoteBackend(endpoint, retries=3)
        with pytest.raises(RetryableTransportError) as exc:
            backend.complete_text("score this")
        backend.close()
        assert exc.value.attempts == 3
        assert counts["requests"] == 3
        assert len(sleeps) == 2

    def test_shared_backend_opens_at_most_max_in_flight_connections(self, keepalive_server):
        endpoint, counts = keepalive_server
        backend = RemoteBackend(endpoint, max_in_flight=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                texts = list(pool.map(lambda i: backend.complete_text(f"prompt {i}"), range(200),
                                      timeout=60))
        finally:
            sys.setswitchinterval(interval)
            backend.close()
        assert texts == ["B"] * 200
        assert counts["requests"] == 200
        assert 1 <= counts["connections"] <= 3


class TestDualGenerate:
    def test_returns_both_branches_in_order(self):
        direct = _trace("A")
        cot = _trace("The answer is B.")
        mock = MockBackend(
            entries={
                ("img1", QUESTION, "direct"): direct,
                ("img1", QUESTION, "cot"): cot,
            }
        )
        got = dual_generate(mock, "img1", QUESTION)
        assert got == (direct, cot)

    def test_failing_branch_named(self, stub_server):
        endpoint, handler = stub_server
        handler.reply = {"text": "B"}  # no logprobs -> capability error on direct
        with pytest.raises(BackendError, match="direct branch failed"):
            dual_generate(RemoteBackend(endpoint), "img1", QUESTION)

    def test_decoding_differs_only_by_mode_defaults(self, stub_server):
        endpoint, handler = stub_server
        handler.reply = {
            "text": "B",
            "logprobs": [-0.1],
            "embeddings": {"prompt": [1, 0], "completion": [0, 1]},
        }
        dual_generate(RemoteBackend(endpoint), "img1", QUESTION)
        direct_req, cot_req = handler.requests[-2:]
        assert direct_req["max_tokens"] == cot_req["max_tokens"] == 1024
        assert (direct_req["temperature"], direct_req["top_p"]) == (1.0, 1.0)
        assert (cot_req["temperature"], cot_req["top_p"]) == (0.4, 0.9)
        assert direct_req["image_ref"] == cot_req["image_ref"] == "img1"
