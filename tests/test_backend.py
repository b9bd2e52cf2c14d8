"""Backend tests: scripted mock, remote client against a loopback stub,
prompt templates, and the dual-generation contract."""

import http.client
import json
import math
import random
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time
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
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
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
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
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

    def test_reply_without_text_is_backend_error(self, stub_server):
        endpoint, handler = stub_server
        handler.reply = {"logprobs": [-0.1]}
        with pytest.raises(BackendError, match="lacks 'text'"):
            RemoteBackend(endpoint).generate(BackendRequest("img1", QUESTION, "direct"))
        assert len(handler.requests) == 1

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


_REPLY_BODY = b'{"text": "B", "logprobs": [-0.1]}'
_OK = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_REPLY_BODY), _REPLY_BODY)


@pytest.fixture()
def wire_server():
    """A loopback server that sends scripted bytes. It reads each request
    (head and ``Content-Length`` body) and answers with the next
    ``(reply, close)`` in ``server.replies``, or with a kept-alive 200 once
    they are used up; ``close`` ends the connection after the reply.
    ``server.requests`` holds the raw bytes of each request and
    ``server.connections`` counts connections. A request whose
    ``image_ref`` has replies left in ``server.by_image`` takes the next of
    those instead, and each reply is sent ``server.delay`` seconds after
    its request was read."""

    class Handler(socketserver.StreamRequestHandler):
        timeout = 5  # an idle connection left open ends its thread

        def handle(self):
            with server.lock:
                server.connections += 1
            while True:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    line = self.rfile.readline()
                    if not line:
                        return
                    head += line
                length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
                body = self.rfile.read(length)
                image = json.loads(body).get("image_ref") if body.startswith(b"{") else None
                with server.lock:
                    server.requests.append(head + body)
                    script = server.by_image.get(image) or server.replies
                    reply, close = script.pop(0) if script else (_OK, False)
                if server.delay:
                    time.sleep(server.delay)
                self.wfile.write(reply)
                if close:
                    return

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = False  # so server_close joins the connection threads
    server.lock = threading.Lock()
    server.replies, server.requests, server.connections = [], [], 0
    server.by_image, server.delay = {}, 0.0
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    # shutdown() waits for the loop's next poll, 0.5 s by default
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _calls(server, n: int, **settings) -> list:
    """The texts of ``n`` completions from a backend on ``server``, closed after."""
    backend = RemoteBackend(server.url, retry_wait=0.0, **settings)
    try:
        return [backend.complete_text("score this") for _ in range(n)]
    finally:
        backend.close()


class TestWire:
    """The HTTP/1.1 the client speaks, byte by byte."""

    @pytest.mark.parametrize("api_key, auth", [(None, b""), ("k3y", b"Authorization: Bearer k3y\r\n")])
    def test_request_is_one_write_of_exact_bytes(self, wire_server, monkeypatch, api_key, auth):
        port = wire_server.server_address[1]
        writes = []
        sendall = socket.socket.sendall

        def recording_sendall(sock, data, *flags):
            if sock.getpeername()[1] == port:  # the client's writes, not the server's
                writes.append(bytes(data))
            return sendall(sock, data, *flags)

        monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
        backend = RemoteBackend(f"{wire_server.url}/v1/complete?x=1", api_key=api_key)
        try:
            assert backend.complete_text("score this") == "B"
        finally:
            backend.close()
        (request,) = wire_server.requests
        assert writes == [request]
        head, body = request.split(b"\r\n\r\n", 1)
        assert head + b"\r\n" == (
            b"POST /v1/complete?x=1 HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
            b"Content-Type: application/json\r\nAccept-Encoding: identity\r\n%s"
            b"Content-Length: %d\r\n" % (port, auth, len(body)))
        assert json.loads(body)["prompt"] == "score this"

    def test_chunked_reply(self, wire_server):
        chunks = b"".join(b"%x;ext=1\r\n%s\r\n" % (len(part), part)
                          for part in (_REPLY_BODY[:5], _REPLY_BODY[5:]))
        reply = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%s0\r\nX-Trailer: 1\r\n\r\n" % chunks
        wire_server.replies = [(reply, False)]
        assert _calls(wire_server, 2) == ["B", "B"]
        assert wire_server.connections == 1  # the connection stays usable after the last chunk

    def test_http_1_0_reply_ends_at_close(self, wire_server):
        reply = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + _REPLY_BODY
        wire_server.replies = [(reply, True), (reply, True)]
        assert _calls(wire_server, 2) == ["B", "B"]
        assert (wire_server.connections, len(wire_server.requests)) == (2, 2)

    # the server keeps every connection open, so only the client decides
    @pytest.mark.parametrize("status_line, header, connections, requests", [
        (b"HTTP/1.1 200 OK", b"", 1, 2),
        (b"HTTP/1.1 200 OK", b"Connection: close\r\n", 2, 2),
        (b"HTTP/1.0 200 OK", b"", 2, 2),
        (b"HTTP/1.0 200 OK", b"Connection: keep-alive\r\n", 1, 2),
        (b"HTTP/1.1 503 Busy", b"", 2, 3),  # only a 2xx reply returns its connection to the pool
    ])
    def test_reply_decides_whether_its_connection_is_reused(self, wire_server, sleeps, status_line,
                                                            header, connections, requests):
        reply = b"%s\r\n%sContent-Length: %d\r\n\r\n%s" % (status_line, header, len(_REPLY_BODY),
                                                             _REPLY_BODY)
        wire_server.replies = [(reply, False)]
        assert _calls(wire_server, 2) == ["B", "B"]
        assert (wire_server.connections, len(wire_server.requests)) == (connections, requests)

    def test_100_continue_is_skipped(self, wire_server):
        wire_server.replies = [(b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\n" + _OK, False)]
        assert _calls(wire_server, 1) == ["B"]

    def test_100_headers_are_accepted(self, wire_server):
        many = b"".join(b"X-H%d: %d\r\n" % (i, i) for i in range(99))
        wire_server.replies = [(_OK.replace(b"\r\n", b"\r\n" + many, 1), False)]
        assert _calls(wire_server, 1) == ["B"]

    @pytest.mark.parametrize("reply, message", [
        (b"ICY 200 OK\r\n\r\n", "bad status line"),
        (b"HTTP/1.1 2000 OK\r\n\r\n", "bad status line"),
        (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n", "longer than 65536 bytes"),
        (_OK.replace(b"\r\n", b"\r\n" + b"X-H: 1\r\n" * 100, 1), "more than 100 reply headers"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{\"te", "IncompleteRead"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", "bad chunk size"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "bad Content-Length"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 13\r\nContent-Length: 2\r\n\r\n{\"text\": \"B\"}",
         "differing Content-Length values '13' and '2'"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 13\r\n", "reply ended inside its headers"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}XX\r\n0\r\n\r\n",
         "chunk data not followed by a line end"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", "unsupported Transfer-Encoding"),
    ], ids=["not-http", "four-digit-status", "long-line", "101-headers", "truncated-chunk",
            "bad-chunk-size", "bad-length", "differing-lengths", "ends-in-headers",
            "chunk-without-line-end", "gzip-coding"])
    def test_broken_reply_spends_an_attempt(self, wire_server, reply, message):
        wire_server.replies = [(reply, True)] * 2
        with pytest.raises(RetryableTransportError, match=message) as exc:
            _calls(wire_server, 1, retries=2)
        assert exc.value.attempts == 2
        assert (wire_server.connections, len(wire_server.requests)) == (2, 2)

    def test_identical_content_lengths_are_accepted(self, wire_server):
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: 13\r\ncontent-length:13\r\n\r\n{\"text\": \"B\"}"
        wire_server.replies = [(reply, False)]
        assert _calls(wire_server, 2) == ["B", "B"]
        assert wire_server.connections == 1

    # a 204 reply has no body, whatever its headers say
    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 204 No Content\r\nContent-Length: 3\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nnot",
    ], ids=["204", "not-json"])
    def test_2xx_body_that_is_not_json_is_not_retried(self, wire_server, reply):
        wire_server.replies = [(reply, False)]
        backend = RemoteBackend(wire_server.url, retry_wait=0.0, retries=3)
        try:
            with pytest.raises(BackendError, match="malformed JSON"):
                backend.complete_text("score this")
            assert backend.complete_text("score this") == "B"
        finally:
            backend.close()
        assert (wire_server.connections, len(wire_server.requests)) == (1, 2)

    def test_http_client_and_ssl_are_not_imported(self):
        # ssl loads only for an https endpoint; http.client not at all
        code = ("import sys, gatemix.cli\n"
                "from gatemix.backend import RemoteBackend\n"
                "before = {'http.client', 'ssl'} & set(sys.modules)\n"
                "RemoteBackend('https://127.0.0.1:9')\n"
                "print(sorted(before), 'ssl' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": str(Path(backend_module.__file__).parents[1])}).stdout
        assert out.split() == ["[]", "True"]

    @pytest.mark.parametrize("setting", [{"endpoint": "http://127.0.0.1:9/a b"},
                                         {"endpoint": "http://127.0.0.1:9/\x00"},
                                         {"endpoint": "http://h\u00e9te:9/"},
                                         {"api_key": "k\x7f"}, {"api_key": "cl\u00e9"}])
    def test_what_cannot_go_on_the_wire_is_rejected(self, setting):
        with pytest.raises(ValueError, match="printable ASCII"):
            RemoteBackend(**{"endpoint": "http://127.0.0.1:9", **setting})


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


def _reply(text: str, head: bytes = b"HTTP/1.1 200 OK\r\n") -> bytes:
    body = json.dumps({"text": text, "logprobs": [-0.1]}).encode()
    return b"%sContent-Length: %d\r\n\r\n%s" % (head, len(body), body)


class TestWindow:
    """Requests kept in flight at once, each on a connection of its own."""

    @staticmethod
    def _generate_all(server, n: int, monkeypatch, window: int = 4, **settings) -> tuple:
        """The results of ``n`` requests for images img0, img1, ..., and the
        client's writes."""
        port = server.server_address[1]
        writes = []
        sendall = socket.socket.sendall

        def recording_sendall(sock, data, *flags):
            if sock.getpeername()[1] == port:
                writes.append(bytes(data))
            return sendall(sock, data, *flags)

        monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
        backend = RemoteBackend(server.url, retry_wait=0.0, **settings)
        try:
            requests = [BackendRequest(f"img{k}", QUESTION, "direct") for k in range(n)]
            return list(backend.generate_all(requests, window=window)), writes
        finally:
            backend.close()

    @staticmethod
    def _sent_images(server) -> list:
        return [json.loads(r.split(b"\r\n\r\n", 1)[1])["image_ref"] for r in server.requests]

    @pytest.mark.parametrize("window, max_in_flight, connections", [(1, 4, 1), (4, 4, 4), (4, 2, 2)])
    def test_each_request_in_flight_has_a_connection_of_its_own(self, wire_server, monkeypatch,
                                                                window, max_in_flight, connections):
        results, writes = self._generate_all(wire_server, 6, monkeypatch, window, max_in_flight=max_in_flight)
        assert [t.text for t in results] == ["B"] * 6
        assert sorted(self._sent_images(wire_server)) == [f"img{k}" for k in range(6)]
        assert [w.count(b"POST ") for w in writes] == [1] * 6  # never pipelined
        assert wire_server.connections == connections

    def test_a_slow_service_works_on_the_whole_window_at_once(self, wire_server, monkeypatch):
        """Each reply takes 0.3 s; four requests in a window of four are
        answered in about 0.3 s, not 1.2 s, and still in request order."""
        wire_server.delay = 0.3
        wire_server.by_image = {"img0": [(_reply("0"), False)], "img3": [(_reply("3"), False)]}
        start = time.monotonic()
        results, _ = self._generate_all(wire_server, 4, monkeypatch)
        assert time.monotonic() - start < 0.9
        assert [t.text for t in results] == ["0", "B", "B", "3"]

    @pytest.mark.parametrize("ending", [b"HTTP/1.1 200 OK\r\nConnection: close\r\n", b"HTTP/1.0 200 OK\r\n"],
                             ids=["connection-close", "end-of-stream"])
    def test_a_reply_that_ends_its_connection_sends_the_next_request_on_a_new_one(
            self, wire_server, monkeypatch, ending):
        last = _reply("2", ending)
        if ending.startswith(b"HTTP/1.0"):  # framed by the end of the stream
            last = last.replace(b"Content-Length: 35\r\n", b"")
        wire_server.replies = [(_reply("1"), False), (last, True)]
        results, _ = self._generate_all(wire_server, 4, monkeypatch, window=1)
        assert [t.text for t in results] == ["1", "2", "B", "B"]
        assert self._sent_images(wire_server) == [f"img{k}" for k in range(4)]
        assert wire_server.connections == 2

    def test_a_failed_reply_spends_only_its_own_attempt(self, wire_server, monkeypatch, sleeps):
        """With one attempt each, the 503 fails its request; the requests
        in flight beside it succeed."""
        busy = b"HTTP/1.1 503 Busy\r\nContent-Length: 0\r\n\r\n"
        wire_server.by_image = {"img2": [(busy, False)]}
        results, _ = self._generate_all(wire_server, 6, monkeypatch, retries=1)
        assert isinstance(results[2], RetryableTransportError) and "HTTP 503 Busy" in str(results[2])
        assert [r.text for k, r in enumerate(results) if k != 2] == ["B"] * 5
        assert sleeps == []

    def test_a_dropped_connection_is_retried_on_a_new_one(self, wire_server, monkeypatch, sleeps):
        """A new connection that ends before its reply spends one attempt."""
        wire_server.by_image = {"img1": [(b"", True)]}
        results, _ = self._generate_all(wire_server, 4, monkeypatch, retries=2)
        assert [t.text for t in results] == ["B"] * 4
        assert sorted(self._sent_images(wire_server)) == ["img0", "img1", "img1", "img2", "img3"]
        assert sleeps == [0.0]

    def test_a_window_below_one_is_rejected(self):
        backend = RemoteBackend("http://127.0.0.1:9")
        with pytest.raises(ValueError, match="window must be >= 1"):
            list(backend.generate_all([BackendRequest("img0", QUESTION, "direct")], window=0))

    def test_a_4xx_reply_fails_only_its_own_request(self, wire_server, monkeypatch):
        rejected = b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"
        wire_server.by_image = {"img1": [(rejected, False)]}
        results, _ = self._generate_all(wire_server, 5, monkeypatch, retries=3)
        assert isinstance(results[1], BackendError) and "HTTP 400" in str(results[1])
        assert [r.text for k, r in enumerate(results) if k != 1] == ["B"] * 4
        assert len(wire_server.requests) == 5

    def test_a_trickled_reply_fails_within_the_timeout(self):
        """The timeout bounds the whole reply, not each socket read: a body
        sent one byte per 0.1 s fails the request after 0.3 s."""
        listener = socket.create_server(("127.0.0.1", 0))
        stop = threading.Event()

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(_REPLY_BODY))
                for byte in _REPLY_BODY:
                    if stop.wait(0.1):
                        return
                    try:
                        conn.sendall(bytes([byte]))
                    except OSError:
                        return

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        backend = RemoteBackend(f"http://127.0.0.1:{listener.getsockname()[1]}", timeout=0.3, retries=1)
        start = time.monotonic()
        try:
            with pytest.raises(RetryableTransportError, match="after 1 attempts: .*time"):
                backend.complete_text("score this")
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            thread.join(timeout=5)
            listener.close()
            backend.close()
        assert elapsed < 0.3 + 0.2


# Replies the reader is compared on: each framing, interim and error replies.
_TABLE = {
    "length": b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 33\r\n\r\n" + _REPLY_BODY,
    "chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\n" + _REPLY_BODY[:5]
                + b"\r\n1c\r\n" + _REPLY_BODY[5:] + b"\r\n0\r\nX-Trailer: 1\r\n\r\n"),
    "end-of-stream": b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + _REPLY_BODY,
    "connection-close": b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 33\r\n\r\n" + _REPLY_BODY,
    "continue": b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 33\r\n\r\n" + _REPLY_BODY,
    "busy": b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 4\r\n\r\nbusy",
    "no-content": b"HTTP/1.1 204 No Content\r\nContent-Length: 3\r\n\r\n",
    "1.0-keep-alive": b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 33\r\n\r\n" + _REPLY_BODY,
    "bare-line-feeds": b"HTTP/1.1 200 OK\nContent-Length: 33\n\n" + _REPLY_BODY,
}
# The replies that leave the connection open, so another may follow.
_KEPT = ["length", "chunked", "continue", "busy", "no-content", "1.0-keep-alive", "bare-line-feeds"]


def _fed(data: bytes) -> tuple:
    """A socket pair whose second end reads ``data`` and then the end of the stream."""
    ours, theirs = socket.socketpair()
    ours.sendall(data)
    ours.shutdown(socket.SHUT_WR)
    return ours, theirs


def _read_ours(conn) -> tuple:
    """``(status, reason, body, keep_open)`` of the next reply, or None if it is broken."""
    try:
        status, reason, _, body, keep_open = backend_module._read_reply(conn)
    except (backend_module._ReplyError, ConnectionError):
        return None
    return status, reason, body, keep_open


def _ours(data: bytes):
    writer, reader = _fed(data)
    with writer, reader:
        conn = backend_module._Connection(reader)
        conn.deadline = time.monotonic() + 5
        return _read_ours(conn)


def _reference(data: bytes):
    """What ``http.client`` reads from the same bytes, in the same shape."""
    writer, reader = _fed(data)
    with writer, reader:
        resp = http.client.HTTPResponse(reader)
        try:
            resp.begin()
            body = resp.read()
        except (http.client.HTTPException, ValueError, OSError):
            return None
        finally:
            resp.close()
        return resp.status, resp.reason, body, not resp.will_close


def _mutations(data: bytes, rng: random.Random):
    """Every truncation, 150 seeded byte flips and each header line twice."""
    for end in range(len(data)):
        yield data[:end]
    for _ in range(150):
        at = rng.randrange(len(data))
        yield data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
    lines = data.split(b"\r\n")
    for at, line in enumerate(lines):
        if b": " in line:
            yield b"\r\n".join(lines[:at + 1] + [line] + lines[at + 1:])
            name, value = line.split(b": ", 1)
            yield b"\r\n".join(lines[:at + 1] + [name + b": 1" + value] + lines[at + 1:])


class TestReplyReaderAgainstHttpClient:
    """A differential test of the reply reader against ``http.client``.
    The reader may refuse what ``http.client`` accepts. What it accepts,
    ``http.client`` reads with the same status, reason and body, and a
    connection it keeps open ``http.client`` keeps open too."""

    @pytest.mark.parametrize("name", list(_TABLE))
    def test_table_and_mutations(self, name):
        expected = _reference(_TABLE[name])
        assert expected is not None and _ours(_TABLE[name]) == expected
        accepted = 0
        for data in _mutations(_TABLE[name], random.Random(name)):
            got = _ours(data)
            if got is None:
                continue
            accepted += 1
            want = _reference(data)
            assert want is not None and got[:3] == want[:3], data
            assert want[3] or not got[3], data
        assert accepted > 0

    @pytest.mark.parametrize("first", _KEPT)
    def test_back_to_back_replies_are_each_read_exactly(self, first):
        for second in _TABLE:
            writer, reader = _fed(_TABLE[first] + _TABLE[second])
            with writer, reader:
                conn = backend_module._Connection(reader)
                conn.deadline = time.monotonic() + 5
                assert _read_ours(conn) == _reference(_TABLE[first])
                assert conn.reader.read() == _TABLE[second]  # not one byte of it was taken

    def test_a_header_name_that_is_not_a_token_is_refused(self):
        # http.client ends the headers at such a line and reads the body to
        # the end of the stream; keeping the connection would misframe
        data = _TABLE["length"].replace(b"Content-Type", b"Content\xdaType")
        assert _reference(data)[3] is False
        assert _ours(data) is None


@pytest.fixture()
def script_server():
    """An HTTP/1.1 keep-alive service that answers each generation request
    with the trace the ``easy_hard`` mock script holds for it, as JSON.
    ``server.rejected`` names ``(image_ref, mode)`` pairs to answer with a
    400 instead; ``server.counts`` counts connections and requests."""
    mock = MockBackend.from_json(Path(__file__).parent / "fixtures" / "easy_hard_script.json")
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = 5  # an idle connection left open ends its thread

        def setup(self):
            super().setup()
            with lock:
                server.counts["connections"] += 1

        def do_POST(self):
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with lock:
                server.counts["requests"] += 1
            question = request["prompt"].split("Question: ", 1)[1].split("\n", 1)[0]
            mode = next(m for m in MODES if build_prompt(question, m) == request["prompt"])
            if (request["image_ref"], mode) in server.rejected:
                self.send_response(400)
                body = b"{}"
            else:
                trace = mock.generate(BackendRequest(request["image_ref"], question, mode))
                self.send_response(200)
                body = json.dumps({"text": trace.text, "logprobs": trace.token_logprobs.tolist(),
                                   "embeddings": {"prompt": trace.img_rep.tolist(),
                                                  "completion": trace.txt_rep.tolist()}}).encode()
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = False  # so server_close joins the connection threads
    server.rejected, server.counts = set(), {"connections": 0, "requests": 0}
    server.url = f"http://127.0.0.1:{server.server_port}/v1"
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestRemoteEval:
    BENCHMARK = str(Path(__file__).parent / "fixtures" / "easy_hard_benchmark.jsonl")

    def _eval(self, server, out: Path, workers: int) -> bytes:
        assert dispatch(["eval", "--benchmark", self.BENCHMARK, "--strategy", "sv", "--workers", str(workers),
                         "--backend", f"remote:{server.url}", "--out", str(out)]) == 0
        return (out / "report.json").read_bytes()

    def test_workers_change_neither_the_report_nor_the_requests(self, script_server, tmp_path, capsys):
        mock = tmp_path / "mock"
        assert dispatch(["eval", "--benchmark", self.BENCHMARK, "--strategy", "sv", "--backend",
                         f"mock:{Path(__file__).parent / 'fixtures' / 'easy_hard_script.json'}",
                         "--out", str(mock)]) == 0
        for workers in (1, 2, 4):
            script_server.counts.update(connections=0, requests=0)
            report = self._eval(script_server, tmp_path / str(workers), workers)
            assert report == (mock / "report.json").read_bytes()
            # a window of two requests per instance in flight, at most max_in_flight (4)
            assert script_server.counts == {"connections": min(2 * workers, 4), "requests": 2 * 4}

    def test_a_4xx_reply_in_mid_stream_fails_only_its_instance(self, script_server, tmp_path, capsys):
        script_server.rejected = {("img-e2", "cot")}  # the 4th of 8 requests
        report = json.loads(self._eval(script_server, tmp_path, 2))
        assert [r["branch"] == "error" for r in report["records"]] == [False, True, False, False]
        assert report["records"][1]["error"] == (
            "BackendError: cot branch failed: service rejected request: HTTP 400 Bad Request")
        assert capsys.readouterr().out == "sv accuracy: 0.7500 on 4 instances, 1 failed\n"
