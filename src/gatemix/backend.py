"""Model backends.

A backend turns a request (image ref, question, prompt mode) into a
generation trace: the text, per-token log-probabilities of the generated
tokens, and pooled image/text representation vectors. ``MODES`` defines
each prompt mode once: its task template and decoding config. A trace
carries no mode, and as a dict it holds only ``text``, ``token_logprobs``,
``img_rep`` and ``txt_rep``. Two implementations ship here: a
bit-deterministic scripted mock for tests and offline runs, and a client
for an HTTP inference service that exposes logprobs and embeddings.

Wire protocol of the remote service (JSON over HTTP POST):
  request: {model, prompt, image_ref?, temperature, top_p, max_tokens,
            want_logprobs: true, want_embeddings: true}
  reply:   {text, logprobs: [float],
            embeddings: {prompt: [float], completion: [float]}}

A reply without logprobs is a hard capability error; a reply without
embeddings degrades to neutral orthogonal representation vectors (whose
similarity score is exactly 0.5) with a logged warning.
"""

from __future__ import annotations

import json
import logging
import math
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BackendError",
    "RetryableTransportError",
    "CapabilityError",
    "MalformedReplyError",
    "DecodingConfig",
    "BackendRequest",
    "GenerationTrace",
    "MODES",
    "PROMPT_MODES",
    "build_prompt",
    "MockBackend",
    "RemoteBackend",
    "generate_branch",
    "dual_generate",
    "trace_to_dict",
    "trace_from_dict",
]

log = logging.getLogger(__name__)

DEFAULT_MAX_TOKENS = 1024


class BackendError(Exception):
    """Base class for backend failures."""


class RetryableTransportError(BackendError):
    """Transport kept failing; carries the number of attempts made."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class CapabilityError(BackendError):
    """The service reply lacks a required capability (e.g. logprobs)."""


class MalformedReplyError(BackendError, ValueError):
    """The service replied with trace fields that are not a valid trace
    (non-numeric or non-finite logprobs, representations of unequal length,
    ...). The service is at fault, so it is a ``BackendError``; it stays a
    ``ValueError`` like every other invalid trace."""


@dataclass(frozen=True)
class DecodingConfig:
    temperature: float = 1.0
    top_p: float = 1.0
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if not (0.0 < self.top_p <= 1.0):
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")


MODES = {
    "direct": (
        "You are answering a visual question.\n"
        "Question: {question}\n"
        "Answer with only the final answer. Do not include any reasoning.",
        DecodingConfig(temperature=1.0, top_p=1.0),
    ),
    "cot": (
        "You are answering a visual question.\n"
        "Question: {question}\n"
        "Reason through the problem step by step, then state your conclusion on "
        'a new line in the form "The answer is <answer>."',
        DecodingConfig(temperature=0.4, top_p=0.9),
    ),
}
PROMPT_MODES = tuple(MODES)


def build_prompt(question: str, mode: str) -> str:
    """Expand the mode's task template for one question."""
    return MODES[mode][0].format(question=question)


@dataclass(frozen=True)
class BackendRequest:
    """One generation request; its prompt and decoding are its mode's."""

    image_ref: str
    question: str
    prompt_mode: str

    def __post_init__(self):
        if self.prompt_mode not in PROMPT_MODES:
            raise ValueError(f"prompt mode must be one of {PROMPT_MODES}, got {self.prompt_mode!r}")

    @property
    def prompt(self) -> str:
        return build_prompt(self.question, self.prompt_mode)

    @property
    def decoding(self) -> DecodingConfig:
        return MODES[self.prompt_mode][1]


def _check_keys(payload: dict, known, what: str) -> None:
    for key in payload:
        if key not in known:
            raise ValueError(f"unknown {what} key {key!r}")


@dataclass(frozen=True)
class GenerationTrace:
    """One backend call's output.

    ``token_logprobs`` covers generated tokens only (log P(w_t | w_<t)),
    every entry finite and <= 0. ``img_rep``/``txt_rep`` are the pooled
    representation vectors used for the similarity score: of equal length,
    every entry finite, and each with a non-zero entry. Each is held as a
    read-only 1-D float64 array copy (C sums the logprobs in token order on
    every Python version: a last-bit change can flip a tie). Traces are equal
    when their texts and arrays are; a bad type, range or shape is a ValueError.
    """

    text: str
    token_logprobs: np.ndarray
    img_rep: np.ndarray
    txt_rep: np.ndarray
    FLOAT_FIELDS = ("token_logprobs", "img_rep", "txt_rep")  # a class constant, not a field

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ValueError(f"trace text must be a string, got {type(self.text).__name__}")
        for name in self.FLOAT_FIELDS:
            try:
                values = np.array(getattr(self, name), dtype=np.float64)
                if values.ndim != 1:
                    raise ValueError(f"{name} has shape {values.shape}")
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"trace values must be sequences of numbers: {exc}") from exc
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        lps, img, txt = self.token_logprobs, self.img_rep, self.txt_rep
        if np.count_nonzero(np.isfinite(np.concatenate((lps, img, txt)))) != lps.size + img.size + txt.size:
            raise ValueError("token logprobs and representations must be finite")
        if len(img) != len(txt):
            raise ValueError(f"img_rep and txt_rep differ in length: {len(img)} vs {len(txt)}")
        if not (np.count_nonzero(img) and np.count_nonzero(txt)):
            raise ValueError("img_rep and txt_rep must each have a non-zero entry")
        if np.count_nonzero(lps > 0.0):
            raise ValueError("token logprobs must all be <= 0")
        if self.text and not len(lps):
            raise ValueError("non-empty generation must carry token logprobs")

    def __eq__(self, other):
        return isinstance(other, GenerationTrace) and trace_to_dict(self) == trace_to_dict(other)


def trace_to_dict(trace: GenerationTrace) -> dict:
    return {"text": trace.text, **{n: getattr(trace, n).tolist() for n in trace.FLOAT_FIELDS}}


def trace_from_dict(payload: dict) -> GenerationTrace:
    """The trace a dict of its fields holds. ``token_logprobs`` defaults to
    none, and neither representation (no embeddings) to orthogonal unit
    vectors, whose similarity score is exactly the neutral 0.5. One without
    the other, or any other key, is a ValueError."""
    _check_keys(payload, GenerationTrace.__dataclass_fields__, "trace")
    if ("img_rep" in payload) != ("txt_rep" in payload):
        raise ValueError("a trace holds both img_rep and txt_rep or neither")
    return GenerationTrace(
        text=payload["text"],
        token_logprobs=payload.get("token_logprobs", ()),
        img_rep=payload.get("img_rep", (1.0, 0.0)),
        txt_rep=payload.get("txt_rep", (0.0, 1.0)),
    )


# Trace of unscripted keys when a script names no default of its own.
_BUILTIN_DEFAULT = {"text": "A", "token_logprobs": [math.log(0.5)]}


class MockBackend:
    """Scripted backend: a total map from (image_ref, question, prompt_mode)
    to a fixed trace, falling back to one default trace for unscripted keys.

    Scripts load from JSON:
      {"default": {trace...}?,
       "entries": [{"image_ref":..., "question":..., "prompt_mode":..., "trace": {...}}],
       "completions": [{"contains": "substr", "reply": "..."}],
       "default_completion": "..."}

    ``completions`` drive ``complete_text`` (used by the curation pipeline):
    the first rule whose ``contains`` string occurs in the prompt wins.
    """

    def __init__(self, entries=None, default=None, completions=None, default_completion=None):
        self._script = dict(entries or {})
        self._default = trace_from_dict(_BUILTIN_DEFAULT if default is None else default)
        self._completions = [(rule["contains"], rule["reply"]) for rule in completions or []]
        self._default_completion = default_completion
        texts = [text for rule in self._completions for text in rule]
        if default_completion is not None:
            texts.append(default_completion)
        if not all(isinstance(text, str) for text in texts):
            raise ValueError("mock completion rules and default_completion must be strings")

    @classmethod
    def from_json(cls, path) -> "MockBackend":
        """Load and validate a script; a malformed one, or a key not shown above, is a ValueError."""
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError(f"mock script {path} must hold a JSON object")
        _check_keys(spec, ("entries", "default", "completions", "default_completion"), "mock script")
        try:
            entries = {}
            for n, entry in enumerate(spec.get("entries", [])):
                key = (entry["image_ref"], entry["question"], entry["prompt_mode"])
                try:
                    _check_keys(entry, ("image_ref", "question", "prompt_mode", "trace"), "entry")
                    BackendRequest(*key)
                    entries[key] = trace_from_dict(entry["trace"])
                except ValueError as exc:
                    raise ValueError(f"mock script {path} entry {n}: {exc}") from exc
            return cls(**{**spec, "entries": entries})
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"mock script {path} is malformed: {exc!r}") from exc

    def generate(self, req: BackendRequest) -> GenerationTrace:
        key = (req.image_ref, req.question, req.prompt_mode)
        return self._script.get(key, self._default)

    def complete_text(self, prompt: str) -> str:
        for contains, reply in self._completions:
            if contains in prompt:
                return reply
        if self._default_completion is not None:
            return self._default_completion
        raise CapabilityError("mock backend has no completion script for this prompt")

    def close(self) -> None:
        """Nothing to release; present so that any backend can be closed."""


# Asks the kernel to acknowledge the reply at once instead of delaying the
# ACK. A server that writes headers and body in two sends with Nagle on
# holds the body until the headers are acknowledged, so on a kept-alive
# connection a delayed ACK stalls every reply by tens of milliseconds.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

# A reply line longer than this, or more header lines, is a broken reply.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# A body is read this many bytes at a time, so a false length cannot make
# the client allocate more than the server sends.
_READ_SIZE = 1 << 20


class _ReplyError(Exception):
    """The reply breaks HTTP/1.1 framing. Like a socket error, it is a
    transport failure: it spends an attempt."""


class _Connection:
    """A kept-alive connection: its socket and the one buffered reader that
    every reply on it is read through."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _read_line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _ReplyError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _read_headers(reader) -> dict:
    """The header fields up to the blank line, by lower-case name; the
    first of repeated fields wins. ``Content-Length`` fields that differ
    leave the body's end unknown (RFC 9112 section 6.3)."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise _ReplyError("reply ended inside its headers")
        name, _, value = line.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        if headers.setdefault(name, value) != value and name == "content-length":
            raise _ReplyError(f"differing Content-Length values {headers[name]!r} and {value!r}")
    raise _ReplyError(f"more than {_MAX_HEADERS} reply headers")


def _read_exact(reader, n: int) -> bytes:
    parts, left = [], n
    while left:
        part = reader.read(min(left, _READ_SIZE))
        if not part:
            raise _ReplyError(f"IncompleteRead({n - left} bytes read, {left} more expected)")
        parts.append(part)
        left -= len(part)
    return b"".join(parts)


def _read_chunked(reader) -> bytes:
    parts = []
    while True:
        line = _read_line(reader)
        digits = line.split(b";", 1)[0].strip()  # the size, before any chunk extension
        if not digits or digits.strip(b"0123456789abcdefABCDEF"):
            raise _ReplyError(f"bad chunk size line {line[:80]!r}")
        size = int(digits, 16)
        if not size:
            _read_headers(reader)  # the trailer fields, up to the blank line
            return b"".join(parts)
        parts.append(_read_exact(reader, size))
        if _read_line(reader) not in (b"\r\n", b"\n"):
            raise _ReplyError("chunk data not followed by a line end")


def _read_reply(reader) -> tuple:
    """One HTTP/1.1 reply: ``(status, reason, headers, body, keep_open)``.
    Interim 1xx replies are skipped. The body is delimited by chunked
    encoding, by ``Content-Length`` or by the end of the stream; a
    connection that ends before any status line raises ``ConnectionError``."""
    line = _read_line(reader)
    if not line:
        raise ConnectionResetError("server closed the connection without replying")
    while True:
        parts = line.split(None, 2)  # version, status and the reason, if any
        status = int(parts[1]) if len(parts) > 1 and len(parts[1]) == 3 and parts[1].isdigit() else 0
        if status < 100 or not parts[0].startswith(b"HTTP/1."):
            raise _ReplyError(f"bad status line {line[:80]!r}")
        headers = _read_headers(reader)
        if status >= 200:
            break
        line = _read_line(reader)
    connection = headers.get("connection", "").lower()
    # HTTP/1.1 keeps a connection open unless told to close it; 1.0 only when asked
    keep_open = "close" not in connection if parts[0] != b"HTTP/1.0" else "keep-alive" in connection
    coding = headers.get("transfer-encoding")
    length = headers.get("content-length")
    if status in (204, 304):
        body = b""
    elif coding is not None:
        if coding.lower() != "chunked":
            raise _ReplyError(f"unsupported Transfer-Encoding {coding!r}")
        body = _read_chunked(reader)
    elif length is not None:
        if not (length.isascii() and length.isdigit()):
            raise _ReplyError(f"bad Content-Length {length!r}")
        body = _read_exact(reader, int(length))
    else:
        body, keep_open = reader.read(), False
    reason = parts[2].strip().decode("latin-1") if len(parts) == 3 else ""
    return status, reason, headers, body, keep_open


class RemoteBackend:
    """Client for a logprob-capable HTTP inference service.

    Makes up to ``retries`` attempts on transport failures, 5xx and 429
    replies and bounds the number of in-flight requests, so one instance
    can be shared across eval workers. Before attempt k+1 it waits
    ``retry_wait * 2**(k-1)`` seconds, or what a 429 or 503 reply's
    delta-seconds ``Retry-After`` asks, capped at ``timeout``. Any other
    non-2xx reply, a redirect included, is a ``BackendError``. Logprobs are
    never fabricated: a reply without them raises ``CapabilityError``.

    It speaks HTTP/1.1 on its own sockets: each request goes out in one
    write, and a reply's body may be delimited by ``Content-Length``,
    chunked encoding or the end of the stream; only the identity content
    coding is asked for. Connections are kept alive and reused: at most
    ``max_in_flight`` of them, idle ones in a pool that ``close()`` empties.
    The endpoint must be a printable-ASCII http or https URL with a host;
    proxy settings are not read.
    """

    def __init__(
        self,
        endpoint: str,
        model: str = "default",
        api_key: str | None = None,
        timeout: float = 30.0,
        retries: int = 3,
        retry_wait: float = 0.1,
        max_in_flight: int = 4,
    ):
        # no request slot would make every call wait forever; a socket
        # cannot hold a timeout past TIMEOUT_MAX (it overflows time_t)
        if retries < 1 or max_in_flight < 1 or not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"need retries >= 1, max_in_flight >= 1 and "
                             f"0 < timeout <= {threading.TIMEOUT_MAX:.0f}, "
                             f"got {retries}, {max_in_flight} and {timeout}")
        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL with a host, got {endpoint!r}")
        # the request line and headers are sent as they are, so nothing in
        # them may end a line or fall outside ASCII
        if not (endpoint.isascii() and endpoint.isprintable()) or " " in endpoint:
            raise ValueError(f"endpoint must be printable ASCII without spaces, got {endpoint!r}")
        if api_key and not (api_key.isascii() and api_key.isprintable()):
            raise ValueError("api_key must be printable ASCII")
        port = url.port  # a bad port is a ValueError here
        self._address = (url.hostname, port if port is not None else 443 if url.scheme == "https" else 80)
        self._tls = None
        if url.scheme == "https":
            import ssl  # only https needs it

            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._head = (f"POST {path} HTTP/1.1\r\nHost: {url.netloc.rpartition('@')[2]}\r\n"
                      "Content-Type: application/json\r\nAccept-Encoding: identity\r\n"
                      + (f"Authorization: Bearer {api_key}\r\n" if api_key else "")).encode("ascii")
        self.model = model
        self.timeout = timeout
        self.retries = retries
        self.retry_wait = retry_wait
        self._slots = threading.Semaphore(max_in_flight)
        # Idle kept-alive connections, last used first. A connection is made
        # only when none is idle, and only by a holder of a slot, so there
        # are never more than max_in_flight of them.
        self._idle = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections. The backend stays usable: a later
        request opens a new connection."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connect(self) -> _Connection:
        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
            return _Connection(sock)
        except BaseException:
            sock.close()
            raise

    def _exchange(self, conn: _Connection, request: bytes) -> tuple:
        """Send ``request`` on ``conn`` and read the whole reply: its
        status, reason, headers and body. ``conn`` goes back to the idle
        pool after a 2xx reply that leaves it open; otherwise, and on any
        failure, it is closed."""
        keep = False
        try:
            conn.sock.sendall(request)
            if _QUICKACK is not None:
                # the kernel leaves quick-ACK mode on its own, so set it per request
                conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
            status, reason, headers, body, keep_open = _read_reply(conn.reader)
            keep = 200 <= status < 300 and keep_open
        finally:
            if keep:
                with self._idle_lock:
                    self._idle.append(conn)
            else:
                conn.close()
        return status, reason, headers, body

    def _round_trip(self, request: bytes) -> tuple:
        """One request on an idle connection if there is one, else on a new
        one. A ``ConnectionError`` on an idle connection means the server
        closed it while it sat in the pool, so the request goes once more on
        a new connection; any failure on a new connection is the caller's."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                return self._exchange(conn, request)
            except ConnectionError:
                pass
        return self._exchange(self._connect(), request)

    def _post(self, payload: dict) -> dict:
        body = json.dumps(payload).encode("utf-8")
        request = b"%sContent-Length: %d\r\n\r\n%s" % (self._head, len(body), body)
        last_error = None
        for attempt in range(1, self.retries + 1):
            wait = self.retry_wait * 2 ** (attempt - 1)
            try:
                with self._slots:
                    status, reason, headers, raw = self._round_trip(request)
            except (OSError, _ReplyError) as exc:
                last_error = exc
            else:
                if 200 <= status < 300:
                    break
                if status < 500 and status != 429:
                    raise BackendError(f"service rejected request: HTTP {status} {reason}")
                retry_after = headers.get("retry-after", "")
                if status in (429, 503) and retry_after.isascii() and retry_after.isdigit():
                    wait = min(float(retry_after), self.timeout)
                last_error = f"HTTP {status} {reason}"
            if attempt < self.retries:
                time.sleep(wait)
        else:
            raise RetryableTransportError(
                f"transport failed after {self.retries} attempts: {last_error}",
                attempts=self.retries,
            )
        try:
            reply = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BackendError(f"service returned malformed JSON: {exc}") from exc
        if not isinstance(reply, dict):
            raise BackendError(f"service reply is not a JSON object: {type(reply).__name__}")
        return reply

    def _payload(self, prompt: str, decoding: DecodingConfig, image_ref: str | None) -> dict:
        payload = {
            "model": self.model,
            "prompt": prompt,
            "temperature": decoding.temperature,
            "top_p": decoding.top_p,
            "max_tokens": decoding.max_tokens,
            "want_logprobs": True,
            "want_embeddings": True,
        }
        if image_ref is not None:
            payload["image_ref"] = image_ref
        return payload

    def generate(self, req: BackendRequest) -> GenerationTrace:
        reply = self._post(self._payload(req.prompt, req.decoding, req.image_ref))
        if "text" not in reply:
            raise BackendError("service reply lacks 'text'")
        logprobs = reply.get("logprobs")
        if logprobs is None:
            raise CapabilityError("service reply lacks logprobs; cannot score confidence")
        trace = {"text": reply["text"], "token_logprobs": logprobs}
        embeddings = reply.get("embeddings")
        if isinstance(embeddings, dict) and "prompt" in embeddings and "completion" in embeddings:
            trace.update(img_rep=embeddings["prompt"], txt_rep=embeddings["completion"])
        else:
            log.warning(
                "service reply lacks embeddings; falling back to neutral "
                "representations (similarity score pinned at 0.5)"
            )
        try:
            return trace_from_dict(trace)
        except ValueError as exc:
            raise MalformedReplyError(f"service reply is not a valid trace: {exc}") from exc

    def complete_text(self, prompt: str) -> str:
        reply = self._post(self._payload(prompt, DecodingConfig(), image_ref=None))
        text = reply.get("text")
        if not isinstance(text, str):
            raise MalformedReplyError(f"service reply lacks a string 'text': {text!r}")
        return text


def generate_branch(backend, image_ref: str, question: str, mode: str) -> GenerationTrace:
    """Run one task prompt for one instance. A failure raises a BackendError
    naming the mode."""
    try:
        return backend.generate(BackendRequest(image_ref, question, mode))
    except BackendError as exc:
        raise BackendError(f"{mode} branch failed: {exc}") from exc


def dual_generate(backend, image_ref: str, question: str) -> tuple:
    """Run both task prompts for one instance; returns (direct, cot) traces."""
    return tuple(generate_branch(backend, image_ref, question, mode) for mode in MODES)
