"""Model backends.

A backend turns (image ref, question, prompt mode) into a generation trace:
the text, per-token log-probabilities of the generated tokens, and pooled
image/text representation vectors. Two implementations ship here: a
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

import http.client
import json
import logging
import math
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass, field

__all__ = [
    "BackendError",
    "RetryableTransportError",
    "CapabilityError",
    "MalformedReplyError",
    "DecodingConfig",
    "BackendRequest",
    "GenerationTrace",
    "PROMPT_MODES",
    "build_prompt",
    "default_decoding",
    "MockBackend",
    "RemoteBackend",
    "dual_requests",
    "dual_generate",
    "trace_to_dict",
    "trace_from_dict",
]

log = logging.getLogger(__name__)

PROMPT_MODES = ("direct", "cot")

DIRECT_PROMPT = (
    "You are answering a visual question.\n"
    "Question: {question}\n"
    "Answer with only the final answer. Do not include any reasoning."
)

COT_PROMPT = (
    "You are answering a visual question.\n"
    "Question: {question}\n"
    "Reason through the problem step by step, then state your conclusion on "
    'a new line in the form "The answer is <answer>."'
)

# Representation vectors used when a service cannot return embeddings:
# orthogonal unit vectors, so the similarity score is exactly the neutral 0.5.
NEUTRAL_IMG_REP = (1.0, 0.0)
NEUTRAL_TXT_REP = (0.0, 1.0)

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


def default_decoding(mode: str, max_tokens: int = DEFAULT_MAX_TOKENS) -> DecodingConfig:
    """Mode defaults: direct samples at temperature 1.0, the step-by-step
    mode at temperature 0.4 with top_p 0.9."""
    if mode == "direct":
        return DecodingConfig(temperature=1.0, top_p=1.0, max_tokens=max_tokens)
    if mode == "cot":
        return DecodingConfig(temperature=0.4, top_p=0.9, max_tokens=max_tokens)
    raise ValueError(f"prompt mode must be one of {PROMPT_MODES}, got {mode!r}")


@dataclass(frozen=True)
class BackendRequest:
    image_ref: str
    question: str
    prompt_mode: str
    decoding: DecodingConfig = field(default_factory=DecodingConfig)

    def __post_init__(self):
        if self.prompt_mode not in PROMPT_MODES:
            raise ValueError(
                f"prompt mode must be one of {PROMPT_MODES}, got {self.prompt_mode!r}"
            )


@dataclass(frozen=True)
class GenerationTrace:
    """One backend call's output.

    ``token_logprobs`` covers generated tokens only (log P(w_t | w_<t)),
    every entry finite and <= 0. ``img_rep``/``txt_rep`` are the pooled
    representation vectors used for the similarity score: of equal length,
    every entry finite, and each with a non-zero entry. A value of the wrong
    type, range or shape is a ValueError.
    """

    text: str
    token_logprobs: tuple
    img_rep: tuple
    txt_rep: tuple
    prompt_mode: str = "direct"

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ValueError(f"trace text must be a string, got {type(self.text).__name__}")
        try:
            for name in ("token_logprobs", "img_rep", "txt_rep"):
                object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        except TypeError as exc:
            raise ValueError(f"trace values must be sequences of numbers: {exc}") from exc
        if self.prompt_mode not in PROMPT_MODES:
            raise ValueError(f"bad prompt mode {self.prompt_mode!r}")
        if not all(map(math.isfinite, self.token_logprobs + self.img_rep + self.txt_rep)):
            raise ValueError("token logprobs and representations must be finite")
        if len(self.img_rep) != len(self.txt_rep):
            raise ValueError(f"img_rep and txt_rep differ in length: "
                             f"{len(self.img_rep)} vs {len(self.txt_rep)}")
        if not any(self.img_rep) or not any(self.txt_rep):
            raise ValueError("img_rep and txt_rep must each have a non-zero entry")
        if max(self.token_logprobs, default=0.0) > 0.0:
            raise ValueError("token logprobs must all be <= 0")
        if self.text and not self.token_logprobs:
            raise ValueError("non-empty generation must carry token logprobs")


def build_prompt(question: str, mode: str) -> str:
    """Expand the fixed task template for one question."""
    if mode == "direct":
        return DIRECT_PROMPT.format(question=question)
    if mode == "cot":
        return COT_PROMPT.format(question=question)
    raise ValueError(f"prompt mode must be one of {PROMPT_MODES}, got {mode!r}")


def trace_to_dict(trace: GenerationTrace) -> dict:
    return {
        "text": trace.text,
        "token_logprobs": list(trace.token_logprobs),
        "img_rep": list(trace.img_rep),
        "txt_rep": list(trace.txt_rep),
        "prompt_mode": trace.prompt_mode,
    }


def trace_from_dict(payload: dict, prompt_mode: str | None = None) -> GenerationTrace:
    mode = prompt_mode or payload.get("prompt_mode", "direct")
    return GenerationTrace(
        text=payload["text"],
        token_logprobs=payload.get("token_logprobs", ()),
        img_rep=payload.get("img_rep", NEUTRAL_IMG_REP),
        txt_rep=payload.get("txt_rep", NEUTRAL_TXT_REP),
        prompt_mode=mode,
    )


# Trace of unscripted keys when a script names no default of its own.
_BUILTIN_DEFAULT = {"text": "A", "token_logprobs": [math.log(0.5)]}


class MockBackend:
    """Scripted backend: a total map from (image_ref, question, prompt_mode)
    to a fixed trace, falling back to a default trace for unscripted keys.

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
        default = _BUILTIN_DEFAULT if default is None else default
        self._defaults = {m: trace_from_dict(default, prompt_mode=m) for m in PROMPT_MODES}
        self._completions = [(rule["contains"], rule["reply"]) for rule in completions or []]
        self._default_completion = default_completion
        texts = [text for rule in self._completions for text in rule]
        if default_completion is not None:
            texts.append(default_completion)
        if not all(isinstance(text, str) for text in texts):
            raise ValueError("mock completion rules and default_completion must be strings")

    @classmethod
    def from_json(cls, path) -> "MockBackend":
        """Load and validate a script; a malformed one is a ValueError."""
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError(f"mock script {path} must hold a JSON object")
        try:
            entries = {}
            for entry in spec.get("entries", []):
                key = (entry["image_ref"], entry["question"], entry["prompt_mode"])
                entries[key] = trace_from_dict(entry["trace"], prompt_mode=entry["prompt_mode"])
            return cls(
                entries=entries,
                default=spec.get("default"),
                completions=spec.get("completions"),
                default_completion=spec.get("default_completion"),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"mock script {path} is malformed: {exc!r}") from exc

    def generate(self, req: BackendRequest) -> GenerationTrace:
        key = (req.image_ref, req.question, req.prompt_mode)
        return self._script.get(key, self._defaults[req.prompt_mode])

    def complete_text(self, prompt: str, decoding: DecodingConfig | None = None) -> str:
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


class RemoteBackend:
    """Client for a logprob-capable HTTP inference service.

    Makes up to ``retries`` attempts on transport failures, 5xx and 429
    replies and bounds the number of in-flight requests, so one instance
    can be shared across eval workers. Before attempt k+1 it waits
    ``retry_wait * 2**(k-1)`` seconds, or what a 429 or 503 reply's
    delta-seconds ``Retry-After`` asks, capped at ``timeout``. Any other
    non-2xx reply, a redirect included, is a ``BackendError``. Logprobs are
    never fabricated: a reply without them raises ``CapabilityError``.

    Connections are kept alive and reused: at most ``max_in_flight`` of
    them, idle ones in a pool that ``close()`` empties. The endpoint must
    be an http or https URL with a host; proxy settings are not read.
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
        if retries < 1 or max_in_flight < 1 or not timeout > 0:
            # no request slot would make every call wait forever
            raise ValueError(f"need retries >= 1, max_in_flight >= 1 and timeout > 0, "
                             f"got {retries}, {max_in_flight} and {timeout}")
        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL with a host, got {endpoint!r}")
        self._connection_class = (http.client.HTTPSConnection if url.scheme == "https"
                                  else http.client.HTTPConnection)
        self._address = (url.hostname, url.port)  # a bad port is a ValueError here
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
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

    def _exchange(self, conn: http.client.HTTPConnection, body: bytes, headers: dict):
        """POST ``body`` on ``conn`` and read the whole reply: the response
        and its body. ``conn`` goes back to the idle pool after a
        2xx reply the server keeps it open for; otherwise, and on any
        failure, it is closed."""
        keep = False
        try:
            conn.request("POST", self._path, body, headers)
            if _QUICKACK is not None:
                # the kernel leaves quick-ACK mode on its own, so set it per request
                conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
            resp = conn.getresponse()
            raw = resp.read()
            keep = 200 <= resp.status < 300 and not resp.will_close
        finally:
            if keep:
                with self._idle_lock:
                    self._idle.append(conn)
            else:
                conn.close()
        return resp, raw

    def _round_trip(self, body: bytes, headers: dict):
        """One request on an idle connection if there is one, else on a new
        one. A ``ConnectionError`` on an idle connection means the server
        closed it while it sat in the pool, so the request goes once more on
        a new connection; any failure on a new connection is the caller's."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                return self._exchange(conn, body, headers)
            except ConnectionError:
                pass
        return self._exchange(self._connection_class(*self._address, timeout=self.timeout),
                              body, headers)

    def _post(self, payload: dict) -> dict:
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error = None
        for attempt in range(1, self.retries + 1):
            wait = self.retry_wait * 2 ** (attempt - 1)
            try:
                with self._slots:
                    resp, raw = self._round_trip(body, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
            else:
                if 200 <= resp.status < 300:
                    break
                if resp.status < 500 and resp.status != 429:
                    raise BackendError(f"service rejected request: HTTP {resp.status} {resp.reason}")
                retry_after = (resp.headers.get("Retry-After") or "").strip()
                if resp.status in (429, 503) and retry_after.isascii() and retry_after.isdigit():
                    wait = min(float(retry_after), self.timeout)
                last_error = f"HTTP {resp.status} {resp.reason}"
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
        prompt = build_prompt(req.question, req.prompt_mode)
        reply = self._post(self._payload(prompt, req.decoding, req.image_ref))
        if "text" not in reply:
            raise BackendError("service reply lacks 'text'")
        logprobs = reply.get("logprobs")
        if logprobs is None:
            raise CapabilityError("service reply lacks logprobs; cannot score confidence")
        embeddings = reply.get("embeddings")
        if isinstance(embeddings, dict) and "prompt" in embeddings and "completion" in embeddings:
            img_rep = embeddings["prompt"]
            txt_rep = embeddings["completion"]
        else:
            log.warning(
                "service reply lacks embeddings; falling back to neutral "
                "representations (similarity score pinned at 0.5)"
            )
            img_rep, txt_rep = NEUTRAL_IMG_REP, NEUTRAL_TXT_REP
        try:
            return GenerationTrace(
                text=reply["text"],
                token_logprobs=logprobs,
                img_rep=img_rep,
                txt_rep=txt_rep,
                prompt_mode=req.prompt_mode,
            )
        except ValueError as exc:
            raise MalformedReplyError(f"service reply is not a valid trace: {exc}") from exc

    def complete_text(self, prompt: str, decoding: DecodingConfig | None = None) -> str:
        decoding = decoding or DecodingConfig()
        reply = self._post(self._payload(prompt, decoding, image_ref=None))
        text = reply.get("text")
        if not isinstance(text, str):
            raise MalformedReplyError(f"service reply lacks a string 'text': {text!r}")
        return text


def dual_requests(image_ref: str, question: str, max_tokens: int = DEFAULT_MAX_TOKENS) -> tuple:
    """The (direct, cot) requests for one instance. They share image,
    question and token budget and differ only in the prompt mode and the
    mode decoding defaults."""
    return tuple(BackendRequest(image_ref=image_ref, question=question, prompt_mode=mode,
                                decoding=default_decoding(mode, max_tokens=max_tokens))
                 for mode in PROMPT_MODES)


def dual_generate(
    backend, image_ref: str, question: str, max_tokens: int = DEFAULT_MAX_TOKENS
) -> tuple:
    """Run both task prompts for one instance; returns (direct, cot) traces
    of the ``dual_requests``. A failing branch raises a BackendError naming
    the mode.
    """
    traces = []
    for req in dual_requests(image_ref, question, max_tokens):
        try:
            traces.append(backend.generate(req))
        except BackendError as exc:
            raise BackendError(f"{req.prompt_mode} branch failed: {exc}") from exc
    return tuple(traces)
