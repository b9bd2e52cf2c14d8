"""Multi-choice benchmark evaluation.

Loads benchmark instances from JSONL, runs one of three strategies over a
backend -- direct answering, step-by-step answering, or the full
self-verification decision -- and returns accuracy with per-instance audit
records; the CLI writes the report artifacts. Backend, trace and cache I/O
failures are contained per instance (recorded as incorrect-with-error); any
other exception propagates.

Each instance is generated and scored once; the alpha sweep re-runs only
the decision rule per grid point. Traces can be cached on disk, in one
append-only log per cache directory, ``traces.jsonl``: each line is an
instance id and a compact JSON entry holding each branch's trace under its
mode's name, with each trace's float fields packed as base64 text of their
little-endian float64 bytes. A later line for an id supersedes an earlier
one. An entry that is unreadable, malformed, packed wrongly, not a valid
trace, or made for another image ref or question or under other prompt
modes is a miss and is regenerated.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
import weakref
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .backend import (MODES, PROMPT_MODES, BackendError, BackendRequest, GenerationTrace,
                      _check_keys, branch_traces, trace_from_dict, trace_to_dict)
# The one-instance form of what ``_scored`` streams. The eval no longer
# calls it, but perfbench's tracer wraps it under this module's name.
from .backend import dual_generate  # noqa: F401
from .verify import (BRANCHES, DEFAULT_ALPHA, answers_equal, branch_record, check_alpha,
                     score_response, self_verify)

__all__ = [
    "STRATEGIES",
    "EmptyBenchmarkError",
    "BenchmarkValidationError",
    "BenchmarkInstance",
    "EvalReport",
    "TraceCache",
    "load_benchmark",
    "run_eval",
    "alpha_sweep",
    "default_alpha_grid",
]

STRATEGIES = (*PROMPT_MODES, "sv")

LOG_NAME = "traces.jsonl"
# Written before the next line when the log ends in a torn line.
_CLOSE_TORN = b" \n"


class EmptyBenchmarkError(ValueError):
    """No valid instance survived loading."""


class BenchmarkValidationError(ValueError):
    """The benchmark file violates a structural rule (e.g. duplicate ids)."""


@dataclass
class BenchmarkInstance:
    id: str
    image_ref: str
    question: str
    options: list  # (letter, text) pairs; empty for free-text items
    gold_answer: str
    split: str = "test"

    def __post_init__(self):
        for name in ("id", "image_ref", "question", "gold_answer", "split"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if not (isinstance(self.options, list) and all(
                isinstance(o, (list, tuple)) and len(o) == 2 and all(isinstance(p, str) for p in o)
                for o in self.options)):
            raise ValueError(
                f"options must be a list of [letter, text] pairs of strings, got {self.options!r}")
        self.options = [tuple(o) for o in self.options]
        if self.options and not any(answers_equal(self.gold_answer, l) for l, _ in self.options):
            raise ValueError(f"gold answer {self.gold_answer!r} not among option letters "
                             f"{sorted(l for l, _ in self.options)}")


def load_benchmark(path) -> tuple:
    """Load and validate a benchmark JSONL file.

    Returns (instances, errors): malformed lines, a line with a key that is
    not a ``BenchmarkInstance`` field included, land in ``errors`` as
    human-readable strings instead of aborting the load. Duplicate ids are a
    hard validation error; zero valid instances is an empty-benchmark error.
    """
    instances = []
    errors = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                inst = BenchmarkInstance(
                    id=payload["id"],
                    image_ref=payload["image_ref"],
                    question=payload["question"],
                    options=payload.get("options", []),
                    gold_answer=payload["gold_answer"],
                    split=payload.get("split", "test"),
                )
                _check_keys(payload, BenchmarkInstance.__dataclass_fields__, "benchmark")
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                errors.append(f"line {line_no}: {exc}")
                continue
            if inst.id in seen:
                raise BenchmarkValidationError(f"duplicate instance id {inst.id!r}")
            seen.add(inst.id)
            instances.append(inst)
    if not instances:
        raise EmptyBenchmarkError(f"no valid instances in {path}")
    return instances, errors


@dataclass
class EvalReport:
    strategy: str
    alpha: float
    n_instances: int
    n_correct: int
    accuracy: float
    branch_counts: dict
    records: list


def _modes_digest() -> str:
    """Digest of every prompt mode's task template and decoding config."""
    return hashlib.sha256(repr(MODES).encode("utf-8")).hexdigest()


class TraceCache:
    """Trace store on disk: one append-only log, ``traces.jsonl``, per cache
    directory. Each line is an instance id as a JSON string, a tab, and a
    compact JSON entry with sorted keys holding the instance's direct and
    cot traces under the keys ``direct`` and ``cot``, the image ref and
    question they were generated from, and, under ``request_digest``, a
    digest of every prompt mode's task template and decoding config, taken
    once when the cache opens. Each trace's ``token_logprobs``,
    ``img_rep`` and ``txt_rep`` are stored as base64 text of their
    little-endian float64 bytes, so floats round-trip exactly and the same
    pair always gives the same line.

    Opening the cache scans the log once into an index from each id to the
    offset and length of its last whole line, so a process sees only the
    lines that were in the log when it opened it, and its own. A ``put``
    appends one whole line with one ``os.write``, under a lock, so threads
    may share a cache. An eval or sweep puts each pair as its instance
    completes, in one thread and in input order, and each id's line has
    the same bytes whatever the order. A put of the line already
    indexed for its id appends nothing. A line torn by a failed or
    interrupted write is never read, so the id keeps the entry it had: only
    lines that end in ``}`` and a newline are indexed, and the next put
    first closes the torn line with a space and a newline. When dead lines
    (superseded, torn or without a readable id) hold more than half of the
    log's bytes, opening the cache rewrites the log with only the live
    lines, through a temp file and ``os.replace``; a process that still has
    the old log open goes on appending to the replaced file. ``<id>.json``
    files of the earlier one-file-per-instance layout are ignored and can
    be deleted.

    A miss is an id with no line, a line that cannot be read or parsed, a
    float field that is not a string, not strict base64 or not a whole
    number of float64s, a trace that ``trace_from_dict`` rejects (one with
    a key it does not know included), or an entry made for another image
    ref or question or under another modes digest: together they fix the
    prompts and decoding configs of the two requests."""

    def __init__(self, cache_dir):
        directory = Path(cache_dir)
        directory.mkdir(parents=True, exist_ok=True)
        self._path = directory / LOG_NAME
        self._lock = threading.Lock()
        self._digest = _modes_digest()
        fd = os.open(self._path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            self._index, dead, size, self._torn = _scan(fd)
            if 2 * dead > size:
                fd = self._compact(fd)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        self._close_fd = weakref.finalize(self, os.close, fd)

    def _compact(self, fd: int) -> int:
        """Write the live lines, in log order, to a new log that replaces
        the old one; close ``fd`` and return the new log's descriptor."""
        tmp = self._path.with_name(f"{LOG_NAME}.{os.getpid()}.{threading.get_ident()}.tmp")
        new = os.open(tmp, os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            offset, index = 0, {}
            with open(new, "ab", closefd=False) as out:
                for key, (start, length) in sorted(self._index.items(), key=lambda item: item[1]):
                    out.write(os.pread(fd, length, start))
                    index[key] = (offset, length)
                    offset += length
            os.fsync(new)
            os.replace(tmp, self._path)
        except BaseException:
            os.close(new)
            tmp.unlink(missing_ok=True)
            raise
        os.close(fd)
        self._index, self._torn = index, False
        return new

    def close(self) -> None:
        """Close the log. Later gets miss and later puts raise OSError."""
        self._fd = -1
        self._close_fd()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def get(self, instance_id: str, image_ref: str, question: str) -> Optional[tuple]:
        """The cached ``(direct, cot)`` pair, or None."""
        where = self._index.get(instance_id)
        if where is None:
            return None
        try:
            line = os.pread(self._fd, where[1], where[0])
            entry = json.loads(line[line.index(b"\t") + 1:])
            if (entry["image_ref"] != image_ref or entry["question"] != question
                    or entry["request_digest"] != self._digest):
                return None
            payloads = [entry[mode] for mode in PROMPT_MODES]
            for payload in payloads:
                for name in GenerationTrace.FLOAT_FIELDS:
                    payload[name] = np.frombuffer(base64.b64decode(payload[name], validate=True), "<f8")
            return tuple(trace_from_dict(payload) for payload in payloads)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, instance_id: str, image_ref: str, question: str,
            direct: GenerationTrace, cot: GenerationTrace) -> None:
        entry = {"image_ref": image_ref, "question": question, "request_digest": self._digest}
        for mode, trace in zip(PROMPT_MODES, (direct, cot)):
            payload = entry[mode] = trace_to_dict(trace)
            for name in GenerationTrace.FLOAT_FIELDS:
                payload[name] = base64.b64encode(getattr(trace, name).astype("<f8").tobytes()).decode()
        text = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        line = f"{json.dumps(instance_id)}\t{text}\n".encode("ascii")
        with self._lock:
            where = self._index.get(instance_id)
            if where is not None and where[1] == len(line) and os.pread(self._fd, where[1], where[0]) == line:
                return
            data = _CLOSE_TORN + line if self._torn else line
            written = os.write(self._fd, data)
            if written != len(data):
                self._torn = True
                raise OSError(f"wrote {written} of {len(data)} bytes to {self._path}")
            self._torn = False
            self._index[instance_id] = (os.lseek(self._fd, 0, os.SEEK_CUR) - len(line), len(line))


def _scan(fd: int) -> tuple:
    """``(index, dead bytes, size, torn)`` of the log open at ``fd``: the
    offset and length of each id's last whole line, the bytes of every
    other line, the log's size, and whether it ends in a torn line. A whole
    line ends in ``}`` and a newline; a torn line closed by ``_CLOSE_TORN``
    never does, so it cannot shadow its id's earlier entry."""
    index, live, size, torn = {}, 0, 0, False
    with open(fd, "rb", closefd=False) as log:
        for line in log:
            start, size = size, size + len(line)
            torn = not line.endswith(b"\n")
            if not line.endswith(b"}\n"):
                continue
            try:
                key = json.loads(line[:line.index(b"\t")])
            except ValueError:
                continue
            if isinstance(key, str):
                live -= index.get(key, (0, 0))[1]
                index[key] = (start, len(line))
                live += len(line)
    return index, size - live, size, torn


def _scored(backend, instances: list, strategy: str, cache: Optional[TraceCache],
            max_workers: int):
    """Each instance with its ``{branch: ScoredResponse}`` for the branches
    the strategy uses, or the error text if it failed, in input order.

    The cache is read first, and every hit's pair is held until its
    instance's turn comes, so with a warm cache all the traces are in
    memory at once. The requests of the misses then stream through
    ``backend.generate_all`` with ``max_workers`` instances in flight, and
    each pair is put into the cache as it completes. Without a cache a
    direct or cot eval requests only its own branch; a cache entry holds
    both."""
    if max_workers < 1:
        raise ValueError(f"workers must be >= 1, got {max_workers}")
    modes = (strategy,) if cache is None and strategy in PROMPT_MODES else PROMPT_MODES
    cached = [None if cache is None else cache.get(inst.id, inst.image_ref, inst.question)
              for inst in instances]
    requests = (BackendRequest(inst.image_ref, inst.question, mode)
                for inst, pair in zip(instances, cached) if pair is None for mode in modes)
    results = backend.generate_all(requests, max_workers * len(modes))
    for inst, pair in zip(instances, cached):
        try:
            if pair is None:
                pair = branch_traces(modes, [next(results) for _ in modes])
                if cache is not None:
                    cache.put(inst.id, inst.image_ref, inst.question, *pair)
            yield inst, {b: score_response(t, inst.options) for b, t in zip(modes, pair) if strategy in ("sv", b)}
        except (BackendError, ValueError, KeyError, OSError) as exc:
            yield inst, f"{type(exc).__name__}: {exc}"


def _eval_one(inst: BenchmarkInstance, scored, strategy: str, alpha: float) -> dict:
    """One instance's eval record at ``alpha`` from its scored branches or
    error text. ``run_eval`` builds each record as its instance's turn
    comes and keeps only the record."""
    record = {"id": inst.id, "gold": inst.gold_answer, "error": None}
    if isinstance(scored, str):
        record.update(predicted=None, branch="error", correct=False, error=scored)
        return record
    if strategy == "sv":
        decision = self_verify(scored["direct"], scored["cot"], alpha)
        record["predicted"], record["branch"] = decision.final_answer, decision.chosen_branch
    else:
        record["predicted"], record["branch"] = scored[strategy].answer, strategy
    sc_alpha = alpha if strategy == "sv" else None  # a lone branch is weighed at no alpha
    record.update((branch, branch_record(resp, sc_alpha)) for branch, resp in scored.items())
    record["correct"] = answers_equal(record["predicted"], inst.gold_answer)
    return record


def run_eval(
    backend,
    instances: list,
    strategy: str,
    alpha: float = DEFAULT_ALPHA,
    max_workers: int = 1,
    cache: Optional[TraceCache] = None,
) -> EvalReport:
    """Evaluate one strategy over the instances.

    Correctness is a case-insensitive match of the extracted answer against
    the gold answer (exact after trimming for free-text golds). Instances
    are handled in one thread and in input order, with ``max_workers`` of
    them in flight at the backend, so reports are deterministic for a
    deterministic backend at any ``max_workers``.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    check_alpha(alpha)
    records = [_eval_one(inst, scored, strategy, alpha)
               for inst, scored in _scored(backend, instances, strategy, cache, max_workers)]
    n = len(records)
    n_correct = sum(1 for r in records if r["correct"])
    branch_counts = ({b: sum(r["branch"] == b for r in records) for b in (*BRANCHES, "error")}
                     if strategy == "sv" else {})
    return EvalReport(
        strategy=strategy,
        alpha=alpha,
        n_instances=n,
        n_correct=n_correct,
        accuracy=(n_correct / n) if n else 0.0,
        branch_counts=branch_counts,
        records=records,
    )


def default_alpha_grid() -> list:
    """0.0 to 1.0 in steps of 0.1 -- eleven points."""
    return [round(i / 10, 1) for i in range(11)]


def alpha_sweep(
    backend,
    instances: list,
    grid: Optional[list] = None,
    max_workers: int = 1,
    cache_dir=None,
) -> list:
    """Self-verification accuracy across a grid of alpha values.

    Each instance is scored once and only ``self_verify`` runs per grid
    point, so each accuracy equals ``run_eval(..., "sv", alpha=a)``'s; a
    failed instance is wrong at every point. ``cache_dir`` keeps the traces
    on disk for later sweeps.
    """
    grid = default_alpha_grid() if grid is None else list(grid)
    for a in grid:
        check_alpha(a)
    with TraceCache(cache_dir) if cache_dir is not None else nullcontext() as cache:
        valid = [(inst.gold_answer, pair["direct"], pair["cot"])
                 for inst, pair in _scored(backend, instances, "sv", cache, max_workers)
                 if not isinstance(pair, str)]
    n = len(instances)
    results = []
    for a in grid:
        n_correct = sum(answers_equal(self_verify(direct, cot, a).final_answer, gold)
                        for gold, direct, cot in valid)
        results.append((a, (n_correct / n) if n else 0.0))
    return results
