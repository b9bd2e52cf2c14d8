"""Multi-choice benchmark evaluation.

Loads benchmark instances from JSONL, runs one of three strategies over a
backend -- direct answering, step-by-step answering, or the full
self-verification decision -- and reports accuracy with per-instance audit
records. Backend, trace and cache I/O failures are contained per instance
(recorded as incorrect-with-error); any other exception propagates.

Each instance is generated and scored once; the alpha sweep re-runs only
the decision rule per grid point. Traces can be cached on disk, as one
compact JSON file per instance id holding each branch's trace under its
mode's name, with each trace's float fields packed as base64 text of their
little-endian float64 bytes. An entry that is unreadable, malformed, packed
wrongly, not a valid trace, or made for other requests than the instance's
is a miss and is regenerated.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .backend import (PROMPT_MODES, BackendError, GenerationTrace, dual_generate, dual_requests,
                      trace_from_dict, trace_to_dict)
from .verify import (BRANCHES, DEFAULT_ALPHA, answers_equal, branch_record, score_response,
                     self_verify)

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
    "emit_report",
]

STRATEGIES = (*PROMPT_MODES, "sv")

SV_BRANCHES = (*BRANCHES, "error")


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
        if not all(isinstance(o, (list, tuple)) and len(o) == 2 for o in self.options):
            raise ValueError(f"each option must be a [letter, text] pair, got {self.options!r}")
        self.options = [(str(l), str(t)) for l, t in self.options]
        if self.options:
            letters = {l.upper() for l, _ in self.options}
            if str(self.gold_answer).upper() not in letters:
                raise ValueError(
                    f"gold answer {self.gold_answer!r} not among option letters {sorted(letters)}"
                )


def load_benchmark(path) -> tuple:
    """Load and validate a benchmark JSONL file.

    Returns (instances, errors): malformed lines land in ``errors`` as
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
                    id=str(payload["id"]),
                    image_ref=str(payload["image_ref"]),
                    question=str(payload["question"]),
                    options=payload.get("options", []),
                    gold_answer=str(payload["gold_answer"]),
                    split=str(payload.get("split", "test")),
                )
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

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _request_digest(image_ref: str, question: str) -> str:
    """Digest of what ``dual_generate`` sends for an instance: each
    branch's built prompt and decoding config."""
    sent = [(req.prompt, req.decoding) for req in dual_requests(image_ref, question)]
    return hashlib.sha256(repr(sent).encode("utf-8")).hexdigest()


class TraceCache:
    """Trace store on disk: one compact JSON file per instance id holding
    its direct and cot traces under the keys ``direct`` and ``cot``, the
    image ref and question they were generated from, and a digest of both
    branches' built prompts and decoding configs.
    Each trace's ``token_logprobs``, ``img_rep`` and ``txt_rep`` are stored
    as base64 text of their little-endian float64 bytes, so floats round-trip
    exactly and a rewrite of the same pair gives the same bytes. Files are
    replaced whole. A miss is an entry that cannot be read or parsed, a
    float field that is not a string, not strict base64 or not a whole
    number of float64s, a trace that ``trace_from_dict`` rejects (one with
    a key it does not know included), or an entry made for another image
    ref, question, prompt template or decoding config."""

    def __init__(self, cache_dir):
        self._dir = Path(cache_dir)
        self._dir.mkdir(parents=True, exist_ok=True)

    def _path(self, instance_id: str) -> Path:
        return self._dir / f"{urllib.parse.quote(instance_id, safe='')}.json"

    def get(self, instance_id: str, image_ref: str, question: str) -> Optional[tuple]:
        """The cached ``(direct, cot)`` pair, or None."""
        try:
            entry = json.loads(self._path(instance_id).read_text(encoding="utf-8"))
            if (entry["image_ref"] != image_ref or entry["question"] != question
                    or entry["request_digest"] != _request_digest(image_ref, question)):
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
        entry = {"image_ref": image_ref, "question": question,
                 "request_digest": _request_digest(image_ref, question)}
        for mode, trace in zip(PROMPT_MODES, (direct, cot)):
            payload = entry[mode] = trace_to_dict(trace)
            for name in GenerationTrace.FLOAT_FIELDS:
                payload[name] = base64.b64encode(getattr(trace, name).astype("<f8").tobytes()).decode()
        text = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        path = self._path(instance_id)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def _get_traces(backend, inst: BenchmarkInstance, cache: Optional[TraceCache]) -> tuple:
    if cache is None:
        return dual_generate(backend, inst.image_ref, inst.question)
    pair = cache.get(inst.id, inst.image_ref, inst.question)
    if pair is None:
        pair = dual_generate(backend, inst.image_ref, inst.question)
        cache.put(inst.id, inst.image_ref, inst.question, *pair)
    return pair


def _score(backend, inst: BenchmarkInstance, strategy: str, cache: Optional[TraceCache]):
    """``{branch: ScoredResponse}`` for the branches the strategy uses, or
    the error text if the instance failed."""
    try:
        pair = zip(PROMPT_MODES, _get_traces(backend, inst, cache))
        return {b: score_response(t, inst.options) for b, t in pair if strategy in ("sv", b)}
    except (BackendError, ValueError, KeyError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _eval_one(backend, inst: BenchmarkInstance, strategy: str, alpha: float,
              cache: Optional[TraceCache]) -> dict:
    """One instance's eval record at ``alpha``. An eval worker builds it, so
    the instance's traces are dropped as soon as it is done."""
    scored = _score(backend, inst, strategy, cache)
    record = {"id": inst.id, "gold": inst.gold_answer, "error": None}
    if isinstance(scored, str):
        record.update(predicted=None, branch="error", correct=False, error=scored)
        return record
    if strategy == "sv":
        decision = self_verify(scored["direct"], scored["cot"], alpha)
        record["predicted"], record["branch"] = decision.final_answer, decision.chosen_branch
    else:
        record["predicted"], record["branch"] = scored[strategy].answer, strategy
    record.update((branch, branch_record(resp)) for branch, resp in scored.items())
    record["correct"] = answers_equal(record["predicted"], inst.gold_answer)
    return record


def _map(fn, instances: list, max_workers: int) -> list:
    """``fn`` over the instances in order; more than one worker uses a thread pool."""
    if max_workers < 1:
        raise ValueError(f"workers must be >= 1, got {max_workers}")
    if max_workers == 1:
        return [fn(inst) for inst in instances]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, instances))


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
    the gold answer (exact after trimming for free-text golds). Results are
    reduced in input order, so reports are deterministic for a deterministic
    backend regardless of worker scheduling.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    records = _map(lambda inst: _eval_one(backend, inst, strategy, alpha, cache),
                   instances, max_workers)
    n = len(records)
    n_correct = sum(1 for r in records if r["correct"])
    branch_counts = ({b: sum(r["branch"] == b for r in records) for b in SV_BRANCHES}
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
        if not (0.0 <= a <= 1.0):
            raise ValueError(f"alpha grid value {a} outside [0, 1]")
    cache = TraceCache(cache_dir) if cache_dir is not None else None
    scored = _map(lambda inst: _score(backend, inst, "sv", cache), instances, max_workers)
    valid = [(inst.gold_answer, pair["direct"], pair["cot"])
             for inst, pair in zip(instances, scored) if not isinstance(pair, str)]
    n = len(instances)
    results = []
    for a in grid:
        n_correct = sum(answers_equal(self_verify(direct, cot, a).final_answer, gold)
                        for gold, direct, cot in valid)
        results.append((a, (n_correct / n) if n else 0.0))
    return results


def _format_table(report: EvalReport) -> str:
    lines = [
        "strategy  alpha  instances  correct  accuracy",
        f"{report.strategy:<8}  {report.alpha:<5.2f}  {report.n_instances:<9d}  "
        f"{report.n_correct:<7d}  {report.accuracy:.4f}",
    ]
    if report.branch_counts:
        parts = [f"{k}={v}" for k, v in sorted(report.branch_counts.items())]
        lines.append("branches: " + ", ".join(parts))
    return "\n".join(lines) + "\n"


def emit_report(report: EvalReport, path) -> None:
    """Write the JSON report plus a plain-text summary table next to it.

    Output is bit-stable for identical reports: sorted keys, fixed float
    formatting, no timestamps.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:  # streamed: no whole-report string
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    text_path = path.with_suffix(".txt") if path.suffix == ".json" else Path(str(path) + ".txt")
    text_path.write_text(_format_table(report), encoding="utf-8")
