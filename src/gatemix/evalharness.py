"""Multi-choice benchmark evaluation.

Loads benchmark instances from JSONL, runs one of three strategies over a
backend -- direct answering, step-by-step answering, or the full
self-verification decision -- and reports accuracy with per-instance audit
records. Backend failures are contained per instance (recorded as
incorrect-with-error) so long sweeps survive flaky services.

The alpha sweep reuses one generation per instance and branch: traces are
cached (in memory, optionally on disk as one file per instance id per
branch) and only the decision rule re-executes per grid point.
"""

from __future__ import annotations

import json
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .backend import GenerationTrace, dual_generate, trace_from_dict, trace_to_dict
from .verify import BRANCHES, DEFAULT_ALPHA, answers_equal, score_response, self_verify

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
    "load_report",
]

STRATEGIES = ("direct", "cot", "sv")

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
        return {
            "strategy": self.strategy,
            "alpha": self.alpha,
            "n_instances": self.n_instances,
            "n_correct": self.n_correct,
            "accuracy": self.accuracy,
            "branch_counts": self.branch_counts,
            "records": self.records,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EvalReport":
        return cls(**payload)


class TraceCache:
    """Per-instance, per-branch trace store backed by memory and optionally
    by a directory holding one JSON file per (instance id, branch)."""

    def __init__(self, cache_dir=None):
        self._mem: dict = {}
        self._dir = Path(cache_dir) if cache_dir is not None else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)

    def _path(self, instance_id: str, branch: str) -> Path:
        safe = urllib.parse.quote(instance_id, safe="")
        return self._dir / f"{safe}.{branch}.json"

    def get(self, instance_id: str, branch: str) -> Optional[GenerationTrace]:
        key = (instance_id, branch)
        if key in self._mem:
            return self._mem[key]
        if self._dir is not None:
            path = self._path(instance_id, branch)
            if path.exists():
                with open(path, "r", encoding="utf-8") as fh:
                    trace = trace_from_dict(json.load(fh))
                self._mem[key] = trace
                return trace
        return None

    def put(self, instance_id: str, branch: str, trace: GenerationTrace) -> None:
        self._mem[(instance_id, branch)] = trace
        if self._dir is not None:
            with open(self._path(instance_id, branch), "w", encoding="utf-8") as fh:
                json.dump(trace_to_dict(trace), fh, indent=2, sort_keys=True)
                fh.write("\n")


def _get_traces(backend, inst: BenchmarkInstance, cache: Optional[TraceCache]) -> tuple:
    if cache is not None:
        direct = cache.get(inst.id, "direct")
        cot = cache.get(inst.id, "cot")
        if direct is not None and cot is not None:
            return direct, cot
    direct, cot = dual_generate(backend, inst.image_ref, inst.question)
    if cache is not None:
        cache.put(inst.id, "direct", direct)
        cache.put(inst.id, "cot", cot)
    return direct, cot


def _eval_one(backend, inst: BenchmarkInstance, strategy: str, alpha: float,
              cache: Optional[TraceCache]) -> dict:
    record = {"id": inst.id, "gold": inst.gold_answer, "error": None}
    try:
        if strategy == "sv":
            direct_trace, cot_trace = _get_traces(backend, inst, cache)
            direct = score_response(direct_trace, inst.options)
            cot = score_response(cot_trace, inst.options)
            decision = self_verify(direct, cot, alpha)
            record["predicted"] = decision.final_answer
            record["branch"] = decision.chosen_branch
            record["direct"] = {"answer": direct.answer, "s": direct.s, "c": direct.c, "sc": direct.sc}
            record["cot"] = {"answer": cot.answer, "s": cot.s, "c": cot.c, "sc": cot.sc}
        else:
            trace = None
            if cache is not None:
                trace = cache.get(inst.id, strategy)
            if trace is None:
                direct_trace, cot_trace = _get_traces(backend, inst, cache)
                trace = direct_trace if strategy == "direct" else cot_trace
            scored = score_response(trace, inst.options)
            record["predicted"] = scored.answer
            record["branch"] = strategy
            record[strategy] = {"answer": scored.answer, "s": scored.s, "c": scored.c}
        record["correct"] = answers_equal(record["predicted"], inst.gold_answer)
    except Exception as exc:  # contained per instance, never aborts the run
        record["predicted"] = None
        record["branch"] = "error"
        record["correct"] = False
        record["error"] = f"{type(exc).__name__}: {exc}"
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
    the gold answer (exact after trimming for free-text golds). Results are
    reduced in input order, so reports are deterministic for a deterministic
    backend regardless of worker scheduling.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    if max_workers == 1:
        records = [_eval_one(backend, inst, strategy, alpha, cache) for inst in instances]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            records = list(
                pool.map(lambda inst: _eval_one(backend, inst, strategy, alpha, cache), instances)
            )
    n = len(records)
    n_correct = sum(1 for r in records if r["correct"])
    branch_counts = {}
    if strategy == "sv":
        branch_counts = {b: 0 for b in SV_BRANCHES}
        for r in records:
            branch_counts[r["branch"]] += 1
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
    use_cache: bool = True,
) -> list:
    """Self-verification accuracy across a grid of alpha values.

    With the cache on (default), each instance generates once per branch and
    only the decision rule re-runs per grid point; ``use_cache=False``
    regenerates everything at every point, which must give identical results
    for a deterministic backend.
    """
    grid = default_alpha_grid() if grid is None else list(grid)
    for a in grid:
        if not (0.0 <= a <= 1.0):
            raise ValueError(f"alpha grid value {a} outside [0, 1]")
    cache = TraceCache(cache_dir) if use_cache else None
    results = []
    for a in grid:
        report = run_eval(backend, instances, "sv", alpha=a, max_workers=max_workers, cache=cache)
        results.append((a, report.accuracy))
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    text_path = path.with_suffix(".txt") if path.suffix == ".json" else Path(str(path) + ".txt")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(_format_table(report))


def load_report(path) -> EvalReport:
    with open(path, "r", encoding="utf-8") as fh:
        return EvalReport.from_dict(json.load(fh))
