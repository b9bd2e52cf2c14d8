"""CoT data curation: rewrite, score, keep the better CoT, filter, emit.

Each record is curated on its own and is never modified. Manually written
reasoning traces get rewritten into a standardized form; AI-generated ones
are taken as-is. Each candidate CoT is scored by an LLM against a
faithfulness/relevance/completeness rubric, the higher-scoring CoT wins
(ties prefer the rewrite), and records whose chosen score falls below the
threshold (default ``SCORE_THRESHOLD``) are dropped. Survivors become
single-turn instruction instances.

Records arrive as JSONL; instances and a stats summary leave as JSONL/JSON.
Records tagged with a held-out split are rejected at ingestion so no
evaluation data can leak into training sets.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, asdict
from importlib import resources
from typing import Callable, Optional

from .verify import letter_options

__all__ = [
    "SCORE_THRESHOLD",
    "HELD_OUT_SPLITS",
    "SOURCE_KINDS",
    "ScoreParseError",
    "HeldOutSplitError",
    "CurationRecord",
    "CuratedInstance",
    "PipelineStats",
    "load_records",
    "build_rewrite_prompt",
    "build_score_prompt",
    "parse_overall_score",
    "score_candidates",
    "run_pipeline",
    "write_instances",
    "write_stats",
]

SCORE_THRESHOLD = 0.6
HELD_OUT_SPLITS = frozenset({"test", "val", "validation", "dev"})
SOURCE_KINDS = ("manual", "ai-generated")

NO_DESCRIPTION = "(no description provided)"


class ScoreParseError(ValueError):
    """The scorer reply carried no usable overall score."""

    def __init__(self, message: str, reply: str):
        super().__init__(message)
        self.reply = reply


class HeldOutSplitError(ValueError):
    """A record from a held-out evaluation split tried to enter the pipeline."""


@dataclass
class CurationRecord:
    id: str
    image_ref: str
    question: str
    options: list
    raw_cot: str
    rewritten_cot: Optional[str] = None
    source_kind: str = "manual"
    image_description: Optional[str] = None
    split: str = "train"

    def __post_init__(self):
        if self.source_kind not in SOURCE_KINDS:
            raise ValueError(
                f"source_kind must be one of {SOURCE_KINDS}, got {self.source_kind!r}"
            )
        letter_options(self.options or [])  # rejects more options than letters


@dataclass
class CuratedInstance:
    id: str
    image_ref: str
    instruction: str
    cot_response: str
    overall_score: float


@dataclass
class PipelineStats:
    kept: int
    dropped: int
    score_histogram: list  # ten bins over [0, 1], by chosen score

    def to_dict(self) -> dict:
        return asdict(self)


def _load_template(name: str) -> str:
    return resources.files("gatemix.templates").joinpath(name).read_text(encoding="utf-8")


_REWRITE_TEMPLATE = _load_template("cot_rewrite.txt")
_SCORE_TEMPLATE = _load_template("cot_score.txt")


def _question_block(rec: CurationRecord) -> str:
    """Question plus lettered option lines; just the question if no options."""
    if not rec.options:
        return rec.question
    lines = [rec.question]
    for letter, option in letter_options(rec.options):
        lines.append(f"{letter}. {option}")
    return "\n".join(lines)


def build_rewrite_prompt(rec: CurationRecord) -> str:
    """Expand the rewrite template for one record; byte-stable."""
    if not rec.raw_cot:
        raise ValueError(f"record {rec.id}: cannot build a rewrite prompt without a raw CoT")
    return _REWRITE_TEMPLATE.format(
        question_block=_question_block(rec), raw_cot=rec.raw_cot
    ).rstrip("\n")


def build_score_prompt(rec: CurationRecord, cot: str) -> str:
    """Expand the scoring template for one candidate CoT; byte-stable."""
    if not cot:
        raise ValueError(f"record {rec.id}: cannot score an empty CoT")
    return _SCORE_TEMPLATE.format(
        image_description=rec.image_description or NO_DESCRIPTION,
        question_block=_question_block(rec),
        cot=cot,
    ).rstrip("\n")


_SCORE_RE = re.compile(
    r"(?:scoring|overall)\s*:\s*(-?(?:\d+\.?\d*|\.\d+))", re.IGNORECASE
)


def parse_overall_score(reply: str) -> float:
    """Extract the overall score from a scorer reply.

    Looks for a "Scoring:" line (or an "Overall" key) and takes the first
    numeric literal; anything outside [0, 1] or missing entirely is a parse
    error that carries the raw reply for debugging.
    """
    m = _SCORE_RE.search(reply)
    if not m:
        raise ScoreParseError("no 'Scoring:'/'Overall' value found in reply", reply=reply)
    value = float(m.group(1))
    if not (0.0 <= value <= 1.0):
        raise ScoreParseError(f"score {value} outside [0, 1]", reply=reply)
    return value


def _score(rec: CurationRecord, cot: str, llm: Callable[[str], str]) -> float:
    return parse_overall_score(llm(build_score_prompt(rec, cot)))


def score_candidates(rec: CurationRecord, llm: Callable[[str], str]) -> list:
    """The record's scored candidates as (cot, score) pairs, preferred
    first: a manual record's rewrite (made by ``llm`` unless the record
    carries one), then the raw CoT. ``llm`` is called in the order rewrite,
    score raw, score rewrite."""
    if rec.source_kind != "manual":
        return [(rec.raw_cot, _score(rec, rec.raw_cot, llm))]
    rewritten = rec.rewritten_cot
    if rewritten is None:
        rewritten = llm(build_rewrite_prompt(rec)).strip()
    raw = (rec.raw_cot, _score(rec, rec.raw_cot, llm))
    return [(rewritten, _score(rec, rewritten, llm)), raw]


def _score_bin(score: float) -> int:
    return min(int(score * 10), 9)


def run_pipeline(
    records: list,
    llm: Callable[[str], str],
    threshold: float = SCORE_THRESHOLD,
) -> tuple:
    """Score each record's candidates, keep the winner, filter by score.

    ``llm`` maps a prompt string to a reply string (scripted mock in tests,
    a remote backend's ``complete_text`` in production). The same winner
    feeds the histogram and the threshold. Returns (instances, stats);
    emission order is input order. ``threshold`` must lie in [0, 1].
    """
    if not 0.0 <= threshold <= 1.0:  # NaN fails too
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    instances = []
    histogram = [0] * 10
    for rec in records:
        if rec.split in HELD_OUT_SPLITS:
            raise HeldOutSplitError(
                f"record {rec.id} is tagged with held-out split {rec.split!r}"
            )
        # max keeps the first of equal scores: the preferred candidate
        cot, score = max(score_candidates(rec, llm), key=lambda c: c[1])
        histogram[_score_bin(score)] += 1
        if score >= threshold:
            instances.append(CuratedInstance(
                id=rec.id,
                image_ref=rec.image_ref,
                instruction=_question_block(rec),
                cot_response=cot,
                overall_score=score,
            ))
    kept = len(instances)
    return instances, PipelineStats(
        kept=kept, dropped=len(records) - kept, score_histogram=histogram
    )


def load_records(path) -> list:
    """Read CurationRecords from JSONL, rejecting held-out splits."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                rec = CurationRecord(**payload)
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: bad curation record: {exc}") from exc
            if rec.split in HELD_OUT_SPLITS:
                raise HeldOutSplitError(
                    f"{path}:{line_no}: record {rec.id} is tagged with held-out "
                    f"split {rec.split!r}; evaluation data cannot enter curation"
                )
            records.append(rec)
    return records


def write_instances(instances: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps(asdict(inst), sort_keys=True) + "\n")


def write_stats(stats: PipelineStats, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stats.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
