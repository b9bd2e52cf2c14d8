"""Seeded input generators for the benchmark workloads.

Everything here derives from an integer seed through ``random.Random``, so
one seed always gives byte-identical input files. Each generated item also
carries what the program should make of it (``expect``), which the oracle
uses and the program never sees: only the files written by ``write_*`` reach
the program.

Multi-choice instances vary what answer extraction and scoring depend on:
0 (free text) or 2-8 options; answers stated as "answer is X", as a
trailing letter or as option text; step-by-step texts of one to many
sentences; 5-200 token logprobs per trace; and about half of the instances
with branches that disagree, so S and C decide. Disagreeing instances are
drawn so that no grid alpha lands within ``MARGIN`` of a tie, which keeps
the oracle's decisions independent of the last bits of float rounding.

The sizes that set the cost of an item (option count, logprob counts,
sentence counts, agreement, record kind) come from fixed balanced lists
that the seed only shuffles, so every seed gives the same total work and
run-to-run spread reflects the program, not the draw.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

GRID = tuple(round(i / 10, 1) for i in range(11))
MARGIN = 1e-6
REP_DIM = 8
LETTERS = "ABCDEFGH"

_ADJ = ("amber", "cobalt", "crimson", "golden", "ivory", "jade",
        "maroon", "olive", "silver", "teal", "scarlet", "bronze")
_NOUN = ("lantern", "bicycle", "teapot", "compass", "violin", "kettle",
         "anchor", "ladder", "mirror", "saddle", "barrel", "helmet")
_COUNT = ("three", "seven", "twelve", "forty", "ninety", "eleven")
_THING = ("apples", "birds", "chairs", "boats", "keys", "clouds")
_FILLER = (
    "The {a} region sits near the top of the frame",
    "We compare the shapes of the visible objects",
    "Each {a} object is counted once",
    "The {n} on the left is partly hidden",
    "Its outline matches the shape described in the question",
    "Lighting makes the {a} tones easy to separate",
    "The background holds no other {n}",
    "Scale suggests the object is close to the camera",
)


def _balanced(rng: random.Random, n: int, lo: int, hi: int) -> list:
    """n integers spread evenly over [lo, hi], in a seeded order."""
    values = [lo + (k * (hi - lo + 1)) // n for k in range(n)]
    rng.shuffle(values)
    return values


def _filler(rng: random.Random, count: int) -> list:
    return [
        rng.choice(_FILLER).format(a=rng.choice(_ADJ), n=rng.choice(_NOUN)) + "."
        for _ in range(count)
    ]


def _options(rng: random.Random, k: int) -> list:
    """k distinct 'adjective noun' option texts; none is a substring of
    another or ends in a one-letter word."""
    pairs = rng.sample([(a, n) for a in _ADJ for n in _NOUN], k)
    return [f"{a} {n}" for a, n in pairs]


def _free_answers(rng: random.Random, k: int) -> list:
    pairs = rng.sample([(c, t) for c in _COUNT for t in _THING], k)
    return [f"{c} {t}" for c, t in pairs]


def _direct_text(rng: random.Random, answer: str, options: list) -> str:
    if not options:
        return rng.choice((answer, f"The answer is {answer}.", f"Answer: {answer}"))
    letter_text = options[LETTERS.index(answer)]
    return rng.choice((answer, f"The answer is {answer}.", letter_text,
                       f"The answer is {letter_text}."))


def _cot_text(rng: random.Random, answer: str, options: list, n_filler: int) -> str:
    body = _filler(rng, n_filler)
    if not options:
        ending = f"The answer is {answer}."
    else:
        text = options[LETTERS.index(answer)]
        ending = rng.choice((
            f"The answer is {answer}.",
            f"So the choice is {answer}.",
            f"So I pick ({answer}).",
            f"Therefore it must be the {text}.",
            f"The answer is {text}.",
        ))
    return " ".join(body + [ending])


def _rep(rng: random.Random) -> list:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(REP_DIM)]
        if any(x != 0.0 for x in v):
            return v


def _logprobs(rng: random.Random, count: int) -> list:
    scale = rng.uniform(0.02, 1.5)
    return [-rng.expovariate(1.0 / scale) for _ in range(count)]


def similarity(img: list, txt: list) -> float:
    """(1 + cos) / 2, computed here without the program's code."""
    dot = math.fsum(a * b for a, b in zip(img, txt))
    nu = math.sqrt(math.fsum(a * a for a in img))
    nv = math.sqrt(math.fsum(b * b for b in txt))
    return (1.0 + max(-1.0, min(1.0, dot / (nu * nv)))) / 2.0


def confidence(logprobs: list) -> float:
    return math.exp(math.fsum(logprobs) / len(logprobs))


def _trace(rng: random.Random, text: str, n_logprobs: int) -> dict:
    return {"text": text, "token_logprobs": _logprobs(rng, n_logprobs),
            "img_rep": _rep(rng), "txt_rep": _rep(rng)}


def _near_tie(direct: dict, cot: dict) -> bool:
    ds = similarity(cot["img_rep"], cot["txt_rep"]) - similarity(direct["img_rep"], direct["txt_rep"])
    dc = confidence(cot["token_logprobs"]) - confidence(direct["token_logprobs"])
    return any(abs((1.0 - a) * ds + a * dc) < MARGIN for a in GRID)


def make_instance(rng: random.Random, tag: str, i: int, shape: dict) -> dict:
    """One instance; ``shape`` fixes its option count, logprob counts,
    step-by-step sentence count and whether the branches agree."""
    options = _options(rng, shape["options"])
    if options:
        answers = list(LETTERS[: len(options)])
        gold = rng.choice(answers)
    else:
        answers = _free_answers(rng, 3)
        gold = answers[0]
    wrong = [a for a in answers if a != gold]
    if shape["agree"]:
        direct_ans = cot_ans = gold if rng.random() < 0.6 else rng.choice(wrong)
    else:
        u = rng.random()
        if u < 0.4 or len(wrong) < 2 and u >= 0.7:
            direct_ans, cot_ans = rng.choice(wrong), gold
        elif u < 0.7:
            direct_ans, cot_ans = gold, rng.choice(wrong)
        else:
            direct_ans, cot_ans = rng.sample(wrong, 2)
    direct_text = _direct_text(rng, direct_ans, options)
    cot_text = _cot_text(rng, cot_ans, options, shape["filler"])
    while True:
        direct = _trace(rng, direct_text, shape["direct_logprobs"])
        cot = _trace(rng, cot_text, shape["cot_logprobs"])
        if direct_ans == cot_ans or not _near_tie(direct, cot):
            break
    return {
        "id": f"{tag}-{i:05d}",
        "image_ref": f"img/{tag}/{i:05d}.png",
        "question": f"Which object is shown in region {i} of the {rng.choice(_ADJ)} scene?",
        "options": [[LETTERS[j], t] for j, t in enumerate(options)],
        "gold_answer": gold,
        "direct": direct,
        "cot": cot,
        "expect": {"direct": direct_ans, "cot": cot_ans},
    }


def make_instances(seed: int, n: int, tag: str) -> list:
    rng = random.Random(f"instances:{tag}:{seed}")
    # 0 options means a free-text item; 1 option is not a choice.
    options = [0 if k == 1 else k for k in _balanced(rng, n, 1, 8)]
    shapes = zip(options, _balanced(rng, n, 0, 1), _balanced(rng, n, 5, 200),
                 _balanced(rng, n, 5, 200), _balanced(rng, n, 0, 11))
    keys = ("options", "agree", "direct_logprobs", "cot_logprobs", "filler")
    return [make_instance(rng, tag, i, dict(zip(keys, shape))) for i, shape in enumerate(shapes)]


def _record_cot(rng: random.Random, marker: str, answer: str, n_filler: int) -> str:
    return " ".join([f"(ref {marker})"] + _filler(rng, n_filler) + [f"The answer is {answer}."])


def make_records(seed: int, n: int) -> list:
    """Curation records mixing ai-generated (1 scorer call), manual with a
    given rewrite (2 calls) and manual (rewrite plus 2 scorer calls)."""
    rng = random.Random(f"records:{seed}")
    records = []
    kinds = _balanced(rng, n, 0, 4)  # 0-1 ai-generated, 2-3 manual, 4 manual with a rewrite
    option_counts = [0 if k == 1 else k for k in _balanced(rng, n, 1, 8)]
    raw_fillers, rewrite_fillers = _balanced(rng, n, 1, 6), _balanced(rng, n, 1, 6)
    described = _balanced(rng, n, 0, 1)
    for j in range(n):
        options = _options(rng, option_counts[j])
        answer = rng.choice(LETTERS[: len(options)]) if options else _free_answers(rng, 1)[0]
        kind = "ai-generated" if kinds[j] < 2 else "manual"
        rec = {
            "id": f"rec-{j:05d}",
            "image_ref": f"img/rec/{j:05d}.png",
            "question": f"What does panel {j} show?",
            "options": options,
            "raw_cot": _record_cot(rng, f"R{j:05d}", answer, raw_fillers[j]),
            "source_kind": kind,
            "split": "train",
        }
        if described[j]:
            rec["image_description"] = f"A {rng.choice(_ADJ)} {rng.choice(_NOUN)} on a table."
        rewritten = _record_cot(rng, f"W{j:05d}", answer, rewrite_fillers[j])
        if kinds[j] == 4:
            rec["rewritten_cot"] = rewritten
        records.append({
            "record": rec,
            "rewrite_reply": rewritten,
            "scores": {"R": rng.randint(20, 100), "W": rng.randint(20, 100)},
        })
    return records


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def benchmark_rows(instances: list) -> list:
    keys = ("id", "image_ref", "question", "options", "gold_answer")
    return [{k: inst[k] for k in keys} for inst in instances]


def write_sweep_inputs(instances: list, out: Path) -> tuple:
    """The benchmark JSONL and the mock backend script for ``instances``."""
    bench = out / "benchmark.jsonl"
    script = out / "mock_script.json"
    write_jsonl(bench, benchmark_rows(instances))
    entries = [
        {"image_ref": inst["image_ref"], "question": inst["question"],
         "prompt_mode": mode, "trace": inst[mode]}
        for inst in instances for mode in ("direct", "cot")
    ]
    with open(script, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, sort_keys=True)
    return bench, script


def write_records(records: list, out: Path) -> Path:
    path = out / "records.jsonl"
    write_jsonl(path, [r["record"] for r in records])
    return path
