"""Expected outputs, computed from the generators' specifications alone.

Nothing here imports the program. Multi-choice decisions follow the rule
the paper states: agreeing branches give the step-by-step answer, otherwise
the branch with the higher ``SC = (1 - alpha) * S + alpha * C`` wins, ties
to the step-by-step branch. Curation keeps the higher-scoring CoT (ties to
the rewrite) and drops records below 0.6. The stage-1 loss is a plain numpy
transcription of the paper's objective.
"""

from __future__ import annotations

import numpy as np

from generate import GRID, confidence, similarity

THRESHOLD_HUNDREDTHS = 60


def _same(a: str, b: str) -> bool:
    return a.strip().casefold() == b.strip().casefold()


def decide(inst: dict, alpha: float) -> tuple:
    """(predicted answer, branch) for one instance at one alpha."""
    d_ans, c_ans = inst["expect"]["direct"], inst["expect"]["cot"]
    if _same(d_ans, c_ans):
        return c_ans, "cot-by-agreement"
    sc = {}
    for mode in ("direct", "cot"):
        t = inst[mode]
        s = similarity(t["img_rep"], t["txt_rep"])
        c = confidence(t["token_logprobs"])
        sc[mode] = (1.0 - alpha) * s + alpha * c
    if sc["cot"] >= sc["direct"]:
        return c_ans, "cot-by-score"
    return d_ans, "direct-by-score"


def eval_expectation(instances: list, alpha: float) -> dict:
    records = {}
    branches = {"cot-by-agreement": 0, "cot-by-score": 0, "direct-by-score": 0, "error": 0}
    n_correct = 0
    for inst in instances:
        predicted, branch = decide(inst, alpha)
        correct = _same(predicted, inst["gold_answer"])
        n_correct += correct
        branches[branch] += 1
        records[inst["id"]] = {"predicted": predicted, "branch": branch, "correct": correct}
    return {
        "n_correct": n_correct,
        "accuracy": n_correct / len(instances),
        "branch_counts": branches,
        "records": records,
    }


def sweep_expectation(instances: list) -> list:
    return [(a, eval_expectation(instances, a)["accuracy"]) for a in GRID]


def curation_expectation(records: list) -> dict:
    """Kept ids with their scores and CoT markers, plus the stats file."""
    kept = []
    histogram = [0] * 10
    for r in records:
        rec, scores = r["record"], r["scores"]
        if rec["source_kind"] == "ai-generated":
            which = "R"
        else:
            which = "W" if scores["W"] >= scores["R"] else "R"
        chosen = scores[which]
        histogram[min(chosen // 10, 9)] += 1
        if chosen >= THRESHOLD_HUNDREDTHS:
            kept.append({"id": rec["id"], "score": chosen, "marker": f"(ref {which}{rec['id'][4:]})"})
    stats = {"kept": len(kept), "dropped": len(records) - len(kept), "score_histogram": histogram}
    return {"kept": kept, "stats": stats}


def curation_calls(records: list) -> int:
    """Scorer and rewriter calls the pipeline must make for ``records``."""
    calls = 0
    for r in records:
        rec = r["record"]
        if rec["source_kind"] == "ai-generated":
            calls += 1
        else:
            calls += 2 if "rewritten_cot" in rec else 3
    return calls


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def stage1_loss(weights: dict, feats: list, targets: list, txt: np.ndarray,
                pool_map: np.ndarray, readout: np.ndarray) -> float:
    """Mean token cross-entropy plus the contrastive term, lambda = 1."""
    reps, gen = [], []
    for (v_v, v_c), tgt in zip(feats, targets):
        h_v = v_v @ weights["W1_v"]
        h_c = v_c @ weights["W1_c"]
        gate = _sigmoid(np.concatenate([h_v, h_c], axis=1) @ weights["W_g"].T + weights["b_g"])
        h = (1.0 - gate) * h_v + gate * h_c
        h_img0 = np.concatenate([weights["h_p"], h], axis=0) @ weights["W2"]
        rep = h_img0.mean(axis=0) @ pool_map
        logits = rep @ readout
        lse = logits.max() + np.log(np.exp(logits - logits.max()).sum())
        gen.append(np.mean([lse - logits[t] for t in tgt]))
        reps.append(rep)
    img = np.stack(reps)
    cos = (img @ txt.T) / np.outer(np.linalg.norm(img, axis=1), np.linalg.norm(txt, axis=1))
    S = np.exp(cos)
    diag = np.diag(S)
    creg = -(np.log(diag / S.sum(axis=0)) + np.log(diag / S.sum(axis=1))).sum() / (2 * len(reps))
    return float(np.mean(gen) + creg)
