import math
from pathlib import Path

import numpy as np
import pytest

from gatemix.backend import GenerationTrace, MockBackend
from gatemix.connector import forward
from gatemix.evalharness import load_benchmark
from gatemix.objectives import (
    BatchRepresentations,
    creg_loss,
    generation_loss,
    similarity_matrix,
    stage1_objective,
)
from gatemix.tensor import Tensor, concat, matmul

FIXTURES = Path(__file__).parent / "fixtures"


def make_trace(text: str, s: float, c: float, mode: str) -> GenerationTrace:
    """Trace whose similarity score is exactly s and confidence exactly c.
    ``mode`` names the branch the caller means it for; a trace carries none."""
    cos = 2.0 * s - 1.0
    return GenerationTrace(
        text=text,
        token_logprobs=(math.log(c),),
        img_rep=(1.0, 0.0),
        txt_rep=(cos, math.sqrt(max(0.0, 1.0 - cos * cos))),
    )


def reference_image_rows(params, batch, standins) -> list:
    """Pooled image representation of each item from its own connector
    pass: mean pool of the prefix-plus-token output, then ``pool_map``."""
    rows = []
    for feats in batch.feats:
        h_img0 = forward(feats, params).h_img0
        pooled = h_img0.mean(axis=0).reshape((1, h_img0.shape[1]))
        rows.append(matmul(pooled, standins.pool_map))
    return rows


def reference_stage1_loss(params, batch, standins, lam: float = 1.0) -> Tensor:
    """The alignment objective one item at a time: per-item token loss on
    the item's logit row tiled over its targets, averaged over items, plus
    the contrastive term over the stacked per-item rows."""
    rows = reference_image_rows(params, batch, standins)
    gen = None
    for row, targets in zip(rows, batch.target_tokens):
        logits = matmul(Tensor(np.ones((len(targets), 1))), matmul(row, standins.readout))
        term = generation_loss(logits, targets)
        gen = term if gen is None else gen + term
    gen = gen * (1.0 / len(rows))
    reps = BatchRepresentations(img=concat(rows, axis=0), txt=batch.txt_reps)
    return stage1_objective(gen, creg_loss(similarity_matrix(reps)), lam)


@pytest.fixture()
def easy_hard_backend():
    return MockBackend.from_json(FIXTURES / "easy_hard_script.json")


@pytest.fixture()
def easy_hard_instances():
    instances, errors = load_benchmark(FIXTURES / "easy_hard_benchmark.jsonl")
    assert not errors
    return instances


@pytest.fixture()
def sweep_backend():
    return MockBackend.from_json(FIXTURES / "sweep_script.json")


@pytest.fixture()
def sweep_instances():
    instances, errors = load_benchmark(FIXTURES / "sweep_benchmark.jsonl")
    assert not errors
    return instances
