"""Alignment-stage losses.

Two pieces: token cross-entropy over readout logits, and a contrastive
regulariser over batch-pooled image/text representations,

    L = -(1/2b) * sum_i [ log(S_ii / sum_j S_ji) + log(S_ii / sum_j S_ij) ],

where S holds pairwise similarities between pooled image rows and pooled
text rows. Raw cosine can be negative or zero, which leaves the logs
undefined, so the similarity is exp(cos/tau), which is always positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DegenerateVectorError,
    ShapeError,
    Tensor,
    _any_non_positive,
    matmul,
)

__all__ = [
    "InvalidSimilarityError",
    "BatchRepresentations",
    "SimilarityMatrix",
    "similarity_matrix",
    "creg_loss",
    "generation_loss",
    "stage1_objective",
]

class InvalidSimilarityError(ValueError):
    """Similarity entries unusable for the contrastive loss."""


@dataclass
class BatchRepresentations:
    """Pooled per-item representations: img and txt are both b x d_llm."""

    img: Tensor
    txt: Tensor

    def __post_init__(self):
        if self.img.ndim != 2 or self.txt.ndim != 2:
            raise ShapeError("batch representations must be rank 2")
        if self.img.shape != self.txt.shape:
            raise ShapeError(
                f"img/txt representation shapes differ: {self.img.shape} vs {self.txt.shape}"
            )

    @property
    def b(self) -> int:
        return self.img.shape[0]


@dataclass
class SimilarityMatrix:
    """b x b similarity values."""

    S: Tensor


def similarity_matrix(reps: BatchRepresentations, tau: float = 1.0) -> SimilarityMatrix:
    """Pairwise similarities S_ij = exp(cos(img_i, txt_j) / tau) between img
    row i and txt row j, strictly positive. Differentiable end to end.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    b = reps.b
    dots = matmul(reps.img, reps.txt.transpose())                    # b x b
    norms = []
    for name, t, shape in (("img", reps.img, (b, 1)), ("txt", reps.txt, (1, b))):
        squared = (t * t).sum(axis=1)
        if not squared.data.all():
            raise DegenerateVectorError(f"similarity_matrix: zero-norm {name} row")
        norms.append(squared.sqrt().reshape(shape))
    cos = dots / matmul(*norms)
    return SimilarityMatrix(S=(cos / tau).exp())


def creg_loss(sm: SimilarityMatrix) -> Tensor:
    """Contrastive regulariser over a square similarity matrix.

    Pulls each diagonal entry up against its row and column totals; zero at
    b=1 and non-negative whenever all entries are positive.
    """
    S = sm.S
    if S.ndim != 2 or S.shape[0] != S.shape[1] or not S.shape[0]:
        raise ShapeError(f"creg_loss: similarity matrix must be square and non-empty, got {S.shape}")
    if _any_non_positive(S.data):
        raise InvalidSimilarityError(
            "creg_loss: non-positive similarity entries leave the log terms undefined"
        )
    b = S.shape[0]
    eye = Tensor._raw(np.eye(b))
    diag = (S * eye).sum(axis=1)      # (b,)
    col_sums = S.sum(axis=0)          # sum_j S_ji for each i
    row_sums = S.sum(axis=1)          # sum_j S_ij for each i
    terms = (diag.log() - col_sums.log()) + (diag.log() - row_sums.log())
    return terms.sum() * (-1.0 / (2.0 * b))


def generation_loss(logits: Tensor, targets) -> Tensor:
    """Mean negative log-softmax probability of the target ids.

    ``logits`` is T x V; ``targets`` is a sequence or array of T integer
    ids below V. The log-sum-exp is computed with a constant per-row shift,
    so gradients are exact.
    """
    if logits.ndim != 2:
        raise ShapeError(f"generation_loss: logits must be rank 2, got {logits.shape}")
    t_count, vocab = logits.shape
    ids = np.asarray(targets)
    if ids.shape != (t_count,):
        raise ShapeError(
            f"generation_loss: {ids.size} targets for {t_count} logit rows"
        )
    if ids.size and (np.minimum.reduce(ids) < 0 or np.maximum.reduce(ids) >= vocab):
        tid = ids[((ids < 0) | (ids >= vocab)).argmax()]
        raise ValueError(f"generation_loss: target id {tid} out of range for vocab {vocab}")
    onehot = np.zeros((t_count, vocab))
    onehot[np.arange(t_count), ids] = 1.0
    picked = (logits * Tensor._raw(onehot)).sum(axis=1)               # (T,)
    row_max = np.maximum.reduce(logits.data, 1, keepdims=True)        # constant shift
    shift = Tensor._raw(row_max)
    lse = (logits - shift).exp().sum(axis=1).log() + Tensor._raw(row_max.reshape(-1))
    return (lse - picked).mean()


def stage1_objective(gen: Tensor, creg: Tensor, lam: float) -> Tensor:
    """Combined alignment loss: generation term plus lam times the
    contrastive term."""
    if lam < 0:
        raise ValueError(f"stage1_objective: lambda must be >= 0, got {lam}")
    return gen + creg * lam
