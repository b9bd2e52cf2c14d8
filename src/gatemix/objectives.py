"""Alignment-stage losses.

Two pieces: token cross-entropy over readout logits, and a contrastive
regulariser over batch-pooled image/text representations,

    L = -(1/2b) * sum_i [ log(S_ii / sum_j S_ji) + log(S_ii / sum_j S_ij) ],

where S holds pairwise similarities between pooled image rows and pooled
text rows. Raw cosine can be negative or zero, which leaves the logs
undefined, so the similarity is exp(cos), which is always positive.

The operands that do not depend on the trained parameters are prepared
once, with their checks: ``token_targets`` turns target ids into the
one-hot matrix ``generation_loss`` takes, and ``text_side`` turns text rows
into the transpose and row norms ``similarity_matrix`` takes. A training
loop builds them once per batch; each loss call then computes only what
depends on the parameters.
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
    "TokenTargets",
    "TextSide",
    "token_targets",
    "text_side",
    "similarity_matrix",
    "creg_loss",
    "generation_loss",
    "stage1_objective",
]

class InvalidSimilarityError(ValueError):
    """Similarity entries unusable for the contrastive loss."""


@dataclass(frozen=True)
class TextSide:
    """Text rows prepared for ``similarity_matrix``: the b x d rows, their
    d x b transpose and their 1 x b row of norms."""

    rows: Tensor
    rows_t: Tensor
    norms: Tensor


def text_side(txt: Tensor) -> TextSide:
    """Prepare the b x d text rows ``txt``; a zero-norm row is a
    ``DegenerateVectorError``. The transpose and norms are built with
    tensor ops, so they record when ``txt`` requires grad."""
    if txt.ndim != 2:
        raise ShapeError("batch representations must be rank 2")
    squared = (txt * txt).sum(axis=1)
    if not squared.data.all():
        raise DegenerateVectorError("similarity_matrix: zero-norm txt row")
    return TextSide(rows=txt, rows_t=txt.transpose(),
                    norms=squared.sqrt().reshape((1, txt.shape[0])))


def similarity_matrix(img: Tensor, txt: TextSide) -> Tensor:
    """Pairwise similarities S_ij = exp(cos(img_i, txt_j)) between row i of
    the b x d image rows ``img`` and row j of the prepared text side, as a
    strictly positive b x b tensor. Differentiable end to end; the text side
    arrives prepared, so only the img rows' norms are computed.
    """
    if img.ndim != 2:
        raise ShapeError("batch representations must be rank 2")
    if img.shape != txt.rows.shape:
        raise ShapeError(
            f"img/txt representation shapes differ: {img.shape} vs {txt.rows.shape}"
        )
    dots = matmul(img, txt.rows_t)                                    # b x b
    squared = (img * img).sum(axis=1)
    if not squared.data.all():
        raise DegenerateVectorError("similarity_matrix: zero-norm img row")
    cos = dots / matmul(squared.sqrt().reshape((img.shape[0], 1)), txt.norms)
    return cos.exp()


def creg_loss(S: Tensor) -> Tensor:
    """Contrastive regulariser over a square similarity matrix ``S``.

    Pulls each diagonal entry up against its row and column totals; zero at
    b=1 and non-negative whenever all entries are positive.
    """
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
    log_diag = diag.log()
    terms = (log_diag - col_sums.log()) + (log_diag - row_sums.log())
    return terms.sum() * (-1.0 / (2.0 * b))


@dataclass(frozen=True)
class TokenTargets:
    """Target ids prepared for ``generation_loss``: the T x V one-hot
    matrix of T ids over a vocabulary of V."""

    onehot: Tensor


def token_targets(targets, t_count: int, vocab: int) -> TokenTargets:
    """Prepare ``targets``, a sequence or array of ``t_count`` integer ids
    below ``vocab``, for logits of ``t_count`` rows and ``vocab`` columns."""
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
    return TokenTargets(onehot=Tensor._raw(onehot))


def generation_loss(logits: Tensor, targets: TokenTargets) -> Tensor:
    """Mean negative log-softmax probability of the target ids.

    ``logits`` is T x V and ``targets`` the prepared T x V one-hot
    matrix. The log-sum-exp is computed with a constant per-row shift, so
    gradients are exact.
    """
    if logits.ndim != 2:
        raise ShapeError(f"generation_loss: logits must be rank 2, got {logits.shape}")
    onehot = targets.onehot
    if logits.shape != onehot.shape:
        raise ShapeError(
            f"generation_loss: targets of shape {onehot.shape} for logits of shape {logits.shape}"
        )
    picked = (logits * onehot).sum(axis=1)                            # (T,)
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
