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

``generation_loss``, ``similarity_matrix`` and ``creg_loss`` each record
as one tape op named after the function. Its forward runs the numpy calls
of the chain of primitive ops that defines the term, in the chain's order,
and its hand-written grad rule computes the same elementwise expressions
as the chain's rules and sums each input's contributions in the order
``backward`` would sum them over the chain's records. A term's value and
the gradient of every input that only the term uses are therefore the
chain's to the bit, at a fraction of the chain's dispatch cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DegenerateVectorError,
    ShapeError,
    Tensor,
    _any_non_positive,
    _op,
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
    strictly positive b x b tensor. Differentiable in ``img`` and in the
    text side's transpose and norms; the text side arrives prepared, so
    only the img rows' norms are computed.
    """
    if img.ndim != 2:
        raise ShapeError("batch representations must be rank 2")
    if img.shape != txt.rows.shape:
        raise ShapeError(
            f"img/txt representation shapes differ: {img.shape} vs {txt.rows.shape}"
        )
    x = img.data
    dots = x @ txt.rows_t.data                                        # b x b
    squared = np.add.reduce(x * x, 1)
    if not squared.all():
        raise DegenerateVectorError("similarity_matrix: zero-norm img row")
    root = np.sqrt(squared)
    norms = root.reshape((x.shape[0], 1))
    denom = norms @ txt.norms.data
    if not denom.all():
        raise ValueError("div: zero denominator")
    S = np.exp(dots / denom)
    return _op("similarity_matrix", (img, txt.rows_t, txt.norms), S, _similarity_grad,
               img, txt.rows_t, txt.norms, dots, root, norms, denom, S)


def _similarity_grad(img, rows_t, txt_norms, dots, root, norms, denom, S, g):
    g_cos = g * S
    g_dots = g_cos / denom
    g_denom = -g_cos * dots / (denom * denom)
    g_img = None
    if img.requires_grad:
        # d(exp), d(div), d(norms matmul), d(sqrt); the sum of squares hands
        # one share to each factor of img * img, then dots adds its own
        g_squared = (g_denom @ txt_norms.data.T).reshape(root.shape) * 0.5 / root
        x = img.data
        g_img = (g_squared[:, None] * x + g_squared[:, None] * x) + g_dots @ rows_t.data.T
    return (g_img,
            img.data.T @ g_dots if rows_t.requires_grad else None,
            norms.T @ g_denom if txt_norms.requires_grad else None)


def creg_loss(S: Tensor) -> Tensor:
    """Contrastive regulariser over a square similarity matrix ``S``.

    Pulls each diagonal entry up against its row and column totals; zero at
    b=1 and non-negative whenever all entries are positive.
    """
    if S.ndim != 2 or S.shape[0] != S.shape[1] or not S.shape[0]:
        raise ShapeError(f"creg_loss: similarity matrix must be square and non-empty, got {S.shape}")
    s = S.data
    if _any_non_positive(s):
        raise InvalidSimilarityError(
            "creg_loss: non-positive similarity entries leave the log terms undefined"
        )
    b = s.shape[0]
    eye = np.eye(b)
    diag = np.add.reduce(s * eye, 1)    # (b,)
    col_sums = np.add.reduce(s, 0)      # sum_j S_ji for each i
    row_sums = np.add.reduce(s, 1)      # sum_j S_ij for each i
    log_diag = np.log(diag)
    terms = (log_diag - np.log(col_sums)) + (log_diag - np.log(row_sums))
    scale = -1.0 / (2.0 * b)
    return _op("creg_loss", (S,), np.asarray(np.add.reduce(terms, None) * scale), _creg_grad,
               eye, diag, col_sums, row_sums, scale)


def _creg_grad(eye, diag, col_sums, row_sums, scale, g):
    g_terms = np.full(diag.shape, float(g * scale))
    # the row sum's share, then the column sum's, then the diagonal's
    return ((-g_terms / row_sums)[:, None] + -g_terms / col_sums
            + ((g_terms + g_terms) / diag)[:, None] * eye,)


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
    onehot = targets.onehot.data
    if logits.shape != onehot.shape:
        raise ShapeError(
            f"generation_loss: targets of shape {onehot.shape} for logits of shape {logits.shape}"
        )
    x = logits.data
    picked = np.add.reduce(x * onehot, 1)                             # (T,)
    row_max = np.maximum.reduce(x, 1, keepdims=True)                  # constant shift
    shifted_exp = np.exp(x - row_max)
    sum_exp = np.add.reduce(shifted_exp, 1)
    lse = np.log(sum_exp) + row_max.reshape(-1)
    t = x.shape[0]
    if t == 0:
        raise ValueError("mean: empty input")
    loss = np.add.reduce(lse - picked, None) / t
    return _op("generation_loss", (logits,), np.asarray(loss), _generation_grad,
               onehot, shifted_exp, sum_exp)


def _generation_grad(onehot, shifted_exp, sum_exp, g):
    t = sum_exp.shape[0]
    g_rows = np.full((t,), float(g) / t)
    # the log-sum-exp path's share, then the picked logit's
    return ((g_rows / sum_exp)[:, None] * shifted_exp + (-g_rows)[:, None] * onehot,)


def stage1_objective(gen: Tensor, creg: Tensor, lam: float) -> Tensor:
    """Combined alignment loss: generation term plus lam times the
    contrastive term."""
    if lam < 0:
        raise ValueError(f"stage1_objective: lambda must be >= 0, got {lam}")
    return gen + creg * lam
