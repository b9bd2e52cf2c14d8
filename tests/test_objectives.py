"""Objective tests: the similarity matrix, the contrastive term, token
cross-entropy, and their composition."""

import math
import re

import numpy as np
import pytest

from gatemix.objectives import (
    InvalidSimilarityError,
    creg_loss,
    generation_loss,
    similarity_matrix,
    stage1_objective,
    text_side,
    token_targets,
)
from gatemix.tensor import (
    DegenerateVectorError,
    Graph,
    ShapeError,
    Tensor,
    backward,
    cosine_sim,
    finite_diff_check,
    make_rng,
    no_grad,
)


def _reps(img: np.ndarray, txt: np.ndarray, grad: bool = False) -> tuple:
    """``similarity_matrix``'s operands: the image rows and the prepared text side."""
    return Tensor(img, requires_grad=grad), text_side(Tensor(txt, requires_grad=grad))


class TestSimilarityMatrix:
    def test_orthonormal_rows_give_e_on_diagonal(self):
        eye = np.eye(3)
        S = similarity_matrix(*_reps(eye, eye))
        expected = np.where(np.eye(3) > 0, math.e, 1.0)
        np.testing.assert_allclose(S.data, expected, atol=1e-12)

    def test_single_item(self):
        img = np.array([[1.0, 2.0, -1.0]])
        txt = np.array([[0.5, -1.0, 2.0]])
        S = similarity_matrix(*_reps(img, txt))
        expected = math.exp(cosine_sim(img[0], txt[0]))
        assert S.shape == (1, 1)
        assert S.data[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_matches_per_pair_oracle(self):
        rng = make_rng(42)
        img = rng.standard_normal((4, 6))
        txt = rng.standard_normal((4, 6))
        S = similarity_matrix(*_reps(img, txt))
        oracle = np.array(
            [
                [math.exp(cosine_sim(img[i], txt[j])) for j in range(4)]
                for i in range(4)
            ]
        )
        np.testing.assert_allclose(S.data, oracle, atol=1e-12)

    def test_zero_norm_row_rejected(self):
        img = np.array([[1.0, 0.0], [0.0, 0.0]])
        txt = np.eye(2)
        with pytest.raises(DegenerateVectorError):
            similarity_matrix(*_reps(img, txt))


@pytest.mark.parametrize("call, message", [
    (lambda: _reps(np.ones(2), np.ones(2)), "batch representations must be rank 2"),
    (lambda: similarity_matrix(*_reps(np.ones(2), np.ones((1, 2)))),
     "batch representations must be rank 2"),
    (lambda: similarity_matrix(*_reps(np.ones((2, 3)), np.ones((3, 3)))),
     "img/txt representation shapes differ: (2, 3) vs (3, 3)"),
    (lambda: generation_loss(Tensor(np.zeros(4)), token_targets([0], 1, 4)),
     "generation_loss: logits must be rank 2, got (4,)"),
    (lambda: generation_loss(Tensor(np.zeros((3, 4))), token_targets([0, 1], 3, 4)),
     "generation_loss: 2 targets for 3 logit rows"),
], ids=["rank-1-reps", "rank-1-img", "unequal-reps", "rank-1-logits", "too-few-targets"])
def test_shape_guard(call, message):
    with pytest.raises(ShapeError, match=re.escape(message)):
        call()


class TestPreparedOperands:
    """The operands prepared once per batch, and the checks that moved with
    them from the loss functions."""

    def test_text_side_holds_the_transpose_and_row_norms(self):
        txt = make_rng(3).standard_normal((4, 6))
        side = text_side(Tensor(txt))
        assert np.array_equal(side.rows.data, txt)
        assert np.array_equal(side.rows_t.data, txt.T)
        assert np.array_equal(side.norms.data, np.sqrt((txt * txt).sum(axis=1)).reshape(1, 4))

    def test_zero_norm_txt_row_rejected_where_the_text_side_is_built(self):
        with pytest.raises(DegenerateVectorError,
                           match=re.escape("similarity_matrix: zero-norm txt row")):
            text_side(Tensor(np.array([[1.0, 0.0], [0.0, 0.0]])))

    def test_token_targets_is_the_one_hot_matrix(self):
        prepared = token_targets([2, 0, 3], 3, 4)
        np.testing.assert_array_equal(prepared.onehot.data, np.eye(4)[[2, 0, 3]])
        assert not prepared.onehot.requires_grad

    @pytest.mark.parametrize("logits", [np.zeros((2, 4)), np.zeros((3, 5))], ids=["rows", "vocab"])
    def test_targets_prepared_for_another_shape_rejected(self, logits):
        with pytest.raises(ShapeError, match=re.escape(
                f"generation_loss: targets of shape (3, 4) for logits of shape {logits.shape}")):
            generation_loss(Tensor(logits), token_targets([0, 1, 2], 3, 4))


class TestGuardsWithoutRecording:
    """The domain guards fire the same whether or not the tape records."""

    def test_zero_norm_row_rejected_under_no_grad(self):
        img, txt = _reps(np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2), grad=True)
        with Graph(), no_grad():
            with pytest.raises(DegenerateVectorError, match="zero-norm img row"):
                similarity_matrix(img, txt)

    def test_non_positive_entries_rejected_under_no_grad(self):
        S = Tensor(np.array([[1.0, -0.5], [0.2, 1.0]]), requires_grad=True)
        with Graph(), no_grad():
            with pytest.raises(InvalidSimilarityError, match="non-positive"):
                creg_loss(S)

    def test_out_of_range_target_rejected_under_no_grad(self):
        with no_grad():
            with pytest.raises(ValueError, match="target id -1 out of range for vocab 4"):
                generation_loss(Tensor(np.zeros((3, 4))), token_targets([0, -1, 2], 3, 4))
            with pytest.raises(ValueError, match="target id 4 out of range for vocab 4"):
                generation_loss(Tensor(np.zeros((3, 4))), token_targets(np.array([0, 2, 4]), 3, 4))


class TestCregLoss:
    def test_single_item_is_zero(self):
        S = similarity_matrix(*_reps(np.array([[1.0, 2.0]]), np.array([[2.0, 1.0]])))
        assert abs(creg_loss(S).item()) <= 1e-12

    def test_two_item_hand_case(self):
        # S = [[e, 1], [1, e]] makes all four ratio terms e/(e+1), so the
        # loss is exactly log(1 + 1/e).
        S = Tensor(np.array([[math.e, 1.0], [1.0, math.e]]))
        loss = creg_loss(S)
        assert loss.item() == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-9)

    def test_permutation_invariance(self):
        rng = make_rng(42)
        for _ in range(100):
            b = int(rng.integers(2, 6))
            S = rng.uniform(0.1, 3.0, size=(b, b))
            perm = rng.permutation(b)
            base = creg_loss(Tensor(S)).item()
            permuted = creg_loss(Tensor(S[np.ix_(perm, perm)])).item()
            assert permuted == pytest.approx(base, abs=1e-9)

    def test_non_positive_entries_rejected(self):
        S = Tensor(np.array([[1.0, -0.2], [0.3, 1.0]]))
        with pytest.raises(InvalidSimilarityError, match="non-positive"):
            creg_loss(S)

    def test_non_negative_in_exp_mode(self):
        rng = make_rng(7)
        for _ in range(50):
            img = rng.standard_normal((4, 5))
            txt = rng.standard_normal((4, 5))
            assert creg_loss(similarity_matrix(*_reps(img, txt))).item() >= 0.0

    def test_saturates_to_zero_when_diagonal_dominates(self):
        # S = exp(cos / 0.05) of matched orthonormal rows: off-diagonal mass
        # vanishes relative to the diagonal and the loss approaches zero
        loss = creg_loss(Tensor(np.exp(np.eye(4) / 0.05))).item()
        assert 0.0 <= loss <= 1e-8

    def test_matched_pairs_beat_any_row_swap(self):
        rng = make_rng(13)
        for b in range(2, 7):
            img = np.eye(b)
            matched = creg_loss(similarity_matrix(*_reps(img, img))).item()
            i, j = rng.choice(b, size=2, replace=False)
            swapped = img.copy()
            swapped[[i, j]] = swapped[[j, i]]
            worse = creg_loss(similarity_matrix(*_reps(img, swapped))).item()
            assert matched < worse

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(21)
        img = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        txt = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

        def f(ps):
            return creg_loss(similarity_matrix(ps[0], text_side(ps[1])))

        assert finite_diff_check(f, [img, txt], eps=1e-5) <= 1e-5


class TestGenerationLoss:
    def test_certain_prediction_is_zero(self):
        logits = np.zeros((3, 4))
        targets = [0, 2, 3]
        logits[np.arange(3), targets] = 60.0
        loss = generation_loss(Tensor(logits), token_targets(targets, 3, 4))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_give_log_vocab(self):
        loss = generation_loss(Tensor(np.zeros((5, 4))), token_targets([0, 1, 2, 3, 0], 5, 4))
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_matches_explicit_softmax_oracle(self):
        rng = make_rng(42)
        logits = rng.standard_normal((5, 7))
        targets = [int(t) for t in rng.integers(0, 7, size=5)]
        ex = np.exp(logits)
        probs = ex / ex.sum(axis=1, keepdims=True)
        oracle = -np.mean([math.log(probs[t, targets[t]]) for t in range(5)])
        loss = generation_loss(Tensor(logits), token_targets(targets, 5, 7))
        assert loss.item() == pytest.approx(oracle, abs=1e-10)

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            generation_loss(Tensor(np.zeros((2, 4))), token_targets([0, 4], 2, 4))

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(5)
        logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        targets = [1, 0, 5, 3]
        rel = finite_diff_check(lambda ps: generation_loss(ps[0], token_targets(targets, 4, 6)),
                                [logits], eps=1e-5)
        assert rel <= 1e-6


class TestStage1Objective:
    def test_zero_lambda_returns_generation_term(self):
        gen = Tensor(1.2345)
        creg = Tensor(0.777)
        assert stage1_objective(gen, creg, 0.0).item() == gen.item()

    def test_simple_arithmetic(self):
        assert stage1_objective(Tensor(1.0), Tensor(0.5), 1.0).item() == 1.5

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            stage1_objective(Tensor(1.0), Tensor(1.0), -0.1)

    def test_combined_gradient_is_linear(self):
        rng = make_rng(3)
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        lam = 0.6

        def grad_of(fn):
            x.zero_grad()
            with Graph() as g:
                loss = fn()
            backward(g, loss)
            return x.grad.copy()

        gen_fn = lambda: (x * x).sum()
        creg_fn = lambda: (x * 2.0).sum()
        combined = grad_of(lambda: stage1_objective(gen_fn(), creg_fn(), lam))
        linear = grad_of(gen_fn) + lam * grad_of(creg_fn)
        np.testing.assert_allclose(combined, linear, atol=1e-9)
