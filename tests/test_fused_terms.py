"""The fused loss-term ops against the chains of primitive ops they replace.

``gate_mix``, ``generation_loss``, ``similarity_matrix`` and ``creg_loss``
each record one tape op whose grad rule sums each input's contributions in
the order ``backward`` sums them over the primitive chain. The chains below
are those terms written with the recorded primitives; each fused term must
equal its chain bit for bit, in value and in the gradient of every input.
"""

import numpy as np
import pytest

from gatemix.connector import gate_mix
from gatemix.objectives import (
    creg_loss,
    generation_loss,
    similarity_matrix,
    text_side,
    token_targets,
)
from gatemix.tensor import Graph, Tensor, backward, concat, finite_diff_check, make_rng, matmul, sigmoid

SEEDS = (0, 1, 2)
BATCHES = (1, 4, 16)
N_TOKENS, D, VOCAB, TARGETS = 9, 8, 16, 6


def chain_gate_mix(h_v, h_c, W_g, b_g):
    pair = concat([h_v, h_c], axis=1)
    alpha = sigmoid(matmul(pair, W_g.transpose()) + b_g)
    return alpha, (1.0 - alpha) * h_v + alpha * h_c


def chain_generation_loss(logits, targets):
    onehot = targets.onehot
    picked = (logits * onehot).sum(axis=1)
    row_max = np.maximum.reduce(logits.data, 1, keepdims=True)
    lse = (logits - Tensor._raw(row_max)).exp().sum(axis=1).log() + Tensor._raw(row_max.reshape(-1))
    return (lse - picked).mean()


def chain_similarity_matrix(img, txt):
    dots = matmul(img, txt.rows_t)
    squared = (img * img).sum(axis=1)
    return (dots / matmul(squared.sqrt().reshape((img.shape[0], 1)), txt.norms)).exp()


def chain_creg_loss(S):
    b = S.shape[0]
    diag = (S * Tensor._raw(np.eye(b))).sum(axis=1)
    log_diag = diag.log()
    terms = (log_diag - S.sum(axis=0).log()) + (log_diag - S.sum(axis=1).log())
    return terms.sum() * (-1.0 / (2.0 * b))


def _leaves(arrays, grad_flags):
    return [Tensor(a, requires_grad=flag) for a, flag in zip(arrays, grad_flags)]


def _run(term, arrays, grad_flags, weight):
    """(output tensor, tape length, leaf gradients) of ``term`` on fresh
    leaves, through a loss that weights the output by ``weight``."""
    leaves = _leaves(arrays, grad_flags)
    with Graph() as g:
        out = term(*leaves)
        loss = (out[-1] if isinstance(out, tuple) else out) * weight
        if loss.ndim:
            loss = loss.sum()
    backward(g, loss)
    return out, len(g.records), [t.grad for t in leaves]


def _assert_same_bits(fused, chain):
    f_out, f_len, f_grads = fused
    c_out, c_len, c_grads = chain
    f_outs = f_out if isinstance(f_out, tuple) else (f_out,)
    c_outs = c_out if isinstance(c_out, tuple) else (c_out,)
    for f, c in zip(f_outs, c_outs):
        assert f.data.tobytes() == c.data.tobytes()
    assert f_len < c_len
    for f, c in zip(f_grads, c_grads):
        assert (f is None) == (c is None)
        if f is not None:
            assert f.tobytes() == c.tobytes()


def _gate_arrays(rng, b):
    n = b * N_TOKENS
    return [rng.standard_normal((n, D)), rng.standard_normal((n, D)),
            rng.standard_normal((D, 2 * D)) * 0.5, rng.standard_normal(D) * 0.5]


def _txt_term(term):
    """``term`` of the image rows and a text side built from a leaf."""
    return lambda img, txt: term(img, text_side(txt))


@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("seed", SEEDS)
class TestFusedTermEqualsItsChain:
    @pytest.mark.parametrize("grad_flags", [
        (True, False, False, False), (False, True, False, False),
        (False, False, True, False), (False, False, False, True), (True, True, True, True),
    ], ids=["h_v", "h_c", "W_g", "b_g", "all"])
    def test_gate_mix(self, seed, b, grad_flags):
        rng = make_rng(seed)
        arrays = _gate_arrays(rng, b)
        weight = Tensor(rng.standard_normal((b * N_TOKENS, D)))
        _assert_same_bits(_run(gate_mix, arrays, grad_flags, weight),
                          _run(chain_gate_mix, arrays, grad_flags, weight))

    def test_generation_loss(self, seed, b):
        rng = make_rng(seed)
        t = b * TARGETS
        targets = token_targets(rng.integers(0, VOCAB, size=t), t, VOCAB)
        arrays = [rng.standard_normal((t, VOCAB)) * 2.0]
        weight = float(rng.uniform(0.5, 2.0))
        _assert_same_bits(_run(lambda x: generation_loss(x, targets), arrays, (True,), weight),
                          _run(lambda x: chain_generation_loss(x, targets), arrays, (True,), weight))

    @pytest.mark.parametrize("grad_flags", [(True, False), (False, True), (True, True)],
                             ids=["img", "txt", "both"])
    def test_similarity_matrix(self, seed, b, grad_flags):
        rng = make_rng(seed)
        arrays = [rng.standard_normal((b, D)), rng.standard_normal((b, D))]
        weight = Tensor(rng.standard_normal((b, b)))
        _assert_same_bits(_run(_txt_term(similarity_matrix), arrays, grad_flags, weight),
                          _run(_txt_term(chain_similarity_matrix), arrays, grad_flags, weight))

    def test_creg_loss(self, seed, b):
        rng = make_rng(seed)
        arrays = [rng.uniform(0.3, 3.0, size=(b, b))]
        weight = float(rng.uniform(0.5, 2.0))
        _assert_same_bits(_run(creg_loss, arrays, (True,), weight),
                          _run(chain_creg_loss, arrays, (True,), weight))

    def test_creg_of_similarity_with_the_text_side_requiring_grad(self, seed, b):
        # the composition stage1_loss runs, with the text side recorded too
        rng = make_rng(seed)
        arrays = [rng.standard_normal((b, D)), rng.standard_normal((b, D))]
        fused = _txt_term(lambda img, txt: creg_loss(similarity_matrix(img, txt)))
        chain = _txt_term(lambda img, txt: chain_creg_loss(chain_similarity_matrix(img, txt)))
        _assert_same_bits(_run(fused, arrays, (True, True), 0.75),
                          _run(chain, arrays, (True, True), 0.75))


class TestFusedTermGradients:
    """Finite differences of each fused op with every input requiring grad."""

    def test_gate_mix(self):
        leaves = _leaves(_gate_arrays(make_rng(3), 1), (True,) * 4)
        weight = Tensor(make_rng(4).standard_normal((N_TOKENS, D)))
        assert finite_diff_check(lambda ps: (gate_mix(*ps)[1] * weight).sum(), leaves) <= 1e-6

    def test_generation_loss(self):
        rng = make_rng(5)
        targets = token_targets(rng.integers(0, VOCAB, size=8), 8, VOCAB)
        logits = Tensor(rng.standard_normal((8, VOCAB)), requires_grad=True)
        assert finite_diff_check(lambda ps: generation_loss(ps[0], targets), [logits]) <= 1e-6

    def test_similarity_matrix(self):
        rng = make_rng(6)
        img, txt = _leaves([rng.standard_normal((4, D)), rng.standard_normal((4, D))], (True, True))
        weight = Tensor(rng.standard_normal((4, 4)))
        objective = lambda ps: (similarity_matrix(ps[0], text_side(ps[1])) * weight).sum()
        assert finite_diff_check(objective, [img, txt]) <= 1e-6

    def test_creg_loss(self):
        S = Tensor(make_rng(7).uniform(0.3, 3.0, size=(4, 4)), requires_grad=True)
        assert finite_diff_check(lambda ps: creg_loss(ps[0]), [S]) <= 1e-6


def test_one_record_per_term():
    rng = make_rng(8)
    img, txt = _leaves([rng.standard_normal((4, D)), rng.standard_normal((4, D))], (True, False))
    logits = Tensor(rng.standard_normal((4, VOCAB)), requires_grad=True)
    gate = _leaves(_gate_arrays(rng, 1), (True,) * 4)
    with Graph() as g:
        creg_loss(similarity_matrix(img, text_side(txt)))
        generation_loss(logits, token_targets([0, 1, 2, 3], 4, VOCAB))
        alpha, _ = gate_mix(*gate)
    assert [rec.op for rec in g.records] == ["similarity_matrix", "creg_loss", "generation_loss",
                                             "gate_mix"]
    assert not alpha.requires_grad
