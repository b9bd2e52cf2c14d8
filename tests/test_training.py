"""Alignment-trainer tests: synthetic pairing, the update rule, freezing,
and determinism."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from conftest import reference_stage1_loss
from gatemix import cli, training
from gatemix.connector import ConnectorConfig, checkpoint_bytes, init_params, load_checkpoint
from gatemix.tensor import DegenerateVectorError, Graph, backward, finite_diff_check, no_grad
from gatemix.training import (
    DivergenceError,
    FrozenStandins,
    GDState,
    TrainConfig,
    TrainingReport,
    stage1_loss,
    synth_batch,
    train_stage1,
    train_step,
)

CFG = ConnectorConfig()


class TestSynthBatch:
    def test_same_seed_identical(self):
        b1 = synth_batch(3, 4, CFG)
        b2 = synth_batch(3, 4, CFG)
        np.testing.assert_array_equal(b1.latents, b2.latents)
        np.testing.assert_array_equal(b1.txt_reps.data, b2.txt_reps.data)
        for f1, f2 in zip(b1.feats, b2.feats):
            np.testing.assert_array_equal(f1.v_v.data, f2.v_v.data)
            np.testing.assert_array_equal(f1.v_c.data, f2.v_c.data)
        assert b1.target_tokens == b2.target_tokens

    def test_minimal_batch(self):
        batch = synth_batch(0, 1, CFG)
        assert len(batch.feats) == 1
        assert batch.txt_reps.shape == (1, CFG.d_llm)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="batch size must be >= 1"):
            synth_batch(0, 0, CFG)

    def test_latent_sharing(self):
        # within an item the feature latent and the text latent are the same
        # vector (correlation 1); across items they are independent draws
        batch = synth_batch(11, 1000, CFG)
        z = batch.latents
        normed = z / np.linalg.norm(z, axis=1, keepdims=True)
        cross = normed @ normed.T
        np.testing.assert_allclose(np.diag(cross), 1.0, atol=1e-12)
        off = cross[~np.eye(1000, dtype=bool)]
        assert abs(off.mean()) < 0.02

    def test_txt_reps_are_fixed_linear_in_latents(self):
        # solve the map from one batch, predict another: the map never moves
        b1 = synth_batch(0, 40, CFG)
        b2 = synth_batch(99, 25, CFG)
        M, *_ = np.linalg.lstsq(b1.latents, b1.txt_reps.data, rcond=None)
        np.testing.assert_allclose(b2.latents @ M, b2.txt_reps.data, atol=1e-8)

    def test_targets_derive_from_latents(self):
        b1 = synth_batch(5, 8, CFG)
        b2 = synth_batch(5, 8, CFG)
        assert b1.target_tokens == b2.target_tokens
        for tokens in b1.target_tokens:
            assert len(set(tokens)) == 1  # one latent-derived id per item


def _loss_and_grads(loss_fn, params, batch, standins):
    params.zero_grads()
    with Graph() as g:
        loss = loss_fn(params, batch, standins)
    backward(g, loss)
    return loss.item(), [p.grad.copy() for p in params.tensors()], len(g.records)


class TestBatchedObjective:
    """stage1_loss runs all items through one connector pass; the per-item
    loop in conftest is the reference. Summation order differs, so values
    agree to rtol 1e-12; a gradient coordinate that is a cancellation near
    zero is held to 1e-12 of its gradient's largest entry instead."""

    @pytest.mark.parametrize("b", [1, 4, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_item_reference(self, b, seed):
        params = init_params(CFG, seed)
        batch = synth_batch(seed, b, CFG)
        standins = FrozenStandins(CFG.d_llm)
        loss, grads, _ = _loss_and_grads(stage1_loss, params, batch, standins)
        ref_loss, ref_grads, _ = _loss_and_grads(reference_stage1_loss, params, batch, standins)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        for name, got, want in zip(params.FIELD_ORDER, grads, ref_grads):
            np.testing.assert_allclose(
                got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=name
            )

    def test_one_connector_pass_and_tape_independent_of_batch(self, monkeypatch):
        calls = []
        real_forward = training.forward

        def counting_forward(feats, params):
            calls.append(feats.v_v.shape[0])
            return real_forward(feats, params)

        monkeypatch.setattr(training, "forward", counting_forward)
        standins = FrozenStandins(CFG.d_llm)
        tapes = []
        for b in (4, 16):
            params = init_params(CFG, 0)
            tapes.append(_loss_and_grads(stage1_loss, params, synth_batch(0, b, CFG), standins)[2])
        assert calls == [4 * CFG.n_tokens, 16 * CFG.n_tokens]
        assert tapes[0] == tapes[1]


    @pytest.mark.parametrize("b", [1, 4, 16])
    def test_no_grad_pass_inside_graph_records_nothing_and_matches(self, b):
        params = init_params(CFG, 0)
        batch = synth_batch(0, b, CFG)
        standins = FrozenStandins(CFG.d_llm)
        with Graph() as g:
            recorded = stage1_loss(params, batch, standins)
            assert len(g.records) == 14
            with no_grad():
                probe = stage1_loss(params, batch, standins)
            assert len(g.records) == 14
        assert not probe.requires_grad
        assert probe.item().hex() == recorded.item().hex()

    def test_tape_op_order(self):
        # backward sums each input's gradient in tape order, so a reordered
        # tape moves the last bits that TestBitIdentity pins
        params = init_params(CFG, 0)
        with Graph() as g:
            stage1_loss(params, synth_batch(0, 4, CFG), FrozenStandins(CFG.d_llm))
        assert [rec.op for rec in g.records] == [
            # connector: project, gate-blend, prepend the prefix rows, project
            "matmul", "matmul", "gate_mix", "concat", "matmul",
            # pooled image rows, logits
            "matmul", "matmul", "matmul", "matmul",
            # the loss terms, one fused op each
            "generation_loss", "similarity_matrix", "creg_loss",
            # stage1_objective
            "mul", "add",
        ]

    def test_batch_constants_are_built_once(self):
        params = init_params(CFG, 0)
        batch = synth_batch(0, 4, CFG)
        first = batch.stage1_constants(CFG.n_prefix)
        stage1_loss(params, batch, FrozenStandins(CFG.d_llm))
        assert batch.stage1_constants(CFG.n_prefix) is first
        assert first[1].shape == (4, CFG.n_prefix + 4 * CFG.n_tokens)
        assert batch.stage1_constants(CFG.n_prefix + 1)[1].shape == (4, CFG.n_prefix + 1 + 4 * CFG.n_tokens)

    def test_loss_terms_get_the_batch_prepared_operands(self, monkeypatch):
        # the one-hot targets and the text side reach the loss terms as the
        # objects the batch built once, on every call
        seen = []
        real_gen, real_sim = training.generation_loss, training.similarity_matrix
        monkeypatch.setattr(training, "generation_loss",
                            lambda logits, targets: seen.append(targets) or real_gen(logits, targets))
        monkeypatch.setattr(training, "similarity_matrix",
                            lambda img, txt: seen.append(txt) or real_sim(img, txt))
        params, batch, standins = init_params(CFG, 0), synth_batch(0, 4, CFG), FrozenStandins(CFG.d_llm)
        for _ in range(3):
            stage1_loss(params, batch, standins)
        constants = batch.stage1_constants(CFG.n_prefix)
        expected = [constants.targets, constants.text] * 3
        assert len(seen) == len(expected) and all(a is b for a, b in zip(seen, expected))
        assert constants.text.rows is batch.txt_reps
        assert constants.targets.onehot.shape == (4 * training.TARGET_LEN, training.VOCAB_SIZE)

    @pytest.mark.parametrize("corrupt, error, message", [
        (lambda batch: batch.target_tokens[1].__setitem__(0, training.VOCAB_SIZE), ValueError,
         f"generation_loss: target id {training.VOCAB_SIZE} out of range for vocab {training.VOCAB_SIZE}"),
        (lambda batch: batch.txt_reps.data.__setitem__(2, 0.0), DegenerateVectorError,
         "similarity_matrix: zero-norm txt row"),
    ], ids=["target-out-of-range", "zero-norm-txt-row"])
    def test_batch_checks_fire_where_the_constants_are_built(self, corrupt, error, message):
        batch = synth_batch(0, 4, CFG)
        corrupt(batch)
        for _ in range(2):  # a failed build caches nothing
            with pytest.raises(error, match=re.escape(message)):
                batch.stage1_constants(CFG.n_prefix)
            with pytest.raises(error, match=re.escape(message)):
                stage1_loss(init_params(CFG, 0), batch, FrozenStandins(CFG.d_llm))


class TestBitIdentity:
    """Float bits pinned to the values of the per-op closure tape (every op
    building its backward closure even when nothing recorded); a speed-up of
    the tape must leave them unchanged."""

    def test_gradient_check_at_seed_0(self):
        params = init_params(CFG, 0)
        batch = synth_batch(0, 4, CFG)
        standins = FrozenStandins(CFG.d_llm)
        calls = []

        def objective(ts):
            calls.append(1)
            return stage1_loss(params, batch, standins)

        rel = finite_diff_check(objective, params.tensors(), eps=1e-5)
        assert rel.hex() == "0x1.287d75095e701p-19"
        assert len(calls) == 2 * sum(t.size for t in params.tensors()) + 1 == 1297

    def test_first_five_losses(self):
        curve = train_stage1(TrainConfig(steps=5))[0].loss_curve
        assert [v.hex() for v in curve] == [
            "0x1.0f2e50dbfdce2p+2",
            "0x1.ef6b3387668d5p+1",
            "0x1.dd6fb177ed411p+1",
            "0x1.d6b17f379d6c0p+1",
            "0x1.d279a593d858cp+1",
        ]

    def test_fifty_steps_at_batch_16(self):
        # the benchmark's align phase b: 50 train steps on one b=16 batch
        cfg = TrainConfig(steps=50, batch_size=16)
        params, batch, standins = init_params(CFG, 0), synth_batch(0, 16, CFG), FrozenStandins(CFG.d_llm)
        state = GDState()
        curve = []
        for _ in range(cfg.steps):
            value, params, state = train_step(params, batch, state, cfg, standins)
            curve.append(value.hex())
        assert curve == [
            "0x1.649441b2d549cp+2", "0x1.504623c6f7c8fp+2", "0x1.480df34b9e622p+2",
            "0x1.41da71eaf408cp+2", "0x1.3e482987c5756p+2", "0x1.3ecfd95631ee4p+2",
            "0x1.3c033311e494dp+2", "0x1.3a74beec15816p+2", "0x1.3a2e94b200885p+2",
            "0x1.39d4caf0f4917p+2", "0x1.39e951ee56962p+2", "0x1.3842489b65d00p+2",
            "0x1.37d2aa10dffeap+2", "0x1.3870a9f988a92p+2", "0x1.386693da8b488p+2",
            "0x1.38a2d2411cd22p+2", "0x1.36b71a6f8f3dcp+2", "0x1.35f85299c0403p+2",
            "0x1.356d3c57ea397p+2", "0x1.34f137ea812eap+2", "0x1.34939a35d9eb4p+2",
            "0x1.3463af40ded7cp+2", "0x1.34c797085c0a1p+2", "0x1.356ab4eb39452p+2",
            "0x1.3675553daa9dcp+2", "0x1.34d6e935c09a6p+2", "0x1.344eead1f1a5dp+2",
            "0x1.342455140eecep+2", "0x1.347fe073b9892p+2", "0x1.3442d9fede4dep+2",
            "0x1.34cc39b02de00p+2", "0x1.33f88fe98be38p+2", "0x1.33fd429d99294p+2",
            "0x1.33b98c316a04fp+2", "0x1.340c136ade94ap+2", "0x1.33be9370f55dap+2",
            "0x1.340df3a195f06p+2", "0x1.33a2fd3aaf2cap+2", "0x1.33d29bad45137p+2",
            "0x1.33833a9e6ecafp+2", "0x1.33bae076dfaecp+2", "0x1.3373723ce1452p+2",
            "0x1.33a9618692b1cp+2", "0x1.3361cf011d0a6p+2", "0x1.338e3562f97cap+2",
            "0x1.334d58f48c068p+2", "0x1.3374f71036aa2p+2", "0x1.333b100736efbp+2",
            "0x1.335fa3a195030p+2", "0x1.332a1a839d6e8p+2",
        ]
        final = hashlib.sha256(b"".join(t.data.tobytes() for t in params.tensors()))
        assert final.hexdigest() == "f78f02440ddb8f024a83b16c71761c3284cee6952aa588c496c4e5a560a52bfd"


class TestTrainStep:
    def test_zero_lr_leaves_params_unchanged(self):
        params = init_params(CFG, 0)
        batch = synth_batch(0, 4, CFG)
        before = [t.data.copy() for t in params.tensors()]
        loss, params, state = train_step(params, batch, GDState(), TrainConfig(lr=0.0),
                                         FrozenStandins(CFG.d_llm))
        assert np.isfinite(loss)
        for prev, t in zip(before, params.tensors()):
            np.testing.assert_array_equal(prev, t.data)
        assert state.step == 1

    def test_single_step_descends(self):
        params = init_params(CFG, 1)
        batch = synth_batch(1, 4, CFG)
        standins = FrozenStandins(CFG.d_llm)
        before = stage1_loss(params, batch, standins).item()
        train_step(params, batch, GDState(), TrainConfig(lr=0.01), standins)
        after = stage1_loss(params, batch, standins).item()
        assert after < before

    def test_update_is_exactly_params_minus_lr_grad(self):
        lr = 0.05
        params = init_params(CFG, 2)
        batch = synth_batch(2, 3, CFG)
        standins = FrozenStandins(CFG.d_llm)

        reference = init_params(CFG, 2)
        reference.zero_grads()
        with Graph() as g:
            loss = stage1_loss(reference, batch, standins, lam=1.0)
        backward(g, loss)
        expected = [t.data - lr * t.grad for t in reference.tensors()]

        train_step(params, batch, GDState(), TrainConfig(lr=lr), standins)
        for want, got in zip(expected, params.tensors()):
            np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_divergence_reports_step(self):
        params = init_params(CFG, 0)
        for t in params.tensors():
            t.data *= 1e160
        batch = synth_batch(0, 2, CFG)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match="step 7"):
                train_step(params, batch, GDState(step=7), TrainConfig(lr=0.1),
                           FrozenStandins(CFG.d_llm))

    def test_failed_loss_reports_step_and_cause(self):
        # a zeroed W2 pools every item to a zero row, which the similarity rejects
        params = init_params(CFG, 0)
        params.W2.data[:] = 0.0
        with pytest.raises(DivergenceError, match=re.escape(
                "loss computation failed at step 0 (batch of 4): "
                "similarity_matrix: zero-norm img row")):
            train_step(params, synth_batch(0, 4, CFG), GDState(), TrainConfig(),
                       FrozenStandins(CFG.d_llm))


class TestTrainStage1:
    def test_nan_gradient_fails_the_gradient_check(self):
        # at lambda 1e308 the objective is finite but every analytic gradient
        # entry is NaN, which no comparison with the tolerance rejects
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="non-finite relative error"):
                training.grad_check(TrainConfig(lam=1e308))
            with pytest.raises(ValueError, match="non-finite relative error"):
                train_stage1(TrainConfig(steps=0, lam=1e308))

    def test_divergence_names_its_step_once(self):
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as exc:
                train_stage1(TrainConfig(steps=20, lr=1e12))
        assert str(exc.value).count("step") == 1

    def test_zero_steps(self):
        report, _ = train_stage1(TrainConfig(steps=0))
        assert report.loss_curve == []
        assert report.initial_loss == report.final_loss

    def test_rerun_is_bit_identical(self):
        r1, p1 = train_stage1(TrainConfig(steps=25, seed=4))
        r2, p2 = train_stage1(TrainConfig(steps=25, seed=4))
        assert r1.loss_curve == r2.loss_curve
        assert r1.initial_loss == r2.initial_loss
        assert r1.final_loss == r2.final_loss
        assert checkpoint_bytes(CFG, p1) == checkpoint_bytes(CFG, p2)

    def test_one_draw_is_checked_and_trained(self, monkeypatch):
        calls = []
        real = training.synth_batch
        monkeypatch.setattr(training, "synth_batch", lambda *a: calls.append(a) or real(*a))
        report, params = train_stage1(TrainConfig(steps=1))
        assert calls == [(0, 4, CFG)]
        assert report.initial_loss == report.loss_curve[0]

    def test_curve_is_finite_and_step_long(self):
        report, _ = train_stage1(TrainConfig(steps=40))
        assert len(report.loss_curve) == 40
        assert np.isfinite(report.loss_curve).all()

    def test_freezing_contract(self):
        params = init_params(CFG, 0)
        batch = synth_batch(0, 4, CFG)
        standins = FrozenStandins(CFG.d_llm)
        frozen_before = [
            standins.pool_map.data.tobytes(),
            standins.readout.data.tobytes(),
            batch.txt_reps.data.tobytes(),
        ] + [f.v_v.data.tobytes() + f.v_c.data.tobytes() for f in batch.feats]
        trainable_before = [t.data.copy() for t in params.tensors()]

        state = GDState()
        cfg = TrainConfig(lr=0.2)
        for _ in range(20):
            _, params, state = train_step(params, batch, state, cfg, standins)

        frozen_after = [
            standins.pool_map.data.tobytes(),
            standins.readout.data.tobytes(),
            batch.txt_reps.data.tobytes(),
        ] + [f.v_v.data.tobytes() + f.v_c.data.tobytes() for f in batch.feats]
        assert frozen_before == frozen_after
        assert all(
            not np.array_equal(prev, t.data)
            for prev, t in zip(trainable_before, params.tensors())
        )

    def test_returned_params_round_trip_through_a_checkpoint(self, tmp_path):
        _, trained = train_stage1(TrainConfig(steps=5))
        path = tmp_path / "trained.ckpt"
        path.write_bytes(checkpoint_bytes(CFG, trained))
        cfg, params = load_checkpoint(path)
        assert cfg == ConnectorConfig()
        assert params.W2.shape == (cfg.d, cfg.d_llm)
        for a, b in zip(trained.tensors(), params.tensors()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_report_json_excludes_wall_time(self, tmp_path, capsys):
        assert "wall_time_s" not in {f.name for f in dataclasses.fields(TrainingReport)}
        assert cli.dispatch(["train-align", "--steps", "2", "--out", str(tmp_path)]) == 0
        assert set(json.loads((tmp_path / "training_report.json").read_text())) == {
            "loss_curve", "initial_loss", "final_loss", "grad_check_rel_err"}
        assert re.fullmatch(r"loss .* over 2 steps \(grad check .*, \d+\.\d\ds\)\n",
                            capsys.readouterr().out)


class TestTrainConfigValidation:
    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-0.1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be finite"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_lambda_outside_finite_non_negative_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            TrainConfig(lam=lam)

    @pytest.mark.parametrize("field, value, message", [
        ("steps", -1, "steps must be >= 0"),
        ("batch_size", 0, "batch_size must be >= 1"),
    ])
    def test_count_below_its_minimum_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, "0"])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            TrainConfig(seed=seed)
