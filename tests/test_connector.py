"""Connector tests: init determinism, gate semantics, forward composition,
invariants, and the checkpoint format."""

import re

import numpy as np
import pytest

from gatemix.connector import (
    ConnectorConfig,
    EncoderFeatures,
    GateMixerParams,
    checkpoint_bytes,
    forward,
    gate_mix,
    init_params,
    load_checkpoint,
)
from gatemix.tensor import Graph, ShapeError, Tensor, backward, make_rng, matmul


def _random_feats(cfg: ConnectorConfig, seed: int) -> EncoderFeatures:
    rng = make_rng(seed)
    return EncoderFeatures(
        v_v=Tensor(rng.standard_normal((cfg.n_tokens, cfg.d_v))),
        v_c=Tensor(rng.standard_normal((cfg.n_tokens, cfg.d_c))),
    )


class TestInitParams:
    def test_same_seed_bit_identical(self):
        cfg = ConnectorConfig()
        p1 = init_params(cfg, 123)
        p2 = init_params(cfg, 123)
        for a, b in zip(p1.tensors(), p2.tensors()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_gate_bias_starts_at_zero(self):
        params = init_params(ConnectorConfig(), 0)
        np.testing.assert_array_equal(params.b_g.data, np.zeros(8))

    def test_different_seeds_differ(self):
        cfg = ConnectorConfig()
        p0 = init_params(cfg, 0)
        p1 = init_params(cfg, 1)
        assert any(
            not np.array_equal(a.data, b.data)
            for a, b in zip(p0.tensors(), p1.tensors())
        )

    def test_init_bounds_follow_fan_in(self):
        cfg = ConnectorConfig()
        params = init_params(cfg, 0)
        assert np.abs(params.W1_v.data).max() <= 1.0 / np.sqrt(cfg.d_v)
        assert np.abs(params.W_g.data).max() <= 1.0 / np.sqrt(2 * cfg.d)

    def test_production_scale_dims_constructible(self):
        cfg = ConnectorConfig(n_tokens=729, d_v=1152, d_c=5760, d=16, d_llm=16)
        params = init_params(cfg, 0)
        assert params.W1_c.shape == (5760, 16)
        assert params.h_p.shape == (24, 16)


class TestGateMix:
    def test_zero_gate_is_exact_midpoint(self):
        rng = make_rng(42)
        d = 8
        h_v = Tensor(rng.standard_normal((5, d)))
        h_c = Tensor(rng.standard_normal((5, d)))
        alpha, h = gate_mix(h_v, h_c, Tensor(np.zeros((d, 2 * d))), Tensor(np.zeros(d)))
        np.testing.assert_array_equal(alpha.data, np.full((5, d), 0.5))
        np.testing.assert_array_equal(h.data, (h_v.data + h_c.data) / 2.0)

    def test_saturated_gate_selects_second_stream(self):
        rng = make_rng(1)
        d = 4
        h_v = Tensor(rng.standard_normal((3, d)))
        h_c = Tensor(rng.standard_normal((3, d)))
        _, h = gate_mix(h_v, h_c, Tensor(np.zeros((d, 2 * d))), Tensor(np.full(d, 40.0)))
        np.testing.assert_allclose(h.data, h_c.data, atol=1e-12)

    def test_equal_streams_are_a_fixed_point(self):
        rng = make_rng(2)
        d = 6
        x = Tensor(rng.standard_normal((4, d)))
        W_g = Tensor(rng.standard_normal((d, 2 * d)), requires_grad=False)
        b_g = Tensor(rng.standard_normal(d))
        _, h = gate_mix(x, x, W_g, b_g)
        np.testing.assert_allclose(h.data, x.data, atol=1e-12)

    def test_shape_validation(self):
        d = 4
        with pytest.raises(ShapeError):
            gate_mix(
                Tensor(np.zeros((3, d))),
                Tensor(np.zeros((3, d))),
                Tensor(np.zeros((d, d))),  # must be d x 2d
                Tensor(np.zeros(d)),
            )

    @pytest.mark.parametrize("h_c, b_g, message", [
        ((2, 4), (4,), "stream shapes differ: (3, 4) vs (2, 4)"),
        ((3, 4), (1, 4), "b_g must be (4,), got (1, 4)"),
    ], ids=["streams", "bias"])
    def test_stream_and_bias_shapes_validated(self, h_c, b_g, message):
        with pytest.raises(ShapeError, match=re.escape(message)):
            gate_mix(Tensor(np.zeros((3, 4))), Tensor(np.zeros(h_c)), Tensor(np.zeros((4, 8))),
                     Tensor(np.zeros(b_g)))

    def test_elementwise_boundedness(self):
        rng = make_rng(42)
        d = 8
        for _ in range(100):
            h_v = Tensor(rng.standard_normal((4, d)))
            h_c = Tensor(rng.standard_normal((4, d)))
            W_g = Tensor(rng.standard_normal((d, 2 * d)))
            b_g = Tensor(rng.standard_normal(d))
            alpha, h = gate_mix(h_v, h_c, W_g, b_g)
            assert np.all(alpha.data > 0) and np.all(alpha.data < 1)
            lo = np.minimum(h_v.data, h_c.data)
            hi = np.maximum(h_v.data, h_c.data)
            assert np.all(h.data >= lo - 1e-12)
            assert np.all(h.data <= hi + 1e-12)

    def test_gate_monotone_in_bias(self):
        rng = make_rng(3)
        d = 5
        h_v = Tensor(rng.standard_normal((3, d)))
        h_c = Tensor(rng.standard_normal((3, d)))
        W_g = Tensor(rng.standard_normal((d, 2 * d)))
        for _ in range(50):
            b_lo = rng.standard_normal(d)
            b_hi = b_lo + rng.uniform(0, 2, size=d)
            a_lo, _ = gate_mix(h_v, h_c, W_g, Tensor(b_lo))
            a_hi, _ = gate_mix(h_v, h_c, W_g, Tensor(b_hi))
            assert np.all(a_hi.data >= a_lo.data)


class TestForward:
    def test_output_rows_are_prefix_plus_tokens(self):
        cfg = ConnectorConfig()  # 9 tokens, 24 prefix rows
        out = forward(_random_feats(cfg, 0), init_params(cfg, 0))
        assert out.h_img0.shape == (33, cfg.d_llm)

    def test_identity_projection_exposes_prefix_rows(self):
        cfg = ConnectorConfig(d=8, d_llm=8)
        params = init_params(cfg, 0)
        params.W2 = Tensor(np.eye(8), requires_grad=True)
        out = forward(_random_feats(cfg, 1), params)
        np.testing.assert_allclose(out.h_img0.data[: cfg.n_prefix], params.h_p.data, atol=1e-15)

    def test_matches_step_by_step_composition(self):
        from gatemix.tensor import concat

        cfg = ConnectorConfig()
        params = init_params(cfg, 5)
        feats = _random_feats(cfg, 6)
        out = forward(feats, params)

        h_v = matmul(feats.v_v, params.W1_v)
        h_c = matmul(feats.v_c, params.W1_c)
        alpha, h = gate_mix(h_v, h_c, params.W_g, params.b_g)
        expected = matmul(concat([params.h_p, h], axis=0), params.W2)
        np.testing.assert_allclose(out.h_img0.data, expected.data, atol=1e-12)
        np.testing.assert_allclose(out.alpha.data, alpha.data, atol=1e-12)

    def test_forward_is_pure_and_deterministic(self):
        cfg = ConnectorConfig()
        params = init_params(cfg, 7)
        feats = _random_feats(cfg, 8)
        first = forward(feats, params).h_img0.data.copy()
        second = forward(feats, params).h_img0.data
        np.testing.assert_array_equal(first, second)

    def test_every_param_receives_gradient(self):
        cfg = ConnectorConfig()
        params = init_params(cfg, 9)
        feats = _random_feats(cfg, 10)
        with Graph() as g:
            loss = (forward(feats, params).h_img0 * forward(feats, params).h_img0).sum()
        backward(g, loss)
        for name, t in zip(GateMixerParams.FIELD_ORDER, params.tensors()):
            assert np.any(t.grad != 0.0), f"{name} got no gradient"

    def test_token_count_mismatch_raises(self):
        cfg = ConnectorConfig()
        rng = make_rng(0)
        with pytest.raises(ShapeError):
            EncoderFeatures(
                v_v=Tensor(rng.standard_normal((cfg.n_tokens, cfg.d_v))),
                v_c=Tensor(rng.standard_normal((cfg.n_tokens + 1, cfg.d_c))),
            )

    def test_rank_1_features_rejected(self):
        with pytest.raises(ShapeError, match="encoder features must be rank 2"):
            EncoderFeatures(v_v=Tensor(np.ones((9, 12))), v_c=Tensor(np.ones(20)))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"ConnectorConfig\.d must be >= 1"):
            ConnectorConfig(d=0)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = ConnectorConfig(n_tokens=5, d_v=6, d_c=7, d=4, d_llm=3, n_prefix=2)
        params = init_params(cfg, 11)
        path = tmp_path / "connector.ckpt"
        path.write_bytes(checkpoint_bytes(cfg, params))
        cfg2, params2 = load_checkpoint(path)
        assert cfg2 == cfg
        for a, b in zip(params.tensors(), params2.tensors()):
            np.testing.assert_array_equal(a.data, b.data)
            assert b.requires_grad

    def test_params_of_another_config_rejected(self):
        with pytest.raises(ShapeError, match=r"checkpoint: W1_v has shape \(12, 8\), config implies \(6, 8\)"):
            checkpoint_bytes(ConnectorConfig(d_v=6), init_params(ConnectorConfig(), 0))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        cfg = ConnectorConfig(n_tokens=3, d_v=4, d_c=5, d=2, d_llm=2, n_prefix=2)
        params = init_params(cfg, 0)
        path = tmp_path / "connector.ckpt"
        path.write_bytes(checkpoint_bytes(cfg, params))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = ConnectorConfig(n_tokens=3, d_v=4, d_c=5, d=2, d_llm=2, n_prefix=2)
        params = init_params(cfg, 0)
        path = tmp_path / "connector.ckpt"
        path.write_bytes(checkpoint_bytes(cfg, params))
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)
