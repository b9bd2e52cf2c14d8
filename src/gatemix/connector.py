"""Two-stream gated connector.

Projects a ViT-style feature stream and a CNN-style feature stream to a
shared width, blends them per token and per channel through a sigmoid gate,
prepends learnable prefix rows, and projects the result into the language
embedding space. A small binary checkpoint format round-trips the learned
parameters together with their dimension config.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    _op,
    concat,
    make_rng,
    matmul,
    scaled_uniform,
    sigmoid,
)

__all__ = [
    "ConnectorConfig",
    "EncoderFeatures",
    "GateMixerParams",
    "MixOutput",
    "init_params",
    "gate_mix",
    "forward",
    "checkpoint_bytes",
    "load_checkpoint",
]

_CKPT_MAGIC = b"GMIXCK01"

_DIM_FIELDS = ("n_tokens", "d_v", "d_c", "d", "d_llm", "n_prefix")


@dataclass(frozen=True)
class ConnectorConfig:
    """Connector dimensions. Defaults are desk scale; production-scale values
    (e.g. 729 tokens at widths 1152/5760) are accepted for shape checks."""

    n_tokens: int = 9
    d_v: int = 12
    d_c: int = 20
    d: int = 8
    d_llm: int = 8
    n_prefix: int = 24

    def __post_init__(self):
        for name in _DIM_FIELDS:
            if getattr(self, name) < 1:
                raise ValueError(f"ConnectorConfig.{name} must be >= 1")


@dataclass
class EncoderFeatures:
    """One image's feature pair: v_v is n_tokens x d_v, v_c is n_tokens x d_c."""

    v_v: Tensor
    v_c: Tensor

    def __post_init__(self):
        if self.v_v.ndim != 2 or self.v_c.ndim != 2:
            raise ShapeError("encoder features must be rank 2")
        if self.v_v.shape[0] != self.v_c.shape[0]:
            raise ShapeError(
                f"feature streams disagree on token count: "
                f"{self.v_v.shape} vs {self.v_c.shape}"
            )


@dataclass
class GateMixerParams:
    """All learnable connector parameters, in checkpoint field order."""

    W1_v: Tensor  # d_v x d   projection of the ViT stream
    W1_c: Tensor  # d_c x d   projection of the CNN stream
    W_g: Tensor   # d x 2d    gate weights applied to [h_v; h_c] rows
    b_g: Tensor   # d         gate bias
    h_p: Tensor   # n_prefix x d   learnable prefix rows
    W2: Tensor    # d x d_llm  output projection

    FIELD_ORDER = ("W1_v", "W1_c", "W_g", "b_g", "h_p", "W2")

    def tensors(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELD_ORDER)

    def zero_grads(self) -> None:
        for t in self.tensors():
            t.zero_grad()


@dataclass
class MixOutput:
    """All intermediates of one connector forward pass."""

    h_v: Tensor     # n x d
    h_c: Tensor     # n x d
    alpha: Tensor   # n x d gate, strictly inside (0, 1); a constant
    h: Tensor       # n x d blended features
    h_img0: Tensor  # (n_prefix + n) x d_llm


def _param_shapes(cfg: ConnectorConfig) -> dict:
    return {
        "W1_v": (cfg.d_v, cfg.d),
        "W1_c": (cfg.d_c, cfg.d),
        "W_g": (cfg.d, 2 * cfg.d),
        "b_g": (cfg.d,),
        "h_p": (cfg.n_prefix, cfg.d),
        "W2": (cfg.d, cfg.d_llm),
    }


def init_params(cfg: ConnectorConfig, seed: int) -> GateMixerParams:
    """Scaled-uniform init (bound 1/sqrt(fan_in)), zero gate bias.

    Draw order is the checkpoint field order, so a seed pins every weight.
    """
    rng = make_rng(seed)
    shapes = _param_shapes(cfg)
    fan_in = {
        "W1_v": cfg.d_v,
        "W1_c": cfg.d_c,
        "W_g": 2 * cfg.d,
        "h_p": cfg.d,
        "W2": cfg.d,
    }
    values = {}
    for name in GateMixerParams.FIELD_ORDER:
        if name == "b_g":
            values[name] = np.zeros(shapes[name])
        else:
            values[name] = scaled_uniform(rng, shapes[name], fan_in[name])
    return GateMixerParams(
        **{name: Tensor(values[name], requires_grad=True) for name in values}
    )


def gate_mix(h_v: Tensor, h_c: Tensor, W_g: Tensor, b_g: Tensor) -> tuple:
    """Per-token, per-channel convex blend of two projected streams.

    Each token row gets a gate ``alpha = sigmoid([h_v; h_c] W_g^T + b_g)``
    and the blend ``h = (1 - alpha) * h_v + alpha * h_c``, so each output
    channel sits between the corresponding channels of the two streams.

    The whole gate is one recorded op, ``gate_mix``, with output ``h``: its
    forward runs the numpy calls of the primitive chain (concat, transpose,
    matmul, add, sigmoid, sub, mul, mul, add) in order, and its grad rule
    sums each input's contributions in the order ``backward`` would over
    that chain's records, so values and gradients keep every bit. ``alpha``
    comes back as a constant: gradients flow through ``h`` only.
    """
    if h_v.shape != h_c.shape or h_v.ndim != 2:
        raise ShapeError(f"gate_mix: stream shapes differ: {h_v.shape} vs {h_c.shape}")
    d = h_v.shape[1]
    if W_g.shape != (d, 2 * d):
        raise ShapeError(f"gate_mix: W_g must be {(d, 2 * d)}, got {W_g.shape}")
    if b_g.shape != (d,):
        raise ShapeError(f"gate_mix: b_g must be {(d,)}, got {b_g.shape}")
    pair = np.concatenate([h_v.data, h_c.data], axis=1)   # n x 2d, order fixed [h_v; h_c]
    w_t = np.ascontiguousarray(W_g.data.T)
    alpha = sigmoid(Tensor._raw(pair @ w_t + b_g.data)).data
    keep = 1.0 - alpha
    h = keep * h_v.data + alpha * h_c.data
    return Tensor._raw(alpha), _op("gate_mix", (h_v, h_c, W_g, b_g), h, _gate_mix_grad,
                                   h_v, h_c, W_g, b_g, pair, w_t, alpha, keep)


def _gate_mix_grad(h_v, h_c, W_g, b_g, pair, w_t, alpha, keep, g):
    # the blend's add hands g to both products; 1 - alpha negates its share
    g_z = (g * h_c.data + -(g * h_v.data)) * alpha * (1.0 - alpha)
    g_pair = g_z @ w_t.T if h_v.requires_grad or h_c.requires_grad else None
    d = keep.shape[1]
    # each stream's product contribution comes first, then its concat slice
    return (g * keep + g_pair[:, :d] if h_v.requires_grad else None,
            g * alpha + g_pair[:, d:] if h_c.requires_grad else None,
            np.ascontiguousarray((pair.T @ g_z).T) if W_g.requires_grad else None,
            g_z.sum(axis=0) if b_g.requires_grad else None)


def forward(feats: EncoderFeatures, params: GateMixerParams) -> MixOutput:
    """Full connector pass: project, gate-blend, prepend prefix rows, project."""
    h_v = matmul(feats.v_v, params.W1_v)
    h_c = matmul(feats.v_c, params.W1_c)
    alpha, h = gate_mix(h_v, h_c, params.W_g, params.b_g)
    with_prefix = concat([params.h_p, h], axis=0)
    h_img0 = matmul(with_prefix, params.W2)
    return MixOutput(h_v=h_v, h_c=h_c, alpha=alpha, h=h, h_img0=h_img0)


def checkpoint_bytes(cfg: ConnectorConfig, params: GateMixerParams) -> bytes:
    """Binary layout: 8 magic bytes, six little-endian uint32 dims, then the
    row-major float64 blocks in GateMixerParams field order."""
    shapes = _param_shapes(cfg)
    for name in GateMixerParams.FIELD_ORDER:
        t = getattr(params, name)
        if t.shape != shapes[name]:
            raise ShapeError(
                f"checkpoint: {name} has shape {t.shape}, config implies {shapes[name]}"
            )
    header = _CKPT_MAGIC + struct.pack(
        "<6I", *(getattr(cfg, f) for f in _DIM_FIELDS)
    )
    blocks = b"".join(
        np.ascontiguousarray(t.data, dtype="<f8").tobytes() for t in params.tensors()
    )
    return header + blocks


def load_checkpoint(path) -> tuple:
    """Inverse of ``checkpoint_bytes``, read from ``path``; returns (config, params)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise ValueError("checkpoint: bad magic bytes")
    off = len(_CKPT_MAGIC)
    dims = struct.unpack_from("<6I", raw, off)
    off += struct.calcsize("<6I")
    cfg = ConnectorConfig(**dict(zip(_DIM_FIELDS, dims)))
    shapes = _param_shapes(cfg)
    values = {}
    for name in GateMixerParams.FIELD_ORDER:
        shape = shapes[name]
        count = int(np.prod(shape))
        nbytes = count * 8
        if off + nbytes > len(raw):
            raise ValueError(f"checkpoint: truncated while reading {name}")
        block = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
        values[name] = Tensor(block.reshape(shape), requires_grad=True)
        off += nbytes
    if off != len(raw):
        raise ValueError("checkpoint: trailing bytes after weight blocks")
    return cfg, GateMixerParams(**values)
