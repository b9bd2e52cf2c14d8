"""Desk-scale alignment pretraining of the connector.

Only the connector parameters train; everything else is a frozen stand-in:
a fixed random linear pooling map plays the decoder, a fixed random readout
produces token logits over a tiny vocabulary, and synthetic feature/text
pairs share a per-item latent so that alignment is actually learnable. The
optimizer is plain gradient descent, which keeps the update rule exactly
testable (params - lr * grad). ``train_stage1`` returns its report and the
CLI writes it; wall time is printed, not stored, so the report is the same
bytes on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connector import ConnectorConfig, EncoderFeatures, GateMixerParams, forward, init_params
from .objectives import (
    BatchRepresentations,
    creg_loss,
    generation_loss,
    similarity_matrix,
    stage1_objective,
)
from .tensor import Graph, Tensor, backward, finite_diff_check, make_rng, matmul

__all__ = [
    "DivergenceError",
    "SyntheticBatch",
    "TrainConfig",
    "TrainingReport",
    "GDState",
    "FrozenStandins",
    "synth_batch",
    "stage1_loss",
    "grad_check",
    "train_step",
    "train_stage1",
]

VOCAB_SIZE = 16
TARGET_LEN = 6

# Seeds for the frozen stand-ins and the fixed latent-to-feature maps. These
# are constants, not knobs: the stand-ins must be identical across runs so
# the freezing contract is checkable bitwise.
_STANDIN_SEED = 7919
_FEATURE_MAP_SEED = 104729

GRAD_CHECK_TOL = 1e-4


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class SyntheticBatch:
    """Paired synthetic features and text representations.

    ``latents[i]`` is the hidden vector that generated both ``feats[i]`` and
    ``txt_reps`` row i; it is exposed so tests can check the pairing. A
    batch is read-only once drawn: ``stage1_loss`` builds its constants on
    first use and reuses them on every later call.
    """

    feats: list
    target_tokens: list
    txt_reps: Tensor
    latents: np.ndarray
    _stage1: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def stage1_constants(self, n_prefix: int) -> tuple:
        """(stacked features, pooling matrix, tiling matrix, flat targets) of
        ``stage1_loss`` for a connector with ``n_prefix`` prefix rows."""
        if n_prefix not in self._stage1:
            b = len(self.feats)
            stacked = EncoderFeatures(
                v_v=Tensor(np.concatenate([f.v_v.data for f in self.feats])),
                v_c=Tensor(np.concatenate([f.v_c.data for f in self.feats])),
            )
            n_tokens = np.array([f.v_v.shape[0] for f in self.feats])
            pool = np.hstack([np.ones((b, n_prefix)), np.repeat(np.eye(b), n_tokens, axis=1)])
            pool /= (n_prefix + n_tokens)[:, None]
            tile = np.repeat(np.eye(b), [len(t) for t in self.target_tokens], axis=0)
            targets = np.array([t for targets in self.target_tokens for t in targets], dtype=int)
            self._stage1[n_prefix] = (stacked, Tensor(pool), Tensor(tile), targets)
        return self._stage1[n_prefix]


@dataclass
class TrainConfig:
    steps: int = 300
    batch_size: int = 4
    lr: float = 0.5
    lam: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name, value in (("lr", self.lr), ("lambda", self.lam)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass
class GDState:
    step: int = 0


@dataclass
class TrainingReport:
    loss_curve: list
    initial_loss: float
    final_loss: float
    grad_check_rel_err: float


class FrozenStandins:
    """Frozen decoder/readout stand-ins shared by every training step.

    ``pool_map`` maps the mean-pooled connector output to the pooled image
    representation; ``readout`` maps that representation to vocabulary
    logits. Both are constants drawn once from a fixed seed.
    """

    def __init__(self, d_llm: int):
        rng = make_rng(_STANDIN_SEED)
        self.pool_map = Tensor(rng.standard_normal((d_llm, d_llm)) / np.sqrt(d_llm))
        self.readout = Tensor(rng.standard_normal((d_llm, VOCAB_SIZE)) / np.sqrt(d_llm))


def _feature_maps(cfg: ConnectorConfig) -> tuple:
    rng = make_rng(_FEATURE_MAP_SEED)
    scale = 1.0 / np.sqrt(cfg.d_llm)
    map_v = rng.standard_normal((cfg.d_llm, cfg.n_tokens * cfg.d_v)) * scale
    map_c = rng.standard_normal((cfg.d_llm, cfg.n_tokens * cfg.d_c)) * scale
    map_t = rng.standard_normal((cfg.d_llm, cfg.d_llm)) * scale
    map_k = rng.standard_normal((cfg.d_llm, VOCAB_SIZE)) * scale
    return map_v, map_c, map_t, map_k


def synth_batch(seed: int, b: int, cfg: ConnectorConfig) -> SyntheticBatch:
    """Draw b paired items, each a fixed linear image of a shared latent.

    The latent of item i generates its feature streams, its text
    representation, and its target token (the argmax of a fixed latent
    projection, repeated across positions), so both loss terms have true
    structure to recover; the maps themselves never change between calls.
    """
    if b < 1:
        raise ValueError("batch size must be >= 1")
    map_v, map_c, map_t, map_k = _feature_maps(cfg)
    rng = make_rng(seed)
    latents = rng.standard_normal((b, cfg.d_llm))
    feats = []
    targets = []
    for i in range(b):
        z = latents[i]
        feats.append(
            EncoderFeatures(
                v_v=Tensor((z @ map_v).reshape(cfg.n_tokens, cfg.d_v)),
                v_c=Tensor((z @ map_c).reshape(cfg.n_tokens, cfg.d_c)),
            )
        )
        targets.append([int(np.argmax(z @ map_k))] * TARGET_LEN)
    txt_reps = Tensor(latents @ map_t)
    return SyntheticBatch(feats=feats, target_tokens=targets, txt_reps=txt_reps, latents=latents)


def stage1_loss(
    params: GateMixerParams,
    batch: SyntheticBatch,
    standins: FrozenStandins,
    lam: float = TrainConfig.lam,
) -> Tensor:
    """Full alignment objective for one batch: mean token loss plus the
    contrastive term over pooled image/text representations.

    All b items go through one connector pass on their row-stacked feature
    streams, whose output is the shared prefix rows followed by each item's
    token rows. A constant b x (n_prefix + total tokens) pooling matrix puts
    weight 1/(n_prefix + n_i) on the prefix columns and on item i's own
    rows, so its row i is the mean pool item i would get from a pass of its
    own (the output projection is linear). The pooled rows go through
    ``pool_map`` and ``readout`` once; a constant one-hot matrix tiles each
    item's logit row over its targets, and one token loss averages over all
    targets, which is the mean of per-item losses as every item carries
    ``TARGET_LEN`` targets. The stacked streams and both constant matrices
    are built once per batch (see ``SyntheticBatch.stage1_constants``).
    """
    stacked, pool, tile, targets = batch.stage1_constants(params.h_p.shape[0])
    h_img0 = forward(stacked, params).h_img0  # (n_prefix + sum n_i) x d_llm
    img = matmul(matmul(pool, h_img0), standins.pool_map)  # b x d_llm
    logits = matmul(tile, matmul(img, standins.readout))  # sum T_i x V
    gen = generation_loss(logits, targets)
    creg = creg_loss(similarity_matrix(BatchRepresentations(img=img, txt=batch.txt_reps)))
    return stage1_objective(gen, creg, lam)


def _checked_loss(params, batch, standins, lam: float, step: int) -> tuple:
    """(loss, its value) of ``stage1_loss`` before update ``step``; a failed
    or non-finite loss is a ``DivergenceError`` naming the step."""
    where = f"at step {step} (batch of {len(batch.feats)})"
    try:
        loss = stage1_loss(params, batch, standins, lam=lam)
        value = loss.item()
    except (ValueError, FloatingPointError) as exc:  # domain guards fire once parameters explode
        raise DivergenceError(f"loss computation failed {where}: {exc}") from exc
    if not np.isfinite(value):
        raise DivergenceError(f"non-finite loss {where}")
    return loss, value


def train_step(
    params: GateMixerParams,
    batch: SyntheticBatch,
    opt_state: GDState,
    cfg: TrainConfig,
    standins: FrozenStandins,
) -> tuple:
    """One gradient-descent step on the connector parameters only.

    Returns (loss value, params, new opt state); params update in place to
    exactly ``p - lr * grad``.
    """
    params.zero_grads()
    with Graph() as g:
        loss, value = _checked_loss(params, batch, standins, cfg.lam, opt_state.step)
    backward(g, loss)
    for p in params.tensors():
        p.data -= cfg.lr * p.grad
    return value, params, GDState(step=opt_state.step + 1)


def _stage1_setup(cfg: TrainConfig, ccfg: ConnectorConfig) -> tuple:
    """(initial params, batch, stand-ins) of a stage-1 run under ``cfg.seed``."""
    return (init_params(ccfg, cfg.seed), synth_batch(cfg.seed, cfg.batch_size, ccfg),
            FrozenStandins(ccfg.d_llm))


def grad_check(cfg: TrainConfig, connector_cfg: ConnectorConfig | None = None) -> float:
    """Max relative error of the finite-difference check of the stage-1
    objective at initialization, for ``cfg``'s seed, batch size and lambda.
    ``train_stage1`` requires it to be at most ``GRAD_CHECK_TOL``."""
    params, batch, standins = _stage1_setup(cfg, connector_cfg or ConnectorConfig())
    return finite_diff_check(
        lambda ts: stage1_loss(params, batch, standins, lam=cfg.lam), params.tensors()
    )


def train_stage1(
    cfg: TrainConfig,
    connector_cfg: ConnectorConfig | None = None,
    checkpoint_path=None,
) -> TrainingReport:
    """Run the alignment stage at desk scale.

    Deterministic under ``cfg.seed``: the same seed reproduces the whole
    loss curve bit for bit. ``grad_check`` runs at step 0 and must pass
    before any update. A non-finite loss, the one after the last update
    included, is a ``DivergenceError`` raised before anything is saved.
    When ``checkpoint_path`` is given, the trained connector is saved there
    in the binary checkpoint format.
    """
    ccfg = connector_cfg or ConnectorConfig()
    rel_err = grad_check(cfg, ccfg)
    if not rel_err <= GRAD_CHECK_TOL:
        raise RuntimeError(
            f"gradient check failed at initialization: {rel_err:.3e} > {GRAD_CHECK_TOL:.0e}"
        )

    params, batch, standins = _stage1_setup(cfg, ccfg)
    initial_loss = stage1_loss(params, batch, standins, lam=cfg.lam).item()
    curve = []
    state = GDState()
    for _ in range(cfg.steps):
        value, params, state = train_step(params, batch, state, cfg, standins)
        curve.append(value)
    final_loss = _checked_loss(params, batch, standins, cfg.lam, state.step)[1]
    if checkpoint_path is not None:
        from .connector import save_checkpoint

        save_checkpoint(checkpoint_path, ccfg, params)
    return TrainingReport(
        loss_curve=curve,
        initial_loss=initial_loss,
        final_loss=final_loss,
        grad_check_rel_err=rel_err,
    )
