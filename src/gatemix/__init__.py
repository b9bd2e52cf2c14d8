"""Gated two-stream connector, alignment training, self-verified inference,
CoT data curation, and a multi-choice evaluation harness -- all at desk
scale, verified by gradient checks, invariants, and small oracles."""

from .backend import (
    BackendRequest,
    DecodingConfig,
    GenerationTrace,
    MockBackend,
    RemoteBackend,
    dual_generate,
)
from .connector import (
    ConnectorConfig,
    EncoderFeatures,
    GateMixerParams,
    MixOutput,
    forward,
    gate_mix,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .objectives import (
    BatchRepresentations,
    SimilarityMatrix,
    creg_loss,
    generation_loss,
    similarity_matrix,
    stage1_objective,
)
from .tensor import (
    Graph,
    Tensor,
    backward,
    cosine_sim,
    finite_diff_check,
    matmul,
    sigmoid,
)
from .training import TrainConfig, TrainingReport, synth_batch, train_stage1, train_step
from .verify import (
    DEFAULT_ALPHA,
    ScoredResponse,
    VerifyDecision,
    confidence,
    extract_answer,
    score_response,
    self_verify,
    similarity_score,
)

__version__ = "0.1.0"
