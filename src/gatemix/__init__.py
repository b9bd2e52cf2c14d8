"""Gated two-stream connector, alignment training, self-verified inference,
CoT data curation, and a multi-choice evaluation harness -- all at desk
scale, verified by gradient checks, invariants, and small oracles."""

from . import backend, connector, objectives, tensor, training, verify
