"""The benchmark's tracer must find every program name it wraps, and the
program must call them. A traced name that is renamed or deleted is skipped
by ``perfbench/tracing.py``, and one that the program bypasses is never
called; either way its per-layer metrics read zero, so these checks are
what make it fail."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    """``perfbench/tracing.py`` as a module of its own name, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes(targets) -> dict:
    """Each target's attribute as its owner holds it, or None if missing."""
    found = {}
    for module_name, attr_path, *_ in targets:
        try:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            found[(module_name, attr_path)] = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            found[(module_name, attr_path)] = None
    return found


def test_every_traced_name_resolves_and_is_restored():
    tracing = _load_tracing()
    before = _attributes(tracing.TARGETS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        wrapped = _attributes(tracing.TARGETS)
        assert all(wrapped[key] is not original for key, original in before.items())
    finally:
        tracer.restore()
    after = _attributes(tracing.TARGETS)
    assert all(after[key] is original for key, original in before.items())


# The names ``stage1_loss`` calls through ``gatemix.training``, one call each.
STAGE1_CALLEES = ("stage1_loss", "forward", "generation_loss", "similarity_matrix", "creg_loss")


def test_one_stage1_loss_opens_one_span_per_name_it_calls():
    from gatemix import training
    from gatemix.connector import ConnectorConfig, init_params

    cfg = ConnectorConfig()
    params, batch = init_params(cfg, 0), training.synth_batch(0, 4, cfg)
    standins = training.FrozenStandins(cfg.d_llm)
    tracing = _load_tracing()
    span_names = [name for module_name, attr_path, name, *_ in tracing.TARGETS
                  if module_name == "gatemix.training" and attr_path in STAGE1_CALLEES]
    assert len(span_names) == len(STAGE1_CALLEES)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        training.stage1_loss(params, batch, standins)
    finally:
        tracer.restore()
    opened = [span[2] for span in tracer.spans]
    assert {name: opened.count(name) for name in span_names} == dict.fromkeys(span_names, 1)
