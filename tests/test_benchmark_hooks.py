"""The benchmark's tracer must find every program name it wraps. A traced
name that is renamed or deleted is skipped by ``perfbench/tracing.py`` and
its per-layer metrics read zero, so this check is what makes it fail."""

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
