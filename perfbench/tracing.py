"""Span tracing for the traced run.

``Tracer.install`` replaces module-global names that the program's callers
look up (for example ``gatemix.training.forward``, which ``stage1_loss``
calls) with timing wrappers; ``Tracer.restore`` puts every original object
back. A target that no longer exists is skipped and listed in ``missing``,
so its layer reports zero calls instead of the run failing.

Each span is ``(id, parent id, name, start, end, item, value)``: the parent
is the innermost open span on the same thread; a span that opens at the top
of a worker thread gets the innermost open span of the thread that created
the tracer, so eval workers' spans belong to the ``run_eval`` that started
them (0 when there is none). ``item`` is
the instance, record or step the work belongs to (inherited from the
parent unless the wrapper can read it from the call), and ``value`` is what
an observer extracted from the call, such as the length of a tape. Spans
stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager


def _tape_size(args, result):
    return len(args[0].records)


def _hit(args, result):
    return result is not None


# (module, attribute, span name, index of the argument naming the item,
#  observer). The span name's prefix is the layer the span belongs to.
TARGETS = (
    ("gatemix.training", "stage1_loss", "training.stage1_loss", None, None),
    ("gatemix.training", "forward", "connector.forward", None, None),
    ("gatemix.training", "backward", "tensor.backward", None, _tape_size),
    ("gatemix.tensor", "backward", "tensor.backward", None, _tape_size),
    ("gatemix.training", "generation_loss", "objectives.generation_loss", None, None),
    ("gatemix.training", "similarity_matrix", "objectives.similarity_matrix", None, None),
    ("gatemix.training", "creg_loss", "objectives.creg_loss", None, None),
    ("gatemix.evalharness", "run_eval", "evalharness.run_eval", None, None),
    ("gatemix.evalharness", "TraceCache.get", "evalharness.cache_get", 1, _hit),
    ("gatemix.evalharness", "TraceCache.put", "evalharness.cache_put", 1, None),
    ("gatemix.evalharness", "trace_from_dict", "evalharness.disk_read", None, None),
    ("gatemix.evalharness", "trace_to_dict", "evalharness.disk_write", None, None),
    ("gatemix.evalharness", "dual_generate", "backend.dual_generate", 1, None),
    ("gatemix.evalharness", "score_response", "verify.score_response", None, None),
    ("gatemix.evalharness", "self_verify", "verify.self_verify", None, None),
    ("gatemix.verify", "extract_answer", "verify.extract_answer", None, None),
    ("gatemix.backend", "MockBackend.generate", "backend.mock_generate", None, None),
    ("gatemix.backend", "RemoteBackend.generate", "backend.remote_generate", None, None),
    ("gatemix.backend", "RemoteBackend.complete_text", "backend.complete_text", None, None),
    ("gatemix.curation", "build_rewrite_prompt", "curation.build_prompt", None, None),
    ("gatemix.curation", "build_score_prompt", "curation.build_prompt", None, None),
    ("gatemix.curation", "parse_overall_score", "curation.parse_score", None, None),
    ("gatemix.cli", "run_eval", "evalharness.run_eval", None, None),
    ("gatemix.cli", "run_pipeline", "curation.run_pipeline", None, None),
)

LAYERS = ("tensor", "connector", "objectives", "training", "verify",
          "evalharness", "backend", "curation", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, item=None):
        """Record one span around the body; yields a dict whose "value"
        the body may set."""
        stack = self._stack()
        if stack:
            parent, parent_item = stack[-1]
        else:
            main = self._main_stack
            parent, parent_item = (main[-1][0], None) if main else (0, None)
        sid = next(self._ids)
        item = parent_item if item is None else item
        stack.append((sid, item))
        box = {"value": None}
        start = time.perf_counter()
        try:
            yield box
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, item, box["value"]))

    def _wrap(self, fn, name, item_arg, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            item = args[item_arg] if item_arg is not None and len(args) > item_arg else None
            with self.span(name, item) as box:
                result = fn(*args, **kwargs)
                if observe is not None:
                    box["value"] = observe(args, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module_name, attr_path, name, item_arg, observe in targets:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            own = attr in vars(owner)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, item_arg, observe))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class SpanIndex:
    """Queries over a finished list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[2] == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def descendants(self, span, name: str) -> list:
        found, todo = [], list(self.children.get(span[0], ()))
        while todo:
            s = todo.pop()
            if s[2] == name:
                found.append(s)
            todo.extend(self.children.get(s[0], ()))
        return found

    def parent_name(self, span) -> str:
        parent = self.by_id.get(span[1])
        return parent[2] if parent else ""

    def self_time_by_layer(self) -> dict:
        """Span duration minus the part of it that its children cover,
        summed per layer (the span name's prefix). Children on worker
        threads may overlap, so the covered part is their union."""
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            covered, reach = 0.0, float("-inf")
            for _, _, _, start, end, _, _ in sorted(self.children.get(s[0], ()), key=lambda c: c[3]):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            own = (s[4] - s[3]) - covered
            layer = s[2].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out
