"""Per-layer metrics of the traced run, one group per module of ``gatemix``.

Counts are per repetition (one pass through both phases), per loss, per
instance or per record, so they repeat exactly across runs. Times marked
``_us`` or ``_ms`` without a percentile are means per call or per step.
A layer the workload does not run reports zeros. The ``wall`` group gives
the untraced repetitions' median wall times in seconds, which the
end-to-end metrics report as multiples of the reference work.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS, SpanIndex

# name -> unit, in the order BENCHMARK.json lists them.
METRICS = {
    "tensor.tape_records": "count",
    "tensor.gradcheck_tape_records": "count",
    "tensor.backward_ms": "ms",
    "tensor.gradcheck_evals": "count",
    "tensor.gradcheck_eval_us": "us",
    "connector.forward_calls": "count",
    "connector.forward_ms": "ms",
    "objectives.generation_loss_calls": "count",
    "objectives.loss_terms_ms": "ms",
    "training.step_ms_p50": "ms",
    "training.step_ms_p99": "ms",
    "training.loss_ms": "ms",
    "training.update_ms": "ms",
    "training.synth_batch_ms": "ms",
    "verify.score_response_calls": "count",
    "verify.score_response_us": "us",
    "verify.extract_answer_us": "us",
    "verify.self_verify_calls": "count",
    "verify.self_verify_us": "us",
    "evalharness.run_eval_calls": "count",
    "evalharness.cache_get_calls": "count",
    "evalharness.cache_hit_frac": "ratio",
    "evalharness.disk_reads": "count",
    "evalharness.disk_writes": "count",
    "evalharness.cache_get_us": "us",
    "evalharness.cache_put_us": "us",
    "evalharness.cache_files": "count",
    "evalharness.cache_bytes": "bytes",
    "backend.generate_calls": "count",
    "backend.mock_generate_us": "us",
    "backend.round_trip_ms_p50": "ms",
    "backend.round_trip_ms_p99": "ms",
    "backend.complete_text_ms_p50": "ms",
    "backend.complete_text_ms_p99": "ms",
    "backend.server_ms_p50": "ms",
    "backend.http_requests_per_call": "ratio",
    "backend.connections_per_request": "ratio",
    "backend.request_bytes": "bytes",
    "backend.reply_bytes": "bytes",
    "curation.llm_calls_per_record": "count",
    "curation.prompt_build_us": "us",
    "curation.parse_score_us": "us",
    "cli.overhead_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.phase_a_overhead_s": "s",
    "trace.phase_b_overhead_s": "s",
    "wall.phase_a_s": "s",
    "wall.phase_b_s": "s",
    "wall.reference_a_s": "s",
    "wall.reference_b_s": "s",
}


def _div(a, b) -> float:
    return a / b if b else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def _dur(s) -> float:
    return s[4] - s[3]


def _mean_us(ix: SpanIndex, *names) -> float:
    spans = [s for n in names for s in ix.named(n)]
    return _div(sum(map(_dur, spans)), len(spans)) * 1e6


def _values(ix: SpanIndex, name: str, parent: str) -> list:
    return [s[6] for s in ix.named(name) if ix.parent_name(s) == parent]


def compute(spans: list, ctx: dict) -> dict:
    """``ctx`` holds what the spans do not: the number of traced
    repetitions, item counts, stub and cache statistics, and the phase
    times of untraced and traced repetitions."""
    ix = SpanIndex(spans)
    reps = ctx["reps"]
    m = {}

    steps = ix.named("training.train_step")
    per_step = {"loss": [], "backward": [], "forward": [], "terms": [], "update": []}
    forward_calls = gen_calls = losses = 0
    for st in steps:
        loss = ix.descendants(st, "training.stage1_loss")
        back = ix.descendants(st, "tensor.backward")
        fwd = ix.descendants(st, "connector.forward")
        terms = [s for n in ("objectives.generation_loss", "objectives.similarity_matrix",
                             "objectives.creg_loss") for s in ix.descendants(st, n)]
        losses += len(loss)
        forward_calls += len(fwd)
        gen_calls += sum(1 for s in terms if s[2] == "objectives.generation_loss")
        per_step["loss"].append(sum(map(_dur, loss)))
        per_step["backward"].append(sum(map(_dur, back)))
        per_step["forward"].append(sum(map(_dur, fwd)))
        per_step["terms"].append(sum(map(_dur, terms)))
        per_step["update"].append(_dur(st) - per_step["loss"][-1] - per_step["backward"][-1])
    step_ms = [_dur(s) * 1e3 for s in steps]

    m["tensor.tape_records"] = _median(_values(ix, "tensor.backward", "training.train_step"))
    m["tensor.gradcheck_tape_records"] = _median(_values(ix, "tensor.backward", "tensor.finite_diff_check"))
    m["tensor.backward_ms"] = _median(per_step["backward"]) * 1e3
    checks = ix.named("tensor.finite_diff_check")
    evals = ctx.get("gradcheck_evals", [])
    m["tensor.gradcheck_evals"] = _median(evals)
    m["tensor.gradcheck_eval_us"] = _div(sum(map(_dur, checks)), len(checks) * m["tensor.gradcheck_evals"]) * 1e6
    m["connector.forward_calls"] = _div(forward_calls, losses)
    m["connector.forward_ms"] = _median(per_step["forward"]) * 1e3
    m["objectives.generation_loss_calls"] = _div(gen_calls, losses)
    m["objectives.loss_terms_ms"] = _median(per_step["terms"]) * 1e3
    m["training.step_ms_p50"] = _median(step_ms)
    m["training.step_ms_p99"] = _pct(step_ms, 0.99)
    m["training.loss_ms"] = _median(per_step["loss"]) * 1e3
    m["training.update_ms"] = _median(per_step["update"]) * 1e3
    m["training.synth_batch_ms"] = _median([_dur(s) * 1e3 for s in ix.named("training.synth_batch")])

    m["verify.score_response_calls"] = _div(ix.count("verify.score_response"), reps)
    m["verify.score_response_us"] = _mean_us(ix, "verify.score_response")
    m["verify.extract_answer_us"] = _mean_us(ix, "verify.extract_answer")
    m["verify.self_verify_calls"] = _div(ix.count("verify.self_verify"), reps)
    m["verify.self_verify_us"] = _mean_us(ix, "verify.self_verify")

    gets = ix.named("evalharness.cache_get")
    m["evalharness.run_eval_calls"] = _div(ix.count("evalharness.run_eval"), reps)
    m["evalharness.cache_get_calls"] = _div(len(gets), reps)
    m["evalharness.cache_hit_frac"] = _div(sum(1 for s in gets if s[6]), len(gets))
    m["evalharness.disk_reads"] = _div(ix.count("evalharness.disk_read"), reps)
    m["evalharness.disk_writes"] = _div(ix.count("evalharness.disk_write"), reps)
    m["evalharness.cache_get_us"] = _mean_us(ix, "evalharness.cache_get")
    m["evalharness.cache_put_us"] = _mean_us(ix, "evalharness.cache_put")
    cache = ctx.get("cache_stats") or {}
    m["evalharness.cache_files"] = cache.get("files", 0)
    m["evalharness.cache_bytes"] = cache.get("bytes", 0)

    remote = [_dur(s) * 1e3 for s in ix.named("backend.remote_generate")]
    texts = [_dur(s) * 1e3 for s in ix.named("backend.complete_text")]
    n_generate = ix.count("backend.mock_generate") + len(remote)
    m["backend.generate_calls"] = _div(n_generate, reps * ctx.get("instances", 0))
    m["backend.mock_generate_us"] = _mean_us(ix, "backend.mock_generate")
    m["backend.round_trip_ms_p50"] = _median(remote)
    m["backend.round_trip_ms_p99"] = _pct(remote, 0.99)
    m["backend.complete_text_ms_p50"] = _median(texts)
    m["backend.complete_text_ms_p99"] = _pct(texts, 0.99)
    stub = ctx.get("stub") or {"requests": 0, "connections": 0, "request_bytes": 0,
                               "reply_bytes": 0, "handling_ms": []}
    m["backend.server_ms_p50"] = _median(stub["handling_ms"])
    m["backend.http_requests_per_call"] = _div(stub["requests"], len(remote) + len(texts))
    m["backend.connections_per_request"] = _div(stub["connections"], stub["requests"])
    m["backend.request_bytes"] = _div(stub["request_bytes"], stub["requests"])
    m["backend.reply_bytes"] = _div(stub["reply_bytes"], stub["requests"])

    m["curation.llm_calls_per_record"] = _div(len(texts), reps * ctx.get("records", 0))
    m["curation.prompt_build_us"] = _mean_us(ix, "curation.build_prompt")
    m["curation.parse_score_us"] = _mean_us(ix, "curation.parse_score")

    overhead = []
    for d in ix.named("cli.dispatch"):
        inner = [c for c in ix.children.get(d[0], ()) if c[2] in ("evalharness.run_eval", "curation.run_pipeline")]
        overhead.append(_dur(d) - sum(map(_dur, inner)))
    m["cli.overhead_ms"] = _div(sum(overhead), len(overhead)) * 1e3

    for layer, seconds in ix.self_time_by_layer().items():
        if layer in LAYERS:
            m[f"{layer}.self_ms"] = seconds * 1e3 / reps

    for phase in ("a", "b"):
        m[f"trace.phase_{phase}_overhead_s"] = (
            _median(ctx["traced"][phase]) - _median(ctx["untraced"][phase]))
        m[f"wall.phase_{phase}_s"] = _median(ctx["untraced"][phase])
        m[f"wall.reference_{phase}_s"] = _median(ctx["untraced"].get(f"ref_{phase}", []))
    return {name: {"value": m[name], "unit": unit} for name, unit in METRICS.items()}
