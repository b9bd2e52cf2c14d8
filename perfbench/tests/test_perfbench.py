"""Tests of the benchmark itself: generators, oracle, workloads and tracing.

    python3 -m pytest perfbench/tests -q
"""

import http.client
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gatemix import backend, connector, evalharness, training

import generate
import layers
import oracle
import tracing
import workloads
from stub import StubProcess

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


def _write_all(seed: int, out: Path) -> None:
    out.mkdir()
    generate.write_sweep_inputs(generate.make_instances(seed, 30, "sweep"), out)
    generate.write_records(generate.make_records(seed, 20), out)


def test_generators_give_byte_identical_inputs_for_one_seed(tmp_path):
    _write_all(3, tmp_path / "a")
    _write_all(3, tmp_path / "b")
    _write_all(4, tmp_path / "c")
    for name in ("benchmark.jsonl", "mock_script.json", "records.jsonl"):
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes()
        assert first != (tmp_path / "c" / name).read_bytes()


def test_generated_sizes_do_not_depend_on_the_seed():
    def sizes(seed):
        insts = generate.make_instances(seed, 200, "sweep")
        return (sorted(len(i["options"]) for i in insts),
                sorted(len(i["cot"]["token_logprobs"]) for i in insts),
                sum(i["expect"]["direct"] == i["expect"]["cot"] for i in insts),
                oracle.curation_calls(generate.make_records(seed, 50)))

    assert sizes(1) == sizes(2)


def test_oracle_agrees_with_the_program_on_a_small_sweep(tmp_path):
    instances = generate.make_instances(7, 60, "sweep")
    bench, script = generate.write_sweep_inputs(instances, tmp_path)
    program_instances, skipped = evalharness.load_benchmark(bench)
    mock = backend.MockBackend.from_json(script)
    assert not skipped
    results = evalharness.alpha_sweep(mock, program_instances, cache_dir=tmp_path / "cache")
    assert results == oracle.sweep_expectation(instances)
    for alpha in (0.0, 0.7, 1.0):
        report = evalharness.run_eval(mock, program_instances, "sv", alpha=alpha)
        expected = oracle.eval_expectation(instances, alpha)
        assert report.branch_counts == expected["branch_counts"]
        for rec in report.records:
            want = expected["records"][rec["id"]]
            assert (rec["predicted"], rec["branch"]) == (want["predicted"], want["branch"])


def test_oracle_loss_matches_the_program():
    cfg = connector.ConnectorConfig()
    params = connector.init_params(cfg, 5)
    batch = training.synth_batch(5, 6, cfg)
    standins = training.FrozenStandins(cfg.d_llm)
    program = training.stage1_loss(params, batch, standins).item()
    weights = dict(zip(params.FIELD_ORDER, (t.data for t in params.tensors())))
    feats = [(f.v_v.data, f.v_c.data) for f in batch.feats]
    expected = oracle.stage1_loss(weights, feats, batch.target_tokens, batch.txt_reps.data,
                                  standins.pool_map.data, standins.readout.data)
    assert np.isclose(program, expected, rtol=1e-12, atol=0.0)


def _run_workload(cls, tmp_path, tracer=None, **sizes):
    w = cls(11, tmp_path)
    for key, value in sizes.items():
        setattr(w, key, value)
    w.setup()
    try:
        w.prepare_reference()
        for phase in ("a", "b"):
            w.reference(phase)
        w.phase_a(tracer)
        w.phase_b(tracer)
        w.check()
    finally:
        w.stop()
    return w


@pytest.mark.parametrize("cls, sizes", [
    (workloads.Align, {"train_steps": 4}),
    (workloads.Sweep, {"n_instances": 40}),
    (workloads.Serve, {"n_instances": 24, "n_records": 12}),
])
def test_each_workload_passes_its_checks(tmp_path, cls, sizes):
    w = _run_workload(cls, tmp_path, **sizes)
    assert w.errors == []
    assert w.attempted > 0 and w.failed == 0


def test_checks_catch_a_wrong_answer(tmp_path):
    w = workloads.Sweep(11, tmp_path)
    w.n_instances = 40
    w.setup()
    w.instances[0]["expect"] = {"direct": "no such answer", "cot": "no such answer"}
    w.phase_a(None)
    w.phase_b(None)
    w.check()
    assert any("oracle" in e for e in w.errors)


def test_stub_counts_requests_and_reused_connections():
    stub = StubProcess(3, 4, 2)
    try:
        inst = generate.make_instances(3, 4, "serve")[1]
        body = json.dumps({"prompt": "Reason through the problem step by step", "image_ref": inst["image_ref"]})
        conn = http.client.HTTPConnection(stub.url.split("//")[1], timeout=30)
        replies = []
        for _ in range(2):
            conn.request("POST", "/v1/generate", body=body, headers={"Content-Type": "application/json"})
            replies.append(json.loads(conn.getresponse().read()))
        conn.close()
        stats = stub.stats()
    finally:
        stub.stop()
    assert replies[0] == replies[1]
    assert replies[0]["text"] == inst["cot"]["text"]
    assert (stats["requests"], stats["connections"]) == (2, 1)
    assert stats["request_bytes"] == 2 * len(body)


def _originals():
    found = {}
    for module_name, attr_path, *_ in tracing.TARGETS:
        owner = __import__(module_name, fromlist=["_"])
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        found[(module_name, attr_path)] = inspect.getattr_static(owner, attr)
    return found


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    before = _originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert training.forward is not before[("gatemix.training", "forward")]
        _run_workload(workloads.Sweep, tmp_path, tracer, n_instances=20)
    finally:
        tracer.restore()
    after = _originals()
    assert all(after[key] is before[key] for key in before)
    assert tracer.missing == []
    names = {s[2] for s in tracer.spans}
    assert {"verify.score_response", "evalharness.cache_get", "backend.mock_generate"} <= names


def test_a_missing_target_reports_zero_calls(tmp_path):
    targets = tracing.TARGETS + (
        ("gatemix.training", "no_such_function", "connector.gone", None, None),
        ("gatemix.no_such_module", "anything", "backend.gone", None, None),
    )
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        w = _run_workload(workloads.Align, tmp_path, tracer, train_steps=2)
    finally:
        tracer.restore()
    assert tracer.missing == ["gatemix.training.no_such_function", "gatemix.no_such_module.anything"]
    assert not hasattr(training, "no_such_function")
    ctx = {"reps": 1, "traced": {"a": [1.0], "b": [1.0]}, "untraced": {"a": [1.0], "b": [1.0]},
           "gradcheck_evals": w.gradcheck_evals}
    metrics = layers.compute(tracer.spans, ctx)
    assert metrics["tensor.tape_records"]["value"] == 473
    assert metrics["tensor.gradcheck_tape_records"]["value"] == 137
    assert metrics["connector.forward_calls"]["value"] == 16
    assert metrics["backend.round_trip_ms_p50"]["value"] == 0.0
    empty = layers.compute([], ctx)
    assert empty["connector.forward_calls"]["value"] == 0.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS.items())
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "peak_rss_mb", "phase_a_rel", "phase_b_rel"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "align", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
