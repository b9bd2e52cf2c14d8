"""Eval harness tests: loading, the three strategies, error containment,
the alpha sweep with trace caching, and report emission."""

import base64
import dataclasses
import hashlib
import json
import math
import os
import random
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from gatemix import backend as backend_module
from gatemix import cli, evalharness
from gatemix.backend import (BackendError, BackendRequest, GenerationTrace, MockBackend,
                             build_prompt, dual_generate, trace_from_dict, trace_to_dict)
from gatemix.evalharness import (
    BenchmarkInstance,
    BenchmarkValidationError,
    EmptyBenchmarkError,
    EvalReport,
    TraceCache,
    alpha_sweep,
    default_alpha_grid,
    load_benchmark,
    run_eval,
)

from conftest import FIXTURES, make_trace

FLOAT_FIELDS = ("token_logprobs", "img_rep", "txt_rep")


def _packed(values) -> str:
    """A cache entry's float field: base64 of little-endian float64 bytes."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def _log(cache_dir) -> list:
    """The trace log's lines as ``(id, entry text)`` pairs, in log order."""
    lines = (Path(cache_dir) / "traces.jsonl").read_text().split("\n")
    assert lines.pop() == ""
    return [(json.loads(key), entry) for key, entry in (line.split("\t", 1) for line in lines)]


def _write_log(cache_dir, lines) -> None:
    """Replace the trace log with ``(id, entry text)`` lines."""
    (Path(cache_dir) / "traces.jsonl").write_text(
        "".join(f"{json.dumps(key)}\t{entry}\n" for key, entry in lines))


class _Counting:
    """Delegates to ``inner`` and counts the ``generate`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def generate(self, req):
        self.calls += 1
        return self.inner.generate(req)


class _FailingFor:
    """Delegates to ``inner`` except for the listed image refs, which fail."""

    def __init__(self, inner, failing):
        self.inner = inner
        self.failing = set(failing)

    def generate(self, req):
        if req.image_ref in self.failing:
            raise BackendError("service down")
        return self.inner.generate(req)


@pytest.fixture()
def mixed_backend_and_instances():
    """50 seeded instances: lettered and free-text items, agreeing and
    disagreeing branches with random scores, and every ninth failing."""
    rng = random.Random(7)
    entries, instances = {}, []
    for k in range(50):
        free_text = rng.random() < 0.3
        options = [] if free_text else [["A", "cat"], ["B", "dog"], ["C", "fish"]]
        answers = ["7", "8", "nine"] if free_text else ["A", "B", "C"]
        direct, cot = rng.choice(answers), rng.choice(answers)
        entries[(f"img{k}", f"q{k}", "direct")] = make_trace(
            direct, rng.random(), rng.uniform(0.05, 1.0), "direct")
        entries[(f"img{k}", f"q{k}", "cot")] = make_trace(
            f"The answer is {cot}.", rng.random(), rng.uniform(0.05, 1.0), "cot")
        instances.append(BenchmarkInstance(id=f"m{k}", image_ref=f"img{k}", question=f"q{k}",
                                           options=options, gold_answer=rng.choice(answers)))
    backend = _FailingFor(MockBackend(entries=entries), {f"img{k}" for k in range(0, 50, 9)})
    return backend, instances


class TestLoadBenchmark:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        rows = [
            {"id": f"i{k}", "image_ref": f"img{k}", "question": "q?",
             "options": [["A", "x"], ["B", "y"]], "gold_answer": "A"}
            for k in range(3)
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        instances, errors = load_benchmark(path)
        assert len(instances) == 3 and errors == []

    def test_partial_validity(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        good = {"id": "ok", "image_ref": "img", "question": "q?", "options": [],
                "gold_answer": "42"}
        bad = {"id": "bad", "image_ref": "img", "question": "q?", "options": []}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        instances, errors = load_benchmark(path)
        assert [i.id for i in instances] == ["ok"]
        assert len(errors) == 1 and "line 2" in errors[0]

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        good = {"id": "ok", "image_ref": "img", "question": "q?", "options": [],
                "gold_answer": "42"}
        path.write_text("\n" + json.dumps(good) + "\n  \nnot json\n\n")
        instances, errors = load_benchmark(path)
        assert [i.id for i in instances] == ["ok"]
        assert len(errors) == 1 and errors[0].startswith("line 4: ")

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        row = {"id": "dup", "image_ref": "img", "question": "q?", "options": [],
               "gold_answer": "x"}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(BenchmarkValidationError, match="dup"):
            load_benchmark(path)

    def test_zero_valid_instances(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text("not json\n")
        with pytest.raises(EmptyBenchmarkError):
            load_benchmark(path)

    # a string is not a pair: "AB" must not load as option A with text "B"
    @pytest.mark.parametrize("options", [["AB", "CD"], [["A", "x"], "BC"], [["A", "x", "extra"]]],
                             ids=["strings", "pair-and-string", "triple"])
    def test_option_must_be_a_pair(self, tmp_path, options):
        path = tmp_path / "bench.jsonl"
        good = {"id": "ok", "image_ref": "img", "question": "q?",
                "options": [["A", "x"], ["B", "y"]], "gold_answer": "A"}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "bad", "options": options}) + "\n")
        instances, errors = load_benchmark(path)
        assert [i.id for i in instances] == ["ok"]
        assert instances[0].options == [("A", "x"), ("B", "y")]
        assert len(errors) == 1 and "line 2" in errors[0] and "pair" in errors[0]

    @pytest.mark.parametrize("field, value", [
        ("id", 7), ("image_ref", ["x"]), ("question", None), ("gold_answer", None),
        ("split", 1), ("option letter", None), ("option text", None), ("options", ""),
        ("options", {}),
    ])
    def test_fields_must_be_json_strings(self, tmp_path, field, value):
        """A non-string field skips its line; it is not turned into text
        such as ``'None'`` or ``"['x']"``."""
        path = tmp_path / "bench.jsonl"
        good = {"id": "ok", "image_ref": "img", "question": "q?",
                "options": [["A", "x"], ["B", "y"]], "gold_answer": "A", "split": "test"}
        bad = {**good, "id": "bad", "options": []}  # a free-text gold has no letter to miss
        if field.startswith("option "):
            bad["options"] = [["A", "x"], ["B", value] if field == "option text" else [value, "y"]]
        else:
            bad[field] = value
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        instances, errors = load_benchmark(path)
        assert [i.id for i in instances] == ["ok"]
        assert len(errors) == 1 and errors[0].startswith("line 2: ")
        assert ("list" if field == "options" else "string") in errors[0]

    @pytest.mark.parametrize("key", ["optons", "splt"])
    def test_unknown_key_skips_its_line(self, tmp_path, key):
        """A misspelt key is not dropped: "optons" would load the item as
        free text with the gold 'A'."""
        path = tmp_path / "bench.jsonl"
        good = {"id": "ok", "image_ref": "img", "question": "q?",
                "options": [["A", "x"], ["B", "y"]], "gold_answer": "A"}
        bad = {**good, "id": "bad"}
        bad[key] = bad.pop("options") if key == "optons" else "train"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        instances, errors = load_benchmark(path)
        assert [i.id for i in instances] == ["ok"]
        assert errors == [f"line 2: unknown benchmark key {key!r}"]

    @pytest.mark.parametrize("gold, letter", [("b", "B"), (" B ", "B"), ("SS", "ß")],
                             ids=["lower-case", "padded", "case-fold"])
    def test_gold_letter_matches_as_answers_do(self, gold, letter):
        inst = BenchmarkInstance("i", "img", "q?", [("A", "x"), (letter, "y")], gold)
        assert inst.gold_answer == gold

    def test_gold_must_be_an_option_letter(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        row = {"id": "x", "image_ref": "img", "question": "q?",
               "options": [["A", "t"]], "gold_answer": "Z"}
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(EmptyBenchmarkError):
            load_benchmark(path)


class TestRunEval:
    def test_easy_hard_scenario(self, easy_hard_backend, easy_hard_instances):
        # the constructed fixture: each strategy alone gets half, the
        # decision rule routes every instance to its better branch
        direct = run_eval(easy_hard_backend, easy_hard_instances, "direct")
        cot = run_eval(easy_hard_backend, easy_hard_instances, "cot")
        sv = run_eval(easy_hard_backend, easy_hard_instances, "sv", alpha=0.7)
        assert direct.accuracy == 0.5
        assert cot.accuracy == 0.5
        assert sv.accuracy == 1.0
        assert sv.accuracy >= max(direct.accuracy, cot.accuracy)

    def test_sv_branch_counts_sum_to_n(self, easy_hard_backend, easy_hard_instances):
        report = run_eval(easy_hard_backend, easy_hard_instances, "sv")
        assert sum(report.branch_counts.values()) == report.n_instances
        assert report.branch_counts["cot-by-agreement"] == 0

    def test_free_text_gold_exact_trim_match(self):
        backend = MockBackend(
            entries={
                ("img", "q?", "direct"): make_trace("  42 ", 0.5, 0.5, "direct"),
                ("img", "q?", "cot"): make_trace("the answer is 42", 0.5, 0.5, "cot"),
            }
        )
        from gatemix.evalharness import BenchmarkInstance

        inst = BenchmarkInstance(id="ft", image_ref="img", question="q?",
                                 options=[], gold_answer="42")
        report = run_eval(backend, [inst], "sv")
        assert report.accuracy == 1.0
        assert report.records[0]["branch"] == "cot-by-agreement"

    def test_backend_errors_contained(self, easy_hard_instances):
        class FailingBackend:
            def generate(self, req: BackendRequest):
                raise BackendError("service down")

        report = run_eval(FailingBackend(), easy_hard_instances, "sv")
        assert report.accuracy == 0.0
        assert report.branch_counts["error"] == len(easy_hard_instances)
        assert all(r["error"] for r in report.records)

    def test_programming_errors_propagate(self, easy_hard_instances):
        class BuggyBackend:
            def generate(self, req: BackendRequest):
                raise TypeError("a bug, not a service failure")

        with pytest.raises(TypeError, match="a bug"):
            run_eval(BuggyBackend(), easy_hard_instances, "sv")

    @pytest.mark.parametrize("strategy, down", [("direct", "cot"), ("cot", "direct")])
    def test_lone_branch_sends_one_request_per_instance(self, easy_hard_backend,
                                                       easy_hard_instances, strategy, down):
        """Without a cache a direct or cot eval requests only its own branch,
        so a failing other branch costs it neither requests nor accuracy."""
        class OneModeDown:
            def generate(self, req):
                if req.prompt_mode == down:
                    raise BackendError("service down")
                return easy_hard_backend.generate(req)

        backend = _Counting(OneModeDown())
        report = run_eval(backend, easy_hard_instances, strategy)
        assert backend.calls == len(easy_hard_instances) == 4
        assert report.accuracy == 0.5
        assert [r["error"] for r in report.records] == [None] * 4

    @pytest.mark.parametrize("strategy", ["direct", "cot", "sv"])
    def test_branch_records_hold_answer_and_scores_only(self, easy_hard_backend,
                                                        easy_hard_instances, strategy):
        for record in run_eval(easy_hard_backend, easy_hard_instances, strategy).records:
            branches = [b for b in ("direct", "cot") if b in record]
            assert branches == (["direct", "cot"] if strategy == "sv" else [strategy])
            for b in branches:
                assert set(record[b]) == {"answer", "s", "c", "sc"}

    def test_order_independence(self, easy_hard_backend, easy_hard_instances):
        shuffled = list(reversed(easy_hard_instances))
        a = run_eval(easy_hard_backend, easy_hard_instances, "sv").accuracy
        b = run_eval(easy_hard_backend, shuffled, "sv").accuracy
        assert a == b

    def test_parallel_matches_serial(self, easy_hard_backend, easy_hard_instances):
        serial = run_eval(easy_hard_backend, easy_hard_instances, "sv", max_workers=1)
        parallel = run_eval(easy_hard_backend, easy_hard_instances, "sv", max_workers=4)
        assert serial == parallel

    def test_invalid_strategy_rejected(self, easy_hard_backend, easy_hard_instances):
        with pytest.raises(ValueError):
            run_eval(easy_hard_backend, easy_hard_instances, "beam")

    @pytest.mark.parametrize("alpha", [-0.01, 1.5, math.nan])
    def test_alpha_has_one_range_check(self, easy_hard_backend, easy_hard_instances, alpha):
        for strategy in ("direct", "sv"):
            with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
                run_eval(easy_hard_backend, easy_hard_instances, strategy, alpha=alpha)
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
            alpha_sweep(easy_hard_backend, easy_hard_instances, grid=[0.5, alpha])


class TestAlphaSweep:
    def test_default_grid_has_eleven_points(self, easy_hard_backend, easy_hard_instances):
        results = alpha_sweep(easy_hard_backend, easy_hard_instances)
        assert len(results) == 11
        assert [a for a, _ in results] == default_alpha_grid()

    def test_agreement_gives_flat_curve(self):
        backend = MockBackend(
            entries={
                ("img", "q?", "direct"): make_trace("A", 0.9, 0.1, "direct"),
                ("img", "q?", "cot"): make_trace("The answer is A.", 0.1, 0.9, "cot"),
            }
        )
        from gatemix.evalharness import BenchmarkInstance

        inst = BenchmarkInstance(id="agree", image_ref="img", question="q?",
                                 options=[["A", "x"], ["B", "y"]], gold_answer="A")
        results = alpha_sweep(backend, [inst])
        assert {acc for _, acc in results} == {1.0}

    def test_constructed_optimum_at_seven_tenths(self, sweep_backend, sweep_instances):
        results = alpha_sweep(sweep_backend, sweep_instances)
        best_alpha, best_acc = max(results, key=lambda pair: pair[1])
        assert best_alpha == 0.7
        assert best_acc == 1.0

    def test_cache_and_no_cache_agree(self, sweep_backend, sweep_instances, tmp_path):
        cached = alpha_sweep(sweep_backend, sweep_instances, cache_dir=tmp_path / "traces")
        uncached = alpha_sweep(sweep_backend, sweep_instances)
        assert cached == uncached

    @pytest.mark.parametrize("case", ["easy_hard", "sweep", "mixed"])
    def test_accuracy_equals_run_eval_at_every_point(self, case, request):
        if case == "mixed":
            backend, instances = request.getfixturevalue("mixed_backend_and_instances")
            counts = run_eval(backend, instances, "sv").branch_counts
            assert all(counts[b] > 0 for b in ("error", "cot-by-score", "direct-by-score"))
        else:
            backend = request.getfixturevalue(f"{case}_backend")
            instances = request.getfixturevalue(f"{case}_instances")
        for a, accuracy in alpha_sweep(backend, instances, max_workers=2):
            assert accuracy == run_eval(backend, instances, "sv", alpha=a).accuracy

    def test_scores_each_instance_once(self, sweep_backend, sweep_instances, monkeypatch):
        calls = []
        score = evalharness.score_response

        def counting_score(*args):
            calls.append(args)
            return score(*args)

        def no_run_eval(*args, **kwargs):
            raise AssertionError("the sweep must not re-run the evaluation")

        monkeypatch.setattr(evalharness, "score_response", counting_score)
        monkeypatch.setattr(evalharness, "run_eval", no_run_eval)
        for grid in ([0.5], default_alpha_grid()):
            calls.clear()
            alpha_sweep(sweep_backend, sweep_instances, grid=grid)
            assert len(calls) == 2 * len(sweep_instances)

    def test_disk_cache_layout(self, sweep_backend, sweep_instances, tmp_path):
        """One log per directory; each line is the JSON-quoted id, a tab and
        the compact sorted entry."""
        cache_dir = tmp_path / "traces"
        alpha_sweep(sweep_backend, sweep_instances, cache_dir=cache_dir)
        assert [p.name for p in cache_dir.iterdir()] == ["traces.jsonl"]
        lines = _log(cache_dir)
        assert [key for key, _ in lines] == [inst.id for inst in sweep_instances]
        text = lines[0][1]
        entry = json.loads(text)
        assert text == json.dumps(entry, sort_keys=True, separators=(",", ":"))
        assert sorted(entry) == ["cot", "direct", "image_ref", "question", "request_digest"]
        inst = sweep_instances[0]
        for branch, trace in zip(("direct", "cot"),
                                 dual_generate(sweep_backend, inst.image_ref, inst.question)):
            assert sorted(entry[branch]) == ["img_rep", "text", "token_logprobs", "txt_rep"]
            for name in FLOAT_FIELDS:
                assert entry[branch][name] == _packed(getattr(trace, name))

    def test_disk_cache_reused_across_sweeps(self, sweep_backend, sweep_instances, tmp_path):
        cache_dir = tmp_path / "traces"
        first = alpha_sweep(sweep_backend, sweep_instances, cache_dir=cache_dir)

        class ExplodingBackend:
            def generate(self, req):
                raise AssertionError("cache should have satisfied this request")

        second = alpha_sweep(ExplodingBackend(), sweep_instances, cache_dir=cache_dir)
        assert first == second

    def test_one_cache_get_and_put_per_instance(self, sweep_backend, sweep_instances,
                                                tmp_path, monkeypatch):
        calls = {"get": 0, "put": 0, "generate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(TraceCache, "get", counted("get", TraceCache.get))
        monkeypatch.setattr(TraceCache, "put", counted("put", TraceCache.put))
        monkeypatch.setattr(sweep_backend, "generate", counted("generate", sweep_backend.generate))
        n = len(sweep_instances)
        cold = alpha_sweep(sweep_backend, sweep_instances, cache_dir=tmp_path)
        assert calls == {"get": n, "put": n, "generate": 2 * n}
        calls.update(get=0, put=0, generate=0)
        assert alpha_sweep(sweep_backend, sweep_instances, cache_dir=tmp_path) == cold
        assert calls == {"get": n, "put": 0, "generate": 0}

    @pytest.mark.parametrize("n", [1, 4])
    def test_one_modes_digest_per_sweep(self, n, sweep_backend, sweep_instances, tmp_path,
                                        monkeypatch):
        """A sweep takes the modes digest once, whatever the number of
        instances, and whether they miss (no entry, or one made for another
        template) or hit."""
        calls = []
        digest = evalharness._modes_digest
        monkeypatch.setattr(evalharness, "_modes_digest", lambda: calls.append(1) or digest())
        backend = _Counting(sweep_backend)
        instances = sweep_instances[:n]
        template, decoding = backend_module.MODES["cot"]
        with monkeypatch.context() as patched:
            patched.setitem(backend_module.MODES, "cot", (template + " ", decoding))
            alpha_sweep(backend, instances, cache_dir=tmp_path)
        counts = [(len(calls), backend.calls)]
        for _ in ("stale", "warm"):
            alpha_sweep(backend, instances, cache_dir=tmp_path)
            counts.append((len(calls), backend.calls))
        # cold, stale and warm each take one digest; only cold and stale generate
        assert counts == [(1, 2 * n), (2, 4 * n), (3, 4 * n)]

    def test_parallel_sweep_writes_the_same_lines(self, mixed_backend_and_instances, tmp_path):
        """With two workers the lines follow completion order, but they are
        the lines one worker writes."""
        backend, instances = mixed_backend_and_instances
        logs = []
        for workers in (1, 2):
            alpha_sweep(backend, instances, max_workers=workers, cache_dir=tmp_path / str(workers))
            logs.append((tmp_path / str(workers) / "traces.jsonl").read_bytes().splitlines())
        serial, parallel = logs
        assert sorted(serial) == sorted(parallel) and len(serial) == 44

    def test_old_layout_files_are_ignored(self, sweep_backend, sweep_instances, tmp_path):
        """``<id>.json`` files of the one-file-per-instance layout are each a
        miss once, and are left as they are."""
        alpha_sweep(sweep_backend, sweep_instances, cache_dir=tmp_path / "log")
        old_dir = tmp_path / "old"
        old_dir.mkdir()
        for key, entry in _log(tmp_path / "log"):
            (old_dir / f"{key}.json").write_text(entry)
        old_files = {p.name: p.read_bytes() for p in old_dir.iterdir()}
        backend = _Counting(sweep_backend)
        alpha_sweep(backend, sweep_instances, cache_dir=old_dir)
        assert backend.calls == 2 * len(sweep_instances)
        alpha_sweep(backend, sweep_instances, cache_dir=old_dir)
        assert backend.calls == 2 * len(sweep_instances)
        assert {p.name: p.read_bytes() for p in old_dir.iterdir() if p.suffix == ".json"} == old_files
        assert (old_dir / "traces.jsonl").read_bytes() == (tmp_path / "log" / "traces.jsonl").read_bytes()

    def test_cached_traces_read_back_exactly(self, mixed_backend_and_instances, tmp_path):
        backend, instances = mixed_backend_and_instances
        alpha_sweep(backend, instances, max_workers=2, cache_dir=tmp_path)
        cache = TraceCache(tmp_path)
        stored = 0
        for inst in instances:
            try:
                generated = dual_generate(backend, inst.image_ref, inst.question)
            except BackendError:
                assert cache.get(inst.id, inst.image_ref, inst.question) is None
                continue
            assert cache.get(inst.id, inst.image_ref, inst.question) == generated
            stored += 1
        assert [p.name for p in tmp_path.iterdir()] == ["traces.jsonl"]
        lines = _log(tmp_path)
        assert len(lines) == len(dict(lines)) == stored == 44

    def test_truncated_cache_file_is_regenerated(self, sweep_backend, sweep_instances, tmp_path):
        """An entry cut short is regenerated, and its id's last line is
        then the intact entry again."""
        cache_dir = tmp_path / "traces"
        fresh = alpha_sweep(sweep_backend, sweep_instances, cache_dir=cache_dir)
        lines = _log(cache_dir)
        intact = dict(lines)["swp2"]
        _write_log(cache_dir, [(key, entry[: len(entry) // 2] if key == "swp2" else entry)
                               for key, entry in lines])
        assert alpha_sweep(sweep_backend, sweep_instances, cache_dir=cache_dir) == fresh
        assert dict(_log(cache_dir))["swp2"] == intact

    @pytest.mark.parametrize("changed", ["question", "image_ref"])
    def test_stale_entry_is_regenerated(self, changed, tmp_path):
        """Reusing a cache dir after the benchmark's questions (or images)
        changed must give the fresh answers, not the stale traces'."""
        entries = {}
        for image_ref, question, answer in (("img", "old?", "A"), ("img", "new?", "B"),
                                            ("img2", "old?", "B")):
            entries[(image_ref, question, "direct")] = make_trace(answer, 0.5, 0.5, "direct")
            entries[(image_ref, question, "cot")] = make_trace(
                f"The answer is {answer}.", 0.5, 0.5, "cot")
        backend = MockBackend(entries=entries)
        options = [["A", "x"], ["B", "y"]]
        old = BenchmarkInstance(id="i1", image_ref="img", question="old?",
                                options=options, gold_answer="B")
        new = BenchmarkInstance(id="i1", image_ref="img2" if changed == "image_ref" else "img",
                                question="old?" if changed == "image_ref" else "new?",
                                options=options, gold_answer="B")
        assert {acc for _, acc in alpha_sweep(backend, [old], cache_dir=tmp_path)} == {0.0}
        assert {acc for _, acc in alpha_sweep(backend, [new], cache_dir=tmp_path)} == {1.0}
        assert TraceCache(tmp_path).get("i1", new.image_ref, new.question) == dual_generate(
            backend, new.image_ref, new.question)

    def test_grid_values_validated(self, sweep_backend, sweep_instances):
        with pytest.raises(ValueError):
            alpha_sweep(sweep_backend, sweep_instances, grid=[0.5, 1.5])


class TestTraceCache:
    def test_request_digest_is_pinned(self, tmp_path):
        """The digest of every mode's template and decoding config that each
        entry carries; a change to either would turn every cached entry
        into a miss."""
        TraceCache(tmp_path).put("i1", "img", "q?", make_trace("A", 0.5, 0.5, "direct"),
                                 make_trace("A", 0.5, 0.5, "cot"))
        [(_, text)] = _log(tmp_path)
        assert json.loads(text)["request_digest"] == evalharness._modes_digest() == (
            "7d09f31b4dd4cace36caad80bbfae69403ab6bad5996ec20f97f8cefb5835b9b")

    def test_per_instance_digest_entry_is_rewritten(self, sweep_backend, sweep_instances,
                                                    tmp_path):
        """An entry stamped with the earlier per-instance digest of both
        built prompts and decoding configs is a miss once; the next sweep
        rewrites it with the modes digest and the one after hits."""
        def per_instance_digest(question):
            sent = [(build_prompt(question, mode), decoding)
                    for mode, (_, decoding) in backend_module.MODES.items()]
            return hashlib.sha256(repr(sent).encode("utf-8")).hexdigest()

        assert per_instance_digest("question e1") == (
            "5ffca97c722d22c650b7f4daa52c20600eb31cdd981fe88548b407cc4ab6625c")
        fresh = alpha_sweep(sweep_backend, sweep_instances, cache_dir=tmp_path)
        lines = _log(tmp_path)
        inst = sweep_instances[0]
        entry = json.loads(dict(lines)[inst.id])
        entry["request_digest"] = per_instance_digest(inst.question)
        old = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        _write_log(tmp_path, [(key, old if key == inst.id else text) for key, text in lines])
        backend = _Counting(sweep_backend)
        assert alpha_sweep(backend, sweep_instances, cache_dir=tmp_path) == fresh
        assert backend.calls == 2
        assert dict(_log(tmp_path)) == dict(lines)
        assert alpha_sweep(backend, sweep_instances, cache_dir=tmp_path) == fresh
        assert backend.calls == 2

    def test_awkward_ids_are_safe_filenames(self, tmp_path):
        """An id holding a slash, a colon, a tab, a newline, a quote or a
        non-ASCII letter is one line of the log and reads back."""
        cache = TraceCache(tmp_path)
        pair = (make_trace("A", 0.5, 0.5, "direct"), make_trace("The answer is B.", 0.3, 0.7, "cot"))
        ids = ["weird/id:1", "tab\tid", "new\nline", 'quo"te', "na\u00efve"]
        for instance_id in ids:
            cache.put(instance_id, "img", "q?", *pair)
        assert [p.name for p in tmp_path.iterdir()] == ["traces.jsonl"]
        assert [key for key, _ in _log(tmp_path)] == ids
        reopened = TraceCache(tmp_path)
        assert [reopened.get(instance_id, "img", "q?") for instance_id in ids] == [pair] * len(ids)

    def test_failed_write_keeps_the_old_entry(self, tmp_path, monkeypatch):
        """A write that stops part-way, as on a full disk, leaves the id's
        earlier entry readable: in this cache, in a new one, and after a
        later put has closed the torn line."""
        old = (make_trace("A", 0.5, 0.5, "direct"), make_trace("A", 0.5, 0.5, "cot"))
        cache = TraceCache(tmp_path)
        cache.put("i1", "img", "q?", *old)
        write = os.write

        def half_write(fd, data):
            assert data.endswith(b"}\n") and data.count(b"\n") == 1  # one whole line
            return write(fd, data[: len(data) // 2])

        with monkeypatch.context() as patched:
            patched.setattr(evalharness.os, "write", half_write)
            with pytest.raises(OSError, match="wrote"):
                cache.put("i1", "img", "q?", make_trace("B", 0.5, 0.5, "direct"),
                          make_trace("B", 0.5, 0.5, "cot"))
        assert cache.get("i1", "img", "q?") == old
        assert TraceCache(tmp_path).get("i1", "img", "q?") == old
        cache.put("i2", "img", "q?", *old)
        reopened = TraceCache(tmp_path)
        assert reopened.get("i1", "img", "q?") == reopened.get("i2", "img", "q?") == old
        assert [p.name for p in tmp_path.iterdir()] == ["traces.jsonl"]

    def test_successful_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A put creates, renames and deletes no file: it is one write of
        one whole line to the log."""
        unlinked, writes = [], []
        write = os.write

        def no_replace(src, dst):
            raise AssertionError("a put replaces no file")

        monkeypatch.setattr(Path, "unlink", lambda self, **kw: unlinked.append(self))
        monkeypatch.setattr(evalharness.os, "replace", no_replace)
        monkeypatch.setattr(evalharness.os, "write", lambda fd, data: writes.append(data) or write(fd, data))
        cache = TraceCache(tmp_path)
        for instance_id in ("i1", "i2"):
            cache.put(instance_id, "img", "q?", make_trace("A", 0.5, 0.5, "direct"),
                      make_trace("A", 0.5, 0.5, "cot"))
        assert [p.name for p in tmp_path.iterdir()] == ["traces.jsonl"]
        assert unlinked == []
        assert [w.count(b"\n") for w in writes] == [1, 1]
        assert b"".join(writes) == (tmp_path / "traces.jsonl").read_bytes()

    @pytest.mark.parametrize("content", ["", "{\"text\": ", "[]", "{}",
                                         '{"text": "A", "token_logprobs": [NaN]}', '"text"'])
    def test_unreadable_entry_is_a_miss(self, tmp_path, content):
        _write_log(tmp_path, [("i1", content)])
        assert TraceCache(tmp_path).get("i1", "img", "q?") is None

    @pytest.mark.parametrize("key, value", [
        ("direct", []),
        ("cot", "The answer is A."),
        ("question", None),
        ("img_rep", [1.0, 0.0, 0.0]),  # unequal rep lengths
        ("img_rep", [0.0, 0.0]),  # all-zero rep
        ("txt_rep", []),  # empty rep
        ("token_logprobs", [math.nan]),
        ("token_logprobs", [0.5]),
        pytest.param("token_logprobs", base64.b64encode(struct.pack("<d", -0.5) + bytes(4)).decode(),
                     id="token_logprobs-12-bytes"),
        pytest.param("token_logprobs", "!" + _packed([-0.5]), id="token_logprobs-not-base64"),
        pytest.param("request_digest", "0" * 64, id="request_digest-other"),
        # a slot names its mode; a trace key that says otherwise, as the
        # entries of earlier versions did, is unknown
        pytest.param("prompt_mode", "cot", id="prompt_mode-in-slot"),
        pytest.param("img_reps", _packed([1.0, 0.0]), id="misspelt-key"),
    ])
    def test_invalid_entry_is_a_miss(self, tmp_path, key, value):
        """A float list given for a trace field is written packed, so the
        entry is well formed and misses on the trace rule the values break;
        a string is written as it is."""
        direct = make_trace("A", 0.5, 0.5, "direct")
        TraceCache(tmp_path).put("i1", "img", "q?", direct, make_trace("A", 0.5, 0.5, "cot"))
        [(_, text)] = _log(tmp_path)
        entry = json.loads(text)
        if key in entry:
            entry[key] = value
        elif isinstance(value, list):
            with pytest.raises(ValueError):
                trace_from_dict({**trace_to_dict(direct), key: value})
            entry["direct"][key] = _packed(value)
        else:
            entry["direct"][key] = value
        _write_log(tmp_path, [("i1", json.dumps(entry))])
        assert TraceCache(tmp_path).get("i1", "img", "q?") is None

    def test_number_list_entry_is_overwritten(self, sweep_backend, sweep_instances, tmp_path):
        """An entry holding its floats as JSON number lists, the format
        before packing, is a miss: the next sweep regenerates and rewrites
        it."""
        fresh = alpha_sweep(sweep_backend, sweep_instances, cache_dir=tmp_path)
        inst = sweep_instances[0]
        lines = _log(tmp_path)
        packed = dict(lines)[inst.id]
        entry = json.loads(packed)
        direct, cot = dual_generate(sweep_backend, inst.image_ref, inst.question)
        entry.update(direct=trace_to_dict(direct), cot=trace_to_dict(cot))
        listed = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        _write_log(tmp_path, [(key, listed if key == inst.id else text) for key, text in lines])
        assert TraceCache(tmp_path).get(inst.id, inst.image_ref, inst.question) is None
        assert alpha_sweep(sweep_backend, sweep_instances, cache_dir=tmp_path) == fresh
        assert dict(_log(tmp_path))[inst.id] == packed

    def test_floats_round_trip_exactly(self, tmp_path):
        rng = random.Random(11)
        edge = GenerationTrace(text="A", token_logprobs=(-0.0, -5e-324), img_rep=(-0.0, 5e-324),
                               txt_rep=(5e-324, -0.0))
        long = GenerationTrace(text="The answer is B.",
                               token_logprobs=[-rng.expovariate(0.5) for _ in range(200)],
                               img_rep=(rng.gauss(0, 1), -0.0, 1e-310),
                               txt_rep=(rng.gauss(0, 1), 5e-324, -1.7976931348623157e308))
        TraceCache(tmp_path).put("i1", "img", "q?", edge, long)
        got = TraceCache(tmp_path).get("i1", "img", "q?")
        assert got == (edge, long)
        for want, have in zip((edge, long), got):
            for name in FLOAT_FIELDS:
                assert [x.hex() for x in getattr(have, name)] == [x.hex() for x in getattr(want, name)]

    def test_hit_traces_are_read_only(self, tmp_path):
        empty = GenerationTrace(text="", token_logprobs=(), img_rep=(1.0, 0.0), txt_rep=(0.0, 1.0))
        pair = (empty, make_trace("The answer is C.", 0.8, 0.2, "cot"))
        TraceCache(tmp_path).put("i1", "img", "q?", *pair)
        got = TraceCache(tmp_path).get("i1", "img", "q?")
        assert got == pair
        for trace in got:
            for name in ("img_rep", "txt_rep"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(trace, name)[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            got[1].token_logprobs[0] = -0.5

    def test_rewrite_is_byte_identical(self, tmp_path):
        pair = (make_trace("A", 0.3, 0.9, "direct"), make_trace("The answer is C.", 0.8, 0.2, "cot"))
        TraceCache(tmp_path / "a").put("i1", "img", "q?", *pair)
        first = (tmp_path / "a" / "traces.jsonl").read_bytes()
        TraceCache(tmp_path / "a").put("i1", "img", "q?", *pair)
        TraceCache(tmp_path / "b").put("i1", "img", "q?", *pair)
        assert (tmp_path / "a" / "traces.jsonl").read_bytes() == first
        assert (tmp_path / "b" / "traces.jsonl").read_bytes() == first

    @pytest.mark.parametrize("change", ["template", "max_tokens"])
    def test_entry_made_for_other_requests_is_a_miss(self, change, tmp_path, monkeypatch):
        """An entry written while a prompt template or a decoding config
        differed from today's must not be served."""
        pair = (make_trace("A", 0.5, 0.5, "direct"), make_trace("The answer is B.", 0.5, 0.5, "cot"))
        template, decoding = backend_module.MODES["cot"]
        if change == "template":
            template = template.replace("step by step", "carefully")
        else:
            decoding = dataclasses.replace(decoding, max_tokens=77)
        with monkeypatch.context() as patched:
            patched.setitem(backend_module.MODES, "cot", (template, decoding))
            TraceCache(tmp_path).put("i1", "img", "q?", *pair)
            assert TraceCache(tmp_path).get("i1", "img", "q?") == pair
        assert TraceCache(tmp_path).get("i1", "img", "q?") is None


class TestTraceLog:
    """Failure modes of the append-only log itself."""

    OLD = (make_trace("A", 0.5, 0.5, "direct"), make_trace("The answer is A.", 0.5, 0.5, "cot"))
    NEW = (make_trace("B", 0.5, 0.5, "direct"), make_trace("The answer is B.", 0.5, 0.5, "cot"))

    @pytest.mark.parametrize("cut", ["half", "all-but-newline"])
    @pytest.mark.parametrize("torn_id", ["i1", "i3"])
    def test_torn_final_line_is_never_read(self, tmp_path, cut, torn_id):
        """A crash mid-append leaves a last line with no newline. Its id
        keeps the entry it had (i1) or misses (i3), every other entry hits,
        and the next put starts on a new line."""
        cache = TraceCache(tmp_path)
        for instance_id in ("i1", "i2"):
            cache.put(instance_id, "img", "q?", *self.OLD)
        TraceCache(tmp_path / "scratch").put(torn_id, "img", "q?", *self.NEW)
        line = (tmp_path / "scratch" / "traces.jsonl").read_bytes()
        torn = line[: len(line) // 2] if cut == "half" else line[:-1]
        log = tmp_path / "traces.jsonl"
        with open(log, "ab") as fh:
            fh.write(torn)
        before = log.read_bytes()
        expected = {"i1": self.OLD, "i2": self.OLD, "i3": None}
        reopened = TraceCache(tmp_path)
        assert {k: reopened.get(k, "img", "q?") for k in expected} == expected
        for instance_id in ("i4", "i5"):
            reopened.put(instance_id, "img", "q?", *self.NEW)
        assert log.read_bytes().startswith(before + b" \n")
        assert log.read_bytes().count(b" \n") == 1
        assert [key for key, _ in _log(tmp_path)][-2:] == ["i4", "i5"]
        final = TraceCache(tmp_path)
        expected.update(i4=self.NEW, i5=self.NEW)
        assert {k: final.get(k, "img", "q?") for k in expected} == expected

    def test_later_line_supersedes_earlier(self, tmp_path):
        cache = TraceCache(tmp_path)
        for instance_id, pair in (("i1", self.OLD), ("i2", self.OLD), ("i1", self.NEW)):
            cache.put(instance_id, "img", "q?", *pair)
        assert [key for key, _ in _log(tmp_path)] == ["i1", "i2", "i1"]
        for reader in (cache, TraceCache(tmp_path)):
            assert reader.get("i1", "img", "q?") == self.NEW
            assert reader.get("i2", "img", "q?") == self.OLD

    def test_identical_put_appends_nothing(self, tmp_path):
        log = tmp_path / "traces.jsonl"
        cache = TraceCache(tmp_path)
        sizes = []
        for pair in (self.OLD, self.OLD, self.NEW, self.NEW, self.OLD):
            cache.put("i1", "img", "q?", *pair)
            sizes.append(log.stat().st_size)
        assert sizes[0] == sizes[1] < sizes[2] == sizes[3] < sizes[4]
        assert [key for key, _ in _log(tmp_path)] == ["i1"] * 3

    def test_mostly_dead_log_is_compacted(self, tmp_path):
        """Opening a log whose dead lines hold more than half of its bytes
        rewrites it with the live lines in log order; at half or less it is
        left alone."""
        log = tmp_path / "traces.jsonl"
        cache = TraceCache(tmp_path)
        cache.put("i1", "img", "q?", *self.OLD)
        cache.put("i1", "img", "q?", *self.NEW)  # the same length: dead is exactly half
        half_dead = log.read_bytes()
        TraceCache(tmp_path)
        assert log.read_bytes() == half_dead
        cache.put("i2", "img", "q?", *self.OLD)
        cache.put("i1", "img", "q?", *self.OLD)
        with open(log, "ab") as fh:
            fh.write(b"not an id\t{}\n" + half_dead[:100])  # unreadable id, then torn
        lines = log.read_bytes().split(b"\n")
        compacted = TraceCache(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["traces.jsonl"]
        assert log.read_bytes() == lines[2] + b"\n" + lines[3] + b"\n"
        assert [key for key, _ in _log(tmp_path)] == ["i2", "i1"]
        compacted.put("i3", "img", "q?", *self.NEW)
        for reader in (compacted, TraceCache(tmp_path)):
            assert [reader.get(k, "img", "q?") for k in ("i1", "i2", "i3")] == [
                self.OLD, self.OLD, self.NEW]
        assert [key for key, _ in _log(tmp_path)] == ["i2", "i1", "i3"]

    def test_failed_compaction_leaves_the_old_log(self, tmp_path, monkeypatch):
        """A compaction whose rename fails leaves the log as it was, its
        entries still hit, and no temp file is left behind."""
        log = tmp_path / "traces.jsonl"
        cache = TraceCache(tmp_path)
        for pair in (self.OLD, self.NEW, self.OLD):  # two of three lines dead
            cache.put("i1", "img", "q?", *pair)
        before = log.read_bytes()

        def refuse(src, dst):
            raise OSError("no space left on device")

        with monkeypatch.context() as patched:
            patched.setattr(evalharness.os, "replace", refuse)
            with pytest.raises(OSError, match="no space left"):
                TraceCache(tmp_path)
        assert log.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["traces.jsonl"]
        assert TraceCache(tmp_path).get("i1", "img", "q?") == self.OLD

    def test_concurrent_puts_keep_every_line_whole(self, tmp_path):
        """Eight threads putting into one cache, with a short switch
        interval, leave one whole line per put and an index whose every
        offset is that id's line: each id has its own image ref, so a line
        read at another id's offset would miss."""
        cache = TraceCache(tmp_path)
        ids = [f"i{k}" for k in range(1000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(cache.put, k, f"img-{k}", "q?", *self.OLD) for k in ids]:
                    future.result(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(key for key, _ in _log(tmp_path)) == sorted(ids)
        for reader in (cache, TraceCache(tmp_path)):
            assert all(reader.get(k, f"img-{k}", "q?") == self.OLD for k in ids)

    def test_closed_cache_misses_and_refuses_puts(self, tmp_path):
        with TraceCache(tmp_path) as cache:
            cache.put("i1", "img", "q?", *self.OLD)
        assert cache.get("i1", "img", "q?") is None
        with pytest.raises(OSError):
            cache.put("i2", "img", "q?", *self.OLD)
        assert TraceCache(tmp_path).get("i1", "img", "q?") == self.OLD


class TestEmitReport:
    """The report artifacts ``gatemix eval`` writes."""

    def test_roundtrip(self, easy_hard_backend, easy_hard_instances, tmp_path):
        report = run_eval(easy_hard_backend, easy_hard_instances, "sv")
        path = tmp_path / "report.json"
        cli._write_json(path, report)
        assert EvalReport(**json.loads(path.read_text())) == report

    @staticmethod
    def _eval(out: Path) -> None:
        assert cli.dispatch(["eval", "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                             "--backend", f"mock:{FIXTURES / 'easy_hard_script.json'}",
                             "--out", str(out)]) == 0

    def test_text_table_prints_four_decimals(self, tmp_path, capsys):
        self._eval(tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert "1.0000" in text
        assert "sv" in text

    def test_emission_is_bit_stable(self, tmp_path, capsys):
        self._eval(tmp_path / "a")
        self._eval(tmp_path / "b")
        for name in ("report.json", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
