"""Eval harness tests: loading, the three strategies, error containment,
the alpha sweep with trace caching, and report emission."""

import base64
import dataclasses
import json
import math
import random
import struct
from pathlib import Path

import pytest

from gatemix import backend as backend_module
from gatemix import evalharness
from gatemix.backend import (BackendError, BackendRequest, GenerationTrace, MockBackend,
                             dual_generate, trace_from_dict, trace_to_dict)
from gatemix.evalharness import (
    BenchmarkInstance,
    BenchmarkValidationError,
    EmptyBenchmarkError,
    TraceCache,
    alpha_sweep,
    default_alpha_grid,
    emit_report,
    load_benchmark,
    run_eval,
)

from conftest import make_trace

FLOAT_FIELDS = ("token_logprobs", "img_rep", "txt_rep")


def _packed(values) -> str:
    """A cache entry's float field: base64 of little-endian float64 bytes."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


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
        assert serial.to_dict() == parallel.to_dict()

    def test_invalid_strategy_rejected(self, easy_hard_backend, easy_hard_instances):
        with pytest.raises(ValueError):
            run_eval(easy_hard_backend, easy_hard_instances, "beam")


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
        cache_dir = tmp_path / "traces"
        alpha_sweep(sweep_backend, sweep_instances, cache_dir=cache_dir)
        files = sorted(p.name for p in cache_dir.iterdir())
        assert files == sorted(f"{inst.id}.json" for inst in sweep_instances)
        entry = json.loads((cache_dir / files[0]).read_text())
        assert sorted(entry) == ["cot", "direct", "image_ref", "question", "request_digest"]
        inst = next(i for i in sweep_instances if f"{i.id}.json" == files[0])
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
        assert len(list(tmp_path.iterdir())) == stored == 44

    def test_truncated_cache_file_is_regenerated(self, sweep_backend, sweep_instances, tmp_path):
        cache_dir = tmp_path / "traces"
        fresh = alpha_sweep(sweep_backend, sweep_instances, cache_dir=cache_dir)
        torn = cache_dir / "swp2.json"
        intact = torn.read_text()
        torn.write_text(intact[: len(intact) // 2])
        assert alpha_sweep(sweep_backend, sweep_instances, cache_dir=cache_dir) == fresh
        assert torn.read_text() == intact

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
    def test_request_digest_is_pinned(self):
        """What ``dual_generate`` sends for a fixed instance, both prompts
        and decoding configs; a change to either would turn every cached
        entry into a miss."""
        assert evalharness._request_digest("img-e1", "question e1") == (
            "5ffca97c722d22c650b7f4daa52c20600eb31cdd981fe88548b407cc4ab6625c")

    def test_awkward_ids_are_safe_filenames(self, tmp_path):
        cache = TraceCache(tmp_path)
        pair = (make_trace("A", 0.5, 0.5, "direct"), make_trace("The answer is B.", 0.3, 0.7, "cot"))
        cache.put("weird/id:1", "img", "q?", *pair)
        assert [p.name for p in tmp_path.iterdir()] == ["weird%2Fid%3A1.json"]
        assert TraceCache(tmp_path).get("weird/id:1", "img", "q?") == pair

    def test_failed_write_keeps_the_old_entry(self, tmp_path, monkeypatch):
        old = (make_trace("A", 0.5, 0.5, "direct"), make_trace("A", 0.5, 0.5, "cot"))
        TraceCache(tmp_path).put("i1", "img", "q?", *old)

        def failing_replace(src, dst):
            assert Path(src).read_text()  # the new entry was written in full first
            raise OSError("disk full")

        monkeypatch.setattr(evalharness.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            TraceCache(tmp_path).put("i1", "img", "q?", make_trace("B", 0.5, 0.5, "direct"),
                                     make_trace("B", 0.5, 0.5, "cot"))
        assert TraceCache(tmp_path).get("i1", "img", "q?") == old
        assert [p.name for p in tmp_path.iterdir()] == ["i1.json"]

    def test_successful_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        unlinked = []
        monkeypatch.setattr(Path, "unlink", lambda self, **kw: unlinked.append(self))
        TraceCache(tmp_path).put("i1", "img", "q?", make_trace("A", 0.5, 0.5, "direct"),
                                 make_trace("A", 0.5, 0.5, "cot"))
        assert [p.name for p in tmp_path.iterdir()] == ["i1.json"]
        assert unlinked == []

    @pytest.mark.parametrize("content", ["", "{\"text\": ", "[]", "{}",
                                         '{"text": "A", "token_logprobs": [NaN]}', '"text"'])
    def test_unreadable_entry_is_a_miss(self, tmp_path, content):
        (tmp_path / "i1.json").write_text(content)
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
        path = tmp_path / "i1.json"
        entry = json.loads(path.read_text())
        if key in entry:
            entry[key] = value
        elif isinstance(value, list):
            with pytest.raises(ValueError):
                trace_from_dict({**trace_to_dict(direct), key: value})
            entry["direct"][key] = _packed(value)
        else:
            entry["direct"][key] = value
        path.write_text(json.dumps(entry))
        assert TraceCache(tmp_path).get("i1", "img", "q?") is None

    def test_number_list_entry_is_overwritten(self, sweep_backend, sweep_instances, tmp_path):
        """An entry holding its floats as JSON number lists, the format
        before packing, is a miss: the next sweep regenerates and rewrites
        it."""
        fresh = alpha_sweep(sweep_backend, sweep_instances, cache_dir=tmp_path)
        inst = sweep_instances[0]
        path = tmp_path / f"{inst.id}.json"
        packed = path.read_bytes()
        entry = json.loads(packed)
        direct, cot = dual_generate(sweep_backend, inst.image_ref, inst.question)
        entry.update(direct=trace_to_dict(direct), cot=trace_to_dict(cot))
        path.write_text(json.dumps(entry, sort_keys=True, separators=(",", ":")))
        assert TraceCache(tmp_path).get(inst.id, inst.image_ref, inst.question) is None
        assert alpha_sweep(sweep_backend, sweep_instances, cache_dir=tmp_path) == fresh
        assert path.read_bytes() == packed

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

    def test_rewrite_is_byte_identical(self, tmp_path):
        pair = (make_trace("A", 0.3, 0.9, "direct"), make_trace("The answer is C.", 0.8, 0.2, "cot"))
        TraceCache(tmp_path / "a").put("i1", "img", "q?", *pair)
        first = (tmp_path / "a" / "i1.json").read_bytes()
        TraceCache(tmp_path / "a").put("i1", "img", "q?", *pair)
        TraceCache(tmp_path / "b").put("i1", "img", "q?", *pair)
        assert (tmp_path / "a" / "i1.json").read_bytes() == first
        assert (tmp_path / "b" / "i1.json").read_bytes() == first

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


class TestEmitReport:
    def test_roundtrip(self, easy_hard_backend, easy_hard_instances, tmp_path):
        report = run_eval(easy_hard_backend, easy_hard_instances, "sv")
        path = tmp_path / "report.json"
        emit_report(report, path)
        assert json.loads(path.read_text()) == report.to_dict()

    def test_text_table_prints_four_decimals(self, easy_hard_backend, easy_hard_instances, tmp_path):
        report = run_eval(easy_hard_backend, easy_hard_instances, "sv")
        emit_report(report, tmp_path / "report.json")
        text = (tmp_path / "report.txt").read_text()
        assert "1.0000" in text
        assert "sv" in text

    def test_emission_is_bit_stable(self, easy_hard_backend, easy_hard_instances, tmp_path):
        report = run_eval(easy_hard_backend, easy_hard_instances, "sv")
        emit_report(report, tmp_path / "a.json")
        emit_report(report, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
