"""CLI tests: every subcommand end to end against mock backends, exit-code
semantics, and config-file precedence."""

import hashlib
import json
import shlex
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gatemix import cli
from gatemix.backend import BackendError, MalformedReplyError, MockBackend
from gatemix.cli import dispatch

FIXTURES = Path(__file__).parent / "fixtures"

EASY_HARD = f"mock:{FIXTURES / 'easy_hard_script.json'}"
SWEEP = f"mock:{FIXTURES / 'sweep_script.json'}"
CURATION = f"mock:{FIXTURES / 'curation_mock.json'}"
README = Path(__file__).parent.parent / "README.md"

# numpy's float warnings must not reach a user: the CLI reports a diverging
# run through its own finiteness checks.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestGradcheck:
    def test_prints_error_and_exits_zero(self, capsys):
        assert dispatch(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_impossible_tolerance_fails(self, capsys):
        # seed 35 is the one seed in 0-39 whose check misses the 1e-4 gate
        assert dispatch(["gradcheck", "--seed", "35"]) == 2
        assert "max relative error: 2.58" in capsys.readouterr().out

    def test_reads_batch_size_from_config(self, tmp_path, capsys):
        # the batch train-align checks under the same config, not the default 4
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"batch_size": 2, "seed": 1}))
        assert dispatch(["--config", str(path), "gradcheck"]) == 0
        assert capsys.readouterr().out == "max relative error: 5.977e-06 (tolerance 1e-04)\n"


class TestTrainAlign:
    def test_writes_report_and_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = dispatch(
            ["train-align", "--steps", "5", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "training_report.json").read_text())
        assert len(report["loss_curve"]) == 5
        assert "wall_time_s" not in report
        assert (out / "gatemixer.ckpt").exists()


class TestVerify:
    def test_single_instance_audit(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = dispatch(
            [
                "verify",
                "--image-ref", "img-h1",
                "--question", "question h1",
                "--option", "yes",
                "--option", "no",
                "--backend", EASY_HARD,
                "--out", str(out),
            ]
        )
        assert code == 0
        audit = json.loads((out / "verify_audit.json").read_text())
        assert audit["final_answer"] == "B"
        assert audit["chosen_branch"] == "cot-by-score"
        assert audit["alpha"] == 0.7
        assert "B" in capsys.readouterr().out

    def test_representations_whose_norms_overflow_score_s(self, tmp_path):
        # squared norms of 1e200 overflow to inf; S was written as NaN
        trace = {"token_logprobs": [-0.1], "img_rep": [1e200, 1e200], "txt_rep": [1e200, 1e200]}
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"entries": [
            {"image_ref": "i", "question": "q", "prompt_mode": "direct", "trace": {**trace, "text": "A"}},
            {"image_ref": "i", "question": "q", "prompt_mode": "cot",
             "trace": {**trace, "text": "The answer is B."}},
        ]}))
        out = tmp_path / "v"
        code = dispatch(["verify", "--image-ref", "i", "--question", "q", "--option", "yes",
                         "--option", "no", "--backend", f"mock:{script}", "--out", str(out)])
        assert code == 0
        text = (out / "verify_audit.json").read_text()
        assert "NaN" not in text
        audit = json.loads(text)
        assert audit["direct"]["s"] == audit["cot"]["s"] == pytest.approx(1.0, rel=1e-15)

    def test_more_options_than_letters_is_validation_error(self, tmp_path, capsys):
        argv = ["verify", "--image-ref", "img-h1", "--question", "question h1"]
        for i in range(27):
            argv += ["--option", f"choice {i}"]
        code = dispatch(argv + ["--backend", EASY_HARD, "--out", str(tmp_path / "v")])
        assert code == 1
        assert "at most 26 options" in capsys.readouterr().err


class TestEval:
    def test_happy_path_writes_report(self, tmp_path, capsys):
        out = tmp_path / "e"
        code = dispatch(
            [
                "eval",
                "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                "--strategy", "sv",
                "--alpha", "0.7",
                "--backend", EASY_HARD,
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["accuracy"] == 1.0
        assert (out / "report.txt").exists()
        assert capsys.readouterr().out == "sv accuracy: 1.0000 on 4 instances, 0 failed\n"

    @pytest.mark.parametrize("alpha, label", [("0.7", "0.70 "), ("0.125", "0.125")])
    def test_report_table_prints_alpha_as_the_json_holds_it(self, tmp_path, alpha, label):
        out = tmp_path / "e"
        assert dispatch(["eval", "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                         "--alpha", alpha, "--backend", EASY_HARD, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["alpha"] == float(alpha)
        row = (out / "report.txt").read_text().splitlines()[1]
        assert row.startswith(f"sv        {label}  4 ")

    def test_malformed_benchmark_line_is_a_warning(self, tmp_path, capsys):
        benchmark = tmp_path / "bench.jsonl"
        lines = (FIXTURES / "easy_hard_benchmark.jsonl").read_text().splitlines()
        benchmark.write_text("\n".join(lines[:2] + ["{not json"] + lines[2:]) + "\n")
        code = dispatch(["eval", "--benchmark", str(benchmark), "--backend", EASY_HARD,
                         "--out", str(tmp_path / "e")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: skipped line 3: ")
        assert captured.out == "sv accuracy: 1.0000 on 4 instances, 0 failed\n"

    def test_dead_service_fails_every_instance_and_exits_2(self, tmp_path, capsys):
        with socket.socket() as sock:  # a loopback port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"remote": {"retries": 1}}))
        out = tmp_path / "e"
        code = dispatch(["--config", str(config), "eval",
                         "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                         "--backend", f"remote:http://127.0.0.1:{port}/v1", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "sv accuracy: 0.0000 on 4 instances, 4 failed\n"
        assert "failure: every instance failed, the first with BackendError" in captured.err
        report = json.loads((out / "report.json").read_text())
        assert report["branch_counts"]["error"] == 4
        assert (out / "report.txt").exists()

    def test_one_failed_instance_is_counted_and_exits_0(self, tmp_path, monkeypatch, capsys):
        real = MockBackend.generate

        def flaky(backend, req):
            if req.image_ref == "img-h2":
                raise BackendError("service unavailable")
            return real(backend, req)

        monkeypatch.setattr(MockBackend, "generate", flaky)
        out = tmp_path / "e"
        code = dispatch(["eval", "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                         "--backend", EASY_HARD, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "sv accuracy: 0.7500 on 4 instances, 1 failed\n"
        report = json.loads((out / "report.json").read_text())
        assert "n_errors" not in report and report["branch_counts"]["error"] == 1

    def test_missing_benchmark_is_runtime_failure(self, tmp_path):
        code = dispatch(
            [
                "eval",
                "--benchmark", str(tmp_path / "nope.jsonl"),
                "--backend", EASY_HARD,
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2


class TestSweep:
    def test_eleven_row_table(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = dispatch(
            [
                "sweep",
                "--benchmark", str(FIXTURES / "sweep_benchmark.jsonl"),
                "--grid", "0:1:0.1",
                "--backend", SWEEP,
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 12  # header + 11 grid rows
        results = json.loads((out / "sweep.json").read_text())
        assert len(results) == 11
        best = max(results, key=lambda r: r["accuracy"])
        assert best["alpha"] == 0.7

    @pytest.mark.parametrize("grid, labels", [
        (None, [f"{i / 10:.2f}" for i in range(11)]),
        ("0:0.03:0.005", ["0.00", "0.005", "0.01", "0.015", "0.02", "0.025", "0.03"]),
    ], ids=["default", "fine"])
    def test_table_prints_alpha_as_the_json_holds_it(self, tmp_path, capsys, grid, labels):
        out = tmp_path / "s"
        argv = ["sweep", "--benchmark", str(FIXTURES / "sweep_benchmark.jsonl"),
                "--backend", SWEEP, "--out", str(out)]
        assert dispatch(argv + (["--grid", grid] if grid else [])) == 0
        table = capsys.readouterr().out
        assert (out / "sweep.txt").read_text() == table
        results = json.loads((out / "sweep.json").read_text())
        assert [float(label) for label in labels] == [r["alpha"] for r in results]
        assert table.splitlines()[1:] == [f"{label:<5}  {r['accuracy']:.4f}"
                                          for label, r in zip(labels, results)]

    def test_grid_stops_at_stop(self, tmp_path):
        out = tmp_path / "s"
        code = dispatch(
            [
                "sweep",
                "--benchmark", str(FIXTURES / "sweep_benchmark.jsonl"),
                "--grid", "0:1:0.6",
                "--backend", SWEEP,
                "--out", str(out),
            ]
        )
        assert code == 0
        assert [r["alpha"] for r in json.loads((out / "sweep.json").read_text())] == [0.0, 0.6]

    # 0:1:1e-12 would be about 1e12 points: it is rejected before any is built.
    @pytest.mark.parametrize("grid", ["0:inf:0.1", "nan:1:0.1", "0:1:inf", "0:1.5:0.1", "0:1:1e-12"])
    def test_bad_grid_is_validation_error(self, grid, tmp_path, capsys):
        code = dispatch(
            [
                "sweep",
                "--benchmark", str(FIXTURES / "sweep_benchmark.jsonl"),
                "--grid", grid,
                "--backend", SWEEP,
                "--out", str(tmp_path / "s"),
            ]
        )
        assert code == 1
        assert repr(grid) in capsys.readouterr().err


class TestCurate:
    def test_pipeline_outputs(self, tmp_path, capsys):
        out = tmp_path / "c"
        code = dispatch(
            [
                "curate",
                "--records", str(FIXTURES / "curation_records.jsonl"),
                "--backend", CURATION,
                "--out", str(out),
            ]
        )
        assert code == 0
        kept = [json.loads(l) for l in (out / "curated.jsonl").read_text().splitlines()]
        assert [r["id"] for r in kept] == ["cur-1"]
        stats = json.loads((out / "curation_stats.json").read_text())
        assert stats["kept"] == 1 and stats["dropped"] == 1
        assert stats["score_histogram"][9] == 1  # 0.9 for the kept record
        assert stats["score_histogram"][5] == 1  # 0.55 for the dropped one

    def test_more_options_than_letters_is_validation_error(self, tmp_path, capsys):
        record = {
            "id": "cur-27", "image_ref": "img/27.jpg", "question": "Which one?",
            "options": [f"choice {i}" for i in range(27)], "raw_cot": "The answer is A.",
        }
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(record) + "\n")
        code = dispatch(
            ["curate", "--records", str(records), "--backend", CURATION, "--out", str(tmp_path / "c")]
        )
        assert code == 1
        assert "at most 26 options" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("options", "ABC"), ("question", ["Q"])])
    def test_record_of_wrong_json_type_is_validation_error(self, tmp_path, capsys, key, value):
        record = {"id": "cur-1", "image_ref": "img/1.jpg", "question": "Q?", "options": ["a"],
                  "raw_cot": "The answer is A.", "source_kind": "ai-generated", key: value}
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(record) + "\n")
        code = dispatch(
            ["curate", "--records", str(records), "--backend", CURATION, "--out", str(tmp_path / "c")]
        )
        assert code == 1
        assert f"records.jsonl:1: bad curation record: {key} must be" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_bad_backend_spec_is_validation_error(self, tmp_path):
        code = dispatch(
            [
                "eval",
                "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                "--backend", "carrier-pigeon:coop",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1

    def test_no_backend_is_validation_error(self, tmp_path):
        code = dispatch(
            [
                "eval",
                "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1

    def test_bad_alpha_is_validation_error(self, tmp_path):
        code = dispatch(
            [
                "eval",
                "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                "--backend", EASY_HARD,
                "--alpha", "1.5",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["gradcheck", "--seed", "-1"], "seed must be an integer >= 0"),
        (["gradcheck", "--lambda", "nan"], "lambda must be finite and >= 0"),
        (["gradcheck", "--lambda", "inf"], "lambda must be finite and >= 0"),
        (["gradcheck", "--lambda", "-1"], "lambda must be finite and >= 0"),
        (["eval", "--workers", "0", "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
          "--backend", EASY_HARD], "workers must be >= 1"),
        (["sweep", "--workers", "-2", "--benchmark", str(FIXTURES / "sweep_benchmark.jsonl"),
          "--backend", SWEEP], "workers must be >= 1"),
        (["sweep", "--grid", "0:1", "--benchmark", str(FIXTURES / "sweep_benchmark.jsonl"),
          "--backend", SWEEP], "grid must look like start:stop:step"),
        (["verify", "--alpha", "1.5", "--image-ref", "img-h1", "--question", "question h1",
          "--backend", EASY_HARD], "alpha must be in [0, 1], got 1.5"),
    ], ids=["negative-seed", "nan-lambda", "inf-lambda", "negative-lambda", "zero-eval-workers",
            "negative-sweep-workers", "two-part-grid", "verify-alpha"])
    def test_bad_setting_is_named(self, tmp_path, monkeypatch, capsys, argv, message):
        # a bad setting is rejected before any request is sent
        requests = []
        real = MockBackend.generate
        monkeypatch.setattr(MockBackend, "generate",
                            lambda self, req: requests.append(req) or real(self, req))
        out = [] if argv[0] == "gradcheck" else ["--out", str(tmp_path / "x")]
        assert dispatch(argv + out) == 1
        assert message in capsys.readouterr().err
        assert requests == []

    def test_nan_gradient_is_not_a_passed_check(self, capsys):
        with np.errstate(all="ignore"):
            assert dispatch(["gradcheck", "--lambda", "1e308"]) == 1
        captured = capsys.readouterr()
        assert "non-finite relative error" in captured.err
        assert captured.out == ""

    def test_non_finite_final_loss_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            code = dispatch(["train-align", "--steps", "1", "--lr", "1e200", "--out", str(out)])
        assert code == 2
        assert "non-finite loss at step 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, code, message", [
        (["gradcheck", "--lambda", "1e308"], 1,
         "error: finite_diff_check: non-finite relative error at coordinate 0 of param 0\n"),
        (["train-align", "--steps", "1", "--lr", "1e200"], 2,
         "failure: non-finite loss at step 1 (batch of 4)\n"),
        # seed 35 is the one seed in 0-39 whose check misses the 1e-4 gate
        (["train-align", "--seed", "35", "--steps", "1"], 2,
         "failure: gradient check failed at initialization: 2.583e-04 > 1e-04\n"),
    ], ids=["gradcheck", "train-align", "train-align-gradcheck"])
    def test_diverging_run_prints_only_its_error(self, tmp_path, capsys, argv, code, message):
        # a numpy warning would be an error here (see pytestmark)
        out = tmp_path / "run"
        if argv[0] == "train-align":
            argv = argv + ["--out", str(out)]
        assert dispatch(argv) == code
        assert capsys.readouterr().err == message
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("endpoint", [
        "localhost:9/v1", "ftp://127.0.0.1:9/v1", "http:///v1", "http://127.0.0.1:99999/v1"])
    def test_malformed_endpoint_is_validation_error(self, tmp_path, endpoint):
        # not a report of instances that all failed, as if the service were down
        out = tmp_path / "x"
        code = dispatch(["eval", "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                         "--backend", f"remote:{endpoint}", "--out", str(out)])
        assert code == 1
        assert not (out / "report.json").exists()


    def test_malformed_service_reply_is_service_failure(self, tmp_path, monkeypatch, capsys):
        # MalformedReplyError is also a ValueError; the service is still at fault
        def malformed(*args, **kwargs):
            raise MalformedReplyError("service reply is not a valid trace: logprobs must be finite")

        monkeypatch.setattr(cli, "dual_generate", malformed)
        code = dispatch(
            [
                "verify",
                "--image-ref", "img-h1",
                "--question", "question h1",
                "--backend", EASY_HARD,
                "--out", str(tmp_path / "v"),
            ]
        )
        assert code == 2
        assert "failure: service reply is not a valid trace" in capsys.readouterr().err


    @pytest.mark.parametrize("script, message", [
        ({"default": {"text": "A", "token_logprobs": [0.5]}}, "logprobs must all be <= 0"),
        ({"entries": [{"image_ref": "i", "question": "q", "trace": {"text": "A"}}]},
         "KeyError('prompt_mode')"),
        ({"entries": [{"image_ref": "i", "question": "q", "prompt_mode": "CoT",
                       "trace": {"text": "A", "token_logprobs": [-0.1]}}]}, "'CoT'"),
        ({"entries": [{"image_ref": "img-e1", "question": "question e1", "prompt_mode": "direct",
                       "trace": {"text": "A", "token_logprobs": [-0.1], "img_reps": [1, 0],
                                 "txt_rep": [1, 0]}}]}, "unknown trace key 'img_reps'"),
        ({"default": {"text": "A", "token_logprobs": [-0.1], "img_rep": [1, 0]}},
         "both img_rep and txt_rep or neither"),
        ([{"text": "A"}], "must hold a JSON object"),
        ({"completions": [{"reply": "x"}]}, "KeyError('contains')"),
        ({"default_completion": 0}, "must be strings"),
        ({"entires": [{"image_ref": "img-e1", "question": "question e1", "prompt_mode": "direct",
                       "trace": {"text": "B", "token_logprobs": [-0.1]}}]},
         "unknown mock script key 'entires'"),
        ({"entries": [{"image_ref": "img-e1", "question": "question e1", "prompt_mode": "direct",
                       "trace": {"text": "A", "token_logprobs": [-0.1]},
                       "traec": {"text": "B", "token_logprobs": [-0.1]}}]},
         "entry 0: unknown entry key 'traec'"),
    ], ids=["positive-logprob-default", "entry-without-prompt-mode", "entry-mode-CoT",
            "misspelt-trace-key", "default-without-txt-rep", "list-script",
            "rule-without-contains", "zero-default-completion", "misspelt-entries",
            "unknown-entry-key"])
    def test_malformed_mock_script_is_validation_error(self, tmp_path, capsys, script, message):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        code = dispatch(["eval", "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                         "--backend", f"mock:{path}", "--out", str(tmp_path / "x")])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config, command, key", [
        ({"dims": {"foo": 1}}, ["gradcheck"], "'foo' in 'dims' is not a setting"),
        ({"dims": {"d": "8"}}, ["gradcheck"], "'d'"),
        ({"remote": [1]}, ["eval", "--backend", "remote:http://127.0.0.1:9"], "'remote'"),
        ({"remote": {"retries": "3"}}, ["eval", "--backend", "remote:http://127.0.0.1:9"],
         "'retries'"),
        ({"alpha": "0.7"}, ["eval", "--backend", EASY_HARD], "'alpha'"),
        ({"backend": 5}, ["eval"], "'backend'"),
        ({"alhpa": 0.1}, ["eval", "--backend", EASY_HARD], "'alhpa'"),
        ({"remote": {"retires": 9, "max_inflight": 0}},
         ["eval", "--backend", "remote:http://127.0.0.1:9"], "'retires' in 'remote'"),
        # the whole file is checked, whichever subcommand runs and whatever it reads
        ({"alpha": "0.7"}, ["gradcheck"], "'alpha'"),
        ({"remote": {"retires": 9}}, ["eval", "--backend", EASY_HARD], "'retires' in 'remote'"),
        ({"dims": [8]}, ["eval", "--backend", EASY_HARD], "'dims'"),
    ], ids=["unknown-dim", "string-dim", "list-remote", "string-retries", "string-alpha",
            "int-backend", "unknown-key", "unknown-remote-key", "unread-string-alpha",
            "unread-unknown-remote-key", "unread-list-dims"])
    def test_config_value_of_wrong_shape_is_validation_error(self, tmp_path, capsys, config,
                                                             command, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        if command[0] == "eval":
            command = command + ["--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                                 "--out", str(tmp_path / "x")]
        assert dispatch(["--config", str(path)] + command) == 1
        assert f"config key {key}" in capsys.readouterr().err

    def test_config_file_that_is_not_an_object_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"alpha": 0.7}]))
        assert dispatch(["--config", str(path), "gradcheck"]) == 1
        assert "config file must hold a JSON object" in capsys.readouterr().err


class _Reads(dict):
    """Resolved settings that record which keys a subcommand reads."""

    def __init__(self, settings):
        super().__init__(settings)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _unlike(default, k: int):
    """The k-th value of a setting's JSON type that differs from its default."""
    if isinstance(default, dict):
        name, value = next(iter(default.items()))
        return {name: _unlike(value, k)}
    if default is None or isinstance(default, str):
        return f"mock:script-{k}.json"
    if isinstance(default, int):
        return default + k
    return round(default + k / 16, 4)


class TestSettingsTable:
    """Walks ``cli._SETTINGS``: every key is read by some subcommand, each
    subcommand takes a flag for each key it reads that has one, and
    resolves each key it reads from its flag, the config file and the
    default."""

    # each subcommand's required arguments; "remote:" backends read every
    # backend setting, and here the "endpoint" names a mock script
    REQUIRED = {
        "gradcheck": [],
        "train-align": [],
        "verify": ["--image-ref", "img-h1", "--question", "question h1"],
        "eval": ["--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl")],
        "sweep": ["--benchmark", str(FIXTURES / "sweep_benchmark.jsonl")],
        "curate": ["--records", str(FIXTURES / "curation_records.jsonl")],
    }
    RUN = {
        "train-align": ["--steps", "0"],
        "verify": ["--backend", f"remote:{FIXTURES / 'easy_hard_script.json'}"],
        "eval": ["--backend", f"remote:{FIXTURES / 'easy_hard_script.json'}"],
        "sweep": ["--backend", f"remote:{FIXTURES / 'sweep_script.json'}"],
        "curate": ["--backend", f"remote:{FIXTURES / 'curation_mock.json'}"],
    }

    def _reads(self, tmp_path, monkeypatch) -> dict:
        reads, resolve = {}, cli._resolve

        def recording(args, config):
            reads[args.command] = _Reads(resolve(args, config))
            return reads[args.command]

        monkeypatch.setattr(cli, "_resolve", recording)
        monkeypatch.setattr(cli, "RemoteBackend",
                            lambda endpoint, api_key, **remote: MockBackend.from_json(endpoint))
        for command, required in self.REQUIRED.items():
            out = [] if command == "gradcheck" else ["--out", str(tmp_path / command)]
            assert dispatch([command] + required + self.RUN.get(command, []) + out) == 0
        return {command: settings.read for command, settings in reads.items()}

    def test_walk(self, tmp_path, monkeypatch, capsys):
        reads = self._reads(tmp_path, monkeypatch)
        assert set().union(*reads.values()) == set(cli._SETTINGS)
        parser = cli._build_parser()
        for key, setting in cli._SETTINGS.items():
            for command in setting.commands:
                assert key in reads[command], f"{command} takes --{key} but never reads it"
        for command, keys in reads.items():
            for key in keys:
                setting = cli._SETTINGS[key]
                assert command in setting.commands or not setting.commands, (
                    f"{command} reads {key} but takes no flag for it")
                default, v1, v2 = setting.default, _unlike(setting.default, 1), _unlike(setting.default, 2)
                argv = [command] + self.REQUIRED[command]
                args = parser.parse_args(argv)
                assert cli._resolve(args, {})[key] == default
                assert cli._resolve(args, {key: v1})[key] == (
                    {**default, **v1} if isinstance(default, dict) else v1)
                if command in setting.commands:
                    args = parser.parse_args(argv + ["--" + key.replace("_", "-"), str(v2)])
                    assert cli._resolve(args, {key: v1})[key] == v2


def _readme_commands() -> list:
    """The argv of each ``gatemix`` command in the README's CLI block."""
    block = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1]
    block = block.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_commands_parse():
    """Every ``gatemix`` command in the README's CLI block parses, so a
    deleted or renamed flag cannot leave the README stale."""
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == ["gatemix"] * 6
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_readme_cli_artifacts_are_strict_json(tmp_path, monkeypatch, capsys):
    """Every JSON artifact the README's commands write parses with NaN and
    Infinity rejected, as a strict JSON reader would."""
    monkeypatch.chdir(README.parent)
    for argv in _readme_commands():
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert dispatch(argv[1:]) == 0, argv
    paths = sorted(tmp_path.rglob("*.json")) + sorted(tmp_path.rglob("*.jsonl"))
    assert len(paths) == 6  # training, verify, eval and sweep reports, curation stats and set
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(doc, parse_constant=_reject_constant)


# The sha256 of every artifact each command writes on the fixtures, so a
# change to any artifact's bytes fails here, not only in a rerun comparison.
_ARTIFACT_RUNS = {
    "train-align": (["train-align", "--steps", "30", "--seed", "0"], {
        "gatemixer.ckpt": "b6d633d330ceb47ab706c206ede1361012446ce21f977ace19dc39cf0ab92c8b",
        "training_report.json": "d52bb73ead6c649beaf066524169ceb00824527ada739ecd233bb93e6e4f81b0",
    }),
    "verify": (["verify", "--image-ref", "img-h1", "--question", "question h1",
                "--option", "yes", "--option", "no", "--backend", EASY_HARD], {
        "verify_audit.json": "c4994449b62b6ce8641e017e4191a099ec2cb4af59eba209235be81019940cd6",
    }),
    "eval-sv": (["eval", "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                 "--strategy", "sv", "--backend", EASY_HARD], {
        "report.json": "90bb7c29c8757bfe7993388ae192858e36242b32ccc20f159e56ab2a0f06ff3e",
        "report.txt": "f546b6066679b13c5e3af22112a85f3378b7f608aadadd27e7f0ed21a9fd73e7",
    }),
    "eval-direct": (["eval", "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                     "--strategy", "direct", "--backend", EASY_HARD], {
        "report.json": "d62e56fef66312d419b3e85d6d46a484bb4b49f7a415b4c0c0fd8ee6c5a04fa6",
        "report.txt": "5c1ee8c44d825325774cdbf91da2d1d3631d8841e5e97facfaeee2a5b8abc587",
    }),
    "eval-cot": (["eval", "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                  "--strategy", "cot", "--backend", EASY_HARD], {
        "report.json": "a5a45dbfc28392e3153c5e16af9b4e7f52c92a12b48e2d59697133ccb44c3698",
        "report.txt": "a6dbd65b725eb3efa36f92c10ac0e4ae6968b351c36bcba0534e3a5b830670d6",
    }),
    "eval-alpha": (["eval", "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                    "--alpha", "0.125", "--backend", EASY_HARD], {
        "report.json": "4e936557fe18863ff22ee5dce66a6aeded8842b96e0772564e02937c4b4c90a9",
        "report.txt": "2c9c8a149c285b203354054ad5e151ba36b17ab2ebf2986523526b6fd99b808a",
    }),
    "sweep": (["sweep", "--benchmark", str(FIXTURES / "sweep_benchmark.jsonl"), "--backend", SWEEP], {
        "sweep.json": "ec3389938bd643dcf546b53286031acaa5df602bafeab9fd7e10e4e4fbbda3f1",
        "sweep.txt": "340268347d7f8c8346f606ce7528aa9b35368e86b2967aeb5ec3adf0b7b3d4c9",
    }),
    "sweep-fine": (["sweep", "--benchmark", str(FIXTURES / "sweep_benchmark.jsonl"),
                    "--grid", "0:0.03:0.005", "--backend", SWEEP], {
        "sweep.json": "126736e0586fb86a9d7ce013daf7be980b51b5c5116adf70c46339a8e027a3cf",
        "sweep.txt": "317473439484d2d6b227ef99d09448c7b7336f9a8f122c10b490fb36badf0d16",
    }),
    "curate": (["curate", "--records", str(FIXTURES / "curation_records.jsonl"), "--backend", CURATION], {
        "curated.jsonl": "1092728ac9ffa3b27e35f393ff30d1857d316fa17f6899fc5a2cdf789393b6e3",
        "curation_stats.json": "f5bcec2abfc8a1a1a828b21e9b0f03176ae4e578ce935ba01106d17750f0603d",
    }),
}


@pytest.mark.parametrize("name", _ARTIFACT_RUNS)
def test_fixture_artifacts_are_pinned(tmp_path, capsys, name):
    argv, pinned = _ARTIFACT_RUNS[name]
    assert dispatch(argv + ["--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == pinned


class TestConfigPrecedence:
    def test_config_supplies_backend_and_alpha(self, tmp_path):
        out = tmp_path / "cfg"
        code = dispatch(
            [
                "--config", str(FIXTURES / "cli_config.json"),
                "eval",
                "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["alpha"] == 0.3  # from the config file

    def test_flag_overrides_config(self, tmp_path):
        out = tmp_path / "cfg2"
        code = dispatch(
            [
                "--config", str(FIXTURES / "cli_config.json"),
                "eval",
                "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                "--alpha", "0.9",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["alpha"] == 0.9


class TestEntryPoint:
    def test_module_runs_as_the_console_script(self, capsys):
        # pyproject.toml installs gatemix = gatemix.cli:main
        result = subprocess.run([sys.executable, "-m", "gatemix.cli", "gradcheck", "--seed", "0"],
                                capture_output=True, text=True, timeout=120,
                                env={"PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("max relative error: ")
        assert result.stdout.endswith(" (tolerance 1e-04)\n")
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: gatemix")

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_workers_help_says_instances_in_flight(self, command, capsys):
        assert cli.main([command, "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--workers WORKERS instances in flight at the backend " in help_text

    def test_package_import_loads_its_six_modules(self):
        # `import gatemix` is what the benchmark's set-up time measures, so
        # the modules it loads are pinned; each public name lives in its module
        code = ("import sys, gatemix\n"
                "print(*sorted(m for m in sys.modules if m.startswith('gatemix')))\n"
                "print(gatemix.tensor.Tensor.__module__, gatemix.verify.self_verify.__module__)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": str(Path(cli.__file__).parents[1])}).stdout
        assert out.split("\n") == [
            "gatemix gatemix.backend gatemix.connector gatemix.objectives gatemix.tensor "
            "gatemix.training gatemix.verify", "gatemix.tensor gatemix.verify", ""]
