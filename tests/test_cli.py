"""CLI tests: every subcommand end to end against mock backends, exit-code
semantics, and config-file precedence."""

import json
from pathlib import Path

import pytest

from gatemix import cli
from gatemix.backend import MalformedReplyError
from gatemix.cli import dispatch

FIXTURES = Path(__file__).parent / "fixtures"

EASY_HARD = f"mock:{FIXTURES / 'easy_hard_script.json'}"
SWEEP = f"mock:{FIXTURES / 'sweep_script.json'}"
CURATION = f"mock:{FIXTURES / 'curation_mock.json'}"


class TestGradcheck:
    def test_prints_error_and_exits_zero(self, capsys):
        assert dispatch(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_impossible_tolerance_fails(self, capsys):
        assert dispatch(["gradcheck", "--seed", "0", "--tol", "1e-18"]) == 2


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
        assert "1.0000" in capsys.readouterr().out

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
        ([{"text": "A"}], "must hold a JSON object"),
        ({"completions": [{"reply": "x"}]}, "KeyError('contains')"),
        ({"default_completion": 0}, "must be strings"),
    ], ids=["positive-logprob-default", "entry-without-prompt-mode", "list-script",
            "rule-without-contains", "zero-default-completion"])
    def test_malformed_mock_script_is_validation_error(self, tmp_path, capsys, script, message):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        code = dispatch(["eval", "--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                         "--backend", f"mock:{path}", "--out", str(tmp_path / "x")])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config, command, key", [
        ({"dims": {"foo": 1}}, ["gradcheck"], "'dims'"),
        ({"dims": {"d": "8"}}, ["gradcheck"], "'d'"),
        ({"remote": [1]}, ["eval", "--backend", "remote:http://127.0.0.1:9"], "'remote'"),
        ({"remote": {"retries": "3"}}, ["eval", "--backend", "remote:http://127.0.0.1:9"],
         "'retries'"),
        ({"alpha": "0.7"}, ["eval", "--backend", EASY_HARD], "'alpha'"),
        ({"backend": 5}, ["eval"], "'backend'"),
        ({"alhpa": 0.1}, ["eval", "--backend", EASY_HARD], "'alhpa'"),
        ({"remote": {"retires": 9, "max_inflight": 0}},
         ["eval", "--backend", "remote:http://127.0.0.1:9"], "'retires' in 'remote'"),
    ], ids=["unknown-dim", "string-dim", "list-remote", "string-retries", "string-alpha",
            "int-backend", "unknown-key", "unknown-remote-key"])
    def test_config_value_of_wrong_shape_is_validation_error(self, tmp_path, capsys, config,
                                                             command, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        if command[0] == "eval":
            command = command + ["--benchmark", str(FIXTURES / "easy_hard_benchmark.jsonl"),
                                 "--out", str(tmp_path / "x")]
        assert dispatch(["--config", str(path)] + command) == 1
        assert f"config key {key}" in capsys.readouterr().err


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
