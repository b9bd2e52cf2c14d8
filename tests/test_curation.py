"""Curation pipeline tests: prompt builders against golden files, score
parsing, selection/filtering semantics, and end-to-end determinism."""

import copy
import dataclasses
import json
from pathlib import Path

import pytest

from gatemix import cli
from gatemix.backend import MockBackend
from gatemix.curation import (
    CuratedInstance,
    CurationRecord,
    HeldOutSplitError,
    PipelineStats,
    ScoreParseError,
    build_rewrite_prompt,
    build_score_prompt,
    load_records,
    parse_overall_score,
    run_pipeline,
    score_candidates,
)

GOLDEN = Path(__file__).parent / "golden"

REWRITE_RULES = [
    "1) Keep the logic of reasoning-then-answering to ensure that the reasoning can be performed step by step.",
    "2) Be faithful enough to ensure that the reasoning can accurately lead to the correct answer.",
    "3) Be clear and concise, without factual errors or repeated content, and no key intermediate reasoning steps are omitted.",
    "4) Do not mention or refer to the given CoT in your responses directly.",
]


def _record(**overrides) -> CurationRecord:
    base = dict(
        id="rec-001",
        image_ref="images/0001.jpg",
        question="What shape is drawn on the board?",
        options=["a circle", "a square", "a triangle"],
        raw_cot="The board shows three straight sides. So it is a triangle. The answer is C.",
        image_description="A classroom whiteboard with a hand-drawn figure.",
    )
    base.update(overrides)
    return CurationRecord(**base)


class TestRewritePrompt:
    def test_matches_golden_file(self):
        assert build_rewrite_prompt(_record()) == (GOLDEN / "rewrite_prompt.txt").read_text()

    def test_contains_all_four_rules_verbatim(self):
        prompt = build_rewrite_prompt(_record())
        for rule in REWRITE_RULES:
            assert rule in prompt

    def test_contains_exemplar_answer_line(self):
        assert "Hence, the correct answer is B." in build_rewrite_prompt(_record())

    def test_empty_options_keep_question_only(self):
        prompt = build_rewrite_prompt(_record(options=[]))
        assert "What shape is drawn on the board?" in prompt
        assert "\nA. " not in prompt.split("Here is the example to be rewritten:")[1]

    def test_byte_stable(self):
        assert build_rewrite_prompt(_record()) == build_rewrite_prompt(_record())

    def test_missing_raw_cot_rejected(self):
        with pytest.raises(ValueError):
            build_rewrite_prompt(_record(raw_cot=""))


class TestScorePrompt:
    def test_matches_golden_file(self):
        rec = _record()
        assert build_score_prompt(rec, rec.raw_cot) == (GOLDEN / "score_prompt.txt").read_text()

    def test_contains_rubric_dimensions(self):
        prompt = build_score_prompt(_record(), "some cot")
        for dim in ("Faithfulness", "Relevance", "Completeness"):
            assert dim in prompt

    def test_ends_with_overall_cue(self):
        assert build_score_prompt(_record(), "some cot").endswith("- Overall:")

    def test_injective_on_cot_slot(self):
        rec = _record()
        assert build_score_prompt(rec, "cot one") != build_score_prompt(rec, "cot two")

    def test_missing_description_uses_placeholder(self):
        prompt = build_score_prompt(_record(image_description=None), "cot")
        assert "(no description provided)" in prompt

    def test_empty_cot_rejected(self):
        with pytest.raises(ValueError):
            build_score_prompt(_record(), "")


class TestParseOverallScore:
    def test_scoring_line(self):
        assert parse_overall_score("Scoring: 0.85\nExplanation: solid reasoning.") == 0.85

    def test_integer_boundary(self):
        assert parse_overall_score("Scoring: 1") == 1.0

    def test_overall_key(self):
        assert parse_overall_score("- Overall: 0.72\nExplanation: fine") == 0.72

    def test_missing_score_is_parse_error_with_reply(self):
        with pytest.raises(ScoreParseError) as exc:
            parse_overall_score("no score here")
        assert exc.value.reply == "no score here"

    def test_out_of_range_rejected(self):
        with pytest.raises(ScoreParseError):
            parse_overall_score("Scoring: 1.5")

    def test_zero_accepted(self):
        assert parse_overall_score("Scoring: 0") == 0.0


REWRITE_CUE = "Now you can start to rewrite the given CoT."
RAW_COT = _record().raw_cot


def _scoring_llm(scores: dict, prompts: list | None = None):
    """An llm that rewrites any CoT to "rewritten by llm" and scores the one
    CoT of ``scores`` that a score prompt holds; it appends every prompt to
    ``prompts`` when given."""
    def llm(prompt: str) -> str:
        if prompts is not None:
            prompts.append(prompt)
        if REWRITE_CUE in prompt:
            return "rewritten by llm"
        (score,) = [s for cot, s in scores.items() if cot in prompt]
        return f"Scoring: {score}\nExplanation: scripted."
    return llm


def _curate_one(rec: CurationRecord, scores: dict):
    instances, stats = run_pipeline([rec], _scoring_llm(scores))
    return (instances[0] if instances else None), stats


class TestSelectAndFilter:
    """The winner that ``run_pipeline`` keeps or drops."""

    def test_higher_score_wins(self):
        inst, _ = _curate_one(_record(rewritten_cot="better cot"),
                              {RAW_COT: 0.7, "better cot": 0.9})
        assert inst.cot_response == "better cot"
        assert inst.overall_score == 0.9

    def test_raw_can_win(self):
        inst, _ = _curate_one(_record(rewritten_cot="worse cot"),
                              {RAW_COT: 0.95, "worse cot": 0.7})
        assert inst.cot_response == RAW_COT
        assert inst.overall_score == 0.95

    def test_both_below_threshold_dropped(self):
        inst, stats = _curate_one(_record(rewritten_cot="x cot"), {RAW_COT: 0.55, "x cot": 0.55})
        assert inst is None
        assert (stats.kept, stats.dropped) == (0, 1)
        assert stats.score_histogram == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]

    def test_boundary_score_kept(self):
        inst, _ = _curate_one(_record(source_kind="ai-generated"), {RAW_COT: 0.6})
        assert inst is not None
        assert inst.overall_score == 0.6

    def test_tie_prefers_rewritten(self):
        inst, _ = _curate_one(_record(rewritten_cot="rewritten"), {RAW_COT: 0.8, "rewritten": 0.8})
        assert inst.cot_response == "rewritten"

    def test_instruction_is_question_block(self):
        inst, _ = _curate_one(_record(source_kind="ai-generated"), {RAW_COT: 0.9})
        assert inst.instruction.startswith("What shape is drawn on the board?")
        assert "A. a circle" in inst.instruction


class TestScoreCandidates:
    @pytest.mark.parametrize("kind", ["manual", "manual-with-rewrite", "ai-generated"])
    def test_llm_call_sequence(self, kind):
        """Rewrite if needed, then score raw, then score the rewrite; the
        preferred candidate comes first."""
        if kind == "ai-generated":
            rec = _record(source_kind="ai-generated")
        else:
            rec = _record(rewritten_cot="given rewrite" if kind == "manual-with-rewrite" else None)
        rewrite = rec.rewritten_cot or "rewritten by llm"
        prompts = []
        candidates = score_candidates(
            rec, _scoring_llm({RAW_COT: 0.7, rewrite: 0.9}, prompts))
        if kind == "ai-generated":
            assert prompts == [build_score_prompt(rec, RAW_COT)]
            assert candidates == [(RAW_COT, 0.7)]
            return
        expected = [build_score_prompt(rec, RAW_COT), build_score_prompt(rec, rewrite)]
        if kind == "manual":
            expected.insert(0, build_rewrite_prompt(rec))
        assert prompts == expected
        assert candidates == [(rewrite, 0.9), (RAW_COT, 0.7)]


def _scripted_llm(prompt: str) -> str:
    """Deterministic stand-in for the scoring/rewriting model."""
    if "Now you can start to rewrite the given CoT." in prompt:
        return "Observing the figure step by step leads to the triangle. The answer is C."
    if "Observing the figure step by step" in prompt:
        return "Scoring: 0.9\nExplanation: standardized and faithful."
    if "three straight sides" in prompt:
        return "Scoring: 0.7\nExplanation: short but correct."
    if "noisy machine cot" in prompt:
        return "Scoring: 0.4\nExplanation: incoherent."
    return "Scoring: 0.65\nExplanation: default."


class TestRunPipeline:
    def test_manual_record_rewritten_and_kept(self):
        records = [_record()]
        instances, stats = run_pipeline(records, _scripted_llm)
        assert stats.kept == 1 and stats.dropped == 0
        assert instances[0].overall_score == 0.9
        assert instances[0].cot_response.startswith("Observing the figure")

    def test_ai_generated_skips_rewrite(self):
        rec = _record(id="ai-1", source_kind="ai-generated", raw_cot="noisy machine cot")
        instances, stats = run_pipeline([rec], _scripted_llm)
        assert rec.rewritten_cot is None
        assert stats.dropped == 1 and instances == []

    def test_filter_soundness(self):
        records = [
            _record(id="keep-manual"),
            _record(id="drop-ai", source_kind="ai-generated", raw_cot="noisy machine cot"),
            _record(id="keep-ai", source_kind="ai-generated", raw_cot="fine machine cot"),
        ]
        instances, stats = run_pipeline(records, _scripted_llm)
        assert {i.id for i in instances} == {"keep-manual", "keep-ai"}
        assert all(i.overall_score >= 0.6 for i in instances)
        assert stats.kept == 2 and stats.dropped == 1
        assert sum(stats.score_histogram) == 3

    def test_deterministic_end_to_end(self):
        make = lambda: [_record(id="a"), _record(id="b", source_kind="ai-generated")]
        out1 = run_pipeline(make(), _scripted_llm)
        out2 = run_pipeline(make(), _scripted_llm)
        assert out1[0] == out2[0]
        assert out1[1] == out2[1]

    def test_emission_preserves_input_order(self):
        records = [_record(id=f"r{i}") for i in range(5)]
        instances, _ = run_pipeline(records, _scripted_llm)
        assert [i.id for i in instances] == [f"r{i}" for i in range(5)]

    def test_held_out_split_rejected(self):
        with pytest.raises(HeldOutSplitError):
            run_pipeline([_record(split="test")], _scripted_llm)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 1.5, -3.0])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        def llm(prompt):
            raise AssertionError("no record is curated under a bad threshold")

        with pytest.raises(ValueError, match="threshold"):
            run_pipeline([_record()], llm, threshold=threshold)

    def test_input_records_unchanged(self):
        records = [
            _record(id="manual"),
            _record(id="given", rewritten_cot="A given rewrite. The answer is C."),
            _record(id="ai", source_kind="ai-generated"),
        ]
        before = copy.deepcopy(records)
        run_pipeline(records, _scripted_llm)
        assert records == before


class TestRecordsIO:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        rows = [
            {
                "id": "r1",
                "image_ref": "img/1.jpg",
                "question": "Q?",
                "options": ["x", "y"],
                "raw_cot": "because x. The answer is A.",
                "source_kind": "manual",
            },
            {
                "id": "r2",
                "image_ref": "img/2.jpg",
                "question": "Q2?",
                "options": [],
                "raw_cot": "machine cot",
                "source_kind": "ai-generated",
            },
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        records = load_records(path)
        assert [r.id for r in records] == ["r1", "r2"]

    def test_held_out_split_rejected_at_ingestion(self, tmp_path):
        path = tmp_path / "records.jsonl"
        row = {
            "id": "leak",
            "image_ref": "img/3.jpg",
            "question": "Q?",
            "options": [],
            "raw_cot": "cot",
            "split": "val",
        }
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(HeldOutSplitError, match="leak"):
            load_records(path)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('\n{"id": "r1", "image_ref": "i", "question": "Q?", "options": [], '
                        '"raw_cot": "cot"}\n  \n{"id": "r2"}\n')
        with pytest.raises(ValueError, match="records.jsonl:4: "):
            load_records(path)
        path.write_text(path.read_text().replace('{"id": "r2"}', ""))
        assert [r.id for r in load_records(path)] == ["r1"]

    def test_malformed_line_rejected_with_location(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "r1"}\n')
        with pytest.raises(ValueError, match=":1"):
            load_records(path)

    @pytest.mark.parametrize("key", ["raw_score", "rewritten_score"])
    def test_pipeline_state_key_rejected_with_location(self, tmp_path, key):
        row = {"id": "r2", "image_ref": "img/2.jpg", "question": "Q?", "options": [],
               "raw_cot": "cot", key: 0.9}
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "r1", "image_ref": "i", "question": "Q?", "options": [], '
                        '"raw_cot": "cot"}\n' + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=f"records.jsonl:2: .*{key}"):
            load_records(path)

    @pytest.mark.parametrize("key, value", [
        ("options", "ABC"),
        ("options", ["x", 1]),
        ("options", None),
        ("question", ["Q"]),
        ("id", 7),
        ("image_ref", None),
        ("raw_cot", {"text": "cot"}),
        ("rewritten_cot", 5),
        ("image_description", ["a cat"]),
        ("split", ["test"]),
        ("source_kind", "human"),
    ])
    def test_field_of_wrong_json_type_rejected_with_location(self, tmp_path, key, value):
        row = {"id": "r2", "image_ref": "img/2.jpg", "question": "Q?", "options": ["x"],
               "raw_cot": "cot", "source_kind": "ai-generated", key: value}
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "r1", "image_ref": "i", "question": "Q?", "options": [], '
                        '"raw_cot": "cot", "rewritten_cot": null}\n' + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=f"records.jsonl:2: bad curation record: {key} must be"):
            load_records(path)

    def test_write_outputs(self, tmp_path, capsys):
        records = [_record(id="w1", source_kind="ai-generated")]
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(dataclasses.asdict(records[0])) + "\n")
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"default_completion": "Scoring: 0.7\nExplanation: fine."}))
        instances, stats = run_pipeline(records, MockBackend.from_json(script).complete_text)
        assert cli.dispatch(["curate", "--records", str(path), "--backend", f"mock:{script}",
                             "--out", str(tmp_path / "c")]) == 0
        reloaded = [json.loads(line) for line in (tmp_path / "c" / "curated.jsonl").read_text().splitlines()]
        assert reloaded[0]["id"] == "w1"
        assert [CuratedInstance(**r) for r in reloaded] == instances
        assert PipelineStats(**json.loads((tmp_path / "c" / "curation_stats.json").read_text())) == stats
        assert stats.kept == 1
