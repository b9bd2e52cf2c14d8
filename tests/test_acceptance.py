"""Acceptance suite.

One test per acceptance criterion, each printing a pass/fail line. Run with

    pytest tests/test_acceptance.py -v -s

Benchmark-scale numbers are out of reach at desk scale by design; every
criterion here is property- or oracle-based.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gatemix.backend import MockBackend
from gatemix.connector import ConnectorConfig, gate_mix, init_params
from gatemix.curation import (
    CurationRecord,
    build_rewrite_prompt,
    build_score_prompt,
    run_pipeline,
)
from gatemix.evalharness import alpha_sweep, load_benchmark, run_eval
from gatemix.objectives import creg_loss, similarity_matrix, text_side
from gatemix.tensor import Tensor, finite_diff_check, make_rng
from gatemix.training import (
    FrozenStandins,
    GDState,
    TrainConfig,
    stage1_loss,
    synth_batch,
    train_stage1,
    train_step,
)
from gatemix.verify import ScoredResponse, confidence, self_verify

from conftest import FIXTURES, make_trace

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def _criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n:>2}: FAIL - {desc}")
        raise
    print(f"criterion {n:>2}: PASS - {desc}")


def test_criterion_1_gradient_fidelity():
    with _criterion(1, "finite differences confirm the full objective gradient (10 seeds)"):
        cfg = ConnectorConfig()  # d = 8
        standins = FrozenStandins(cfg.d_llm)
        start = time.perf_counter()
        worst = 0.0
        for seed in range(10):
            params = init_params(cfg, seed)
            batch = synth_batch(seed, 4, cfg)
            rel = finite_diff_check(
                lambda ts: stage1_loss(params, batch, standins),
                params.tensors(),
                eps=1e-5,
            )
            worst = max(worst, rel)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-4, f"max relative error {worst:.3e} exceeds 1e-4"
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s (budget 30s)"


def test_criterion_2_gate_invariants():
    with _criterion(2, "gate stays in (0,1) and blends inside the elementwise envelope"):
        rng = make_rng(42)
        d = 8
        for _ in range(1000):
            h_v = Tensor(rng.standard_normal((3, d)))
            h_c = Tensor(rng.standard_normal((3, d)))
            W_g = Tensor(rng.standard_normal((d, 2 * d)))
            b_g = Tensor(rng.standard_normal(d))
            alpha, h = gate_mix(h_v, h_c, W_g, b_g)
            assert np.all(alpha.data > 0.0) and np.all(alpha.data < 1.0)
            lo = np.minimum(h_v.data, h_c.data)
            hi = np.maximum(h_v.data, h_c.data)
            assert np.all(h.data >= lo - 1e-12) and np.all(h.data <= hi + 1e-12)

        h_v = Tensor(rng.standard_normal((5, d)))
        h_c = Tensor(rng.standard_normal((5, d)))
        alpha, h = gate_mix(h_v, h_c, Tensor(np.zeros((d, 2 * d))), Tensor(np.zeros(d)))
        np.testing.assert_array_equal(alpha.data, np.full((5, d), 0.5))
        np.testing.assert_array_equal(h.data, (h_v.data + h_c.data) / 2.0)


def test_criterion_3_contrastive_loss_oracle():
    with _criterion(3, "contrastive loss matches the hand-derived cases and is permutation-invariant"):
        single = similarity_matrix(Tensor([[1.0, 2.0]]), text_side(Tensor([[0.3, -0.7]])))
        assert abs(creg_loss(single).item()) <= 1e-12

        hand = creg_loss(Tensor([[math.e, 1.0], [1.0, math.e]]))
        assert hand.item() == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-9)

        rng = make_rng(7)
        for _ in range(100):
            b = int(rng.integers(2, 7))
            S = rng.uniform(0.05, 4.0, size=(b, b))
            perm = rng.permutation(b)
            base = creg_loss(Tensor(S)).item()
            permuted = creg_loss(Tensor(S[np.ix_(perm, perm)])).item()
            assert permuted == pytest.approx(base, abs=1e-9)


def test_criterion_4_confidence_oracle():
    with _criterion(4, "confidence equals the per-token probability and decreases strictly"):
        rng = make_rng(42)
        for _ in range(100):
            p = float(rng.uniform(0.01, 1.0))
            t_len = int(rng.integers(1, 12))
            assert confidence([math.log(p)] * t_len) == pytest.approx(p, abs=1e-12)

        for _ in range(100):
            lps = list(np.log(rng.uniform(0.05, 1.0, size=8)))
            base = confidence(lps)
            i = int(rng.integers(0, len(lps)))
            lps[i] -= float(rng.uniform(1e-6, 2.0))
            assert confidence(lps) < base


def _transcribed_decision(a_direct, a_cot, s_d, c_d, s_c, c_c, alpha):
    """Independent literal transcription of the published decision procedure."""
    if a_cot == a_direct:
        return a_cot
    sc_direct = (1 - alpha) * s_d + alpha * c_d
    sc_cot = (1 - alpha) * s_c + alpha * c_c
    if sc_cot >= sc_direct:
        return a_cot
    return a_direct


def _scored(answer: str, s: float, c: float) -> ScoredResponse:
    c_for_trace = max(c, 1e-9)  # trace logprobs need c > 0; s/c fields drive the decision
    return ScoredResponse(
        trace=make_trace(answer, s, c_for_trace, "direct"), answer=answer, s=s, c=c
    )


def test_criterion_5_decision_rule_equivalence():
    with _criterion(5, "decision rule matches the independent transcription on the full grid"):
        grid = [round(i / 10, 1) for i in range(11)]
        mismatches = 0
        for s in grid:
            for c in grid:
                for alpha in grid:
                    # vary the cot branch against a fixed direct branch
                    got = self_verify(_scored("A", 0.5, 0.5), _scored("B", s, c), alpha)
                    want = _transcribed_decision("A", "B", 0.5, 0.5, s, c, alpha)
                    mismatches += got.final_answer != want
                    # and the direct branch against a fixed cot branch
                    got = self_verify(_scored("A", s, c), _scored("B", 0.5, 0.5), alpha)
                    want = _transcribed_decision("A", "B", s, c, 0.5, 0.5, alpha)
                    mismatches += got.final_answer != want
        assert mismatches == 0, f"{mismatches} grid cells disagree"

        # both agreement cases: scores favoring cot, and scores favoring direct
        for s_d, c_d, s_c, c_c in ((0.1, 0.1, 0.9, 0.9), (0.9, 0.9, 0.1, 0.1)):
            decision = self_verify(_scored("B", s_d, c_d), _scored("B", s_c, c_c), 0.7)
            assert decision.final_answer == "B"
            assert decision.chosen_branch == "cot-by-agreement"


def test_criterion_6_stage1_training():
    with _criterion(6, "alignment training halves the loss, freezes stand-ins, reruns identically"):
        cfg = TrainConfig()  # 300 steps, batch 4, seed 0
        ccfg = ConnectorConfig()

        start = time.perf_counter()
        report, _ = train_stage1(cfg, ccfg)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"training took {elapsed:.1f}s (budget 60s)"
        assert len(report.loss_curve) == cfg.steps
        assert np.isfinite(report.loss_curve).all()
        assert report.final_loss <= 0.5 * report.initial_loss, (
            f"loss only dropped {report.initial_loss:.4f} -> {report.final_loss:.4f}"
        )

        rerun, _ = train_stage1(cfg, ccfg)
        assert rerun.loss_curve == report.loss_curve
        assert rerun.final_loss == report.final_loss

        # replay the same run with externally held stand-ins to prove the
        # frozen pieces never move
        params = init_params(ccfg, cfg.seed)
        batch = synth_batch(cfg.seed, cfg.batch_size, ccfg)
        standins = FrozenStandins(ccfg.d_llm)
        frozen = lambda: (
            standins.pool_map.data.tobytes(),
            standins.readout.data.tobytes(),
            batch.txt_reps.data.tobytes(),
            tuple(f.v_v.data.tobytes() + f.v_c.data.tobytes() for f in batch.feats),
        )
        before = frozen()
        state = GDState()
        curve = []
        for _ in range(cfg.steps):
            value, params, state = train_step(params, batch, state, cfg, standins)
            curve.append(value)
        assert frozen() == before, "a frozen stand-in changed during training"
        assert curve == report.loss_curve, "external replay diverged from train_stage1"


def test_criterion_7_easy_hard_mock_scenario():
    with _criterion(7, "self-verification beats both single strategies on the 4-instance fixture"):
        backend = MockBackend.from_json(FIXTURES / "easy_hard_script.json")
        instances, errors = load_benchmark(FIXTURES / "easy_hard_benchmark.jsonl")
        assert not errors
        direct = run_eval(backend, instances, "direct")
        cot = run_eval(backend, instances, "cot")
        sv = run_eval(backend, instances, "sv", alpha=0.7)
        assert direct.accuracy == 0.5, f"direct accuracy {direct.accuracy}"
        assert cot.accuracy == 0.5, f"cot accuracy {cot.accuracy}"
        assert sv.accuracy == 1.0, f"sv accuracy {sv.accuracy}"


def test_criterion_8_alpha_sweep_optimum():
    with _criterion(8, "default sweep emits 11 points with its argmax at alpha 0.7"):
        backend = MockBackend.from_json(FIXTURES / "sweep_script.json")
        instances, errors = load_benchmark(FIXTURES / "sweep_benchmark.jsonl")
        assert not errors
        results = alpha_sweep(backend, instances)
        assert len(results) == 11
        accuracies = {a: acc for a, acc in results}
        best = max(results, key=lambda pair: pair[1])
        assert best[0] == 0.7, f"argmax at {best[0]}, not 0.7"
        assert all(acc < accuracies[0.7] for a, acc in results if a != 0.7)


def test_criterion_9_curation_pipeline():
    with _criterion(9, "curation keeps exactly the >= 0.6 records, ties to rewrite, goldens match"):
        def scripted_scorer(prompt: str) -> str:
            if "Now you can start to rewrite the given CoT." in prompt:
                return "A standardized chain of reasoning. The answer is A."
            for needle, score in (
                ("A standardized chain of reasoning", "0.8"),
                ("raw reasoning tie", "0.8"),
                ("raw reasoning strong", "0.95"),
                ("raw reasoning weak", "0.2"),
                ("machine reasoning pass", "0.6"),
                ("machine reasoning fail", "0.59"),
            ):
                if needle in prompt:
                    return f"Scoring: {score}"
            raise AssertionError(f"unscripted prompt: {prompt[-120:]}")

        def record(rid, raw_cot, kind="manual"):
            return CurationRecord(
                id=rid, image_ref=f"img/{rid}", question="Which one?",
                options=["first", "second"], raw_cot=raw_cot, source_kind=kind,
            )

        records = [
            record("tie", "raw reasoning tie. The answer is A."),
            record("raw-wins", "raw reasoning strong. The answer is A."),
            record("rewrite-wins", "raw reasoning weak. The answer is A."),
            record("ai-keep", "machine reasoning pass. The answer is A.", "ai-generated"),
            record("ai-drop", "machine reasoning fail. The answer is A.", "ai-generated"),
        ]
        instances, stats, _ = run_pipeline(records, scripted_scorer, threshold=0.6)
        by_id = {inst.id: inst for inst in instances}

        assert set(by_id) == {"tie", "raw-wins", "rewrite-wins", "ai-keep"}
        assert stats.kept == 4 and stats.dropped == 1
        assert all(inst.overall_score >= 0.6 for inst in instances)
        # ties prefer the rewritten, standardized CoT
        assert by_id["tie"].cot_response.startswith("A standardized chain")
        assert by_id["raw-wins"].cot_response.startswith("raw reasoning strong")
        assert by_id["rewrite-wins"].cot_response.startswith("A standardized chain")
        assert by_id["ai-keep"].overall_score == 0.6

        golden_rec = CurationRecord(
            id="rec-001",
            image_ref="images/0001.jpg",
            question="What shape is drawn on the board?",
            options=["a circle", "a square", "a triangle"],
            raw_cot="The board shows three straight sides. So it is a triangle. The answer is C.",
            image_description="A classroom whiteboard with a hand-drawn figure.",
        )
        assert build_rewrite_prompt(golden_rec) == (GOLDEN / "rewrite_prompt.txt").read_text()
        assert build_score_prompt(golden_rec, golden_rec.raw_cot) == (
            GOLDEN / "score_prompt.txt"
        ).read_text()


def _run_cli(argv, out_dir, capsys, has_out=True):
    from gatemix.cli import dispatch

    code = dispatch(argv + ["--out", str(out_dir)] if has_out else argv)
    captured = capsys.readouterr()
    assert code == 0, f"{argv} exited {code}: {captured.err}"
    artifacts = {}
    if has_out:
        artifacts = {
            p.relative_to(out_dir): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file()
        }
    return captured.out, artifacts


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with _criterion(10, "every subcommand run twice produces byte-identical artifacts"):
        bench_eh = str(FIXTURES / "easy_hard_benchmark.jsonl")
        bench_sw = str(FIXTURES / "sweep_benchmark.jsonl")
        mock_eh = f"mock:{FIXTURES / 'easy_hard_script.json'}"
        mock_sw = f"mock:{FIXTURES / 'sweep_script.json'}"
        mock_cur = f"mock:{FIXTURES / 'curation_mock.json'}"
        commands = {
            "gradcheck": ["gradcheck", "--seed", "0"],
            "train-align": ["train-align", "--steps", "30", "--seed", "0"],
            "verify": [
                "verify", "--image-ref", "img-e1", "--question", "question e1",
                "--option", "yes", "--option", "no", "--backend", mock_eh,
            ],
            "eval": [
                "eval", "--benchmark", bench_eh, "--strategy", "sv",
                "--alpha", "0.7", "--backend", mock_eh,
            ],
            "sweep": [
                "sweep", "--benchmark", bench_sw, "--grid", "0:1:0.1",
                "--backend", mock_sw,
            ],
            "curate": [
                "curate", "--records", str(FIXTURES / "curation_records.jsonl"),
                "--backend", mock_cur,
            ],
        }
        for name, argv in commands.items():
            has_out = name != "gradcheck"
            out_a, art_a = _run_cli(list(argv), tmp_path / f"{name}-a", capsys, has_out)
            out_b, art_b = _run_cli(list(argv), tmp_path / f"{name}-b", capsys, has_out)
            assert art_a == art_b, f"{name}: artifacts differ between runs"
            if not has_out:  # no artifacts; stdout is the output
                assert out_a == out_b
            else:
                assert art_a, f"{name}: no artifacts written"
