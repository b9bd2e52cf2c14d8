"""Self-verification tests: confidence, similarity score, answer extraction,
and the decision rule."""

import functools
import math
import operator
import random

import numpy as np
import pytest

from gatemix.backend import GenerationTrace
from gatemix.tensor import DegenerateVectorError
from gatemix.verify import (
    ConfigError,
    InvalidLogProbError,
    ScoredResponse,
    audit_record,
    branch_record,
    confidence,
    extract_answer,
    score_response,
    self_verify,
    similarity_score,
)

# frozen from the geometric-mean oracle: (0.9 * 0.5 * 0.2) ** (1/3)
GEOMEAN_9_5_2 = 0.4481404746557165


def _trace(text: str, c: float, s: float) -> GenerationTrace:
    """Build a trace whose confidence is exactly c and similarity score s."""
    cos = 2.0 * s - 1.0
    return GenerationTrace(
        text=text,
        token_logprobs=(math.log(c),),
        img_rep=(1.0, 0.0),
        txt_rep=(cos, math.sqrt(max(0.0, 1.0 - cos * cos))),
    )


def _scored(answer: str, s: float, c: float) -> ScoredResponse:
    return ScoredResponse(trace=_trace(answer, c, s), answer=answer, s=s, c=c)


class TestConfidence:
    def test_certain_generation(self):
        assert confidence([0.0, 0.0, 0.0]) == 1.0

    def test_geometric_mean_identity(self):
        assert confidence([math.log(0.5)] * 4) == pytest.approx(0.5, abs=1e-12)

    def test_mixed_logprobs(self):
        lps = [math.log(0.9), math.log(0.5), math.log(0.2)]
        assert confidence(lps) == pytest.approx(GEOMEAN_9_5_2, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidLogProbError):
            confidence([])

    def test_positive_logprob_rejected(self):
        with pytest.raises(InvalidLogProbError):
            confidence([-0.1, 0.2])

    @pytest.mark.parametrize("lps", [[-0.1, math.nan], [None]])
    def test_nan_logprob_rejected(self, lps):
        with pytest.raises(InvalidLogProbError, match="nan is not <= 0"):
            confidence(lps)

    def test_sums_in_token_order_on_every_python_version(self):
        # the in-order, pairwise (np.sum) and exactly rounded (fsum) sums of
        # these logprobs differ in the last bit, so C pins the in-order one
        rng = random.Random(7)
        lps = [-rng.expovariate(1.0) for _ in range(200)]
        assert confidence(lps).hex() == "0x1.93e283efa8a3bp-2"
        assert confidence(np.array(lps)).hex() == "0x1.93e283efa8a3bp-2"
        others = {math.exp(float(np.sum(lps)) / 200).hex(), math.exp(math.fsum(lps) / 200).hex()}
        assert "0x1.93e283efa8a3bp-2" not in others

    def test_order_invariant(self):
        lps = [math.log(p) for p in (0.3, 0.8, 0.55, 0.9)]
        assert confidence(lps) == pytest.approx(confidence(list(reversed(lps))), abs=1e-15)

    def test_strictly_decreases_when_any_logprob_drops(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            lps = list(np.log(rng.uniform(0.05, 1.0, size=6)))
            base = confidence(lps)
            i = int(rng.integers(0, len(lps)))
            lps[i] -= rng.uniform(0.01, 1.0)
            assert confidence(lps) < base

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            lps = list(np.log(rng.uniform(1e-6, 1.0, size=5)))
            assert 0.0 < confidence(lps) <= 1.0


class TestSimilarityScore:
    def test_identical_vectors(self):
        v = [0.3, -1.2, 0.5]
        assert similarity_score(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert similarity_score([1.0, 0.0], [0.0, 1.0]) == 0.5

    def test_antipodal_vectors(self):
        v = [0.4, 2.0, -1.0]
        assert similarity_score(v, [-x for x in v]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateVectorError):
            similarity_score([0.0, 0.0], [1.0, 0.0])

    def test_monotone_in_cosine(self):
        # the affine map must preserve similarity ordering
        rng = np.random.default_rng(11)
        u = rng.standard_normal(4)
        pairs = [rng.standard_normal(4) for _ in range(20)]
        from gatemix.tensor import cosine_sim

        cosines = [cosine_sim(u, v) for v in pairs]
        scores = [similarity_score(u, v) for v in pairs]
        assert np.argsort(cosines).tolist() == np.argsort(scores).tolist()


OPTIONS = [("A", "red"), ("B", "green"), ("C", "blue"), ("D", "yellow")]


class TestExtractAnswer:
    def test_explicit_declaration_with_options(self):
        text = "The leftmost region is clearly colored. Hence, the correct answer is B."
        assert extract_answer(text, OPTIONS) == "B"

    def test_standalone_letter(self):
        assert extract_answer("C") == "C"

    def test_last_declaration_wins(self):
        text = "thoughts... The answer is A. But wait, the answer is D."
        assert extract_answer(text, OPTIONS) == "D"

    def test_option_text_resolves_to_letter(self):
        assert extract_answer("The answer is green.", OPTIONS) == "B"

    def test_unique_option_in_final_sentence(self):
        text = "Looking closely at the image. The region must be yellow"
        assert extract_answer(text, OPTIONS) == "D"

    def test_ambiguous_options_fall_through_to_full_text(self):
        text = "it could be red or green"
        assert extract_answer(text, OPTIONS) == "it could be red or green"

    def test_fallback_whole_text(self):
        assert extract_answer("  forty-two  ") == "forty-two"

    def test_case_insensitive(self):
        assert extract_answer("the ANSWER IS b.", OPTIONS) == "B"

    def test_trailing_parenthesized_letter(self):
        assert extract_answer("after weighing everything: (c)", OPTIONS) == "C"

    def test_trailing_letter_not_part_of_word(self):
        # "why" must not yield "y"
        assert extract_answer("I cannot tell why", OPTIONS) == "I cannot tell why"

    def test_free_text_units_not_mistaken_for_letters(self):
        assert extract_answer("5 m") == "5 m"

    def test_declaration_with_colon(self):
        assert extract_answer("final answer: B", OPTIONS) == "B"

    @pytest.mark.parametrize("text, want", [
        ("The answer is 2.5.", "2.5"),
        ("The answer is 3.14", "3.14"),
        ("So the answer is $1.50 per item.", "$1.50 per item"),
        ("The answer is B.", "B"),
        ("The answer is .5.", ".5"),
    ])
    def test_decimal_point_does_not_end_a_declaration(self, text, want):
        assert extract_answer(text) == want

    @pytest.mark.parametrize("text", ["The total volume is therefore 2.5 liters.",
                                      "The answer is 2.5 liters."])
    def test_decimal_point_does_not_end_a_sentence(self, text):
        assert extract_answer(text, [("A", "1.5 liters"), ("B", "2.5 liters")]) == "B"

    @pytest.mark.parametrize("text, want", [
        ("The answer is Dr. Smith.", "A"),
        ("The answer is U.S.A.", "B"),
        ("The answer is u.s.a", "B"),
        ('The answer is "Dr. Smith"!', "A"),
        ("The answer is B.", "B"),
        ("The answer is B. Because the flag says so.", "B"),
        ("The answer is Dr. Smith.\nU.S.A is wrong.", "A"),
    ])
    def test_declared_line_names_an_option_text_with_a_dot(self, text, want):
        assert extract_answer(text, [("A", "Dr. Smith"), ("B", "U.S.A")]) == want

    def test_declared_letter_comes_before_option_texts(self):
        assert extract_answer("The answer is B.", [("A", "B"), ("B", "C")]) == "B"

    @pytest.mark.parametrize("text", ["The answer is STRASSE.", "I pick strasse",
                                      "The answer is straße"])
    def test_options_match_with_the_answers_equal_fold(self, text):
        assert extract_answer(text, [("A", "Straße"), ("B", "Berlin")]) == "A"

    def test_letters_come_back_upper_cased(self):
        assert extract_answer("The answer is b.", [("a", "x"), ("b", "y")]) == "B"


class TestSelfVerify:
    def test_agreement_returns_cot_answer(self):
        direct = _scored("B", s=0.2, c=0.2)
        cot = _scored("B", s=0.1, c=0.1)
        decision = self_verify(direct, cot, alpha=0.7)
        assert decision.final_answer == "B"
        assert decision.chosen_branch == "cot-by-agreement"

    def test_hand_scored_disagreement(self):
        # SC_direct = 0.3*0.8 + 0.7*0.9 = 0.87 beats SC_cot = 0.845
        direct = _scored("A", s=0.8, c=0.9)
        cot = _scored("B", s=0.6, c=0.95)
        decision = self_verify(direct, cot, alpha=0.7)
        assert decision.chosen_branch == "direct-by-score"
        assert decision.final_answer == "A"
        assert direct.sc == pytest.approx(0.87)
        assert cot.sc == pytest.approx(0.845)

    def test_exact_tie_goes_to_cot(self):
        direct = _scored("A", s=0.6, c=0.6)
        cot = _scored("B", s=0.6, c=0.6)
        decision = self_verify(direct, cot, alpha=0.4)
        assert decision.final_answer == "B"
        assert decision.chosen_branch == "cot-by-score"

    def test_alpha_validation(self):
        direct = _scored("A", s=0.5, c=0.5)
        cot = _scored("B", s=0.5, c=0.5)
        for bad in (-0.01, 1.01, 2.0):
            with pytest.raises(ConfigError):
                self_verify(direct, cot, alpha=bad)

    def test_alpha_zero_ignores_confidence(self):
        for c_direct in (0.05, 0.5, 0.95):
            direct = _scored("A", s=0.4, c=c_direct)
            cot = _scored("B", s=0.6, c=0.01)
            assert self_verify(direct, cot, alpha=0.0).final_answer == "B"

    def test_alpha_one_ignores_similarity(self):
        for s_direct in (0.05, 0.5, 0.95):
            direct = _scored("A", s=s_direct, c=0.4)
            cot = _scored("B", s=0.01, c=0.6)
            assert self_verify(direct, cot, alpha=1.0).final_answer == "B"

    def test_agreement_ignores_scores_entirely(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            s_d, c_d, s_c, c_c = rng.uniform(0.01, 1.0, size=4)
            decision = self_verify(
                _scored("X", s_d, c_d), _scored("x ", s_c, c_c), alpha=float(rng.uniform(0, 1))
            )
            assert decision.chosen_branch == "cot-by-agreement"

    def test_score_response_assembles_fields(self):
        trace = _trace("The answer is B.", c=0.5, s=0.75)
        scored = score_response(trace, OPTIONS)
        assert scored.answer == "B"
        assert scored.c == pytest.approx(0.5, abs=1e-12)
        assert scored.s == pytest.approx(0.75, abs=1e-12)
        assert scored.sc is None

    def test_audit_record_extends_branch_record(self):
        decision = self_verify(_scored("A", s=0.8, c=0.9), _scored("B", s=0.6, c=0.95), 0.7)
        record = audit_record(decision, 0.7)
        for name in ("direct", "cot"):
            short = branch_record(getattr(decision, name))
            assert set(short) == {"answer", "s", "c", "sc"}
            assert {k: record[name][k] for k in short} == short
            assert set(record[name]) - set(short) == {"text", "n_tokens", "mean_logprob"}

    def test_audit_mean_logprob_sums_in_token_order(self):
        rng = random.Random(7)
        lps = [-rng.expovariate(1.0) for _ in range(200)]
        cot = GenerationTrace("B", lps, (1.0, 0.0), (1.0, 0.0))
        zeros = GenerationTrace("A", (-0.0, -0.0), (1.0, 0.0), (1.0, 0.0))
        record = audit_record(self_verify(score_response(zeros), score_response(cot), 0.7), 0.7)
        # reduce adds in order on every Python version; sum does not from 3.12 on
        assert record["cot"]["mean_logprob"] == functools.reduce(operator.add, lps, 0.0) / 200
        assert math.copysign(1.0, record["direct"]["mean_logprob"]) == 1.0  # 0.0, as sum gives
        assert record["direct"]["c"] == 1.0
