"""Inference-time self-verification.

Given a direct response and a step-by-step response to the same question,
pick the final answer: if the two extracted answers agree, keep the
step-by-step one; otherwise compare the weighted scores

    SC = (1 - alpha) * S + alpha * C

where S is the image/text representation similarity mapped onto [0, 1] and
C is the exponential of the mean token log-probability (a normalized
perplexity in (0, 1]). Ties go to the step-by-step branch. SC is computed
for each decision at that decision's alpha and stored on no response. A
trace's values arrive as read-only float64 arrays; C sums the logprobs in
token order on every Python version, as a last-bit change can flip a tie.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal, InvalidOperation
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .backend import GenerationTrace
from .tensor import cosine_sim

__all__ = [
    "DEFAULT_ALPHA",
    "BRANCHES",
    "InvalidLogProbError",
    "ScoredResponse",
    "VerifyDecision",
    "check_alpha",
    "confidence",
    "similarity_score",
    "letter_options",
    "answers_equal",
    "extract_answer",
    "score_response",
    "self_verify",
    "branch_record",
    "audit_record",
]

DEFAULT_ALPHA = 0.7

BRANCHES = ("cot-by-agreement", "cot-by-score", "direct-by-score")

OPTION_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class InvalidLogProbError(ValueError):
    """Token log-probabilities are empty, positive or NaN."""


def check_alpha(alpha: float) -> None:
    """The one range check of a weighting alpha: outside [0, 1], NaN
    included, is a ValueError."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")


def _mean_logprob(token_logprobs) -> float:
    """In-order mean of non-empty logprobs; + 0.0 turns a -0.0 sum into 0.0, as ``sum`` does."""
    return (float(np.add.accumulate(token_logprobs)[-1]) + 0.0) / len(token_logprobs)


def confidence(token_logprobs: Sequence[float]) -> float:
    """exp of the mean token log-probability of a generation.

    Equals the geometric mean of the per-token probabilities, so it lives
    in (0, 1] and is 1 exactly when every token had probability 1.
    """
    lps = np.asarray(token_logprobs, dtype=np.float64)
    if not lps.size:
        raise InvalidLogProbError("confidence: empty logprob list")
    if np.count_nonzero(lps <= 0.0) != lps.size:  # NaN fails the test too
        raise InvalidLogProbError(f"confidence: logprob {lps[~(lps <= 0.0)][0]} is not <= 0")
    return math.exp(_mean_logprob(lps))


def similarity_score(img_rep, txt_rep) -> float:
    """Image/text similarity mapped from cosine's [-1, 1] onto [0, 1].

    The affine map (1 + cos) / 2 is monotone, so it preserves every ranking
    the decision rule performs; clamping at zero would not.
    """
    return (1.0 + cosine_sim(img_rep, txt_rep)) / 2.0


def letter_options(texts: Sequence[str]) -> list:
    """Pair option texts with the letters A, B, C, ... in order; more options
    than there are letters is a ValueError."""
    texts = list(texts)
    if len(texts) > len(OPTION_LETTERS):
        raise ValueError(
            f"at most {len(OPTION_LETTERS)} options can be lettered, got {len(texts)}"
        )
    return list(zip(OPTION_LETTERS, texts))


def _fold(text: str) -> str:
    """Text as answers are matched: trimmed and case-folded."""
    return text.strip().casefold()


# A whole plain decimal: a sign, ASCII digits with at most one point, and
# an optional exponent. No thousands separator (1,000 1_000), decimal comma
# or fraction (3/4) is a number.
_NUMBER = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
_NUMBER_STARTS = frozenset("+-.0123456789")


def _number(text: str) -> Optional[Decimal]:
    """The exact value of ``text`` if it is a whole plain decimal, else
    None. A ``Decimal`` holds it at any exponent in constant time, where a
    ``Fraction`` builds the integer 10**n (seconds for ``1e10000000``, in a
    reply the service wrote); an exponent past ``Decimal``'s range of about
    10**18 is no number."""
    if not _NUMBER.fullmatch(text):
        return None
    try:
        return Decimal(text)
    except InvalidOperation:
        return None


def answers_equal(a: str, b: str) -> bool:
    """The one answer-matching rule: two numbers match by value (``12`` and
    ``12.0``, ``.5`` and ``0.5``), any other answers when equal after
    trimming, ignoring case."""
    if a == b:
        return True
    # _fold inline: a sweep matches thousands of pairs, nearly all letters
    a, b = a.strip().casefold(), b.strip().casefold()
    if a == b:
        return True
    if a[:1] not in _NUMBER_STARTS:  # a letter or a word: no number to read
        return False
    value = _number(a)
    return value is not None and value == _number(b)


# A "." before a digit is a decimal point: it ends no declared answer. The
# lookahead keeps the rest of the declaration's line, which can name an
# option whose text holds a "." (Dr. Smith, U.S.A).
_ANSWER_DECL = re.compile(
    r"\banswer\s*(?:is|:)\s*(?=([^\n]*))((?:[^\n.!?]+|\.(?=\d))+)", re.IGNORECASE
)
_TRAILING_LETTER = re.compile(r"(?<![\w])([A-Za-z])[)\]]*[.!?]?\s*$")
# A "." between two digits ends no sentence.
_SENTENCE_SPLIT = re.compile(r"(?:[.!?\n](?:(?<!\d\.)|(?!\d)))+")
_QUOTES_AND_BRACKETS = ":*\"'()[]"
# The characters that can end a sentence, as characters that end none.
_MASK = str.maketrans(".!?\n", "\0\1\2\3")


def _option_letter(candidate: str, options, part: int):
    """The upper-cased letter of the first option whose letter (``part``
    0) or text (``part`` 1) matches ``candidate`` by ``answers_equal``, or
    None."""
    for option in options:
        if option[part] and answers_equal(candidate, option[part]):
            return option[0].upper()
    return None


def _named_at(text: str, option: str) -> int:
    """Where ``option`` first stands in ``text`` with no letter or digit
    touching it on either side, or -1."""
    i = text.find(option)
    while i >= 0:
        j = i + len(option)
        if not (text[i - 1:i].isalnum() or text[j:j + 1].isalnum()):
            return i
        i = text.find(option, i + 1)
    return -1


def extract_answer(text: str, options: Optional[Sequence] = None) -> str:
    """Pull the answer out of a response with a fixed rule cascade.

    1. the last explicit declaration ("answer is X" / "answer: X"),
       matched against the options by letter, then by the text of the
       rest of its line less a final ".", "!" or "?" (so an option text
       may hold a "."), then by its own text;
    2. the longest option text that ends the text (less a final ".",
       "!" or "?") with no letter or digit before it, unless another
       option's text is named before it in the final sentence, as rule 4
       names it;
    3. unless an option text ends the text, a trailing standalone option
       letter (or, without options, a text that is itself a single
       letter);
    4. the unique option whose text appears in the final sentence with no
       letter or digit touching it on either side ("red" is not in
       "bored");
    5. the whole trimmed text.
    No sentence ends inside an option text, but one does end at the "."
    of an abbreviation outside every option text ("e.g. B."). All
    matching folds case as ``answers_equal`` does, and letters come back
    upper-cased; rules 2 and 4 fall through on ambiguity.
    """
    options = [(str(l), str(t)) for l, t in options] if options else []

    declarations = _ANSWER_DECL.findall(text)
    if declarations:
        line, declared = declarations[-1]
        declared = declared.strip().strip(_QUOTES_AND_BRACKETS).strip()
        if not options:
            return declared
        letter = _option_letter(declared, options, 0) if len(declared) == 1 else None
        if letter is None:
            line = line.rstrip()
            line = line[:-1] if line.endswith((".", "!", "?")) else line
            letter = _option_letter(line.strip(_QUOTES_AND_BRACKETS), options, 1)
        if letter is None:
            letter = _option_letter(declared, options, 1)
        return declared if letter is None else letter

    stripped = text.strip()
    if not options:
        return stripped.upper() if len(stripped) == 1 and stripped.isalpha() else stripped

    folded = [_fold(t) for _, t in options]
    # casefold never shortens a text, so this tail holds the longest option
    # text and the character before it
    tail = stripped[:-1].rstrip() if stripped.endswith((".", "!", "?")) else stripped
    tail = tail[-max(map(len, folded)) - 1:].casefold()
    ends = [k for k, option in enumerate(folded)
            if option and tail.endswith(option) and not tail[:len(tail) - len(option)][-1:].isalnum()]
    if not ends:
        # only ")", "]" and one ".", "!" or "?" may follow the letter
        m = _TRAILING_LETTER.search(stripped, max(len(stripped.rstrip(".!?)]")) - 1, 0))
        letter = _option_letter(m.group(1), options, 0) if m else None
        if letter is not None:
            return letter

    # Mask the ".", "!", "?" and line ends of each option text, in it and in
    # the text, so that no sentence ends inside one (the "." of "Dr. Smith").
    masked = text.casefold()
    for k, option in enumerate(folded):
        if _SENTENCE_SPLIT.search(option):
            folded[k] = option.translate(_MASK)
            masked = masked.replace(option, folded[k])
    sentences = [s.strip() for s in _SENTENCE_SPLIT.split(masked) if s.strip()]
    final = sentences[-1] if sentences else ""
    named_at = {k: _named_at(final, option) for k, option in enumerate(folded)
                if option and option in final}
    named = [k for k, at in named_at.items() if at >= 0]
    if ends:
        end = max(ends, key=lambda k: len(folded[k]))
        head = max(final.rfind(folded[end]), 0)
        if not any(named_at[k] + len(folded[k]) <= head for k in named if k != end):
            return options[end][0].upper()
    return options[named[0]][0].upper() if len(named) == 1 else stripped


class ScoredResponse(NamedTuple):
    """A response with its extracted answer and the two raw scores; each
    decision computes ``sc`` at its own alpha, so none is stored."""

    trace: GenerationTrace
    answer: str
    s: float
    c: float

    def sc(self, alpha: float) -> float:
        """The weighted score the decision rule compares at ``alpha``."""
        return (1.0 - alpha) * self.s + alpha * self.c


def score_response(trace: GenerationTrace, options: Optional[Sequence] = None) -> ScoredResponse:
    """Extract the answer and compute S and C for one trace."""
    return ScoredResponse(
        trace=trace,
        answer=extract_answer(trace.text, options),
        s=similarity_score(trace.img_rep, trace.txt_rep),
        c=confidence(trace.token_logprobs),
    )


class VerifyDecision(NamedTuple):
    """The rule's immutable outcome at ``alpha``: the final answer, the
    member of ``BRANCHES`` that gave it, and the two responses it weighed."""

    final_answer: str
    chosen_branch: str
    direct: ScoredResponse
    cot: ScoredResponse
    alpha: float


# Skips VerifyDecision's generated __new__, a Python-level call: a sweep
# decides once per instance and grid point.
_new_decision = partial(tuple.__new__, VerifyDecision)


def self_verify(
    direct: ScoredResponse, cot: ScoredResponse, alpha: float = DEFAULT_ALPHA
) -> VerifyDecision:
    """Decide the final answer between the two branches.

    Agreement short-circuits to the step-by-step answer. On disagreement,
    the step-by-step answer wins unless the direct branch has the higher
    ``sc(alpha)`` (ties go to step-by-step). Neither response is changed.
    """
    check_alpha(alpha)
    if answers_equal(cot.answer, direct.answer):
        branch = BRANCHES[0]
    elif cot.sc(alpha) >= direct.sc(alpha):
        branch = BRANCHES[1]
    else:
        return _new_decision((direct.answer, BRANCHES[2], direct, cot, alpha))
    return _new_decision((cot.answer, branch, direct, cot, alpha))


def branch_record(resp: ScoredResponse, alpha: Optional[float]) -> dict:
    """The answer and scores of one branch, as eval and audit records hold
    them; ``sc`` is the score at the decision's ``alpha``, None without one."""
    return {"answer": resp.answer, "s": resp.s, "c": resp.c,
            "sc": None if alpha is None else resp.sc(alpha)}


def audit_record(decision: VerifyDecision) -> dict:
    """One JSON-ready object per verified instance, for offline audit: the
    decision's alpha and, for each branch, its ``branch_record`` at that
    alpha plus its text, token count and mean logprob."""
    record = {"alpha": decision.alpha, "final_answer": decision.final_answer,
              "chosen_branch": decision.chosen_branch}
    for name, resp in (("direct", decision.direct), ("cot", decision.cot)):
        lps = resp.trace.token_logprobs
        record[name] = {**branch_record(resp, decision.alpha), "text": resp.trace.text,
                        "n_tokens": len(lps),
                        "mean_logprob": _mean_logprob(lps) if len(lps) else None}
    return record
