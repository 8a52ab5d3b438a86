"""Answer extraction and normalization goldens."""

from __future__ import annotations

import random
import re

import pytest

from metareason.harness.extraction import (
    AnswerKind,
    answer_kind,
    extract_answer,
    is_correct,
    normalize_answer,
)
from metareason.resolution import Task
from metareason.taskgen import GenConfig, generate

from conftest import (
    SAMPLE_COT_COMPLETION_MONEY,
    SAMPLE_COT_COMPLETION_TSO,
    SAMPLE_META_COMPLETION_WOL,
)


def whole_text_extract(task: Task, completion: str) -> str:
    """The extraction rules as whole-text scans: the last of all matches in
    the completion, with the option-letter cue located in the original text."""
    kind = answer_kind(task)
    if kind is AnswerKind.OPTION_LETTER:
        letters = re.findall(r"\(([A-Z])\)", completion)
        if letters:
            return letters[-1]
        cues = [m.start() for m in re.finditer(r"(?=[aA][nN][sS][wW][eE][rR])", completion)]
        if cues:
            tail_letters = re.findall(r"\b([A-Z])\b", completion[cues[-1]:])
            if tail_letters:
                return tail_letters[-1]
        return ""
    if kind is AnswerKind.YES_NO:
        hits = re.findall(r"\b([yY][eE][sS]|[nN][oO])\b", completion)
        return hits[-1].lower() if hits else ""
    if kind is AnswerKind.NUMBER:
        hits = re.findall(r"-?\d[\d,]*(?:\.\d+)?(?:/\d+)?", completion.replace("$", ""))
        return hits[-1].replace(",", "") if hits else ""
    quoted = re.findall(r'"([^"]+)"', completion)
    if quoted:
        return quoted[-1]
    tokens = re.findall(r"\b[a-z]+\b", completion)
    return tokens[-1] if tokens else ""


# Separators, the characters the patterns touch, case and Unicode look-alikes
# ("yeſ" would match "yes" under IGNORECASE, "İ" lowercases to two characters,
# "٣" is a digit), and cue words.
_ATOMS = (
    " ", " ", " ", "  ", "\t", "\n", "$", ",", ".", "/", "-", "_", "(", ")", '"', "'",
    "yes", "NO", "yeſ", "no", "İ", "٣", "7", "42", "3.5", "A", "B", "Q", "Z",
    "answer", "ANSWER", "x", "ab",
)
_FILLER = "; " * 10_000  # 20 KB that no pattern matches
_ANSWER_FIRST = 'answer B (C) yes 1,234 "nk" kept ' + _FILLER


class TestFromTheEnd:
    def test_matches_whole_text_scan_on_random_strings(self):
        rng = random.Random(12)
        for _ in range(20_000):
            text = "".join(rng.choice(_ATOMS) for _ in range(rng.randrange(60)))
            for task in Task:
                assert extract_answer(task, text) == whole_text_extract(task, text), (task, text)

    @pytest.mark.parametrize("text", [
        _ANSWER_FIRST,
        _FILLER,
        'answer:B,(C),yes,1,234,"nk",kept' + "._" * 10_000,  # no space at all
    ], ids=["answer-at-start", "no-answer", "no-space"])
    def test_long_completions(self, text):
        for task in Task:
            assert extract_answer(task, text) == whole_text_extract(task, text)

    def test_long_completion_answers(self):
        assert extract_answer(Task.TSO3, _ANSWER_FIRST) == "C"
        assert extract_answer(Task.CF, _ANSWER_FIRST) == "yes"
        assert extract_answer(Task.MA, _ANSWER_FIRST) == "1234"
        assert extract_answer(Task.LLC, _ANSWER_FIRST) == "nk"
        assert all(extract_answer(task, _FILLER) == "" for task in Task)

    def test_option_cue_located_in_original_text(self):
        # "İ".lower() is two characters; the cue index must not shift past "answer".
        assert extract_answer(Task.TSO3, "İ" * 10 + " answer B") == "B"
        assert extract_answer(Task.TSO3, "x" * 10 + " answer B") == "B"


class TestGoldens:
    def test_option_letter_from_step_chain(self):
        assert extract_answer(Task.TSO3, SAMPLE_COT_COMPLETION_TSO) == "A"

    def test_yes_no_from_symbolic_chain(self):
        assert extract_answer(Task.WOL, SAMPLE_META_COMPLETION_WOL) == "no"

    def test_number_with_currency_symbol(self):
        assert extract_answer(Task.MA, SAMPLE_COT_COMPLETION_MONEY) == "18"


class TestExtraction:
    def test_option_falls_back_to_cue_then_empty(self):
        assert extract_answer(Task.TSO5, "the answer is C") == "C"
        assert extract_answer(Task.TSO5, "C") == ""
        assert extract_answer(Task.TSO5, "no idea") == ""

    def test_option_prefers_last_parenthesized(self):
        assert extract_answer(Task.TSO3, "(A) then (B). So the answer is (C).") == "C"

    def test_yes_no_takes_last_token(self):
        assert extract_answer(Task.CF, "Yes... wait, no. Not really. NO") == "no"
        assert extract_answer(Task.CF, "nothing matches here") == ""

    def test_yes_no_ignores_case_fold_look_alikes(self):
        assert extract_answer(Task.CF, "no. So the answer is yeſ.") == "no"  # ſ: long s

    def test_number_strips_separators(self):
        assert extract_answer(Task.AS, "the total is $1,234.") == "1234"
        assert extract_answer(Task.MA, "so A = 9/2 finally") == "9/2"
        assert extract_answer(Task.MA, "no digits") == ""

    def test_letter_string_prefers_quoted(self):
        assert extract_answer(Task.LLC, 'so the result is "nk".') == "nk"
        assert extract_answer(Task.LLC, "the answer is nk") == "nk"
        assert extract_answer(Task.LLC, "???") == ""

    def test_total_function_on_empty_completion(self):
        for task in Task:
            assert extract_answer(task, "") == ""


class TestNormalization:
    def test_numeric_equivalences(self):
        assert normalize_answer(Task.MA, "$18") == "18"
        assert normalize_answer(Task.MA, "1,234") == "1234"
        assert normalize_answer(Task.MA, "4.5") == "9/2"
        assert normalize_answer(Task.MA, "9/2") == "9/2"
        assert is_correct(Task.MA, "$18", "18")

    def test_yes_no_case_and_punctuation(self):
        assert normalize_answer(Task.WOL, " Yes. ") == "yes"
        assert is_correct(Task.CF, "No", "no")

    def test_option_letter_parens(self):
        assert normalize_answer(Task.TSO3, "(c)") == "C"
        assert is_correct(Task.TSO7, "C", "C")

    def test_letter_string_lowercases(self):
        assert normalize_answer(Task.LLC, '"NK"') == "nk"

    def test_unparseable_number_falls_back_to_text(self):
        assert normalize_answer(Task.MA, "eighteen") == "eighteen"

    def test_exponent_compares_as_text(self):
        # A rational of 10**5000 has more digits than str() may convert.
        assert normalize_answer(Task.MA, "1e5000") == "1e5000"
        assert not is_correct(Task.MA, "18", "1e5000")


class TestIdempotence:
    @pytest.mark.parametrize("task", list(Task))
    def test_cue_plus_gold_extracts_to_gold(self, task):
        for inst in generate(GenConfig(task=task, count=30, seed=31)):
            completion = f"the answer is {inst.gold}"
            assert extract_answer(task, completion) == normalize_answer(task, inst.gold)
