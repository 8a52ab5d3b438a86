"""Answer extraction from model completions, plus task-aware normalization
for exact-match scoring."""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction

from ..resolution import NUMERIC_TASKS, OPTION_TASKS, Task, YES_NO_TASKS


class AnswerKind(Enum):
    NUMBER = "number"
    YES_NO = "yes-no"
    OPTION_LETTER = "option-letter"
    LETTER_STRING = "letter-string"


def answer_kind(task: Task) -> AnswerKind:
    if task in OPTION_TASKS:
        return AnswerKind.OPTION_LETTER
    if task in YES_NO_TASKS:
        return AnswerKind.YES_NO
    if task in NUMERIC_TASKS:
        return AnswerKind.NUMBER
    return AnswerKind.LETTER_STRING


_PAREN_LETTER = re.compile(r"\(([A-Z])\)")
_BARE_LETTER = re.compile(r"\b([A-Z])\b")
_YES_NO = re.compile(r"\b(yes|no)\b", re.IGNORECASE)
_NUMBER = re.compile(r"-?\d[\d,]*(?:\.\d+)?(?:/\d+)?")
_QUOTED = re.compile(r'"([^"]+)"')
_LOWER_TOKEN = re.compile(r"\b[a-z]+\b")
_STRIP_CHARS = " \t\n\"'().,:;!?"


def extract_answer(task: Task, completion: str) -> str:
    """Pull the final answer token out of a completion.

    Total function: returns the empty string when nothing matches, which
    scores as incorrect.
    """
    kind = answer_kind(task)
    if kind is AnswerKind.OPTION_LETTER:
        letters = _PAREN_LETTER.findall(completion)
        if letters:
            return letters[-1]
        cue = completion.lower().rfind("answer")
        if cue >= 0:
            tail_letters = _BARE_LETTER.findall(completion[cue:])
            if tail_letters:
                return tail_letters[-1]
        return ""
    if kind is AnswerKind.YES_NO:
        hits = _YES_NO.findall(completion)
        return hits[-1].lower() if hits else ""
    if kind is AnswerKind.NUMBER:
        hits = _NUMBER.findall(completion.replace("$", ""))
        return hits[-1].replace(",", "") if hits else ""
    quoted = _QUOTED.findall(completion)
    if quoted:
        return quoted[-1]
    tokens = _LOWER_TOKEN.findall(completion)
    return tokens[-1] if tokens else ""


def _canonical_rational(text: str) -> str | None:
    try:
        if "/" in text:
            numerator, denominator = text.split("/", 1)
            value = Fraction(int(numerator), int(denominator))
        else:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def normalize_answer(task: Task, text: str) -> str:
    """Canonical comparison form: exact rationals for numeric tasks (after
    stripping currency symbols and thousands separators), lowercased yes/no
    and letter strings, bare uppercase option letters."""
    kind = answer_kind(task)
    stripped = text.strip(_STRIP_CHARS)
    if kind is AnswerKind.NUMBER:
        rational = _canonical_rational(stripped.replace("$", "").replace(",", ""))
        return rational if rational is not None else stripped.lower()
    if kind is AnswerKind.YES_NO:
        return stripped.lower()
    if kind is AnswerKind.OPTION_LETTER:
        return stripped.upper()
    return stripped.lower()


def is_correct(task: Task, extracted: str, gold: str) -> bool:
    # Equal texts normalize alike; only differing ones need normalizing.
    return extracted == gold or normalize_answer(task, extracted) == normalize_answer(task, gold)
