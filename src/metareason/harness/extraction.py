"""Answer extraction from model completions, plus task-aware normalization
for exact-match scoring."""

from __future__ import annotations

import re
from fractions import Fraction

from ..resolution import NUMERIC_TASKS, TSO_TASKS, Task, YES_NO_TASKS


# Every pattern but _QUOTED matches at least one character and never a space,
# which is what lets _last scan from the end.
_PAREN_LETTER = re.compile(r"\(([A-Z])\)")
_BARE_LETTER = re.compile(r"\b([A-Z])\b")
# ASCII case only: re.IGNORECASE would also match look-alikes such as "yeſ".
_YES_NO = re.compile(r"\b([yY][eE][sS]|[nN][oO])\b")
_NUMBER = re.compile(r"-?\d[\d,]*(?:\.\d+)?(?:/\d+)?")
_QUOTED = re.compile(r'"([^"]+)"')
_LOWER_TOKEN = re.compile(r"\b[a-z]+\b")
# Only A N S W E R lowercase into the letters of "answer". Matching the cue in
# the original text keeps its index right where lower() changes the length
# ("İ" lowercases to two characters).
_CUE = re.compile(r"[aA][nN][sS][wW][eE][rR]")
_STRIP_CHARS = " \t\n\"'().,:;!?"
# A completion usually ends with its answer, within the last word or two.
_FIRST_WINDOW = 8


def _last(pattern: re.Pattern[str], text: str) -> str:
    """`pattern.findall(text)[-1]`, or "" when nothing matches, without
    scanning the whole text when the last match is near its end.

    `pattern` must never match the empty string or a space. A scan of the
    whole text then reaches each position just after a space in step with a
    scan started there, so tail windows that start just after a space, taken
    from the end and doubling in size, hold the same matches. The first
    window with a match holds the last one. Windows are scanned in place
    (`pos`, `endpos`) and do not overlap, so no character is read twice.
    """
    end, size = len(text), _FIRST_WINDOW
    while True:
        start = text.rfind(" ", 0, end - size) + 1 if end > size else 0
        hits = pattern.findall(text, start, end)
        if hits or not start:
            return hits[-1] if hits else ""
        end, size = start, size * 2


def extract_answer(task: Task, completion: str) -> str:
    """Pull the final answer token out of a completion: the last match of the
    task's answer pattern anywhere in it, found by scanning from the end.

    Total function: returns the empty string when nothing matches, which
    scores as incorrect.
    """
    if task in TSO_TASKS:
        letter = _last(_PAREN_LETTER, completion)
        if letter:
            return letter
        cue = _last(_CUE, completion)
        # The cue's text recurs nowhere after it: a later copy would be a later
        # cue, and "answer" cannot overlap itself.
        return _last(_BARE_LETTER, completion[completion.rfind(cue):]) if cue else ""
    if task in YES_NO_TASKS:
        return _last(_YES_NO, completion).lower()
    if task in NUMERIC_TASKS:
        return _last(_NUMBER, completion.replace("$", "")).replace(",", "")
    quoted = _QUOTED.findall(completion)
    if quoted:
        return quoted[-1]
    return _last(_LOWER_TOKEN, completion)


def _canonical_rational(text: str) -> str | None:
    # An exponent could make Fraction build a huge power of ten; extracted
    # answers never carry one, so such a text compares as text.
    if "e" in text or "E" in text:
        return None
    try:
        if "/" in text:
            numerator, denominator = text.split("/", 1)
            value = Fraction(int(numerator), int(denominator))
        else:
            value = Fraction(text)
        # str() of an int past the interpreter's digit limit raises ValueError.
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except (ValueError, ZeroDivisionError):
        return None


def normalize_answer(task: Task, text: str) -> str:
    """Canonical comparison form: exact rationals for numeric tasks (after
    stripping currency symbols and thousands separators), lowercased yes/no
    and letter strings, bare uppercase option letters."""
    stripped = text.strip(_STRIP_CHARS)
    if task in NUMERIC_TASKS:
        rational = _canonical_rational(stripped.replace("$", "").replace(",", ""))
        return rational if rational is not None else stripped.lower()
    if task in YES_NO_TASKS:
        return stripped.lower()
    if task in TSO_TASKS:
        return stripped.upper()
    return stripped.lower()


def is_correct(task: Task, extracted: str, gold: str) -> bool:
    # Equal texts normalize alike; only differing ones need normalizing.
    return extracted == gold or normalize_answer(task, extracted) == normalize_answer(task, gold)
