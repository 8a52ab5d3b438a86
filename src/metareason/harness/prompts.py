"""Prompt assembly for the five prompting paradigms."""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from ..demos import Demonstration, render_question
from ..resolution import TaskInstance, config_enum


class HarnessError(Exception):
    """Base class for harness failures."""


class IncompatibleDemosError(HarnessError):
    """Demonstration count does not fit the paradigm."""


class Paradigm(str, Enum):
    ZERO_SHOT = "zero-shot"
    ZERO_SHOT_COT = "zero-shot-cot"
    FEW_SHOT = "few-shot"
    FEW_SHOT_COT = "few-shot-cot"
    META_REASONING = "meta-reasoning"


DISPLAY_NAMES = {
    Paradigm.ZERO_SHOT: "Zero-Shot",
    Paradigm.ZERO_SHOT_COT: "Zero-Shot-CoT",
    Paradigm.FEW_SHOT: "Few-Shot",
    Paradigm.FEW_SHOT_COT: "Few-Shot-CoT",
    Paradigm.META_REASONING: "Meta-Reasoning",
}

COT_TRIGGER = "Let's think step by step."

DEMO_PARADIGMS = (Paradigm.FEW_SHOT, Paradigm.FEW_SHOT_COT, Paradigm.META_REASONING)


# Each paradigm by its value, which is its folded spelling: the one lookup of paradigm names.
_PARADIGMS = {paradigm.value: paradigm for paradigm in Paradigm}


def paradigm_from_string(text: str) -> Paradigm:
    """The paradigm named ``text``: its value, or else that in any case, with ``_`` for ``-``
    and spaces around it."""
    try:
        return _PARADIGMS[text] if text in _PARADIGMS else _PARADIGMS[text.strip().lower().replace("_", "-")]
    except KeyError:
        raise ValueError(f"unknown paradigm {text!r}") from None


config_paradigm = config_enum("a paradigm name", paradigm_from_string, _PARADIGMS)


def demo_prefix(paradigm: Paradigm, demos: Sequence[Demonstration]) -> str:
    """What every prompt of ``paradigm`` over ``demos`` opens with: a block
    per demonstration, each followed by a blank line."""
    if paradigm in DEMO_PARADIGMS and not demos:
        raise IncompatibleDemosError(f"{paradigm.value} needs at least one demonstration")
    if paradigm not in DEMO_PARADIGMS and demos:
        raise IncompatibleDemosError(f"{paradigm.value} takes no demonstrations")
    if paradigm is Paradigm.FEW_SHOT:
        return "".join([f"Q: {demo.question}\nA: {demo.answer}\n\n" for demo in demos])
    return "".join([f"Q: {demo.question}\nA: {demo.rationale}\n\n" for demo in demos])


def target_block(paradigm: Paradigm, inst: TaskInstance) -> str:
    """What every prompt for ``inst`` ends with: its question and the answer cue."""
    target = f"Q: {render_question(inst.question, inst.options)}\nA:"
    return f"{target} {COT_TRIGGER}" if paradigm is Paradigm.ZERO_SHOT_COT else target


def assemble_prompt(
    paradigm: Paradigm, demos: Sequence[Demonstration], inst: TaskInstance
) -> str:
    """Build the full prompt text; blocks are separated by blank lines."""
    return demo_prefix(paradigm, demos) + target_block(paradigm, inst)
