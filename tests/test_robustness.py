"""A seeded, bounded fuzz: malformed input raises a classified error, never a crash.

Random edits of canonical meta texts either parse to a program that
round-trips through its canonical text, or raise a MetaLangError. Random
edits of generated questions, in all eight families, either resolve and
evaluate, or raise a ResolutionError or a MetaLangError.
"""

from __future__ import annotations

import random

import pytest

from metareason import taskgen
from metareason.meta_lang.errors import MetaLangError
from metareason.meta_lang.interpreter import eval_program
from metareason.meta_lang.parser import parse_meta
from metareason.meta_lang.renderer import render_meta
from metareason.resolution import ResolutionError, Task, resolve, resolve_any
from support import random_program

_INSTANCES = [
    inst for task in Task for inst in taskgen.generate(taskgen.GenConfig(task=task, count=3, seed=11))
]
META_TEXTS = [render_meta(random_program(random.Random(seed))) for seed in range(30)]
META_TEXTS += [render_meta(resolve(inst).program) for inst in _INSTANCES]
QUESTIONS = [(inst.question, inst.options) for inst in _INSTANCES]

# Pieces the edits insert, delete or overwrite: the grammar's punctuation,
# quotes and escapes, clause connectives, and stray letters and digits.
_PIECES = ["A", "z", "7", "0", " ", ".", ",", "?", '"', "\\", "=", "(", ")", "/", "/0", "-", "\n",
           ", then ", ". ", " = ", 'last("', "1/0", " says ", " and ", " swap", "It is known "]


def edited(rng: random.Random, text: str) -> str:
    """One to three edits at uniform positions: insert, delete or overwrite a piece."""
    for _ in range(rng.randint(1, 3)):
        i, piece = rng.randint(0, len(text)), rng.choice(_PIECES)
        op = rng.choice(("insert", "overwrite", "delete"))
        end = i if op == "insert" else i + len(piece)
        text = text[:i] + ("" if op == "delete" else piece) + text[end:]
    return text


def test_edited_meta_texts_round_trip_or_raise_classified():
    rng = random.Random(8)
    for _ in range(4000):
        text = edited(rng, rng.choice(META_TEXTS))
        try:
            program = parse_meta(text)
        except MetaLangError:
            continue
        except Exception as exc:
            pytest.fail(f"{exc!r} on {text!r}")
        assert parse_meta(render_meta(program)) == program, text


def test_edited_questions_resolve_or_raise_classified():
    rng = random.Random(9)
    for _ in range(4000):
        question, options = rng.choice(QUESTIONS)
        question = edited(rng, question)
        try:
            eval_program(resolve_any(question, options)[1].program)
        except (ResolutionError, MetaLangError):
            continue
        except Exception as exc:
            pytest.fail(f"{exc!r} on {question!r}")
