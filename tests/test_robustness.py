"""A seeded, bounded fuzz: malformed input raises a classified error, never a crash.

Random edits of canonical meta texts either parse to a program that
round-trips through its canonical text, or raise a MetaLangError. Random
edits of generated questions, in all eight families, either resolve and
evaluate, or raise a ResolutionError or a MetaLangError. A numeral past
Python's digit limit on reading an int is a classified error as well. Random
mutations of a valid evaluation config, and of a valid line of each field
table, are read or raise a ConfigError or a FieldError.
"""

from __future__ import annotations

import copy
import random

import pytest

from metareason import taskgen
from metareason.harness.backends import ConfigError
from metareason.harness.runner import EvalConfig
from metareason.meta_lang.errors import MetaLangError, ParseError
from metareason.meta_lang.interpreter import eval_program
from metareason.meta_lang.parser import parse_meta
from metareason.meta_lang.renderer import render_meta
from metareason.resolution import (
    FieldError,
    ResolutionError,
    Task,
    TaskInstance,
    TemplateMismatchError,
    UnsupportedTaskError,
    config_reader,
    resolve,
    resolve_any,
)
from support import random_program
from test_harness import _VALID_LINES

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


_LONG = "7" * 5000  # past Python's 4,300-digit limit on reading an int from a string
_ARITH = "Alice has {} apples. Alice finds {} more apples. How many apples does Alice have now?"


def _resolve_ma(question: str):
    return resolve(TaskInstance(id="ma-1", task=Task.MA, question=question, gold="1"))


@pytest.mark.parametrize(
    ("read", "text", "error", "message"),
    [
        (parse_meta, f"It is known A = {_LONG}. What is the value of A?", ParseError,
         "sentence 1: numeral of 5000 digits is too long"),
        (parse_meta, f"It is known A = 1. Add {_LONG} to A. What is the value of A?", ParseError,
         "sentence 2: numeral of 5000 digits is too long"),
        (parse_meta, f"It is known A = {_LONG}/3. What is the value of A?", ParseError,
         "sentence 1: numeral of 5000 digits is too long"),
        (parse_meta, f"It is known A = 1/{_LONG}. What is the value of A?", ParseError,
         "sentence 1: numeral of 5000 digits is too long"),
        (_resolve_ma, _ARITH.format(_LONG, 2), UnsupportedTaskError, "free-form MA text needs an attached meta"),
        (_resolve_ma, _ARITH.format(5, _LONG), UnsupportedTaskError, "free-form MA text needs an attached meta"),
        (resolve_any, _ARITH.format(_LONG, 2), TemplateMismatchError,
         "amount of 5000 digits is too long: 'Alice has 777"),
        (resolve_any, _ARITH.format(5, _LONG), TemplateMismatchError,
         "amount of 5000 digits is too long: 'Alice finds 777"),
    ],
    ids=["init", "operand", "numerator", "denominator", "resolve-opening", "resolve-operation",
         "resolve_any-opening", "resolve_any-operation"],
)
def test_a_numeral_past_the_digit_limit_is_a_classified_error(read, text, error, message):
    with pytest.raises(error) as caught:
        read(text)
    assert str(caught.value).startswith(message)


_CONFIG = {
    "datasets": [{"name": "cf", "path": "cf.jsonl"}, {"name": "wol", "path": "wol.jsonl"}],
    "paradigms": ["zero-shot", "meta-reasoning"],
    "backend": {"kind": "http", "endpoint_url": "http://127.0.0.1:1", "model_name": "m",
                "auth_token_env_var": "TOKEN", "temperature": 0.5, "max_tokens": 8, "timeout": 1.5,
                "max_retries": 2, "parallelism": 2},
    "demos": {"cf": {"path": "cf-demos.jsonl", "k": 2}},
    "seed": 7,
    "output_dir": "out",
}
# What a mutation puts in place of a value or under a new key.
_MUTANTS = [None, True, False, 0, -1, 2.5, 10**400, float("nan"), float("inf"), float("-inf"), "", "x",
            "3", "\ud800", "oracle", "replay", "cf", [], ["a"], [{}], {}, {"path": "p"}]
_KEYS = ["glod", "", "kind", "parallelism", "name", "path", "k", "fixture_path", "correct", "task"]


def mutated_json(rng: random.Random, value):
    """A copy of the JSON value ``value`` with one to three mutations, each in an object or array
    picked by a random walk down from the top (or of the whole value): a value replaced, or a
    key or item added or removed."""
    value = copy.deepcopy(value)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.02:
            value = rng.choice(_MUTANTS)
            continue
        parent, place = None, value
        while isinstance(place, (dict, list)) and place and rng.random() < 0.6:
            parent = place
            place = place[rng.choice(list(place) if isinstance(place, dict) else range(len(place)))]
        if not isinstance(place, (dict, list)):
            place = parent
        if place is None:
            continue
        op = rng.choice(("replace", "add", "remove")) if place else "add"
        at = rng.choice(list(place) if isinstance(place, dict) else range(len(place))) if place else None
        mutant = copy.deepcopy(rng.choice(_MUTANTS))
        if op == "replace":
            place[at] = mutant
        elif op == "remove":
            del place[at]
        elif isinstance(place, dict):
            place[rng.choice(_KEYS)] = mutant
        else:
            place.append(mutant)
    return value


def test_mutated_configs_are_read_or_refused_with_a_config_error():
    rng = random.Random(12)
    for _ in range(8000):
        config = mutated_json(rng, _CONFIG)
        try:
            EvalConfig.from_json_dict(config)
        except ConfigError:
            continue
        except Exception as exc:
            pytest.fail(f"{exc!r} on {config!r}")


@pytest.mark.parametrize("cls, line, extra", _VALID_LINES, ids=[row[0].__name__ for row in _VALID_LINES])
def test_mutated_lines_are_read_or_refused_with_a_field_error(cls, line, extra):
    rng, read = random.Random(13), config_reader(cls, extra)
    for _ in range(3000):
        mutant = mutated_json(rng, line)
        try:
            read(mutant, rng.choice(("", "backend")))
        except FieldError:
            continue
        except Exception as exc:
            pytest.fail(f"{exc!r} on {mutant!r}")
