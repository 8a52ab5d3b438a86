"""Demonstration builders: fuse the symbolic simplification with a
step-by-step chain, rendered mechanically from interpreter traces.

Two fusion modes. Completely-serial states the whole simplified program
first and then the full chain; cross-serial interleaves one simplification
fragment with its local reasoning step, one sub-block per statement.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from . import templates
from .meta_lang.ast import (
    Add,
    ConcatOf,
    Div,
    Flip,
    IsEqual,
    LastOf,
    Mul,
    OptionOf,
    Says,
    Statement,
    Sub,
    Swap,
    Trace,
    Value,
    format_value,
    quote_string,
)
from .meta_lang.interpreter import eval_program
from .meta_lang.renderer import init_sentence, render_meta, render_query, render_statement
from .resolution import (
    NUMERIC_TASKS,
    MetaQuestion,
    Task,
    TaskInstance,
    read_jsonl,
    resolve,
    surface_answer,
    write_jsonl,
)
from .resolution import config_number, config_reader, config_rule, config_string, json_fields, setting


class DemoError(Exception):
    """Base class for demonstration-building failures."""


class TraceMismatchError(DemoError):
    """The supplied trace was not produced by the meta-question's program."""


class AlignmentError(DemoError):
    """A statement has no surface fragment to anchor its sub-block."""


class PoolTooSmallError(DemoError):
    """Fewer demonstrations available than requested."""


class FusionMode(str, Enum):
    COMPLETELY_SERIAL = "completely-serial"
    CROSS_SERIAL = "cross-serial"


def default_mode(task: Task) -> FusionMode:
    """Completely-serial for arithmetic tasks, cross-serial for symbolic ones."""
    if task in NUMERIC_TASKS:
        return FusionMode.COMPLETELY_SERIAL
    return FusionMode.CROSS_SERIAL


@dataclass(frozen=True)
class Demonstration:
    """A (question, rationale, answer) exemplar; question text includes any
    rendered options so the exemplar is self-contained in a prompt."""

    question: str = setting(config_string)
    rationale: str = setting(config_string)
    answer: str = setting(config_string)
    mode: FusionMode = setting(config_rule("a fusion mode name", read=FusionMode))
    n_substeps: int | None = setting(config_number(int, exact=True), default=None)


def load_demonstrations(path) -> list[Demonstration]:
    return list(read_jsonl(path, config_reader(Demonstration)))


def save_demonstrations(path, demos: Iterable[Demonstration]) -> None:
    write_jsonl(path, (json_fields(demo) for demo in demos))


def render_question(question: str, options: Sequence[str] | None) -> str:
    """Question text with its options block, exactly as shown in prompts."""
    if not options:
        return question
    lines = [f"({chr(ord('A') + index)}) {text}" for index, text in enumerate(options)]
    return question + "\nOptions:\n" + "\n".join(lines)


def _check_trace(mq: MetaQuestion, trace: Trace) -> None:
    if trace.program != mq.program:
        raise TraceMismatchError("trace was not produced by this program")


def _environments(trace: Trace) -> list[dict[str, Value]]:
    """Environment before each statement, then the final one."""
    return [dict(trace.program.inits), *map(dict, trace.steps)]


def _env_text(env: dict[str, Value]) -> str:
    return ", ".join(f"{sym} = {format_value(value)}" for sym, value in env.items())


def _ordinal(k: int) -> str:
    if 10 <= k % 100 <= 13:
        return f"{k}-th"
    return f"{k}-" + {1: "st", 2: "nd", 3: "rd"}.get(k % 10, "th")


_OPS = {Add: ("+", "amount"), Sub: ("-", "amount"), Mul: ("*", "factor"), Div: ("/", "divisor")}


def _arith_step(stmt: Statement, before: dict[str, Value], after: dict[str, Value]) -> str:
    """One chain line, e.g. ``A - 3 = 16 - 3 = 13``."""
    op, operand = _OPS[type(stmt)]
    operand = getattr(stmt, operand)
    old = format_value(before[stmt.sym])
    new = format_value(after[stmt.sym])
    return f"{stmt.sym} {op} {operand} = {old} {op} {operand} = {new}"


_NAME_WORD = re.compile(rf"\b({templates.NAME})")  # split parts: text, name, text, ...


def _symbolize(text: str, symbols: dict[str, str]) -> str:
    """Replace entity mentions (``symbols``: name to symbol) with their symbols
    in one pass. Entity names are name-shaped words, so each such word is looked
    up, and a name that equals a symbol is not read inside one written."""
    parts = _NAME_WORD.split(text)
    parts[1::2] = [symbols.get(word, word) for word in parts[1::2]]
    return "".join(parts)


_CLAIM_WORDS = {1: "truth", 0: "lies"}


def chain_line(stmt: Statement, before: dict[str, Value], after: dict[str, Value]) -> str:
    """Render one executed statement in reasoning-chain style: its canonical
    sentence, then what it did."""
    match stmt:
        case Add() | Sub() | Mul() | Div():
            return _arith_step(stmt, before, after)
        case Swap():
            outcome = f"→ {_env_text(after)}"
        case Says(speaker=sym) | Flip(sym=sym):
            outcome = f"→ {sym} = {format_value(after[sym])}"
        case LastOf(sym=sym):
            outcome = f"= {quote_string(after[sym])}"
        case _:
            raise DemoError(f"unknown statement {stmt!r}")
    return f"{render_statement(stmt)} {outcome}"


def _sub_block(stmt: Statement, fragment: str, symbols: dict, before: dict, after: dict, shown: dict) -> str:
    """One statement's block. ``shown`` holds ``SYM = value`` for each symbol of ``before``,
    in its order; the block draws again what ``stmt`` writes, so it then holds ``after``."""
    fragment = fragment.rstrip(".")
    match stmt:
        case Swap(left=left, right=right):
            was = f"{shown[left]}, {shown[right]}"
            shown[left] = f"{left} = {format_value(after[left])}"
            shown[right] = f"{right} = {format_value(after[right])}"
            return (
                f"{_symbolize(fragment, symbols)}: {left} and {right} → ({was} → {shown[left]}, {shown[right]})"
                f" → {', '.join(shown.values())}."
            )
        case Says(speaker=speaker, target=target, claimed=claimed):
            shown[speaker] = f"{speaker} = {format_value(after[speaker])}"
            relation = "is equal to" if before[target] == claimed else "is not equal to"
            return (
                f"{fragment}: {_CLAIM_WORDS.get(claimed) or format_value(claimed)} → {target}' = "
                f"{format_value(claimed)}. Since {shown[target]}, {target} {relation} {target}', so {shown[speaker]}."
            )
        case Flip(sym=sym):
            was, shown[sym] = shown[sym], f"{sym} = {format_value(after[sym])}"
            return f"{fragment}: flip → ({was} → {shown[sym]}) → {', '.join(shown.values())}."
        case LastOf(sym=sym, literal=literal):
            shown[sym] = f"{sym} = {quote_string(after[sym])}"
            return f"{fragment}: {sym} = last({quote_string(literal)}) → {shown[sym]}."
        case Add(sym=sym) | Sub(sym=sym) | Mul(sym=sym) | Div(sym=sym):
            shown[sym] = f"{sym} = {format_value(after[sym])}"
            return f"{fragment}: {_arith_step(stmt, before, after)}."
    raise DemoError(f"unknown statement {stmt!r}")


def _answer_block(mq: MetaQuestion, trace: Trace, final: dict, answer: str, query_fragment: str | None) -> str:
    """The closing block; ``final`` is the environment ``trace`` ends in, ``answer`` its surface answer."""
    query = mq.program.query
    if isinstance(query, OptionOf):
        position = trace.answer
        lead = ""
        if query_fragment:
            lead = query_fragment.rstrip(".") + ": "
            try:
                lead += mq.table.surface_for(query.sym) + " → "
            except KeyError:
                pass
        return (
            f"{lead}{query.sym} = {position}, {position} → the {_ordinal(position)} option"
            f" → the answer is ({answer})."
        )
    if isinstance(query, IsEqual):
        return (
            f"Since {query.sym} = {format_value(final[query.sym])},"
            f" so the answer is: {trace.answer}."
        )
    if isinstance(query, ConcatOf):
        parts = " + ".join([quote_string(str(final[sym])) for sym in query.syms])
        joined = str(trace.answer)
        return f"{parts} = {quote_string(joined)}, so the answer is: {joined}."
    return f"Therefore, the value of {query.sym} is {answer}, so the answer is {answer}."


def chain_lines(trace: Trace) -> list[str]:
    """The initial environment (when there are inits), then one ``chain_line``
    per executed statement."""
    program = trace.program
    envs = _environments(trace)
    lines = [_env_text(envs[0])] if program.inits else []
    return lines + [chain_line(stmt, envs[i], envs[i + 1]) for i, stmt in enumerate(program.stmts)]


def build_completely_serial(inst: TaskInstance, mq: MetaQuestion, trace: Trace) -> Demonstration:
    """Simplification line (the whole program), then the full chain, then the answer."""
    _check_trace(mq, trace)
    program = mq.program
    answer = surface_answer(mq, trace)
    lines = ["The question can be simplified to: " + render_meta(program)]
    lines += chain_lines(trace)
    lines.append(_answer_block(mq, trace, trace.final(), answer, None))
    return Demonstration(
        question=render_question(inst.question, inst.options),
        rationale="\n".join(lines),
        answer=answer,
        mode=FusionMode.COMPLETELY_SERIAL,
    )


def build_cross_serial(inst: TaskInstance, mq: MetaQuestion, trace: Trace) -> Demonstration:
    """One sub-block per statement: surface fragment, symbolic rewrite, local
    update, environment snapshot; the final block back-maps the answer."""
    _check_trace(mq, trace)
    program = mq.program
    spans, count = mq.table.op_spans, len(program.stmts)
    if len(spans) < count:
        raise AlignmentError(f"statement {len(spans)} has no surface fragment")
    envs = _environments(trace)
    shown = {sym: f"{sym} = {format_value(value)}" for sym, value in program.inits}  # the PAIR texts
    opening = init_sentence(shown.values()) if shown else render_query(program.query)
    lines = ["The question can be simplified to: " + opening]
    symbols = mq.table.as_dict() if Swap in map(type, program.stmts) else {}  # only swaps name entities
    for stmt, span, before, after in zip(program.stmts, spans, envs, envs[1:]):
        lines.append(_sub_block(stmt, span.text, symbols, before, after, shown))
    answer = surface_answer(mq, trace)
    lines.append(_answer_block(mq, trace, envs[-1], answer, spans[count].text if len(spans) > count else None))
    return Demonstration(
        question=render_question(inst.question, inst.options),
        rationale="\n".join(lines),
        answer=answer,
        mode=FusionMode.CROSS_SERIAL,
        n_substeps=count,
    )


def build_from_trace(
    inst: TaskInstance, mq: MetaQuestion, trace: Trace, mode: FusionMode | None = None
) -> Demonstration:
    """Build in the given (or task-default) mode from a resolved, evaluated instance."""
    if (mode or default_mode(inst.task)) is FusionMode.COMPLETELY_SERIAL:
        return build_completely_serial(inst, mq, trace)
    return build_cross_serial(inst, mq, trace)


def build_demonstration(inst: TaskInstance, mode: FusionMode | None = None) -> Demonstration:
    """Resolve, evaluate, and build in the given (or task-default) mode."""
    mq = resolve(inst)
    return build_from_trace(inst, mq, eval_program(mq.program), mode)


def select_demos(pool: Sequence[Demonstration], k: int, seed: int) -> list[Demonstration]:
    """Deterministic sample without replacement; order fixed by the seed."""
    if k > len(pool):
        raise PoolTooSmallError(f"asked for {k} demonstrations, pool has {len(pool)}")
    return random.Random(seed).sample(list(pool), k)
