"""Exact interpreter for meta-programs, producing step-by-step traces."""

from __future__ import annotations

from fractions import Fraction

from .ast import (
    Add,
    ConcatOf,
    Div,
    Flip,
    IsEqual,
    LastOf,
    MetaProgram,
    Mul,
    OptionOf,
    Query,
    Says,
    Statement,
    Sub,
    Swap,
    Trace,
    Value,
    ValueOf,
)
from .errors import EvalTypeError


def eval_program(program: MetaProgram) -> Trace:
    """Execute a well-formed program with exact arithmetic.

    Pure function: identical programs yield identical traces. Division
    promotes to rationals; nothing is ever rounded.
    """
    env: dict[str, Value] = dict(program.inits)
    steps = []
    for stmt in program.stmts:
        _apply(stmt, env)
        steps.append(tuple(env.items()))
    return Trace(steps=tuple(steps), answer=_answer(program.query, env), program=program)


def _numeric(value: Value, context: str) -> int | Fraction:
    if isinstance(value, str):
        raise EvalTypeError(f"{context} needs a numeric value, got {value!r}")
    return value


def _normalized(value: int | Fraction) -> int | Fraction:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _apply(stmt: Statement, env: dict[str, Value]) -> None:
    match stmt:
        case Add(sym=sym, amount=amount):
            env[sym] = _normalized(_numeric(env[sym], f"Add to {sym}") + amount)
        case Sub(sym=sym, amount=amount):
            env[sym] = _normalized(_numeric(env[sym], f"Subtract from {sym}") - amount)
        case Mul(sym=sym, factor=factor):
            env[sym] = _normalized(_numeric(env[sym], f"Multiply {sym}") * factor)
        case Div(sym=sym, divisor=divisor):
            env[sym] = _normalized(Fraction(_numeric(env[sym], f"Divide {sym}")) / divisor)
        case Swap(left=left, right=right):
            env[left], env[right] = env[right], env[left]
        case Says(speaker=speaker, target=target, claimed=claimed):
            env[speaker] = int(env[target] == claimed)
        case Flip(sym=sym):
            value = env[sym]
            if value not in (0, 1):
                raise EvalTypeError(f"Flip needs a 0/1 bit in {sym}, got {value!r}")
            env[sym] = 1 - value
        case LastOf(sym=sym, literal=literal):
            env[sym] = literal[-1]


def _answer(query: Query, env: dict[str, Value]) -> Value:
    match query:
        case ValueOf(sym=sym):
            return env[sym]
        case IsEqual(sym=sym, value=value):
            return "yes" if env[sym] == value else "no"
        case OptionOf(sym=sym):
            value = env[sym]
            if isinstance(value, int):
                return value
            raise EvalTypeError(f"option query needs an integer in {sym}, got {value!r}")
        case ConcatOf(syms=syms):
            parts = []
            for sym in syms:
                value = env[sym]
                if not isinstance(value, str):
                    raise EvalTypeError(f"concatenation needs strings, {sym} holds {value!r}")
                parts.append(value)
            return "".join(parts)
    raise EvalTypeError(f"unknown query {query!r}")
