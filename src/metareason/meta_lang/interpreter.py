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
    Says,
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
    promotes to rationals; nothing is ever rounded. Each statement and the
    query run by the rule of their own class, found in one lookup (a program
    is validated when built, so every node has one).
    """
    env: dict[str, Value] = dict(program.inits)
    steps = []
    for stmt in program.stmts:
        _STEPS[type(stmt)](stmt, env)
        steps.append(tuple(env.items()))
    query = program.query
    return Trace(tuple(steps), _ANSWERS[type(query)](query, env), program)


def _numeric(env: dict[str, Value], sym: str, verb: str) -> int | Fraction:
    """The number in ``sym``; a string is refused for ``verb`` (the message is built only then)."""
    value = env[sym]
    if isinstance(value, str):
        raise EvalTypeError(f"{verb} {sym} needs a numeric value, got {value!r}")
    return value


def _normalized(value: int | Fraction) -> int | Fraction:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _add(stmt: Add, env: dict[str, Value]) -> None:
    env[stmt.sym] = _normalized(_numeric(env, stmt.sym, "Add to") + stmt.amount)


def _sub(stmt: Sub, env: dict[str, Value]) -> None:
    env[stmt.sym] = _normalized(_numeric(env, stmt.sym, "Subtract from") - stmt.amount)


def _mul(stmt: Mul, env: dict[str, Value]) -> None:
    env[stmt.sym] = _normalized(_numeric(env, stmt.sym, "Multiply") * stmt.factor)


def _div(stmt: Div, env: dict[str, Value]) -> None:
    env[stmt.sym] = _normalized(Fraction(_numeric(env, stmt.sym, "Divide")) / stmt.divisor)


def _swap(stmt: Swap, env: dict[str, Value]) -> None:
    left, right = stmt.left, stmt.right
    env[left], env[right] = env[right], env[left]


def _says(stmt: Says, env: dict[str, Value]) -> None:
    env[stmt.speaker] = int(env[stmt.target] == stmt.claimed)


def _flip(stmt: Flip, env: dict[str, Value]) -> None:
    value = env[stmt.sym]
    if value not in (0, 1):
        raise EvalTypeError(f"Flip needs a 0/1 bit in {stmt.sym}, got {value!r}")
    env[stmt.sym] = 1 - value


def _last_of(stmt: LastOf, env: dict[str, Value]) -> None:
    env[stmt.sym] = stmt.literal[-1]


def _value_of(query: ValueOf, env: dict[str, Value]) -> Value:
    return env[query.sym]


def _is_equal(query: IsEqual, env: dict[str, Value]) -> Value:
    return "yes" if env[query.sym] == query.value else "no"


def _option_of(query: OptionOf, env: dict[str, Value]) -> Value:
    value = env[query.sym]
    if isinstance(value, int):
        return value
    raise EvalTypeError(f"option query needs an integer in {query.sym}, got {value!r}")


def _concat_of(query: ConcatOf, env: dict[str, Value]) -> Value:
    parts = []
    for sym in query.syms:
        value = env[sym]
        if not isinstance(value, str):
            raise EvalTypeError(f"concatenation needs strings, {sym} holds {value!r}")
        parts.append(value)
    return "".join(parts)


# The rule of each statement and query class, looked up by the node's own type.
_STEPS = {Add: _add, Sub: _sub, Mul: _mul, Div: _div, Swap: _swap, Says: _says, Flip: _flip, LastOf: _last_of}
_ANSWERS = {ValueOf: _value_of, IsEqual: _is_equal, OptionOf: _option_of, ConcatOf: _concat_of}
