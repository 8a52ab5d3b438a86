"""Core types of the meta-question language, and the one walk that checks and runs a program."""

from __future__ import annotations

import operator
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from string import ascii_uppercase

from .errors import (
    DivideByZeroError,
    DuplicateSymbolError,
    EvalTypeError,
    InvalidProgramError,
    UndefinedSymbolError,
)

# Values are exact, and each kind has one spelling: ints are arbitrary
# precision (a bit is the int 0 or 1), rationals are fractions.Fraction with
# a denominator > 1, strings are quoted. No floats anywhere.
Value = int | Fraction | str

# Every symbol, one or two capital letters ([A-Z]{1,2}), in the order symbols are handed out:
# A..Z, then AA..AZ, BA..ZZ.
SYMBOL_SEQUENCE = (*ascii_uppercase, *(a + b for a in ascii_uppercase for b in ascii_uppercase))
SYMBOLS = frozenset(SYMBOL_SEQUENCE)


def frozen(cls=None, /, **options):
    """``dataclass(frozen=True, slots=True, **options)``, whose ``__init__`` stores each field
    with its slot's own setter: the generated one calls ``object.__setattr__`` per field, which
    costs about half as much again. Fields, defaults, equality, hash, repr, ``replace`` and the
    FrozenInstanceError on assignment are the dataclass's own; a ``__post_init__`` is called."""
    if cls is None:
        return lambda cls: frozen(cls, **options)
    cls = dataclass(frozen=True, slots=True, init=False, **options)(cls)
    specs = fields(cls)
    if any(spec.default_factory is not MISSING for spec in specs):
        raise TypeError(f"{cls.__name__}: a frozen value class takes no default_factory")
    scope = {f"set_{spec.name}": getattr(cls, spec.name).__set__ for spec in specs}
    scope |= {f"default_{spec.name}": spec.default for spec in specs}
    params = {spec: spec.name + ("" if spec.default is MISSING else f"=default_{spec.name}") for spec in specs}
    keywords = [params.pop(spec) for spec in specs if spec.kw_only]
    signature = ["self", *params.values(), *(["*", *keywords] if keywords else [])]
    body = [f"set_{spec.name}(self, {spec.name})" for spec in specs]
    body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    exec(f"def __init__({', '.join(signature)}):\n    " + "\n    ".join(body), scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


def quote_string(text: str) -> str:
    if '"' in text or "\\" in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def format_value(value: Value) -> str:
    """Render a value the way the canonical grammar spells it."""
    return quote_string(value) if isinstance(value, str) else str(value)


@frozen
class Add:
    sym: str
    amount: int


@frozen
class Sub:
    sym: str
    amount: int


@frozen
class Mul:
    sym: str
    factor: int


@frozen
class Div:
    sym: str
    divisor: int


@frozen
class Swap:
    left: str
    right: str


@frozen
class Says:
    """``speaker says target = claimed``: speaker becomes 1 if the claim holds, else 0.

    The speaker symbol is introduced by this statement and must be fresh.
    """

    speaker: str
    target: str
    claimed: Value


@frozen
class Flip:
    sym: str


@frozen
class LastOf:
    """``sym = last("word")``: define sym as the final character of a string literal."""

    sym: str
    literal: str


Statement = Add | Sub | Mul | Div | Swap | Says | Flip | LastOf


@frozen
class ValueOf:
    sym: str


@frozen
class IsEqual:
    sym: str
    value: Value


@frozen
class OptionOf:
    sym: str


@frozen
class ConcatOf:
    syms: tuple[str, ...]


Query = ValueOf | IsEqual | OptionOf | ConcatOf


class _Run:
    # What building a program computed, in slots beside its fields: not compared, hashed or shown.
    __slots__ = ("_steps", "_answer")


@frozen
class MetaProgram(_Run):
    """Initial assignments, update statements, and a final query, in order.

    Building a program checks it and runs it with exact arithmetic, in one walk, so
    every program that exists runs and ``eval_program`` returns the trace of that run.
    Each init, statement and the query is checked, then run, by the rule of its own
    class (any other class is refused). The checks: every symbol [A-Z]{1,2}, defined
    before use (by init, says-introduction, or string definition) and introduced
    once, checked once where it is defined; values of a supported kind; swap
    arguments distinct; literal divisors nonzero; string literals nonempty. The walk
    raises the first problem it meets, in program order: a failed check, or an
    EvalTypeError (a string where a number is needed, a flip of a non-bit, an operand
    that is not an int, a ``last()`` literal that is not a string, ...). An operand is
    refused before it is combined.
    """

    inits: tuple[tuple[str, Value], ...]
    stmts: tuple[Statement, ...]
    query: Query

    def __post_init__(self) -> None:
        env: dict[str, Value] = {}
        for sym, value in self.inits:
            _check_symbol(sym)
            _check_value(value)
            if sym in env:
                raise DuplicateSymbolError(f"symbol {sym} initialized twice")
            env[sym] = value
        steps = []
        for stmt in self.stmts:
            _STATEMENT_RULES.get(type(stmt), _unknown_statement)(stmt, env)
            steps.append(tuple(env.items()))
        query = self.query
        _set_answer(self, _QUERY_RULES.get(type(query), _unknown_query)(query, env))
        _set_steps(self, tuple(steps))

    def __reduce__(self):  # a copied or unpickled program is built, and so run, again
        return MetaProgram, (self.inits, self.stmts, self.query)


_set_steps, _set_answer = _Run._steps.__set__, _Run._answer.__set__


@frozen
class Trace:
    """Step-by-step execution record of the program that was run: ``steps[i]``
    is the environment after ``program.stmts[i]``."""

    steps: tuple[tuple[tuple[str, Value], ...], ...]
    answer: Value
    program: MetaProgram

    def final(self) -> dict[str, Value]:
        return dict(self.steps[-1] if self.steps else self.program.inits)


def _check_symbol(sym: str) -> None:
    if not isinstance(sym, str) or sym not in SYMBOLS:  # isinstance first: a list is no key
        raise InvalidProgramError(f"invalid symbol {sym!r}: must match [A-Z]{{1,2}}")


def _check_value(value: Value) -> None:
    """An int (not a bool), a str, or a Fraction that is not an integer: the
    kinds whose canonical spellings differ."""
    kind = type(value)
    if kind not in (int, Fraction, str) or kind is Fraction and value.denominator == 1:
        raise InvalidProgramError(f"unsupported value {value!r}")


def _value(sym: str, env: dict[str, Value]) -> Value:
    # A defined symbol was checked where it was defined; any other is checked, then refused.
    try:
        return env[sym]
    except (KeyError, TypeError):  # TypeError: a list is no key
        pass
    _check_symbol(sym)
    raise UndefinedSymbolError(f"symbol {sym} used before definition")


def _normalized(value: int | Fraction) -> int | Fraction:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _arithmetic(sym: str, env: dict[str, Value], operand: int, verb: str, combine) -> None:
    """Set ``sym`` to ``combine(value, operand)``, after refusing a string value and then an
    operand that is not an int (a bool is not)."""
    value = _value(sym, env)
    if isinstance(value, str):
        raise EvalTypeError(f"{verb} {sym} needs a numeric value, got {value!r}")
    if type(operand) is not int:
        raise EvalTypeError(f"{verb} {sym} needs an integer operand, got {operand!r}")
    env[sym] = _normalized(combine(value, operand))


def _add(stmt: Add, env: dict[str, Value]) -> None:
    _arithmetic(stmt.sym, env, stmt.amount, "Add to", operator.add)


def _sub(stmt: Sub, env: dict[str, Value]) -> None:
    _arithmetic(stmt.sym, env, stmt.amount, "Subtract from", operator.sub)


def _mul(stmt: Mul, env: dict[str, Value]) -> None:
    _arithmetic(stmt.sym, env, stmt.factor, "Multiply", operator.mul)


def _divide(value: int | Fraction, divisor: int) -> Fraction:
    return Fraction(value) / divisor


def _div(stmt: Div, env: dict[str, Value]) -> None:
    sym, divisor = stmt.sym, stmt.divisor
    _value(sym, env)
    if divisor == 0:
        raise DivideByZeroError(f"division of {sym} by zero")
    _arithmetic(sym, env, divisor, "Divide", _divide)


def _swap(stmt: Swap, env: dict[str, Value]) -> None:
    left, right = stmt.left, stmt.right
    left_value, right_value = _value(left, env), _value(right, env)
    if left == right:
        raise InvalidProgramError(f"swap needs two distinct symbols, got {left} twice")
    env[left], env[right] = right_value, left_value


def _says(stmt: Says, env: dict[str, Value]) -> None:
    speaker, claimed = stmt.speaker, stmt.claimed
    value = _value(stmt.target, env)
    _check_symbol(speaker)
    _check_value(claimed)
    if speaker in env:
        raise DuplicateSymbolError(f"symbol {speaker} re-introduced by a says statement")
    env[speaker] = int(value == claimed)


def _flip(stmt: Flip, env: dict[str, Value]) -> None:
    sym = stmt.sym
    value = _value(sym, env)
    if value not in (0, 1):
        raise EvalTypeError(f"Flip needs a 0/1 bit in {sym}, got {value!r}")
    env[sym] = 1 - value


def _last_of(stmt: LastOf, env: dict[str, Value]) -> None:
    sym, literal = stmt.sym, stmt.literal
    _check_symbol(sym)
    if sym in env:
        raise DuplicateSymbolError(f"symbol {sym} re-introduced by a string definition")
    if not literal:
        raise InvalidProgramError("last() needs a nonempty literal")
    if not isinstance(literal, str):
        raise EvalTypeError(f"last() needs a string literal, got {literal!r}")
    env[sym] = literal[-1]


def _value_of(query: ValueOf, env: dict[str, Value]) -> Value:
    return _value(query.sym, env)


def _is_equal(query: IsEqual, env: dict[str, Value]) -> Value:
    value = _value(query.sym, env)
    _check_value(query.value)
    return "yes" if value == query.value else "no"


def _option_of(query: OptionOf, env: dict[str, Value]) -> Value:
    value = _value(query.sym, env)
    if isinstance(value, int):
        return value
    raise EvalTypeError(f"option query needs an integer in {query.sym}, got {value!r}")


def _concat_of(query: ConcatOf, env: dict[str, Value]) -> Value:
    syms = query.syms
    if not syms:
        raise InvalidProgramError("concatenation query needs at least one symbol")
    values = [_value(sym, env) for sym in syms]
    for sym, value in zip(syms, values):
        if not isinstance(value, str):
            raise EvalTypeError(f"concatenation needs strings, {sym} holds {value!r}")
    return "".join(values)


def _unknown_statement(stmt, env: dict[str, Value]) -> None:
    raise InvalidProgramError(f"unknown statement {stmt!r}")


def _unknown_query(query, env: dict[str, Value]) -> None:
    raise InvalidProgramError(f"unknown query {query!r}")


# The rule of each statement and query class, looked up by the node's own type: it checks
# the node, then runs it.
_STATEMENT_RULES = {
    Add: _add, Sub: _sub, Mul: _mul, Div: _div, Swap: _swap, Says: _says, Flip: _flip, LastOf: _last_of,
}
_QUERY_RULES = {ValueOf: _value_of, IsEqual: _is_equal, OptionOf: _option_of, ConcatOf: _concat_of}
