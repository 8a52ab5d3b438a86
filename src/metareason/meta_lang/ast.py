"""Core types of the meta-question language: values, statements, queries, programs, traces."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from string import ascii_uppercase

from .errors import (
    DivideByZeroError,
    DuplicateSymbolError,
    InvalidProgramError,
    UndefinedSymbolError,
)

# Values are exact, and each kind has one spelling: ints are arbitrary
# precision (a bit is the int 0 or 1), rationals are fractions.Fraction with
# a denominator > 1, strings are quoted. No floats anywhere.
Value = int | Fraction | str

# Every symbol: one or two capital letters, [A-Z]{1,2}.
SYMBOLS = frozenset([*ascii_uppercase, *(a + b for a in ascii_uppercase for b in ascii_uppercase)])


def quote_string(text: str) -> str:
    if '"' in text or "\\" in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def format_value(value: Value) -> str:
    """Render a value the way the canonical grammar spells it."""
    return quote_string(value) if isinstance(value, str) else str(value)


@dataclass(frozen=True)
class Add:
    sym: str
    amount: int


@dataclass(frozen=True)
class Sub:
    sym: str
    amount: int


@dataclass(frozen=True)
class Mul:
    sym: str
    factor: int


@dataclass(frozen=True)
class Div:
    sym: str
    divisor: int


@dataclass(frozen=True)
class Swap:
    left: str
    right: str


@dataclass(frozen=True)
class Says:
    """``speaker says target = claimed``: speaker becomes 1 if the claim holds, else 0.

    The speaker symbol is introduced by this statement and must be fresh.
    """

    speaker: str
    target: str
    claimed: Value


@dataclass(frozen=True)
class Flip:
    sym: str


@dataclass(frozen=True)
class LastOf:
    """``sym = last("word")``: define sym as the final character of a string literal."""

    sym: str
    literal: str


Statement = Add | Sub | Mul | Div | Swap | Says | Flip | LastOf


@dataclass(frozen=True)
class ValueOf:
    sym: str


@dataclass(frozen=True)
class IsEqual:
    sym: str
    value: Value


@dataclass(frozen=True)
class OptionOf:
    sym: str


@dataclass(frozen=True)
class ConcatOf:
    syms: tuple[str, ...]


Query = ValueOf | IsEqual | OptionOf | ConcatOf


@dataclass(frozen=True)
class MetaProgram:
    """Initial assignments, update statements, and a final query, in order;
    validated when built, so a program that exists is well-formed."""

    inits: tuple[tuple[str, Value], ...]
    stmts: tuple[Statement, ...]
    query: Query

    def __post_init__(self) -> None:
        validate_program(self)


@dataclass(frozen=True)
class Trace:
    """Step-by-step execution record of the program that was run: ``steps[i]``
    is the environment after ``program.stmts[i]``."""

    steps: tuple[tuple[tuple[str, Value], ...], ...]
    answer: Value
    program: MetaProgram

    def final(self) -> dict[str, Value]:
        return dict(self.steps[-1] if self.steps else self.program.inits)

    def value_of(self, sym: str) -> Value:
        env = self.final()
        if sym not in env:
            raise UndefinedSymbolError(f"symbol {sym} is not defined")
        return env[sym]


def _check_symbol(sym: str) -> None:
    if not isinstance(sym, str) or sym not in SYMBOLS:  # isinstance first: a list is no key
        raise InvalidProgramError(f"invalid symbol {sym!r}: must match [A-Z]{{1,2}}")


def _check_value(value: Value) -> None:
    """An int (not a bool), a str, or a Fraction that is not an integer: the
    kinds whose canonical spellings differ."""
    kind = type(value)
    if kind not in (int, Fraction, str) or kind is Fraction and value.denominator == 1:
        raise InvalidProgramError(f"unsupported value {value!r}")


def _need(sym: str, defined: set[str]) -> None:
    # A defined symbol was checked where it was defined; any other is checked, then refused.
    if not isinstance(sym, str) or sym not in defined:
        _check_symbol(sym)
        raise UndefinedSymbolError(f"symbol {sym} used before definition")


def _check_statement(stmt: Statement, defined: set[str]) -> None:
    match stmt:
        case Add(sym=sym) | Sub(sym=sym) | Mul(sym=sym) | Flip(sym=sym):
            _need(sym, defined)
        case Div(sym=sym, divisor=divisor):
            _need(sym, defined)
            if divisor == 0:
                raise DivideByZeroError(f"division of {sym} by zero")
        case Swap(left=left, right=right):
            _need(left, defined)
            _need(right, defined)
            if left == right:
                raise InvalidProgramError(f"swap needs two distinct symbols, got {left} twice")
        case Says(speaker=speaker, target=target, claimed=claimed):
            _need(target, defined)
            _check_symbol(speaker)
            _check_value(claimed)
            if speaker in defined:
                raise DuplicateSymbolError(f"symbol {speaker} re-introduced by a says statement")
            defined.add(speaker)
        case LastOf(sym=sym, literal=literal):
            _check_symbol(sym)
            if sym in defined:
                raise DuplicateSymbolError(f"symbol {sym} re-introduced by a string definition")
            if not literal:
                raise InvalidProgramError("last() needs a nonempty literal")
            defined.add(sym)
        case _:
            raise InvalidProgramError(f"unknown statement {stmt!r}")


def _check_query(query: Query, defined: set[str]) -> None:
    match query:
        case ValueOf(sym=sym) | OptionOf(sym=sym):
            _need(sym, defined)
        case IsEqual(sym=sym, value=value):
            _need(sym, defined)
            _check_value(value)
        case ConcatOf(syms=syms):
            if not syms:
                raise InvalidProgramError("concatenation query needs at least one symbol")
            for sym in syms:
                _need(sym, defined)
        case _:
            raise InvalidProgramError(f"unknown query {query!r}")


def validate_program(program: MetaProgram) -> None:
    """Check well-formedness; raises a MetaLangError subclass on the first violation.

    Well-formed means: init symbols pairwise distinct, every symbol defined
    before use (by init, says-introduction, or string definition), swap
    arguments distinct, literal divisors nonzero, string literals nonempty.
    One pass checks each symbol's shape once, where it is defined; a later
    mention is only looked up among the defined ones (a tracking program of
    7 objects and 7 swaps checks 7 symbols, not 22).
    """
    defined: set[str] = set()
    for sym, value in program.inits:
        _check_symbol(sym)
        _check_value(value)
        if sym in defined:
            raise DuplicateSymbolError(f"symbol {sym} initialized twice")
        defined.add(sym)
    for stmt in program.stmts:
        _check_statement(stmt, defined)
    _check_query(program.query, defined)
