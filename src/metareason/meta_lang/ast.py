"""Core types of the meta-question language: values, statements, queries, programs, traces."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
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


@frozen
class MetaProgram:
    """Initial assignments, update statements, and a final query, in order;
    validated when built, so a program that exists is well-formed."""

    inits: tuple[tuple[str, Value], ...]
    stmts: tuple[Statement, ...]
    query: Query

    def __post_init__(self) -> None:
        validate_program(self)


@frozen
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


def _check_sym(node: Add | Sub | Mul | Flip | ValueOf | OptionOf, defined: set[str]) -> None:
    _need(node.sym, defined)


def _check_div(stmt: Div, defined: set[str]) -> None:
    _need(stmt.sym, defined)
    if stmt.divisor == 0:
        raise DivideByZeroError(f"division of {stmt.sym} by zero")


def _check_swap(stmt: Swap, defined: set[str]) -> None:
    left, right = stmt.left, stmt.right
    _need(left, defined)
    _need(right, defined)
    if left == right:
        raise InvalidProgramError(f"swap needs two distinct symbols, got {left} twice")


def _check_says(stmt: Says, defined: set[str]) -> None:
    speaker = stmt.speaker
    _need(stmt.target, defined)
    _check_symbol(speaker)
    _check_value(stmt.claimed)
    if speaker in defined:
        raise DuplicateSymbolError(f"symbol {speaker} re-introduced by a says statement")
    defined.add(speaker)


def _check_last_of(stmt: LastOf, defined: set[str]) -> None:
    sym = stmt.sym
    _check_symbol(sym)
    if sym in defined:
        raise DuplicateSymbolError(f"symbol {sym} re-introduced by a string definition")
    if not stmt.literal:
        raise InvalidProgramError("last() needs a nonempty literal")
    defined.add(sym)


def _check_is_equal(query: IsEqual, defined: set[str]) -> None:
    _need(query.sym, defined)
    _check_value(query.value)


def _check_concat(query: ConcatOf, defined: set[str]) -> None:
    if not query.syms:
        raise InvalidProgramError("concatenation query needs at least one symbol")
    for sym in query.syms:
        _need(sym, defined)


def _unknown_statement(stmt, defined: set[str]) -> None:
    raise InvalidProgramError(f"unknown statement {stmt!r}")


def _unknown_query(query, defined: set[str]) -> None:
    raise InvalidProgramError(f"unknown query {query!r}")


# The rule of each statement and query class, looked up by the node's own type.
_STATEMENT_RULES = {
    Add: _check_sym, Sub: _check_sym, Mul: _check_sym, Flip: _check_sym,
    Div: _check_div, Swap: _check_swap, Says: _check_says, LastOf: _check_last_of,
}
_QUERY_RULES = {ValueOf: _check_sym, OptionOf: _check_sym, IsEqual: _check_is_equal, ConcatOf: _check_concat}


def validate_program(program: MetaProgram) -> None:
    """Check well-formedness; raises a MetaLangError subclass on the first violation.

    Well-formed means: init symbols pairwise distinct, every symbol defined
    before use (by init, says-introduction, or string definition), swap
    arguments distinct, literal divisors nonzero, string literals nonempty.
    One pass checks each symbol's shape once, where it is defined; a later
    mention is only looked up among the defined ones (a tracking program of
    7 objects and 7 swaps checks 7 symbols, not 22). Each statement and the
    query are checked by the rule of their own class, found in one lookup;
    a node of any other class is refused.
    """
    defined: set[str] = set()
    for sym, value in program.inits:
        _check_symbol(sym)
        _check_value(value)
        if sym in defined:
            raise DuplicateSymbolError(f"symbol {sym} initialized twice")
        defined.add(sym)
    for stmt in program.stmts:
        _STATEMENT_RULES.get(type(stmt), _unknown_statement)(stmt, defined)
    query = program.query
    _QUERY_RULES.get(type(query), _unknown_query)(query, defined)
