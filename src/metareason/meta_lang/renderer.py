"""The canonical grammar of meta-programs, as one table, and its renderer.

``STATEMENTS`` and ``QUERIES`` hold one row per AST class: its canonical
sentence as a format string over the class's fields. ``FIELDS`` gives each
field name its slot kind: a symbol (``SYM``), an integer (``NUM``), a value
(``VAL``), a quoted string (``WORD``) or symbols joined by "and" (``SYMS``).
The renderer fills the rows in, and ``parser`` compiles its regexes and its
error hints from them, so each sentence form is written once. The init
sentence is the one special form: its slot is a list of ``PAIR`` forms, and
on input its "that" is optional. Rendering then parsing gives back a
structurally equal program.
"""

from __future__ import annotations

from operator import attrgetter
from string import Formatter
from typing import Iterable

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
    Value,
    ValueOf,
    format_value,
    quote_string,
)

SYM, NUM, VAL, WORD, SYMS = "SYM", "NUM", "VAL", "WORD", "SYMS"

FIELDS = {
    **dict.fromkeys(("sym", "left", "right", "speaker", "target"), SYM),
    **dict.fromkeys(("amount", "factor", "divisor"), NUM),
    **dict.fromkeys(("claimed", "value"), VAL),
    "literal": WORD,
    "syms": SYMS,
}

# A statement sentence ends with "."; a query's own "?" is in its row.
STATEMENTS = {
    Add: "Add {amount} to {sym}",
    Sub: "Subtract {amount} from {sym}",
    Mul: "Multiply {sym} by {factor}",
    Div: "Divide {sym} by {divisor}",
    Says: "{speaker} says {target} = {claimed}",
    Swap: "{left} and {right} swap",
    Flip: "Flip {sym}",
    LastOf: "{sym} = last({literal})",
}
QUERIES = {
    ValueOf: "What is the value of {sym}?",
    IsEqual: "Is {sym} = {value}?",
    OptionOf: "Which option equals {sym}?",
    ConcatOf: "What is the concatenation of {syms}?",
}
INIT = "It is known that {pairs}."
PAIR = "{sym} = {value}"

# How each slot kind is written in canonical text; SYM and NUM format as they are.
_WRITERS = {VAL: format_value, WORD: quote_string, SYMS: " and ".join}


def form_fields(template: str) -> list[str]:
    """The field names of a row's format string, in sentence order."""
    return [field for _, field, _, _ in Formatter().parse(template) if field]


def _percent(template: str) -> str:
    """A format string as a %-template (faster to fill), fields in sentence order."""
    return template.replace("%", "%%").format_map(dict.fromkeys(form_fields(template), "%s"))


def _formatter(template: str):
    """A row's renderer: its %-template filled from the node's fields, each
    written as its slot kind."""
    fields, filled = form_fields(template), _percent(template)
    writers = tuple((f, _WRITERS.get(FIELDS[f])) for f in fields)
    if not any(w for _, w in writers):
        get = attrgetter(*fields)  # one field's value is a symbol or a number, not a tuple
        return lambda node: filled % get(node)
    return lambda node: filled % tuple([w(getattr(node, f)) if w else getattr(node, f) for f, w in writers])


_FORMATTERS = {cls: _formatter(t) for cls, t in {**STATEMENTS, **QUERIES}.items()}
_INIT_FILLED, _PAIR_FILLED = _percent(INIT), _percent(PAIR)


def init_sentence(pairs: Iterable[str]) -> str:
    """The init sentence of pair texts ``A = 1``, ``B = 2``, ... (``PAIR`` filled in)."""
    return _INIT_FILLED % ", ".join(pairs)


def render_inits(inits: tuple[tuple[str, Value], ...]) -> str:
    """The init sentence, e.g. ``It is known that A = 1, B = 2, C = 3.``"""
    return init_sentence([_PAIR_FILLED % (sym, format_value(value)) for sym, value in inits])


def render_statement(stmt: Statement) -> str:
    """One statement sentence, without the trailing period."""
    if type(stmt) not in STATEMENTS:
        raise ValueError(f"unknown statement {stmt!r}")
    return _FORMATTERS[type(stmt)](stmt)


def render_query(query: Query) -> str:
    """The query sentence, including the question mark."""
    if type(query) not in QUERIES:
        raise ValueError(f"unknown query {query!r}")
    return _FORMATTERS[type(query)](query)


def render_meta(program: MetaProgram) -> str:
    """Deterministic canonical text for a well-formed program."""
    sentences = [render_inits(program.inits)] if program.inits else []
    sentences += [render_statement(stmt) + "." for stmt in program.stmts]
    sentences.append(render_query(program.query))
    return " ".join(sentences)
