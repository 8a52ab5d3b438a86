"""The meta-question DSL: AST, canonical grammar, parser, exact interpreter, traces."""

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
    format_value,
    is_symbol,
    quote_string,
    validate_program,
)
from .errors import (
    DivideByZeroError,
    DuplicateSymbolError,
    EvalTypeError,
    InvalidProgramError,
    MetaLangError,
    ParseError,
    UndefinedSymbolError,
)
from .interpreter import eval_program
from .parser import parse_meta, split_clauses
from .renderer import render_inits, render_meta, render_query, render_statement
