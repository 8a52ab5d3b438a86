"""The meta-question DSL: AST, canonical grammar, parser, exact interpreter, traces."""

# The benchmark imports these names from the package.
from .interpreter import eval_program
from .parser import parse_meta
from .renderer import render_inits, render_meta, render_query, render_statement
