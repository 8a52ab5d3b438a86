"""Errors raised by the meta-question language: parsing, validation, evaluation."""

from __future__ import annotations


class MetaLangError(Exception):
    """Base class for every meta-question language error."""


class ParseError(MetaLangError):
    """A sentence does not match the grammar.

    Carries the 1-based index of the offending sentence (after clause
    normalization) and a hint describing the expected form.
    """

    def __init__(self, message: str, sentence_index: int | None = None, expected: str | None = None):
        self.sentence_index = sentence_index
        self.expected = expected
        detail = message
        if sentence_index is not None:
            detail = f"sentence {sentence_index}: {detail}"
        if expected:
            detail = f"{detail} (expected {expected})"
        super().__init__(detail)


class UndefinedSymbolError(MetaLangError):
    """A statement or query references a symbol before it is defined."""


class DuplicateSymbolError(MetaLangError):
    """A symbol is initialized twice or re-introduced by a defining statement."""


class InvalidProgramError(MetaLangError):
    """A structural invariant is violated (same-symbol swap, empty literal, ...)."""


class EvalTypeError(MetaLangError):
    """A statement was applied to a value of the wrong kind."""


class DivideByZeroError(MetaLangError):
    """A literal divisor of zero."""
