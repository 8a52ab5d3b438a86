"""Shared test helpers: seeded random program generators used by the
round-trip and algebraic property checks."""

from __future__ import annotations

import random
from dataclasses import fields, replace
from fractions import Fraction

from metareason.meta_lang.ast import (
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
    ValueOf,
)
from metareason.meta_lang.errors import EvalTypeError
from metareason.resolution import symbol_name

_WORD_ALPHABET = "abcdefghij XYZ'é?\\\""


def random_word(rng: random.Random, max_len: int = 8) -> str:
    return "".join(rng.choice(_WORD_ALPHABET) for _ in range(rng.randint(1, max_len)))


def exact(value: Fraction) -> int | Fraction:
    """A rational as the language holds it: an int when the denominator is 1."""
    return value.numerator if value.denominator == 1 else value


def random_value(rng: random.Random, allow_str: bool = True):
    roll = rng.random()
    if roll < 0.45:
        return rng.randint(-50, 50)
    if roll < 0.60:
        return rng.randint(0, 1)  # a bit
    if roll < 0.80 or not allow_str:
        return exact(Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
    return random_word(rng)


def _symbol_pool(rng: random.Random, size: int) -> list[str]:
    indices = rng.sample(range(60), size)  # mixes one- and two-letter symbols
    return [symbol_name(i) for i in indices]


def random_parts(rng: random.Random) -> tuple[tuple, tuple, object]:
    """The inits, statements and query of a random well-formed program, which may not
    run: a flip may land on a non-bit, an addition on a string."""
    pool = _symbol_pool(rng, 12)
    if rng.random() < 0.2:
        count = rng.randint(1, 4)
        syms = pool[:count]
        stmts = tuple(LastOf(sym=s, literal=random_word(rng)) for s in syms)
        query_syms = tuple(rng.choice(syms) for _ in range(rng.randint(1, 5)))
        return (), stmts, ConcatOf(syms=query_syms)

    n_inits = rng.randint(1, 4)
    init_syms = pool[:n_inits]
    available = pool[n_inits:]
    inits = tuple((s, random_value(rng)) for s in init_syms)
    defined = list(init_syms)
    stmts = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(["add", "sub", "mul", "div", "swap", "says", "flip", "last"])
        if kind == "add":
            stmts.append(Add(sym=rng.choice(defined), amount=rng.randint(-20, 20)))
        elif kind == "sub":
            stmts.append(Sub(sym=rng.choice(defined), amount=rng.randint(-20, 20)))
        elif kind == "mul":
            stmts.append(Mul(sym=rng.choice(defined), factor=rng.randint(-10, 10)))
        elif kind == "div":
            divisor = rng.choice([n for n in range(-9, 10) if n != 0])
            stmts.append(Div(sym=rng.choice(defined), divisor=divisor))
        elif kind == "swap" and len(defined) >= 2:
            left, right = rng.sample(defined, 2)
            stmts.append(Swap(left=left, right=right))
        elif kind == "says" and available:
            speaker = available.pop()
            stmts.append(
                Says(speaker=speaker, target=rng.choice(defined), claimed=random_value(rng))
            )
            defined.append(speaker)
        elif kind == "flip":
            stmts.append(Flip(sym=rng.choice(defined)))
        elif kind == "last" and available:
            sym = available.pop()
            stmts.append(LastOf(sym=sym, literal=random_word(rng)))
            defined.append(sym)
    query_kind = rng.choice(["value", "eq", "option", "concat"])
    if query_kind == "value":
        query = ValueOf(sym=rng.choice(defined))
    elif query_kind == "eq":
        query = IsEqual(sym=rng.choice(defined), value=random_value(rng))
    elif query_kind == "option":
        query = OptionOf(sym=rng.choice(defined))
    else:
        count = rng.randint(1, min(3, len(defined)))
        query = ConcatOf(syms=tuple(rng.sample(defined, count)))
    return inits, tuple(stmts), query


def random_program(rng: random.Random) -> MetaProgram:
    """A random program: the first of ``random_parts``' draws that runs, and so builds."""
    while True:
        try:
            return MetaProgram(*random_parts(rng))
        except EvalTypeError:
            continue


# What a mutated field holds instead: nothing, a bool, a float, a numeric string, a whole-number
# Fraction, a list, or a symbol that no random program defines.
MUTANTS = [None, True, 1.5, "2", Fraction(4, 2), ["A"], "ZZ"]


def mutated(parts: tuple[tuple, tuple, object], position: int, mutant) -> tuple[tuple, tuple, object]:
    """``parts`` with one field replaced by ``mutant``: an init's symbol or value, a field of a
    statement or of the query, or one symbol of a concatenation; ``position`` picks which,
    modulo their number."""
    inits, stmts, query = parts
    places = [("init", i, j) for i in range(len(inits)) for j in (0, 1)]
    places += [("stmt", i, spec.name) for i, stmt in enumerate(stmts) for spec in fields(stmt)]
    if isinstance(query, ConcatOf):
        places += [("syms", j, None) for j in range(len(query.syms))]
    else:
        places += [("query", None, spec.name) for spec in fields(query)]
    part, i, name = places[position % len(places)]
    if part == "init":
        pair = list(inits[i])
        pair[name] = mutant
        inits = (*inits[:i], tuple(pair), *inits[i + 1:])
    elif part == "stmt":
        stmts = (*stmts[:i], replace(stmts[i], **{name: mutant}), *stmts[i + 1:])
    elif part == "query":
        query = replace(query, **{name: mutant})
    else:
        query = ConcatOf((*query.syms[:i], mutant, *query.syms[i + 1:]))
    return inits, stmts, query


def value_kinds(program: MetaProgram) -> list[type]:
    """The type of each value a program spells out: its init values, its
    claims, and the value its query compares with."""
    values = [value for _, value in program.inits]
    values += [stmt.claimed for stmt in program.stmts if isinstance(stmt, Says)]
    if isinstance(program.query, IsEqual):
        values.append(program.query.value)
    return [type(value) for value in values]


def random_numeric_env(rng: random.Random, size: int) -> list[tuple[str, object]]:
    syms = _symbol_pool(rng, size)
    return [(s, random_value(rng, allow_str=False)) for s in syms]


def random_swap_sequence(rng: random.Random, syms: list[str], length: int) -> list[Swap]:
    swaps = []
    for _ in range(length):
        left, right = rng.sample(syms, 2)
        swaps.append(Swap(left=left, right=right))
    return swaps


def random_truth_chain(rng: random.Random, length: int) -> MetaProgram:
    """Linear chain: first symbol is a bit, each later one judges the previous."""
    syms = [symbol_name(i) for i in range(length)]
    inits = ((syms[0], rng.randint(0, 1)),)
    stmts = tuple(
        Says(speaker=syms[i], target=syms[i - 1], claimed=rng.randint(0, 1))
        for i in range(1, length)
    )
    return MetaProgram(inits=inits, stmts=stmts, query=IsEqual(sym=syms[-1], value=1))
