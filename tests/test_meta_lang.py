"""Parser, renderer, and interpreter tests for the meta-question language."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from collections import Counter
from dataclasses import MISSING
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metareason.meta_lang import ast as meta_ast
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
    Trace,
    ValueOf,
    format_value,
)
from metareason.meta_lang.errors import (
    DivideByZeroError,
    DuplicateSymbolError,
    EvalTypeError,
    InvalidProgramError,
    MetaLangError,
    ParseError,
    UndefinedSymbolError,
)
from metareason.meta_lang.interpreter import eval_program
from metareason.meta_lang.parser import parse_meta, split_clauses
from metareason.meta_lang.renderer import QUERIES, STATEMENTS, render_meta
from metareason.resolution import EntityTable, MetaQuestion, Span, Task, TaskInstance, resolve
from metareason.taskgen import GenConfig, generate
from support import (
    MUTANTS,
    exact,
    mutated,
    random_parts,
    random_program,
    random_swap_sequence,
    random_truth_chain,
    value_kinds,
)

from conftest import LOOSE_META_TEXT


SPLIT_CASES = [
    (
        "It is known A = 16. Subtract 3 from A, then subtract 4 from A, "
        "and finally multiply A by 2, now what is the value of A?",
        [
            "It is known A = 16",
            "Subtract 3 from A",
            "subtract 4 from A",
            "multiply A by 2",
            "what is the value of A?",
        ],
    ),
    # an unterminated quote runs to the end of the text
    ('A = last("St. John. What is the value of A?', ['A = last("St. John. What is the value of A?']),
    # an escaped quote does not end the string
    (
        'A = last("say \\"hi.\\" now"). What is the value of A?',
        ['A = last("say \\"hi.\\" now")', "What is the value of A?"],
    ),
    # "?", "." and ", then" inside quotes do not split
    (
        'A = last("Why? Stop. Go, then run"). What is the value of A?',
        ['A = last("Why? Stop. Go, then run")', "What is the value of A?"],
    ),
    # a trailing backslash, inside and outside a quote
    ('A = last("x\\', ['A = last("x\\']),
    ("What is the value of A?\\", ["What is the value of A?\\"]),
]


class TestParse:
    def test_loose_connective_text_parses(self):
        program = parse_meta(LOOSE_META_TEXT)
        assert program.inits == (("A", 16),)
        assert program.stmts == (
            Sub(sym="A", amount=3),
            Sub(sym="A", amount=4),
            Mul(sym="A", factor=2),
        )
        assert program.query == ValueOf(sym="A")

    def test_minimal_program(self):
        program = parse_meta("It is known A = 0. What is the value of A?")
        assert program.stmts == ()
        assert program.inits == (("A", 0),) and type(program.inits[0][1]) is int

    def test_malformed_sentence_reports_index_and_hint(self):
        with pytest.raises(ParseError) as excinfo:
            parse_meta("It is known A = 1. B says A = 2 banana.")
        assert excinfo.value.sentence_index == 2
        assert "says" in str(excinfo.value)

    def test_undefined_symbol(self):
        with pytest.raises(UndefinedSymbolError):
            parse_meta("It is known A = 1. Add 3 to B. What is the value of A?")

    def test_duplicate_init(self):
        with pytest.raises(DuplicateSymbolError):
            parse_meta("It is known A = 1, A = 2. What is the value of A?")

    def test_swap_needs_distinct_symbols(self):
        with pytest.raises(InvalidProgramError):
            parse_meta("It is known A = 1. A and A swap. What is the value of A?")

    def test_literal_divide_by_zero_rejected(self):
        with pytest.raises(DivideByZeroError):
            parse_meta("It is known A = 1. Divide A by 0. What is the value of A?")

    def test_missing_query(self):
        with pytest.raises(ParseError):
            parse_meta("It is known A = 1. Add 3 to A.")

    def test_query_must_be_last(self):
        with pytest.raises(ParseError):
            parse_meta("It is known A = 1. What is the value of A? Add 3 to A.")

    def test_quoted_literals_protect_punctuation(self):
        program = parse_meta('A = last("St. John, then?"). What is the value of A?')
        assert program.stmts == (LastOf(sym="A", literal="St. John, then?"),)

    def test_split_clauses_strips_connectives(self):
        for text, clauses in SPLIT_CASES:
            assert split_clauses(text) == clauses, text

    @pytest.mark.parametrize("text, value", [("4/2", 2), ("-0", 0), ("-6/3", -2), ("0/5", 0), ("1", 1)])
    def test_whole_numbers_read_as_ints(self, text, value):
        program = parse_meta(f"It is known A = {text}. Is A = {text}?")
        assert program.inits == (("A", value),) and type(program.inits[0][1]) is int
        assert type(program.query.value) is int

    def test_two_letter_symbols(self):
        program = parse_meta("It is known AA = 1, AB = 2. AA and AB swap. Which option equals AA?")
        assert program.query == OptionOf(sym="AA")


# One case per grammar row: a canonical program using the row, the same
# program with that sentence broken, and the hint the broken sentence earns.
GRAMMAR_ROWS = [
    (Add, "It is known that A = 5. Add 3 to A. What is the value of A?", "Add-20 to A", "Add NUM to SYM."),
    (Sub, "It is known that A = 5. Subtract 3 from A. What is the value of A?", "Subtract 3 form A",
     "Subtract NUM from SYM."),
    (Mul, "It is known that A = 5. Multiply A by 2. What is the value of A?", "Multiply A with 2",
     "Multiply SYM by NUM."),
    (Div, "It is known that A = 5. Divide A by 2. What is the value of A?", "Divide A by9", "Divide SYM by NUM."),
    (Says, "It is known that A = 5. B says A = 5. What is the value of B?", "B says A = 2 banana",
     "SYM says SYM = VAL."),
    (Swap, "It is known that A = 5, B = 2. A and B swap. What is the value of A?", "A and B swapped",
     "SYM and SYM swap."),
    (Flip, "It is known that A = 1. Flip A. What is the value of A?", "Flip A twice", "Flip SYM."),
    (LastOf, 'It is known that A = 5. B = last("x"). What is the value of A?', "B = last(x)", 'SYM = last("WORD").'),
    (ValueOf, "It is known that A = 1. Flip A. What is the value of A?", "What is the value of a?",
     "What is the value of SYM?"),
    (IsEqual, "It is known that A = 1. Flip A. Is A = 5?", "Is A equal to 5?", "Is SYM = VAL?"),
    (OptionOf, "It is known that A = 1. Flip A. Which option equals A?", "Which option is A?",
     "Which option equals SYM?"),
    (ConcatOf, 'It is known that A = "x", B = "y". A and B swap. What is the concatenation of A and B?',
     "What is the concatenation of A, B?", "What is the concatenation of SYM and SYM ...?"),
]


class TestGrammarTable:
    def test_every_row_has_a_case(self):
        assert [row[0] for row in GRAMMAR_ROWS] == [*STATEMENTS, *QUERIES]

    @pytest.mark.parametrize("cls, text, broken, hint", GRAMMAR_ROWS, ids=[row[0].__name__ for row in GRAMMAR_ROWS])
    def test_row_round_trips_and_hints(self, cls, text, broken, hint):
        program = parse_meta(text)
        assert render_meta(program) == text
        assert parse_meta(render_meta(program)) == program
        nodes = program.stmts + (program.query,)
        assert any(type(node) is cls for node in nodes)
        sentences = text.split(". ")
        position = len(sentences) - 1 if cls in QUERIES else 1
        sentences[position] = broken
        with pytest.raises(ParseError) as excinfo:
            parse_meta(". ".join(sentences))
        assert excinfo.value.sentence_index == position + 1
        assert excinfo.value.expected == hint

    @pytest.mark.parametrize("sentence", ["Divide A by9", "Add-20 to AM", "AS and Xswap"])
    def test_rejected_sentences(self, sentence):
        with pytest.raises(ParseError) as excinfo:
            parse_meta(f"It is known that A = 4, AM = 3, AS = 1, X = 2. {sentence}. What is the value of A?")
        assert excinfo.value.sentence_index == 2

    def test_loose_spacing_and_optional_that(self):
        assert parse_meta('A = last( "x" ). What is the value of A?').stmts == (LastOf(sym="A", literal="x"),)
        assert parse_meta("It is known A = 1. What is the value of A?").inits == (("A", 1),)
        text = "It is known that A = 1,\nB = 2. What is the value of A?"
        assert parse_meta(text).inits == (("A", 1), ("B", 2))


class TestRender:
    def test_multi_init_option_program(self):
        program = MetaProgram(
            inits=(("A", 1), ("B", 2), ("C", 3)),
            stmts=(Swap(left="A", right="B"), Swap(left="C", right="B"), Swap(left="B", right="A")),
            query=OptionOf(sym="A"),
        )
        text = render_meta(program)
        assert text.startswith("It is known that A = 1, B = 2, C = 3. ")
        assert text.endswith("Which option equals A?")
        assert parse_meta(text) == program

    def test_empty_statement_program_renders_two_sentences(self):
        program = MetaProgram(inits=(("A", 5),), stmts=(), query=ValueOf(sym="A"))
        assert render_meta(program) == "It is known that A = 5. What is the value of A?"

    def test_says_canonical_phrasing_round_trips(self):
        program = MetaProgram(
            inits=(("A", 1),),
            stmts=(Says(speaker="B", target="A", claimed=0),),
            query=IsEqual(sym="B", value=1),
        )
        text = render_meta(program)
        assert "B says A = 0." in text
        assert parse_meta(text) == program

    def test_rational_and_string_values(self):
        program = MetaProgram(
            inits=(("A", Fraction(7, 2)), ("B", -3), ("D", "two\nlines")),
            stmts=(LastOf(sym="C", literal='say "hi"'),),
            query=ConcatOf(syms=("C",)),
        )
        text = render_meta(program)
        assert "A = 7/2" in text and 'D = "two\nlines"' in text
        assert parse_meta(text) == program


class TestEval:
    def test_arithmetic_chain(self):
        trace = eval_program(parse_meta(LOOSE_META_TEXT))
        assert [dict(env)["A"] for env in trace.steps] == [13, 9, 18]
        assert trace.answer == 18

    def test_truth_chain(self):
        program = parse_meta(
            "It is known that A = 1. B says A = 0. C says B = 1. D says C = 0. "
            "E says D = 0. Is E = 1?"
        )
        trace = eval_program(program)
        assert trace.value_of("E") == 0 and type(trace.value_of("E")) is int
        assert trace.answer == "no"

    def test_double_flip_is_identity(self):
        trace = eval_program(parse_meta("It is known A = 1. Flip A. Flip A. Is A = 1?"))
        assert trace.answer == "yes"

    def test_three_swaps_match_hand_composition(self):
        # independent oracle: apply the three transpositions to a plain dict
        expected = {"A": 1, "B": 2, "C": 3}
        for left, right in [("A", "B"), ("C", "B"), ("B", "A")]:
            expected[left], expected[right] = expected[right], expected[left]
        program = parse_meta(
            "It is known that A = 1, B = 2, C = 3. A and B swap. C and B swap. "
            "B and A swap. Which option equals A?"
        )
        trace = eval_program(program)
        assert trace.final() == expected
        assert trace.answer == expected["A"] == 3

    def test_division_is_exact(self):
        trace = eval_program(parse_meta("It is known A = 9. Divide A by 2. What is the value of A?"))
        assert trace.answer == Fraction(9, 2)
        assert format_value(trace.answer) == "9/2"

    def test_built_and_parsed_flip_agree(self):
        program = MetaProgram(inits=(("A", 1),), stmts=(Flip(sym="A"),), query=ValueOf(sym="A"))
        parsed = parse_meta(render_meta(program))
        assert parsed == program
        answer = eval_program(program).answer
        assert answer == eval_program(parsed).answer == 0 and type(answer) is int

    def test_flip_on_non_bit_raises(self):
        with pytest.raises(EvalTypeError, match="^Flip needs a 0/1 bit in A, got 5$"):
            parse_meta("It is known A = 5. Flip A. Is A = 1?")

    def test_arithmetic_on_string_raises(self):
        with pytest.raises(EvalTypeError, match="^Add to A needs a numeric value, got 'i'$"):
            parse_meta('A = last("hi"). Add 3 to A. What is the value of A?')

    def test_concat_query(self):
        trace = eval_program(
            parse_meta('A = last("Elon"). B = last("Musk"). What is the concatenation of A and B?')
        )
        assert trace.answer == "nk"

    def test_snapshots_change_only_touched_symbols(self):
        program = parse_meta(
            "It is known that A = 1, B = 2, C = 3. Add 5 to B. A and C swap. "
            "What is the value of B?"
        )
        trace = eval_program(program)
        before = dict(program.inits)
        touched = [{"B"}, {"A", "C"}]
        for env, expected_touched in zip(trace.steps, touched):
            after = dict(env)
            changed = {sym for sym in after if after[sym] != before[sym]}
            assert changed <= expected_touched
            before = after

    def test_determinism(self):
        # random draws are well-formed but not always runnable (a flip may land
        # on a non-bit), and one that does not run is refused when built; one
        # that runs evaluates identically each time it is built
        rng = random.Random(7)
        evaluated = 0
        for _ in range(80):
            parts = random_parts(rng)
            try:
                first = eval_program(MetaProgram(*parts))
            except (EvalTypeError, DivideByZeroError):
                continue
            evaluated += 1
            assert eval_program(MetaProgram(*parts)) == first
        assert evaluated >= 20


class TestProperties:
    @given(st.integers(min_value=0))
    def test_round_trip_random_programs(self, seed):
        program = random_program(random.Random(seed))
        parsed = parse_meta(render_meta(program))
        assert parsed == program
        assert value_kinds(parsed) == value_kinds(program)

    @given(st.integers(min_value=0), st.integers(min_value=1, max_value=6))
    def test_swap_involution(self, seed, size):
        rng = random.Random(seed)
        from support import random_numeric_env

        env = random_numeric_env(rng, max(2, size))
        syms = [sym for sym, _ in env]
        left, right = rng.sample(syms, 2)
        program = MetaProgram(
            inits=tuple(env),
            stmts=(Swap(left=left, right=right), Swap(left=left, right=right)),
            query=ValueOf(sym=syms[0]),
        )
        assert eval_program(program).final() == dict(env)

    @given(st.integers(min_value=0), st.integers(min_value=0, max_value=12))
    def test_swap_conserves_value_multiset(self, seed, length):
        rng = random.Random(seed)
        from support import random_numeric_env

        env = random_numeric_env(rng, 4)
        syms = [sym for sym, _ in env]
        program = MetaProgram(
            inits=tuple(env),
            stmts=tuple(random_swap_sequence(rng, syms, length)),
            query=ValueOf(sym=syms[0]),
        )
        final = eval_program(program).final()
        assert Counter(map(format_value, final.values())) == Counter(
            format_value(v) for _, v in env
        )

    @given(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=9))
    def test_flip_parity(self, start, flips):
        program = MetaProgram(
            inits=(("A", start),),
            stmts=tuple(Flip(sym="A") for _ in range(flips)),
            query=ValueOf(sym="A"),
        )
        answer = eval_program(program).answer
        assert answer == start ^ (flips % 2) and type(answer) is int

    @given(st.integers(min_value=0), st.integers(min_value=2, max_value=8))
    def test_negating_one_claim_flips_chain_result(self, seed, length):
        rng = random.Random(seed)
        program = random_truth_chain(rng, length)
        flipped_at = rng.randrange(len(program.stmts))
        mutated_stmts = list(program.stmts)
        original = mutated_stmts[flipped_at]
        mutated_stmts[flipped_at] = Says(
            speaker=original.speaker,
            target=original.target,
            claimed=1 - original.claimed,
        )
        mutated = MetaProgram(
            inits=program.inits, stmts=tuple(mutated_stmts), query=program.query
        )
        last_sym = program.query.sym
        assert eval_program(program).value_of(last_sym) != eval_program(mutated).value_of(last_sym)

    @given(
        st.one_of(
            st.integers(min_value=-100, max_value=100),
            st.fractions(min_value=-50, max_value=50, max_denominator=20),
        ),
        st.integers(min_value=-20, max_value=20).filter(lambda n: n != 0),
    )
    def test_mul_then_div_restores_value(self, start, factor):
        start = exact(Fraction(start))
        program = MetaProgram(
            inits=(("A", start),),
            stmts=(Mul(sym="A", factor=factor), Div(sym="A", divisor=factor)),
            query=ValueOf(sym="A"),
        )
        assert eval_program(program).answer == start

    @settings(max_examples=30)
    @given(st.integers(min_value=0))
    def test_random_programs_validate(self, seed):
        # a random draw is well-formed: building it passes every check, and can
        # only meet a kind error when it runs
        try:
            MetaProgram(*random_parts(random.Random(seed)))
        except EvalTypeError:
            pass

    @given(
        st.integers(min_value=0),
        st.one_of(st.none(), st.tuples(st.integers(min_value=0), st.sampled_from(MUTANTS))),
    )
    def test_a_program_that_exists_runs(self, seed, mutation):
        parts = random_parts(random.Random(seed))
        if mutation is not None:
            parts = mutated(parts, *mutation)
        try:
            program = MetaProgram(*parts)
        except MetaLangError:
            return
        trace = eval_program(program)
        assert trace.program is program and len(trace.steps) == len(program.stmts)


class TestValidation:
    def test_parse_then_eval_validates_once(self, monkeypatch):
        calls = []
        walk = MetaProgram.__post_init__

        def counting(program):
            calls.append(program)
            walk(program)

        monkeypatch.setattr(MetaProgram, "__post_init__", counting)
        eval_program(parse_meta("It is known A = 1. Add 2 to A. What is the value of A?"))
        assert len(calls) == 1

    def test_each_symbol_is_checked_once_where_it_is_defined(self, monkeypatch):
        program = resolve(generate(GenConfig(task=Task.TSO7, count=1, seed=7))[0]).program
        checked = []
        check = meta_ast._check_symbol
        monkeypatch.setattr(meta_ast, "_check_symbol", lambda sym: checked.append(sym) or check(sym))
        MetaProgram(program.inits, program.stmts, program.query)
        # 7 inits, 7 swaps of two symbols and a query: 7 checks, not 22
        assert len(program.stmts) == 7 and checked == [sym for sym, _ in program.inits]

    def test_says_must_introduce_fresh_symbol(self):
        with pytest.raises(DuplicateSymbolError):
            MetaProgram(
                inits=(("A", 1), ("B", 1)),
                stmts=(Says(speaker="B", target="A", claimed=1),),
                query=ValueOf(sym="B"),
            )

    @pytest.mark.parametrize("value", [True, False, Fraction(4, 2), Fraction(0, 3), 1.5, None, ["A"]])
    def test_values_of_no_canonical_kind_are_refused(self, value):
        with pytest.raises(InvalidProgramError, match="unsupported value"):
            MetaProgram(inits=(("A", value),), stmts=(), query=ValueOf(sym="A"))
        with pytest.raises(InvalidProgramError, match="unsupported value"):
            MetaProgram(inits=(("A", 1),), stmts=(Says(speaker="B", target="A", claimed=value),),
                        query=ValueOf(sym="B"))
        with pytest.raises(InvalidProgramError, match="unsupported value"):
            MetaProgram(inits=(("A", 1),), stmts=(), query=IsEqual(sym="A", value=value))

    def test_lastof_needs_nonempty_literal(self):
        with pytest.raises(InvalidProgramError):
            MetaProgram(
                inits=(),
                stmts=(LastOf(sym="A", literal=""),),
                query=ValueOf(sym="A"),
            )

    def test_an_operand_that_is_no_int_is_refused_when_built(self):
        with pytest.raises(EvalTypeError, match="^Add to A needs an integer operand, got None$"):
            MetaProgram((("A", 1),), (Add("A", None),), ValueOf("A"))

    @pytest.mark.parametrize("operand", [None, True, False, 1.5, "2", Fraction(4, 2), ["A"]])
    @pytest.mark.parametrize("node", [Add, Sub, Mul, Div])
    def test_mistyped_operands_are_refused_when_built(self, node, operand):
        with pytest.raises(MetaLangError):
            MetaProgram((("A", 1),), (node("A", operand),), ValueOf("A"))

    @pytest.mark.parametrize("literal", [None, True, 1.5, Fraction(4, 2), ["A"], ("A",)])
    def test_a_literal_that_is_no_string_is_refused_when_built(self, literal):
        with pytest.raises(MetaLangError):
            MetaProgram((), (LastOf("A", literal),), ConcatOf(("A",)))

    def test_a_failed_check_outranks_an_earlier_kind_error_and_the_first_kind_error_wins(self):
        with pytest.raises(InvalidProgramError, match="^swap needs two distinct symbols, got A twice$"):
            MetaProgram((("A", 5),), (Flip("A"), Swap("A", "A")), ValueOf("A"))
        # an operand of another kind that Python still combines ranks below any other error,
        # and the walk runs on with the value it gives
        with pytest.raises(EvalTypeError, match="^Flip needs a 0/1 bit in A, got 1.5$"):
            MetaProgram((("A", 1),), (Mul("A", 1.5), Flip("A")), ValueOf("A"))
        with pytest.raises(EvalTypeError, match="^Multiply A needs an integer operand, got 1.5$"):
            MetaProgram((("A", 1),), (Mul("A", 1.5), Add("A", 1)), ValueOf("A"))
        with pytest.raises(EvalTypeError, match="^Flip needs a 0/1 bit in A, got 5$"):
            MetaProgram((("A", 5),), (Flip("A"), Add("A", None)), ValueOf("A"))
        with pytest.raises(EvalTypeError, match="^Add to A needs an integer operand, got None$"):
            MetaProgram((("A", 5),), (Add("A", None), Flip("A")), ValueOf("A"))
        # a string definition with a literal of another kind still defines its symbol
        with pytest.raises(EvalTypeError, match="^last[(][)] needs a string literal, got 5$"):
            MetaProgram((), (LastOf("A", 5), Flip("A")), ConcatOf(("A",)))

    def test_query_symbol_must_be_defined(self):
        with pytest.raises(UndefinedSymbolError):
            MetaProgram(inits=(("A", 1),), stmts=(), query=ValueOf(sym="B"))

    def test_bad_symbol_shape(self):
        with pytest.raises(InvalidProgramError):
            MetaProgram(inits=(("abc", 1),), stmts=(), query=ValueOf(sym="abc"))

    def test_a_node_of_another_kind_is_refused_where_it_stands(self):
        with pytest.raises(InvalidProgramError, match=r"^unknown statement ValueOf\(sym='A'\)$"):
            MetaProgram(inits=(("A", 1),), stmts=(Flip("A"), ValueOf("A")), query=ValueOf("A"))
        with pytest.raises(InvalidProgramError, match=r"^unknown query Flip\(sym='A'\)$"):
            MetaProgram(inits=(("A", 1),), stmts=(), query=Flip("A"))
        with pytest.raises(UndefinedSymbolError, match="^symbol B used before definition$"):
            MetaProgram(inits=(("A", 1),), stmts=(Flip("B"), ValueOf("A")), query=ValueOf("A"))


_PROGRAM = MetaProgram((("A", 1), ("B", 2)), (Swap("A", "B"),), OptionOf("A"))
_SPAN = Span("Alice", 0, 5)

# Each value class built without the frozen dataclass __init__: its fields in order as
# (name, default, sample value), MISSING marking a required one, and a change for ``replace``.
_VALUE_CLASSES = [
    (TaskInstance, [("id", MISSING, "cf-1"), ("task", MISSING, Task.CF), ("question", MISSING, "q"),
                    ("options", None, ("a", "b")), ("gold", MISSING, "yes"), ("meta", None, "m")], {"gold": "no"}),
    (Span, [("text", MISSING, "Alice"), ("start", -1, 0), ("end", -1, 5)], {"end": 6}),
    (Add, [("sym", MISSING, "A"), ("amount", MISSING, 3)], {"amount": 4}),
    (Sub, [("sym", MISSING, "A"), ("amount", MISSING, 3)], {"sym": "B"}),
    (Mul, [("sym", MISSING, "A"), ("factor", MISSING, 3)], {"factor": 2}),
    (Div, [("sym", MISSING, "A"), ("divisor", MISSING, 3)], {"divisor": 0}),
    (Swap, [("left", MISSING, "A"), ("right", MISSING, "B")], {"right": "C"}),
    (Says, [("speaker", MISSING, "B"), ("target", MISSING, "A"), ("claimed", MISSING, 1)], {"claimed": "x"}),
    (Flip, [("sym", MISSING, "A")], {"sym": "ZZ"}),
    (LastOf, [("sym", MISSING, "A"), ("literal", MISSING, "word")], {"literal": "wore"}),
    (ValueOf, [("sym", MISSING, "A")], {"sym": "B"}),
    (IsEqual, [("sym", MISSING, "A"), ("value", MISSING, 1)], {"value": Fraction(1, 2)}),
    (OptionOf, [("sym", MISSING, "A")], {"sym": "B"}),
    (ConcatOf, [("syms", MISSING, ("A", "B"))], {"syms": ("B",)}),
    (EntityTable, [("entries", (), ((_SPAN, "A"),)), ("op_spans", (), (_SPAN,))], {"op_spans": ()}),
    (MetaQuestion, [("program", MISSING, _PROGRAM), ("table", MISSING, EntityTable()),
                    ("option_letters", None, ("B", "A"))], {"option_letters": None}),
    (MetaProgram, [("inits", MISSING, (("A", 1), ("B", 2))), ("stmts", MISSING, (Swap("A", "B"),)),
                   ("query", MISSING, OptionOf("A"))], {"query": OptionOf("B")}),
    (Trace, [("steps", MISSING, ((("A", 2), ("B", 1)),)), ("answer", MISSING, 2), ("program", MISSING, _PROGRAM)],
     {"answer": 1}),
]


class TestValueClasses:
    @pytest.mark.parametrize(("cls", "rows", "change"), _VALUE_CLASSES, ids=[c[0].__name__ for c in _VALUE_CLASSES])
    def test_each_keeps_the_frozen_dataclass_contract(self, cls, rows, change):
        assert [(spec.name, spec.default) for spec in dataclasses.fields(cls)] == [row[:2] for row in rows]
        values = {name: value for name, _, value in rows}
        obj = cls(**values)
        if cls is not TaskInstance:  # keyword-only
            assert cls(*values.values()) == obj
        else:
            with pytest.raises(TypeError):
                cls(*values.values())
        assert all(getattr(obj, name) is value for name, value in values.items())
        required = {name: value for name, default, value in rows if default is MISSING}
        defaulted = cls(**required)
        assert all(getattr(defaulted, name) == default for name, default, _ in rows if default is not MISSING)

        same = cls(**values)
        assert same is not obj and same == obj and hash(same) == hash(obj) == hash(tuple(values.values()))
        twin = dataclasses.make_dataclass(cls.__name__, list(values), frozen=True)(**values)
        assert obj != twin and twin != obj and obj != tuple(values.values())
        assert repr(obj) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in values.items())})"

        assert dataclasses.replace(obj) == obj and dataclasses.replace(obj) is not obj
        changed = dataclasses.replace(obj, **change)
        assert type(changed) is cls and changed != obj
        assert {name: getattr(changed, name) for name in values} == values | change
        for name, _, value in rows:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        assert pickle.loads(pickle.dumps(obj)) == obj and copy.deepcopy(obj) == obj

    def test_equality_is_type_sensitive(self):
        assert Add("A", 1) != Sub("A", 1) and hash(Add("A", 1)) == hash(Sub("A", 1))
        assert ValueOf("A") != OptionOf("A") != Flip("A")
        assert len({Add("A", 1), Sub("A", 1), Add("A", 1)}) == 2

    def test_a_copied_or_unpickled_program_runs(self):
        trace = eval_program(_PROGRAM)
        for copied in (pickle.loads(pickle.dumps(_PROGRAM)), copy.deepcopy(_PROGRAM), copy.copy(_PROGRAM)):
            assert eval_program(copied) == trace and eval_program(copied).program is copied

    def test_building_a_program_still_validates_it(self):
        with pytest.raises(InvalidProgramError, match="swap needs two distinct symbols"):
            MetaProgram((("A", 1),), (Swap("A", "A"),), ValueOf("A"))
        with pytest.raises(InvalidProgramError, match="swap needs two distinct symbols"):
            dataclasses.replace(_PROGRAM, stmts=(Swap("B", "B"),))
