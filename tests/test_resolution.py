"""Resolution tests: surface text to meta-question and back."""

from __future__ import annotations

import json
import re

import pytest

from metareason.meta_lang import (
    Flip,
    IsEqual,
    OptionOf,
    Swap,
    eval_program,
    parse_meta,
    render_meta,
)
from metareason.resolution import (
    MalformedLineError,
    MissingOptionMapError,
    Task,
    TaskInstance,
    TemplateMismatchError,
    TooManyEntitiesError,
    UnsupportedTaskError,
    ValueOutOfOptionRangeError,
    allocate_symbols,
    load_instances,
    resolve,
    resolve_any,
    solve_surface,
    surface_answer,
    symbol_name,
)
from metareason.taskgen import GenConfig, generate

from conftest import COIN_QUESTION, SQUARE_DANCE_QUESTION, TRUTH_CHAIN_QUESTION

_BALLS_INTRO = (
    "Alice, Bob, and Claire are friends. At the start of the game, they each hold a "
    "ball: Alice is holding a red ball, Bob is holding a blue ball, and Claire is "
    "holding a green ball. "
)
_BALLS = ("a red ball", "a blue ball", "a green ball")
_ONE_SWAP = "It is known that A = 1, B = 2, C = 3. A and B swap. Which option equals A?"


# Phrasings the resolver accepts although the generator never writes them.
@pytest.mark.parametrize(
    "task, question, options, meta",
    [
        (
            Task.TSO3,
            _BALLS_INTRO + "Throughout the game, they trade balls. First, Alice and Bob "
            "trade balls. At the end of the game, Alice is holding",
            _BALLS,
            _ONE_SWAP,
        ),
        (
            Task.TSO3,
            _BALLS_INTRO + "Alice and Bob trade balls. At the end of the game, Alice is holding",
            _BALLS,
            _ONE_SWAP,
        ),
        (
            Task.TSO3,
            _BALLS_INTRO + "Next, Alice and Bob trade balls. Later, Claire and Alice trade "
            "balls. After that, Bob and Claire trade balls. At the end of the game, Alice is holding",
            _BALLS,
            "It is known that A = 1, B = 2, C = 3. A and B swap. C and A swap. B and C swap. "
            "Which option equals A?",
        ),
        (
            Task.TSO3,
            _BALLS_INTRO + "During the game, they trade balls. Finally, Claire and Bob trade "
            "balls. At the end of the game, Bob is holding",
            _BALLS,
            "It is known that A = 1, B = 2, C = 3. C and B swap. Which option equals B?",
        ),
        (
            Task.CF,
            "A coin is heads up. Ka reverses the coin. Bo doesn't flip the coin. "
            "Is the coin still heads up?",
            None,
            "It is known that A = 1. Flip A. Is A = 1?",
        ),
    ],
    ids=["is-holding", "no-ordinal", "next-later-after-that", "during", "reverses-doesnt"],
)
def test_resolver_leniency(task, question, options, meta):
    inst = TaskInstance(id="lenient", task=task, question=question, options=options, gold="")
    assert render_meta(resolve(inst).program) == meta


def _assert_whole_word_entity_spans(question, mq):
    for span, _ in mq.table.entries:
        assert question[span.start : span.end] == span.text
        before = question[span.start - 1 : span.start]
        after = question[span.end : span.end + 1]
        assert not (before.isalnum() or before == "_"), (span, question)
        assert not (after.isalnum() or after == "_"), (span, question)


class TestTrackingGolden:
    def test_program_shape(self, dance_instance):
        mq = resolve(dance_instance)
        assert mq.program.inits == (("A", 1), ("B", 2), ("C", 3))
        assert mq.program.stmts == (
            Swap(left="A", right="B"),
            Swap(left="C", right="B"),
            Swap(left="B", right="A"),
        )
        assert mq.program.query == OptionOf(sym="A")

    def test_entity_table_first_mention_order(self, dance_instance):
        from dataclasses import replace

        mq = resolve(dance_instance)
        assert mq.table.as_dict() == {"Alice": "A", "Bob": "B", "Claire": "C"}
        # "Al" also occurs inside "Alice"; its span must be a mention of Al.
        inst = replace(dance_instance, question=SQUARE_DANCE_QUESTION.replace("Claire", "Al"))
        mq = resolve(inst)
        assert mq.table.as_dict() == {"Alice": "A", "Bob": "B", "Al": "C"}
        _assert_whole_word_entity_spans(inst.question, mq)

    def test_final_value_and_surface_answer(self, dance_instance):
        mq = resolve(dance_instance)
        trace = eval_program(mq.program)
        assert trace.value_of("A") == 3
        assert surface_answer(mq, trace) == "C"

    def test_truncated_option_text_falls_back_to_position(self, dance_instance_truncated_options):
        mq = resolve(dance_instance_truncated_options)
        trace = eval_program(mq.program)
        assert surface_answer(mq, trace) == "C"

    def test_swap_statements_mirror_surface_order(self, dance_instance):
        mq = resolve(dance_instance)
        swap_spans = [span.text for span, idx in mq.table.op_spans if idx < 3]
        assert swap_spans == [
            "First, Alice and Bob switch partners.",
            "Then, Claire and Bob switch partners.",
            "Finally, Bob and Alice switch partners.",
        ]

    def test_wrong_variant_rejected(self, dance_instance):
        from dataclasses import replace

        with pytest.raises(TemplateMismatchError):
            resolve(replace(dance_instance, task=Task.TSO5))


class TestTruthChainGolden:
    def test_table_and_answer(self, truth_chain_instance):
        mq = resolve(truth_chain_instance)
        assert mq.table.as_dict() == {
            "Sherrie": "A",
            "Ryan": "B",
            "Bernita": "C",
            "Tamika": "D",
            "Jerry": "E",
        }
        trace = eval_program(mq.program)
        assert trace.value_of("E") is False
        assert surface_answer(mq, trace) == "no"

    def test_claimed_bits(self, truth_chain_instance):
        mq = resolve(truth_chain_instance)
        assert [stmt.claimed for stmt in mq.program.stmts] == [False, True, False, False]
        assert mq.program.query == IsEqual(sym="E", value=True)


class TestCoinGolden:
    def test_non_flips_emit_no_statement(self, coin_instance):
        mq = resolve(coin_instance)
        assert mq.program.inits == (("A", True),)
        assert mq.program.stmts == (Flip(sym="A"),)
        assert mq.program.query == IsEqual(sym="A", value=True)

    def test_parity_oracle_agreement(self, coin_instance):
        # independent oracle: count flip sentences, even count keeps heads
        flips = coin_instance.question.count(" flips the coin")
        expected = "yes" if flips % 2 == 0 else "no"
        assert solve_surface(coin_instance) == expected == coin_instance.gold


class TestLastLetter:
    def test_program_and_answer(self):
        inst = TaskInstance(
            id="llc-1",
            task=Task.LLC,
            question='Take the last letters of the words in "Elon Musk" and concatenate them.',
            options=None,
            gold="nk",
        )
        assert solve_surface(inst) == "nk"
        mq = resolve(inst)
        assert mq.table.as_dict() == {"Elon": "A", "Musk": "B"}


class TestArithmetic:
    def test_golden_chain(self, eggs_instance):
        assert solve_surface(eggs_instance) == "18"

    def test_rational_answer_renders_exact(self):
        inst = TaskInstance(
            id="ma-2",
            task=Task.MA,
            question=(
                "Paul has 7 coins. The number of coins Paul has is divided by 2. "
                "How many coins does Paul have now?"
            ),
            options=None,
            gold="7/2",
        )
        assert solve_surface(inst) == "7/2"

    def test_free_form_without_meta_is_unsupported(self):
        inst = TaskInstance(
            id="ma-3",
            task=Task.MA,
            question="Janet's ducks lay 16 eggs per day. How much does she make?",
            options=None,
            gold="18",
        )
        with pytest.raises(UnsupportedTaskError):
            resolve(inst)

    def test_free_form_with_attached_meta_resolves(self):
        inst = TaskInstance(
            id="ma-4",
            task=Task.MA,
            question="Janet's ducks lay 16 eggs per day. How much does she make?",
            options=None,
            gold="18",
            meta=(
                "It is known that A = 16. Subtract 3 from A. Subtract 4 from A. "
                "Multiply A by 2. What is the value of A?"
            ),
        )
        assert solve_surface(inst) == "18"


class TestAllocateSymbols:
    def test_first_mention_order(self):
        table = allocate_symbols(["Sherrie", "Ryan", "Bernita"])
        assert table.as_dict() == {"Sherrie": "A", "Ryan": "B", "Bernita": "C"}

    def test_single_entity(self):
        assert allocate_symbols(["x"]).as_dict() == {"x": "A"}

    def test_twenty_seventh_span_gets_double_letter(self):
        spans = [f"entity{i}" for i in range(27)]
        table = allocate_symbols(spans)
        assert table.as_dict()["entity26"] == "AA"

    def test_repeated_spans_idempotent(self):
        table = allocate_symbols(["x", "y", "x"])
        assert table.as_dict() == {"x": "A", "y": "B"}

    def test_symbol_pool_exhaustion(self):
        assert symbol_name(701) == "ZZ"
        with pytest.raises(TooManyEntitiesError):
            symbol_name(702)


class TestInstanceLines:
    @pytest.mark.parametrize("field", ["id", "answer"])
    @pytest.mark.parametrize("value", [None, True, [1], {"n": 1}, 1.5],
                             ids=["null", "bool", "list", "object", "float"])
    def test_an_id_or_answer_that_is_not_text_names_its_line(self, tmp_path, field, value):
        path = tmp_path / "items.jsonl"
        item = {"id": "x", "task": "CF", "question": "q", "answer": "yes", field: value}
        path.write_text(json.dumps(item) + "\n")
        problem = f"field {field!r} is not a string or an integer: {value!r}"
        with pytest.raises(MalformedLineError, match=re.escape(f"{path}: line 1: {problem}")):
            load_instances(path)

    def test_strings_stay_and_ints_become_text(self):
        inst = TaskInstance.from_json_dict({"id": 7, "task": "MA", "question": "q", "answer": 18})
        assert (inst.id, inst.gold) == ("7", "18")
        inst = TaskInstance.from_json_dict({"id": "7", "task": "CF", "question": "q", "answer": "no"})
        assert (inst.id, inst.gold) == ("7", "no")


class TestSurfaceAnswer:
    def test_value_query_renders_decimal(self, eggs_instance):
        mq = resolve(eggs_instance)
        assert surface_answer(mq, eval_program(mq.program)) == "18"

    def test_option_query_without_map_raises(self, dance_instance):
        from dataclasses import replace

        mq = resolve(dance_instance)
        broken = replace(mq, option_map=None)
        with pytest.raises(MissingOptionMapError):
            surface_answer(broken, eval_program(mq.program))

    def test_out_of_range_option_value(self, dance_instance):
        from dataclasses import replace

        mq = resolve(dance_instance)
        broken = replace(mq, option_map=((7, "A"),))
        with pytest.raises(ValueOutOfOptionRangeError):
            surface_answer(broken, eval_program(mq.program))


class TestResolveAny:
    def test_identifies_each_family(self, dance_instance):
        task, _ = resolve_any(dance_instance.question, dance_instance.options)
        assert task is Task.TSO3
        task, _ = resolve_any(TRUTH_CHAIN_QUESTION)
        assert task is Task.WOL
        task, _ = resolve_any(COIN_QUESTION)
        assert task is Task.CF
        task, _ = resolve_any('Take the last letters of the words in "Ada Lovelace" and concatenate them.')
        assert task is Task.LLC

    def test_unknown_text_raises(self):
        with pytest.raises(TemplateMismatchError):
            resolve_any("What is the airspeed velocity of an unladen swallow?")

    def test_tracking_with_an_unsupported_object_count_raises(self):
        question = (
            "Alice, Bob, Claire, and Dave are dancers at a square dance. At the start of "
            "a song, they each have a partner: Alice is dancing with Lola, Bob is dancing "
            "with Rodrigo, Claire is dancing with Patrick, and Dave is dancing with "
            "Melissa. Throughout the song, the dancers often trade partners. First, Alice "
            "and Bob switch partners. At the end of the dance, Alice is dancing with"
        )
        with pytest.raises(TemplateMismatchError):
            resolve_any(question, ("Lola", "Rodrigo", "Patrick", "Melissa"))


class TestProperties:
    def test_many_to_one_across_instances_injective_within(self):
        instances = generate(GenConfig(task=Task.WOL, count=20, seed=3, chain_len=4))
        first_symbols = set()
        for inst in instances:
            table = resolve(inst).table.as_dict()
            assert len(set(table.values())) == len(table)  # injective within
            first_symbols.add(next(iter(table.values())))
        assert first_symbols == {"A"}  # reused across instances

    def test_entity_spans_are_whole_word_mentions(self):
        for task in Task:
            for inst in generate(GenConfig(task=task, count=20, seed=16)):
                _assert_whole_word_entity_spans(inst.question, resolve(inst))

    def test_resolution_is_deterministic(self, dance_instance):
        assert resolve(dance_instance) == resolve(dance_instance)

    def test_mirror_fidelity_on_generated_tracking(self):
        for inst in generate(GenConfig(task=Task.TSO5, count=25, seed=9)):
            mq = resolve(inst)
            swaps = [span for span, idx in mq.table.op_spans if idx < len(mq.program.stmts)]
            positions = [span.start for span in swaps]
            assert positions == sorted(positions)
            for span, idx in mq.table.op_spans[:-1]:
                assert inst.question[span.start : span.end] == span.text

    def test_attached_meta_round_trips_through_jsonl(self, tmp_path, dance_instance):
        from dataclasses import replace

        from metareason.resolution import load_instances, save_instances

        mq = resolve(dance_instance)
        inst = replace(dance_instance, meta=render_meta(mq.program))
        path = tmp_path / "data.jsonl"
        save_instances(path, [inst])
        loaded = load_instances(path)
        assert loaded == [inst]
        assert parse_meta(loaded[0].meta) == mq.program
