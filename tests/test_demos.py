"""Demonstration builder tests: structure, faithfulness, extractability."""

from __future__ import annotations

import hashlib
import random

import pytest

from metareason.demos import (
    AlignmentError,
    Demonstration,
    FusionMode,
    PoolTooSmallError,
    TraceMismatchError,
    build_completely_serial,
    build_cross_serial,
    build_demonstration,
    build_from_trace,
    chain_lines,
    default_mode,
    load_demonstrations,
    render_question,
    save_demonstrations,
    select_demos,
)
from metareason.harness.extraction import extract_answer
from metareason.meta_lang.ast import LastOf, MetaProgram, Says, Swap, format_value
from metareason.meta_lang.errors import MetaLangError
from metareason.meta_lang.interpreter import eval_program
from metareason.resolution import (
    EntityTable,
    MetaQuestion,
    ResolutionError,
    Span,
    Task,
    TaskInstance,
    resolve,
    surface_answer,
)
from metareason.taskgen import GenConfig, generate

from support import random_parts

# SHA-256 of what each family's pinned items give (see ``_pinned``): the demonstrations
# files in both fusion modes, and ``repr`` of each resolved question (spans and offsets too).
DEMO_DIGESTS = {
    Task.MA: "9d8b45c2b1243f838eef1cdc9eb2933a66925ff0f831c5930b6676fcad316ce7",
    Task.AS: "499768cae14c34c02da50f6c9e19e7d5bb42260c7efc0f4654f85db8f3b2dff2",
    Task.LLC: "c1b94542456fd3176b7d143a343664d40b002b93f394e9807c9a73046f1980cc",
    Task.CF: "4ab5561c55826431edf036b318b84f9878f84c3e24955f8a0600f5f44057363c",
    Task.WOL: "d0675b35c992342d4455b08aebad8868e1b7c084fca7baaf4e7f63edaf9f3c06",
    Task.TSO3: "d6e63c630afd28f0c3fb98a788fd2c8d4a16b766131531085abe0a1c738c6879",
    Task.TSO5: "fccca2b3202e2bb62116107dc220a2f1e955c56a8e387816a789141c6c48e1ec",
    Task.TSO7: "865cd14a37de27a1ad8b48c64f584530c0e00a3256c0d2e0ec317e596a4ea9b3",
}
RESOLVED_DIGESTS = {
    Task.MA: "fc6eba1ef378e24cfeca225866b3592ffc66d463efe845f8d8e6ee994532dc3e",
    Task.AS: "af4bf50d52d5e440b65ec811d6cbdac905b37c6c0ef7dc89f910b586c560701d",
    Task.LLC: "4c226cd79562bc89b170ce5fb0d88159346de13539ac8693e436c7a3645abd8e",
    Task.CF: "7fbdf5294ddd060f6067b9d938cb1855cc5d60bffea68394003b07c3a94e26b1",
    Task.WOL: "e08584fa14e70840d56db6a5dd12010724385e9a0dbb6ac7393d84b452f77775",
    Task.TSO3: "8a92900877ae9b9d47a3586d07058c61ed0b32f5349d61e8a62d4547423f4dab",
    Task.TSO5: "65bc8d083f82cce63e2943d1f57940fef309fac8905f1cb5357172085711fa5b",
    Task.TSO7: "f840f7b2bcde60691f862bb2137b6880d3bde95a15584e0872de2a879d60b59b",
}
# Both builders' rationales and answers over the runnable programs of ``_synthetic``.
SYNTHETIC_DIGEST = "7be88726d1984092b778f7f8adba63da90ebbd24f48be2477c6f79c63a6ae882"


def _resolved(inst):
    mq = resolve(inst)
    return mq, eval_program(mq.program)


class TestCompletelySerial:
    def test_arithmetic_chain_lines(self, eggs_instance):
        demo = build_completely_serial(eggs_instance, *_resolved(eggs_instance))
        lines = demo.rationale.splitlines()
        assert lines[0].startswith("The question can be simplified to: It is known that A = 16.")
        assert "A = 16" in lines[1]
        assert "A - 3 = 16 - 3 = 13" in demo.rationale
        assert "A - 4 = 13 - 4 = 9" in demo.rationale
        assert "A * 2 = 9 * 2 = 18" in demo.rationale
        assert demo.rationale.count("simplified to:") == 1
        assert demo.answer == "18"
        assert demo.mode is FusionMode.COMPLETELY_SERIAL

    def test_division_line_renders_exact_rational(self):
        inst = TaskInstance(
            id="ma-div",
            task=Task.MA,
            question=(
                "Paul has 9 coins. The number of coins Paul has is divided by 2. "
                "How many coins does Paul have now?"
            ),
            options=None,
            gold="9/2",
        )
        demo = build_completely_serial(inst, *_resolved(inst))
        assert "A / 2 = 9 / 2 = 9/2" in demo.rationale

    def test_zero_statement_program(self):
        inst = TaskInstance(
            id="ma-zero",
            task=Task.MA,
            question="Paul has 5 coins. How many coins does Paul have now?",
            options=None,
            gold="5",
        )
        demo = build_completely_serial(inst, *_resolved(inst))
        assert demo.rationale.splitlines() == [
            "The question can be simplified to: It is known that A = 5. "
            "What is the value of A?",
            "A = 5",
            "Therefore, the value of A is 5, so the answer is 5.",
        ]

    def test_trace_mismatch_rejected(self, eggs_instance, coin_instance):
        mq, _ = _resolved(eggs_instance)
        _, wrong_trace = _resolved(coin_instance)
        with pytest.raises(TraceMismatchError):
            build_completely_serial(eggs_instance, mq, wrong_trace)

    def test_builders_check_the_trace_without_running_the_program(
        self, monkeypatch, eggs_instance, dance_instance
    ):
        cases = []
        for inst in (eggs_instance, dance_instance):
            mq, trace = _resolved(inst)
            for build in (build_completely_serial, build_cross_serial):
                cases.append((build, inst, mq, trace, build(inst, mq, trace)))

        def no_eval(program):
            raise AssertionError("a demo build ran the program")

        monkeypatch.setattr("metareason.demos.eval_program", no_eval)
        for build, inst, mq, trace, demo in cases:
            assert build(inst, mq, trace) == demo


class TestCrossSerial:
    def test_tracking_subblocks(self, dance_instance):
        demo = build_cross_serial(dance_instance, *_resolved(dance_instance))
        lines = demo.rationale.splitlines()
        assert demo.n_substeps == 3
        assert len(lines) == 1 + 3 + 1
        assert lines[0] == (
            "The question can be simplified to: It is known that A = 1, B = 2, C = 3."
        )
        assert lines[1] == (
            "First, A and B switch partners: A and B → (A = 1, B = 2 → A = 2, B = 1)"
            " → A = 2, B = 1, C = 3."
        )
        assert "A = 3, B = 2, C = 1" in lines[3]
        assert "the 3-rd option" in lines[4]
        assert lines[4].endswith("the answer is (C).")

    def test_truth_chain_subblocks(self, truth_chain_instance):
        demo = build_cross_serial(truth_chain_instance, *_resolved(truth_chain_instance))
        lines = demo.rationale.splitlines()
        assert demo.n_substeps == 4
        assert lines[1] == (
            "Ryan says Sherrie lies: lies → A' = 0. Since A = 1, "
            "A is not equal to A', so B = 0."
        )
        assert lines[3] == (
            "Tamika says Bernita lies: lies → C' = 0. Since C = 0, "
            "C is equal to C', so D = 1."
        )
        assert lines[-1] == "Since E = 0, so the answer is: no."

    def test_name_that_equals_a_symbol_is_replaced_once(self, dance_instance):
        # Bob renamed to "A": its symbol is B, and Alice's symbol A is a name too.
        renamed = TaskInstance(
            id="tso3-named-a", task=Task.TSO3, question=dance_instance.question.replace("Bob", "A"),
            options=dance_instance.options, gold=dance_instance.gold,
        )
        assert resolve(renamed).table.as_dict() == {"Alice": "A", "A": "B", "Claire": "C"}
        demo = build_cross_serial(renamed, *_resolved(renamed))
        assert demo.rationale.splitlines()[1].startswith("First, A and B switch partners:")
        assert demo.rationale == build_cross_serial(dance_instance, *_resolved(dance_instance)).rationale

    def test_single_swap_has_one_subblock(self):
        inst = generate(GenConfig(task=Task.TSO3, count=1, seed=21, n_swaps=1))[0]
        demo = build_cross_serial(inst, *_resolved(inst))
        assert demo.n_substeps == 1
        assert len(demo.rationale.splitlines()) == 3

    def test_coin_flip_blocks(self, coin_instance):
        demo = build_cross_serial(coin_instance, *_resolved(coin_instance))
        lines = demo.rationale.splitlines()
        assert demo.n_substeps == 1
        assert lines[1] == "Ka flips the coin: flip → (A = 1 → A = 0) → A = 0."
        assert lines[-1] == "Since A = 0, so the answer is: no."

    def test_a_coin_nobody_flips_has_no_statements(self):
        inst = TaskInstance(
            id="cf-no-flips",
            task=Task.CF,
            question=(
                "A coin is heads up. Ka does not flip the coin. Sherrie doesn't flip the coin. "
                "Is the coin still heads up?"
            ),
            gold="yes",
        )
        mq, trace = _resolved(inst)
        assert mq.program.stmts == () and trace.steps == ()
        assert trace.final() == dict(mq.program.inits) == {"A": 1}
        assert chain_lines(trace) == ["A = 1"]
        serial = build_completely_serial(inst, mq, trace)
        assert serial.rationale.splitlines()[1:] == ["A = 1", "Since A = 1, so the answer is: yes."]
        cross = build_cross_serial(inst, mq, trace)
        assert cross.n_substeps == 0
        assert cross.rationale.splitlines() == [
            "The question can be simplified to: It is known that A = 1.",
            "Since A = 1, so the answer is: yes.",
        ]
        assert serial.answer == cross.answer == "yes"

    def test_last_letter_blocks(self):
        inst = TaskInstance(
            id="llc-demo",
            task=Task.LLC,
            question='Take the last letters of the words in "Elon Musk" and concatenate them.',
            options=None,
            gold="nk",
        )
        demo = build_cross_serial(inst, *_resolved(inst))
        lines = demo.rationale.splitlines()
        assert 'Elon: A = last("Elon") → A = "n".' in lines
        assert lines[-1] == '"n" + "k" = "nk", so the answer is: nk.'

    def test_snapshots_match_trace(self, dance_instance):
        mq, trace = _resolved(dance_instance)
        demo = build_cross_serial(dance_instance, mq, trace)
        for env, line in zip(trace.steps, demo.rationale.splitlines()[1:]):
            snapshot = ", ".join(f"{s} = {format_value(v)}" for s, v in env)
            assert line.endswith(snapshot + ".")

    def test_alignment_error_without_fragments(self, dance_instance):
        from dataclasses import replace

        mq, trace = _resolved(dance_instance)
        stripped = replace(mq, table=EntityTable(entries=mq.table.entries, op_spans=()))
        with pytest.raises(AlignmentError):
            build_cross_serial(dance_instance, stripped, trace)


class TestDefaults:
    def test_mode_per_task(self):
        assert default_mode(Task.MA) is FusionMode.COMPLETELY_SERIAL
        assert default_mode(Task.AS) is FusionMode.COMPLETELY_SERIAL
        for task in (Task.LLC, Task.CF, Task.WOL, Task.TSO3, Task.TSO5, Task.TSO7):
            assert default_mode(task) is FusionMode.CROSS_SERIAL

    def test_build_demonstration_uses_default(self, eggs_instance, dance_instance):
        assert build_demonstration(eggs_instance).mode is FusionMode.COMPLETELY_SERIAL
        assert build_demonstration(dance_instance).mode is FusionMode.CROSS_SERIAL

    def test_question_includes_options_block(self, dance_instance):
        demo = build_demonstration(dance_instance)
        assert demo.question.endswith("Options:\n(A) Lola\n(B) Rodrigo\n(C) Patrick")
        assert render_question("q", None) == "q"


class TestExtractability:
    @pytest.mark.parametrize("task", list(Task))
    def test_extraction_recovers_demo_answer(self, task):
        for inst in generate(GenConfig(task=task, count=10, seed=22)):
            demo = build_demonstration(inst)
            assert extract_answer(task, demo.rationale) == demo.answer
            assert demo.rationale.splitlines()[-1].count("the answer is") == 1


class TestSelection:
    def _pool(self, size):
        return [
            Demonstration(question=f"q{i}", rationale=f"r{i}", answer="1", mode=FusionMode.CROSS_SERIAL)
            for i in range(size)
        ]

    def test_full_pool_in_seeded_order(self):
        pool = self._pool(4)
        picked = select_demos(pool, 4, seed=5)
        assert sorted(d.question for d in picked) == [d.question for d in pool]
        assert picked == select_demos(pool, 4, seed=5)

    def test_k_one(self):
        pool = self._pool(6)
        assert len(select_demos(pool, 1, seed=1)) == 1

    def test_pool_too_small(self):
        with pytest.raises(PoolTooSmallError):
            select_demos(self._pool(2), 3, seed=0)

    def test_jsonl_round_trip(self, tmp_path, dance_instance):
        demo = build_demonstration(dance_instance)
        path = tmp_path / "demos.jsonl"
        save_demonstrations(path, [demo])
        assert load_demonstrations(path) == [demo]


def _pinned(task):
    """50 generated items of ``task`` at seed 7, then 50 at seed 8."""
    return [inst for seed in (7, 8) for inst in generate(GenConfig(task=task, count=50, seed=seed))]


def _synthetic(count: int = 400):
    """Seeded random programs of mixed statement kinds that run, each with a made-up instance
    and resolved question: an entity name per symbol, and a surface span per statement and
    for the query that names the entities the statement uses."""
    rng = random.Random(23)
    names = ["Alice", "Bob", "Claire", "Dave", "Eve", "B", "Fred", "Gina", "Hal", "Ivy", "Jo", "Kim"]
    cases = []
    while len(cases) < count:
        inits, stmts, query = random_parts(rng)  # names are drawn for each draw, runnable or not
        syms = [sym for sym, _ in inits]
        syms += [stmt.speaker if isinstance(stmt, Says) else stmt.sym
                 for stmt in stmts if isinstance(stmt, (Says, LastOf))]
        named = dict(zip(syms, rng.sample(names, len(syms))))
        spans = []
        for index, stmt in enumerate(stmts):
            used = [stmt.left, stmt.right] if isinstance(stmt, Swap) else [
                getattr(stmt, slot) for slot in ("speaker", "target", "sym") if hasattr(stmt, slot)]
            text = " and ".join(named[sym] for sym in used) + f" take turn {index + 1}."
            spans.append(Span(text, 10 * index, 10 * index + len(text)))
        table = EntityTable(entries=tuple((Span(name), sym) for sym, name in named.items()),
                            op_spans=(*spans, Span("Who has what at the end?")))
        inst = TaskInstance(id=str(len(cases)), task=Task.TSO7, question="What now?",
                            options=tuple(f"thing {i}" for i in range(7)), gold="?")
        try:
            mq = MetaQuestion(program=MetaProgram(inits, stmts, query), table=table,
                              option_letters=tuple("ABCDEFG"))
            trace = eval_program(mq.program)
            surface_answer(mq, trace)
        except (MetaLangError, ResolutionError):
            continue
        cases.append((inst, mq, trace))
    return cases


class TestPinnedOutputs:
    @pytest.mark.parametrize("task", list(DEMO_DIGESTS))
    def test_demonstrations_are_byte_identical(self, task, tmp_path):
        items = [(inst, *_resolved(inst)) for inst in _pinned(task)]
        digest = hashlib.sha256()
        for mode in FusionMode:
            path = tmp_path / f"{mode.value}.jsonl"
            save_demonstrations(path, [build_from_trace(inst, mq, trace, mode) for inst, mq, trace in items])
            digest.update(path.read_bytes())
        assert digest.hexdigest() == DEMO_DIGESTS[task]

    @pytest.mark.parametrize("task", list(RESOLVED_DIGESTS))
    def test_resolved_questions_are_identical(self, task):
        text = "\n".join(repr(resolve(inst)) for inst in _pinned(task))
        assert hashlib.sha256(text.encode()).hexdigest() == RESOLVED_DIGESTS[task]

    def test_both_builders_over_mixed_statement_kinds(self):
        digest = hashlib.sha256()
        for inst, mq, trace in _synthetic():
            for build in (build_completely_serial, build_cross_serial):
                demo = build(inst, mq, trace)
                digest.update(f"{demo.rationale}\n{demo.answer}\n".encode())
        assert digest.hexdigest() == SYNTHETIC_DIGEST
