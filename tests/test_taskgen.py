"""Generator and oracle tests."""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter

import pytest

from metareason.cli import DEFAULT_COUNTS
from metareason.resolution import Task, json_fields, resolve, save_instances, solve_surface
from metareason.taskgen import (
    GenConfig,
    InvalidParamsError,
    Lexicon,
    LexiconTooSmallError,
    child_rng,
    generate,
    load_wordlist,
    oracle_answer,
)


# SHA-256 of each family's dataset at seed 42 with the CLI default counts,
# as written by save_instances. A change to a sentence form or to the order
# of the generator's rng calls changes these.
DATASET_DIGESTS = {
    Task.MA: "8875425479ad96ad866b49394905d1cd7673294a83e927e28bb0f01b946f66b5",
    Task.AS: "755f9a88ccea537249278158dccaa05c9198f9e171fbf1525fccc7e4889d5c15",
    Task.LLC: "a8147937354807fbfc3c06816aff353625c5ee3ae07cff9a57017d6b04a1ea1b",
    Task.CF: "f4cef735a932399bca3637fd3bb241e39c51e31b932ed379b8f59d4bb4562eb7",
    Task.WOL: "a7a5dfe4a55284e93f059c6d121172c13169de5a61b87720411dea374f1283e6",
    Task.TSO3: "a8accc4438903ae4f3f43e379dade99da7459bd3b73fb7557d83f50bf4b0f738",
    Task.TSO5: "e4ca8d56aae68f77a5a113e62a8c8e50584e4c9a2881e920575158f930c5cea0",
    Task.TSO7: "b396d6b0b13a100653b0ecb88dda1dbf7dff8a2c9071c320a2f5727edddb3015",
}


@pytest.mark.parametrize("task", list(DATASET_DIGESTS))
def test_datasets_are_byte_identical(task, tmp_path):
    path = tmp_path / f"{task.value}.jsonl"
    save_instances(path, generate(GenConfig(task=task, count=DEFAULT_COUNTS[task], seed=42)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DATASET_DIGESTS[task]


class TestDeterminism:
    def test_identical_configs_give_identical_datasets(self):
        cfg = GenConfig(task=Task.TSO7, count=2, seed=42, n_swaps=7)
        first = [json_fields(inst, drop_none=True) for inst in generate(cfg)]
        second = [json_fields(inst, drop_none=True) for inst in generate(cfg)]
        assert json.dumps(first) == json.dumps(second)

    def test_child_streams_are_stable_per_index(self):
        small = [inst.question for inst in generate(GenConfig(task=Task.CF, count=3, seed=5))]
        large = [inst.question for inst in generate(GenConfig(task=Task.CF, count=6, seed=5))]
        assert large[:3] == small

    def test_child_rng_differs_by_task(self):
        assert child_rng(1, Task.CF, 0).random() != child_rng(1, Task.WOL, 0).random()


class TestTracking:
    def test_zero_swaps_is_identity(self):
        for inst in generate(GenConfig(task=Task.TSO3, count=10, seed=1, n_swaps=0)):
            mq = resolve(inst)
            trace_answer = solve_surface(inst)
            # with no swaps the queried person keeps the initial object
            queried_sym = mq.program.query.sym
            position = dict(mq.program.inits)[queried_sym]
            assert trace_answer == chr(ord("A") + position - 1) == inst.gold

    def test_options_list_initial_objects_in_first_mention_order(self):
        for inst in generate(GenConfig(task=Task.TSO5, count=5, seed=2)):
            assignment = inst.question.split(": ", 1)[1]
            previous = -1
            for option in inst.options:
                position = assignment.find(option)
                assert position > previous
                previous = position

    def test_held_object_multiset_is_invariant(self):
        # oracle-side property: simulate prefixes of the swap list directly
        import re

        for inst in generate(GenConfig(task=Task.TSO5, count=10, seed=3)):
            pairs = re.findall(r"(\w+) and (\w+) (?:switch|swap|trade)", inst.question)
            intro = inst.question.split(": ", 1)[1]
            holders = {}
            for chunk in intro.split(", "):
                chunk = chunk.removeprefix("and ")
                for marker in (" is dancing with ", " has ", " is playing "):
                    if marker in chunk:
                        person, obj = chunk.split(marker, 1)
                        holders[person] = obj.rstrip(".").split(".")[0]
                        break
            baseline = Counter(holders.values())
            for a, b in pairs:
                holders[a], holders[b] = holders[b], holders[a]
                assert Counter(holders.values()) == baseline

    def test_gold_letter_roughly_uniform(self):
        golds = [inst.gold for inst in generate(GenConfig(task=Task.TSO3, count=1000, seed=4))]
        counts = Counter(golds)
        assert set(counts) <= {"A", "B", "C"}
        for letter in "ABC":
            assert abs(counts[letter] / 1000 - 1 / 3) < 0.10


class TestTruthChain:
    def test_pattern_matching_known_chain(self):
        # truth; lies; truth; lies; lies — querying the last speaker
        lexicon = Lexicon()
        instances = generate(GenConfig(task=Task.WOL, count=200, seed=6, chain_len=5))
        pattern = None
        for inst in instances:
            opening_truth = inst.question.startswith(
                tuple(f"{name} tells the truth." for name in lexicon.person_names)
            )
            says_claims = [
                "tells the truth" if chunk.endswith("tells the truth") else "lies"
                for chunk in inst.question.split(". ")[1:-1]
            ]
            if opening_truth and says_claims == ["lies", "tells the truth", "lies", "lies"]:
                pattern = inst
                break
        assert pattern is not None, "seeded run never produced the target pattern"
        assert pattern.gold == "no"
        assert solve_surface(pattern) == "no"

    def test_chain_len_two(self):
        for inst in generate(GenConfig(task=Task.WOL, count=5, seed=7, chain_len=2)):
            assert inst.question.count(" says ") == 1
            assert solve_surface(inst) == inst.gold


class TestCoinFlip:
    def test_toggling_one_action_flips_gold(self):
        for inst in generate(GenConfig(task=Task.CF, count=10, seed=8, n_people=4)):
            sentences = inst.question.split(". ")
            for index in range(1, len(sentences) - 1):
                flipped = list(sentences)
                if " does not flip" in flipped[index]:
                    flipped[index] = flipped[index].replace(" does not flip", " flips")
                else:
                    flipped[index] = flipped[index].replace(" flips", " does not flip")
                mutated = inst.__class__(
                    id=inst.id,
                    task=inst.task,
                    question=". ".join(flipped),
                    options=None,
                    gold=inst.gold,
                )
                assert oracle_answer(mutated) != inst.gold


class TestLastLetter:
    def test_known_name(self):
        inst = generate(GenConfig(task=Task.LLC, count=1, seed=9))[0]
        rebuilt = inst.__class__(
            id="llc-known",
            task=Task.LLC,
            question='Take the last letters of the words in "Elon Musk" and concatenate them.',
            options=None,
            gold="",
        )
        assert oracle_answer(rebuilt) == "nk"
        assert inst.gold == oracle_answer(inst)

    def test_gold_length_equals_word_count(self):
        for n_words in (1, 2, 4):
            for inst in generate(GenConfig(task=Task.LLC, count=10, seed=10, n_words=n_words)):
                assert len(inst.gold) == n_words
                assert inst.gold == inst.gold.lower()


class TestArithmetic:
    def test_known_operation_chain(self, eggs_instance):
        assert oracle_answer(eggs_instance) == "18"

    def test_addsub_uses_only_add_and_sub(self):
        for inst in generate(GenConfig(task=Task.AS, count=20, seed=11, n_ops=4)):
            assert "multiplied" not in inst.question
            assert "divided" not in inst.question
            assert solve_surface(inst) == inst.gold

    def test_golds_are_nonnegative_exact(self):
        from fractions import Fraction

        for inst in generate(GenConfig(task=Task.MA, count=50, seed=12, n_ops=4)):
            value = Fraction(*map(int, inst.gold.split("/"))) if "/" in inst.gold else Fraction(inst.gold)
            assert value >= 0


class TestOracleAgreement:
    @pytest.mark.parametrize("task", list(Task))
    def test_small_sweep(self, task):
        for inst in generate(GenConfig(task=task, count=30, seed=13)):
            assert solve_surface(inst) == inst.gold == oracle_answer(inst)


class TestErrors:
    def test_lexicon_too_small(self):
        tiny = Lexicon(person_names=("Alice", "Bob"))
        with pytest.raises(LexiconTooSmallError):
            generate(GenConfig(task=Task.WOL, count=1, seed=14, chain_len=5, lexicon=tiny))

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            generate(GenConfig(task=Task.WOL, count=1, seed=15, chain_len=1))
        with pytest.raises(InvalidParamsError):
            generate(GenConfig(task=Task.MA, count=0, seed=15))

    # Each parameter with its least allowed value (None: no bound), then values its rule
    # refuses: one below the bound, a bool and a fraction. Every rule is checked whatever
    # the task, so a coin-flip config is refused a tracking or truth-chain parameter too.
    @pytest.mark.parametrize(
        "name, low, value",
        [
            (name, low, value)
            for name, low in [("count", 1), ("seed", None), ("n_swaps", 0), ("chain_len", 2),
                              ("n_people", 1), ("n_words", 1), ("n_ops", 1)]
            for value in ([] if low is None else [low - 1]) + [True, 2.5]
        ],
    )
    def test_each_parameter_rule_names_its_field(self, name, low, value):
        wanted = "an integer" if low is None else f"an integer >= {low}"
        message = f"{name} must be {wanted}, got {value!r}"
        with pytest.raises(InvalidParamsError, match="^" + re.escape(message) + "$"):
            generate(GenConfig(**{"task": Task.CF, "count": 1, "seed": 0, name: value}))

    def test_wordlist_loading(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("Ada\n\nGrace\n", encoding="utf-8")
        assert load_wordlist(path) == ("Ada", "Grace")


class TestGoldenTexts:
    def test_oracle_handles_handwritten_instances(self, dance_instance, truth_chain_instance):
        assert oracle_answer(dance_instance) == "C"
        assert oracle_answer(truth_chain_instance) == "no"
