"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``criterion N: PASS`` line on success (run with
``pytest -s`` or ``-v`` to see them); a pytest failure is the fail line.
Time limits are wall-clock bounds measured inside the test.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from collections import Counter
from fractions import Fraction

import pytest

from metareason.cli import main
from metareason.demos import build_completely_serial, build_cross_serial, build_demonstration, save_demonstrations
from metareason.harness.backends import save_fixtures
from metareason.harness.extraction import extract_answer, normalize_answer
from metareason.harness.prompts import Paradigm, assemble_prompt
from metareason.harness.reporting import format_pct
from metareason.harness.runner import EvalConfig, EvalRecord, run_eval, score
from metareason.meta_lang.ast import (
    Div,
    Flip,
    MetaProgram,
    Mul,
    Says,
    Swap,
    ValueOf,
    format_value,
)
from metareason.meta_lang.interpreter import eval_program
from metareason.meta_lang.parser import parse_meta
from metareason.meta_lang.renderer import render_meta
from metareason.resolution import Task, resolve, save_instances, surface_answer
from metareason.taskgen import GenConfig, generate, oracle_answer
from support import (
    exact,
    random_numeric_env,
    random_program,
    random_swap_sequence,
    random_truth_chain,
    value_kinds,
)

from conftest import (
    LOOSE_META_TEXT,
    SAMPLE_COT_COMPLETION_MONEY,
    SAMPLE_COT_COMPLETION_TSO,
    SAMPLE_META_COMPLETION_WOL,
)


def _passed(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS — {detail}")


def test_criterion_01_golden_arithmetic_trace(capsys):
    started = time.perf_counter()
    assert main(["solve", "--meta", LOOSE_META_TEXT]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "A - 3 = 16 - 3 = 13"
    assert lines[2] == "A - 4 = 13 - 4 = 9"
    assert lines[3] == "A * 2 = 9 * 2 = 18"
    assert lines[-1] == "18"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        _passed(1, f"trace 16 → 13 → 9 → 18 in {elapsed:.3f}s")


def test_criterion_02_golden_tracking_case(capsys, dance_instance):
    started = time.perf_counter()
    mq = resolve(dance_instance)
    assert mq.program.inits == (("A", 1), ("B", 2), ("C", 3))
    assert mq.program.stmts == (
        Swap(left="A", right="B"),
        Swap(left="C", right="B"),
        Swap(left="B", right="A"),
    )
    trace = eval_program(mq.program)
    assert trace.value_of("A") == 3
    assert surface_answer(mq, trace) == "C"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        _passed(2, f"A = 3 → option C in {elapsed:.3f}s")


def test_criterion_03_golden_truth_chain_case(capsys, truth_chain_instance):
    started = time.perf_counter()
    mq = resolve(truth_chain_instance)
    trace = eval_program(mq.program)
    assert trace.value_of("E") == 0 and type(trace.value_of("E")) is int
    assert surface_answer(mq, trace) == "no"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        _passed(3, f"E = 0 → 'no' in {elapsed:.3f}s")


def test_criterion_04_oracle_equivalence_sweep(capsys):
    started = time.perf_counter()
    families = (Task.LLC, Task.CF, Task.WOL, Task.TSO3, Task.TSO5, Task.TSO7, Task.MA)
    checked = 0
    for task in families:
        for inst in generate(GenConfig(task=task, count=1000, seed=1004)):
            mq = resolve(inst)
            answer = surface_answer(mq, eval_program(mq.program))
            assert answer == inst.gold == oracle_answer(inst), inst.question
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 7000
    assert elapsed < 60.0
    with capsys.disabled():
        _passed(4, f"{checked} instances, 100% agreement, {elapsed:.1f}s")


def test_criterion_05_round_trip_ten_thousand(capsys):
    started = time.perf_counter()
    rng = random.Random(1005)
    for _ in range(10_000):
        program = random_program(rng)
        parsed = parse_meta(render_meta(program))
        assert parsed == program
        assert value_kinds(parsed) == value_kinds(program), render_meta(program)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    with capsys.disabled():
        _passed(5, f"10,000 round-trips, values and their types kept, {elapsed:.1f}s")


def test_criterion_06_algebraic_properties(capsys):
    rng = random.Random(1006)
    cases = 1000

    for _ in range(cases):  # swap involution
        env = random_numeric_env(rng, rng.randint(2, 6))
        syms = [sym for sym, _ in env]
        left, right = rng.sample(syms, 2)
        program = MetaProgram(
            inits=tuple(env),
            stmts=(Swap(left=left, right=right), Swap(left=left, right=right)),
            query=ValueOf(sym=syms[0]),
        )
        assert eval_program(program).final() == dict(env)

    for _ in range(cases):  # swap value-multiset conservation
        env = random_numeric_env(rng, rng.randint(2, 6))
        syms = [sym for sym, _ in env]
        program = MetaProgram(
            inits=tuple(env),
            stmts=tuple(random_swap_sequence(rng, syms, rng.randint(0, 10))),
            query=ValueOf(sym=syms[0]),
        )
        final = eval_program(program).final()
        assert Counter(map(format_value, final.values())) == Counter(
            format_value(value) for _, value in env
        )

    for _ in range(cases):  # flip parity
        start = rng.randint(0, 1)
        flips = rng.randint(0, 9)
        program = MetaProgram(
            inits=(("A", start),),
            stmts=tuple(Flip(sym="A") for _ in range(flips)),
            query=ValueOf(sym="A"),
        )
        answer = eval_program(program).answer
        assert answer == start ^ (flips % 2) and type(answer) is int

    for _ in range(cases):  # negating one claim flips the chain verdict
        program = random_truth_chain(rng, rng.randint(2, 8))
        position = rng.randrange(len(program.stmts))
        stmts = list(program.stmts)
        original = stmts[position]
        stmts[position] = Says(
            speaker=original.speaker, target=original.target, claimed=1 - original.claimed
        )
        mutated = MetaProgram(inits=program.inits, stmts=tuple(stmts), query=program.query)
        sym = program.query.sym
        assert eval_program(program).value_of(sym) != eval_program(mutated).value_of(sym)

    for _ in range(cases):  # exact-rational Div after Mul restores the value
        start = exact(Fraction(rng.randint(-100, 100), rng.randint(1, 20)))
        factor = rng.choice([n for n in range(-20, 21) if n != 0])
        program = MetaProgram(
            inits=(("A", start),),
            stmts=(Mul(sym="A", factor=factor), Div(sym="A", divisor=factor)),
            query=ValueOf(sym="A"),
        )
        assert eval_program(program).answer == start

    with capsys.disabled():
        _passed(6, f"5 properties × {cases} cases, zero failures")


def test_criterion_07_extraction_goldens(capsys):
    assert extract_answer(Task.TSO3, SAMPLE_COT_COMPLETION_TSO) == "A"
    assert extract_answer(Task.WOL, SAMPLE_META_COMPLETION_WOL) == "no"
    assert extract_answer(Task.MA, SAMPLE_COT_COMPLETION_MONEY) == "18"
    checked = 0
    for task in Task:
        for inst in generate(GenConfig(task=task, count=150, seed=1007)):
            assert extract_answer(task, f"the answer is {inst.gold}") == normalize_answer(
                task, inst.gold
            )
            checked += 1
    with capsys.disabled():
        _passed(7, f"3 chain goldens + idempotence over {checked} gold answers")


def test_criterion_08_oracle_backend_ceiling(capsys, tmp_path):
    started = time.perf_counter()
    sizes = {
        Task.TSO3: 250,
        Task.TSO5: 250,
        Task.TSO7: 250,
        Task.WOL: 250,
        Task.LLC: 500,
        Task.CF: 500,
    }
    datasets = []
    demo_specs = {}
    for task, count in sizes.items():
        data_path = tmp_path / f"{task.value}.jsonl"
        save_instances(data_path, generate(GenConfig(task=task, count=count, seed=1008)))
        demo_path = tmp_path / f"{task.value}-demos.jsonl"
        demo_instances = generate(GenConfig(task=task, count=2, seed=2008))
        save_demonstrations(demo_path, [build_demonstration(i) for i in demo_instances])
        datasets.append({"name": task.value, "path": str(data_path)})
        demo_specs[task.value] = {"path": str(demo_path), "k": 1}
    config = EvalConfig.from_json_dict(
        {
            "datasets": datasets,
            "paradigms": ["meta-reasoning"],
            "backend": {"kind": "oracle"},
            "demos": demo_specs,
            "seed": 8,
            "output_dir": str(tmp_path / "out"),
        }
    )
    report = run_eval(config)
    for task in sizes:
        cell = report.cells[(task.value, Paradigm.META_REASONING)]
        assert cell.total == sizes[task]
        assert format_pct(cell.accuracy) == "100.0"
    tso_cells = [
        report.task_cells(Paradigm.META_REASONING)[t] for t in (Task.TSO3, Task.TSO5, Task.TSO7)
    ]
    mean_of_cells = sum(c.accuracy for c in tso_cells) / 3
    assert report.tso_average(Paradigm.META_REASONING) == pytest.approx(mean_of_cells)

    # cross-check the averaging rule on injected synthetic records
    synthetic = []
    for dataset, task, correct in (
        ("TSO3", Task.TSO3, 243),
        ("TSO5", Task.TSO5, 250),
        ("TSO7", Task.TSO7, 248),
    ):
        for index in range(250):
            synthetic.append(
                EvalRecord(
                    instance_id=f"{dataset}-{index}",
                    dataset=dataset,
                    task=task,
                    paradigm=Paradigm.META_REASONING,
                    prompt_sha256="",
                    completion="",
                    extracted="A" if index < correct else "B",
                    gold="A",
                    correct=index < correct,
                    latency_ms=0.0,
                )
            )
    synthetic_report = score(synthetic)
    assert format_pct(synthetic_report.tso_average(Paradigm.META_REASONING)) == "98.8"
    assert synthetic_report.tso_average(Paradigm.META_REASONING) == pytest.approx(
        (0.972 + 1.0 + 0.992) / 3
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    with capsys.disabled():
        _passed(8, f"6 datasets at 100.0, averaging rule 98.8, {elapsed:.1f}s")


def test_criterion_09_resume_equivalence(capsys, tmp_path):
    instances = generate(GenConfig(task=Task.TSO3, count=250, seed=1009))
    data_path = tmp_path / "tso3.jsonl"
    save_instances(data_path, instances)
    fixtures = {}
    for inst in instances:
        prompt = assemble_prompt(Paradigm.ZERO_SHOT, [], inst)
        fixtures[prompt] = f"So the answer is ({inst.gold})."
    fixture_path = tmp_path / "fixtures.jsonl"
    save_fixtures(fixture_path, fixtures)
    config_dict = {
        "datasets": [{"name": "TSO3", "path": str(data_path)}],
        "paradigms": ["zero-shot"],
        "backend": {"kind": "replay", "fixture_path": str(fixture_path)},
        "seed": 9,
        "output_dir": str(tmp_path / "out"),
    }
    out_dir = tmp_path / "out"

    run_eval(EvalConfig.from_json_dict(config_dict), max_records=50)  # the kill point
    assert len((out_dir / "records.jsonl").read_text().strip().splitlines()) == 50
    resumed = run_eval(EvalConfig.from_json_dict(config_dict))
    assert len(resumed.records) == 250
    resumed_report = (out_dir / "report.json").read_bytes()

    shutil.rmtree(out_dir)
    run_eval(EvalConfig.from_json_dict(config_dict))
    uninterrupted_report = (out_dir / "report.json").read_bytes()
    assert resumed_report == uninterrupted_report
    with capsys.disabled():
        _passed(9, "interrupted-at-50 and uninterrupted reports byte-identical")


def test_criterion_10_demonstration_structure(capsys, dance_instance, eggs_instance):
    mq = resolve(dance_instance)
    trace = eval_program(mq.program)
    cross = build_cross_serial(dance_instance, mq, trace)
    assert cross.n_substeps == 3
    assert len(cross.rationale.splitlines()) == 1 + 3 + 1
    assert "the 3-rd option" in cross.rationale.splitlines()[-1]

    mq2 = resolve(eggs_instance)
    serial = build_completely_serial(eggs_instance, mq2, eval_program(mq2.program))
    assert serial.rationale.count("simplified to:") == 1
    with capsys.disabled():
        _passed(10, "3 sub-blocks + answer block; exactly one simplification marker")
