"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: the paper mix of
generated datasets, the demonstration pools (from a disjoint seed), the
reworded arithmetic items of the ``pipeline`` workload, and the replay/HTTP
fixtures with their wrong answers and 503 schedule. The program under test
only ever sees the files these functions write.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import replace
from fractions import Fraction

from metareason import demos, taskgen
from metareason.harness import Paradigm, assemble_prompt, prompt_sha256
from metareason.meta_lang import render_inits, render_meta, render_query, render_statement
from metareason.resolution import Task, load_instances, resolve, save_instances

# CLI default counts per family: 2,995 instances.
PAPER_MIX = {
    Task.MA: 600,
    Task.AS: 395,
    Task.LLC: 500,
    Task.CF: 500,
    Task.WOL: 250,
    Task.TSO3: 250,
    Task.TSO5: 250,
    Task.TSO7: 250,
}
HTTP_SCALE = 20            # eval_http runs the paper mix / 20: 148 instances
DEMO_K = 4                 # demonstrations per dataset in every demo paradigm
DEMO_POOL = 8              # pool size the runner selects DEMO_K from
DEMO_SEED_OFFSET = 1_000_003
REWORD_EVERY = 5           # 1 in 5 MA items loses its template (pipeline)
WRONG_FRAC = 0.2           # share of distinct fixture prompts answered wrongly
HTTP_503_EVERY = 250       # 1 in 250 HTTP requests gets one 503 first

PARADIGMS = tuple(p.value for p in Paradigm)
_COT = {Paradigm.ZERO_SHOT_COT.value, Paradigm.FEW_SHOT_COT.value, Paradigm.META_REASONING.value}


def mix_counts(scale: int = 1) -> dict[Task, int]:
    return {task: max(1, round(count / scale)) for task, count in PAPER_MIX.items()}


def sub_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def write_eval_inputs(root: str, seed: int, scale: int = 1) -> dict:
    """Datasets and demo pools for one eval config; returns the config dict
    without its backend and output_dir."""
    os.makedirs(os.path.join(root, "data"), exist_ok=True)
    datasets, demo_specs = [], {}
    for task, count in mix_counts(scale).items():
        path = os.path.join(root, "data", f"{task.value}.jsonl")
        save_instances(path, taskgen.generate(taskgen.GenConfig(task=task, count=count, seed=seed)))
        datasets.append({"name": task.value, "path": path})
        pool_cfg = taskgen.GenConfig(task=task, count=DEMO_POOL, seed=seed + DEMO_SEED_OFFSET)
        pool = [demos.build_demonstration(inst) for inst in taskgen.generate(pool_cfg)]
        demo_path = os.path.join(root, "data", f"{task.value}.demos.jsonl")
        demos.save_demonstrations(demo_path, pool)
        demo_specs[task.value] = {"path": demo_path, "k": DEMO_K}
    return {"datasets": datasets, "paradigms": list(PARADIGMS), "demos": demo_specs, "seed": seed}


def eval_jobs(config: dict):
    """(paradigm, instance, prompt) for every record run_eval will make,
    assembled from the same public functions run_eval uses."""
    jobs = []
    for dataset in config["datasets"]:
        spec = config["demos"][dataset["name"]]
        chosen = demos.select_demos(demos.load_demonstrations(spec["path"]), spec["k"], config["seed"])
        instances = load_instances(dataset["path"])
        for paradigm in Paradigm:
            shots = chosen if paradigm in (Paradigm.FEW_SHOT, Paradigm.FEW_SHOT_COT, Paradigm.META_REASONING) else []
            for inst in instances:
                jobs.append((paradigm.value, inst, assemble_prompt(paradigm, shots, inst)))
    return jobs


_FILLER_WORDS = (
    "first we read the question carefully and note every quantity that changes along the way "
    "then we track each update in order keeping the running state exact at every step "
    "after each sentence we write down the new state before moving on to the next one "
    "finally we map the symbolic result back to the wording of the question"
).split()


def _answer_text(task: Task, answer: str) -> str:
    if task in (Task.TSO3, Task.TSO5, Task.TSO7):
        return f"So the answer is ({answer})."
    if task is Task.LLC:
        return f'So the answer is "{answer}".'
    return f"So the answer is {answer}."


def _wrong(task: Task, gold: str, n_options: int) -> str:
    if task in (Task.TSO3, Task.TSO5, Task.TSO7):
        return chr(ord("A") + (ord(gold) - ord("A") + 1) % n_options)
    if task in (Task.CF, Task.WOL):
        return "no" if gold == "yes" else "yes"
    if task is Task.LLC:
        return gold + "z"
    value = Fraction(gold) + 1
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def write_fixtures(root: str, config: dict, seed: int) -> dict:
    """Completions from gold answers, a seeded WRONG_FRAC of distinct prompts
    wrong, CoT completions of rationale length. Returns the fixture facts
    the run is checked against."""
    rng = sub_rng(seed, "fixtures")
    jobs = eval_jobs(config)
    by_prompt: dict[str, tuple[str, object]] = {}
    for paradigm, inst, prompt in jobs:
        by_prompt.setdefault(prompt_sha256(prompt), (paradigm, inst))
    digests = sorted(by_prompt)
    wrong = set(rng.sample(digests, round(WRONG_FRAC * len(digests))))
    filler = " ".join(_FILLER_WORDS * 4)
    lines = []
    for digest in digests:
        paradigm, inst = by_prompt[digest]
        answer = _wrong(inst.task, inst.gold, len(inst.options or ())) if digest in wrong else inst.gold
        text = _answer_text(inst.task, answer)
        if paradigm in _COT:
            start = filler.find(" ", rng.randrange(0, 200)) + 1
            cut = filler.rfind(" ", 0, start + rng.randrange(300, 800))
            text = filler[start:cut].strip().capitalize() + ". " + text
        lines.append(json.dumps({"prompt_sha256": digest, "completion": text}, ensure_ascii=False))
    path = os.path.join(root, "fixtures.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    fail_first = sorted(rng.sample(digests, round(len(jobs) / HTTP_503_EVERY)))
    fail_path = os.path.join(root, "fail503.json")
    with open(fail_path, "w", encoding="utf-8") as handle:
        json.dump(fail_first, handle)
    expected_correct = sum(prompt_sha256(prompt) not in wrong for _, _, prompt in jobs)
    return {
        "fixture_path": path,
        "fail503_path": fail_path,
        "expected_correct": expected_correct,
        "injected_503": len(fail_first),
    }


def loose_text(program) -> str:
    """The loose connective phrasing of a program with statements:
    "..., then subtract 4 from A, and finally multiply A by 2, now what is ...?"."""
    head = render_inits(program.inits) if program.inits else ""
    clauses = [render_statement(stmt) for stmt in program.stmts]
    body = clauses[0]
    for index, clause in enumerate(clauses[1:], start=1):
        lead = "and finally" if index == len(clauses) - 1 else "then"
        body += f", {lead} {clause[:1].lower()}{clause[1:]}"
    query = render_query(program.query)
    return f"{head} {body}, now {query[:1].lower()}{query[1:]}".strip()


def reword(question: str) -> str:
    """Break the arithmetic template's opening sentence ("X has N things.")."""
    return question.replace(" has ", " starts out with ", 1)


def write_pipeline_inputs(root: str, seed: int) -> dict:
    """The reworded MA items of the pipeline workload: a seeded 1 in 5 of MA
    carry canonical meta, half of them in the loose phrasing."""
    os.makedirs(root, exist_ok=True)
    rng = sub_rng(seed, "reword")
    count = PAPER_MIX[Task.MA]
    chosen = sorted(rng.sample(range(count), count // REWORD_EVERY))
    loose = set(rng.sample(chosen, len(chosen) // 2))
    generated = taskgen.generate(taskgen.GenConfig(task=Task.MA, count=count, seed=seed))
    reworded = {}
    for index in chosen:
        inst = generated[index]
        program = resolve(inst).program
        meta = loose_text(program) if index in loose else render_meta(program)
        reworded[index] = replace(inst, question=reword(inst.question), meta=meta)
    path = os.path.join(root, "reworded.jsonl")
    save_instances(path, (reworded[index] for index in chosen))
    return {"reworded_path": path, "loose_texts": [reworded[index].meta for index in sorted(loose)]}


def write_workload_inputs(workload: str, root: str, seed: int) -> dict:
    """Every input of one workload, written under ``root``: the eval config
    (without backend and output_dir; None for ``pipeline``) and the facts
    the run is checked against."""
    if workload == "pipeline":
        return {"config": None, "facts": write_pipeline_inputs(root, seed)}
    config = write_eval_inputs(root, seed, HTTP_SCALE if workload == "eval_http" else 1)
    facts = {} if workload == "eval_oracle" else write_fixtures(root, config, seed)
    return {"config": config, "facts": facts}
