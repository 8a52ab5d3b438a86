"""One timed unit of a workload, in a fresh interpreter.

    python3 perfbench/worker.py '<job json>'

Modes: ``setup`` (build a workload's inputs; the parent times the whole
process, interpreter start and imports included), ``pipeline`` (one pass
of the offline path over the paper mix), ``solve`` (what
``metareason solve --in`` does, over the datasets a pipeline pass saved),
``eval`` (one ``run_eval``, resumed into its output directory when it
already holds records). With ``spans`` set, the job runs traced and, for
``eval``, then reruns traced with nothing left to do. For every mode but
``setup`` the clock starts after the interpreter has started and imported
metareason, and stops when the call returns; everything a ``metareason``
command pays after start-up (dataset and demo loads, fixture loads,
first-call costs) is inside it. The last stdout line is a JSON result.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import replace

from metareason import demos, meta_lang, resolution, taskgen
from metareason.harness import runner

from inputs import PAPER_MIX, write_workload_inputs
from tracing import Tracer, instrument


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def pipeline(job: dict, tracer: Tracer | None) -> dict:
    reworded = {inst.id: inst for inst in resolution.load_instances(job["reworded_path"])}
    out = job["out_dir"]
    os.makedirs(out, exist_ok=True)
    items = failed = mismatched = 0
    errors = []
    started = time.perf_counter()
    for task, count in PAPER_MIX.items():
        serial = demos.default_mode(task) is demos.FusionMode.COMPLETELY_SERIAL
        resolved, built = [], []
        for orig in taskgen.generate(taskgen.GenConfig(task=task, count=count, seed=job["seed"])):
            items += 1
            inst = reworded.get(orig.id, orig)
            try:
                oracle = taskgen.oracle_answer(orig)
                mq = resolution.resolve(inst)
                text = meta_lang.render_meta(mq.program)
                program = meta_lang.parse_meta(text)
                trace = meta_lang.eval_program(program)
                answer = resolution.surface_answer(mq, trace)
                build = demos.build_completely_serial if serial else demos.build_cross_serial
                demo = build(inst, mq, trace)
            except Exception as exc:  # one bad item must not hide the rest
                failed += 1
                errors.append(f"{orig.id}: {type(exc).__name__}: {exc}")
                continue
            if not (answer == orig.gold == oracle == demo.answer and program == mq.program):
                mismatched += 1
                errors.append(f"{orig.id}: answer {answer!r} gold {orig.gold!r} oracle {oracle!r}")
            resolved.append(replace(inst, meta=text))
            built.append(demo)
        resolution.save_instances(os.path.join(out, f"{task.value}.jsonl"), resolved)
        demos.save_demonstrations(os.path.join(out, f"{task.value}.demos.jsonl"), built)
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "items": items, "failed": failed, "mismatched": mismatched,
            "errors": errors[:5]}


def solve(job: dict, tracer: Tracer | None) -> dict:
    out = job["out_dir"]
    started = time.perf_counter()
    items = wrong = 0
    for task in PAPER_MIX:
        for inst in resolution.load_instances(os.path.join(out, f"{task.value}.jsonl")):
            items += 1
            mq = resolution.resolve(inst)
            wrong += resolution.surface_answer(mq, meta_lang.eval_program(mq.program)) != inst.gold
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "items": items, "wrong": wrong}


def setup(job: dict, tracer: Tracer | None) -> dict:
    return write_workload_inputs(job["workload"], job["root"], job["seed"])


def _count_lines(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def evaluate(job: dict, tracer: Tracer | None) -> dict:
    records_path = os.path.join(job["config"]["output_dir"], "records.jsonl")
    started = time.perf_counter()
    try:
        runner.run_eval(runner.EvalConfig.from_json_dict(job["config"]))
        error = None
    except Exception as exc:  # a raising run counts every unfinished item as failed
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    done = _count_lines(records_path)
    result = {"seconds": seconds, "items": job["records"], "failed": job["records"] - done,
              "errors": [error] if error else []}
    if tracer is not None:
        tracer.write(job["spans"], "fresh")
    if tracer is not None and error is None:
        started = time.perf_counter()
        runner.run_eval(runner.EvalConfig.from_json_dict(job["config"]))
        result["resume_seconds"] = time.perf_counter() - started
        tracer.write(job["spans"], "resume")
    return result


MODES = {"setup": setup, "pipeline": pipeline, "solve": solve, "eval": evaluate}


def main() -> None:
    job = json.loads(sys.argv[1])
    tracer = None
    if job.get("spans"):
        tracer = Tracer()
        instrument(tracer, frozenset(job.get("loose_texts", ())))
    result = MODES[job["mode"]](job, tracer)
    if tracer is not None and job["mode"] != "eval":
        tracer.write(job["spans"], "fresh")
    result["rss_kb"] = _rss_kb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
