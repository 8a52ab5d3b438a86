"""Command-line interface tests."""

from __future__ import annotations

import json
import logging
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import metareason
from metareason.cli import main
from metareason.demos import load_demonstrations
from metareason.resolution import Task, load_instances

from conftest import LOOSE_META_TEXT


class TestSolve:
    def test_prints_chain_and_answer(self, capsys):
        assert main(["solve", "--meta", LOOSE_META_TEXT]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "A = 16"
        assert out[1] == "A - 3 = 16 - 3 = 13"
        assert out[2] == "A - 4 = 13 - 4 = 9"
        assert out[3] == "A * 2 = 9 * 2 = 18"
        assert out[-1] == "18"

    def test_bad_meta_is_validation_error(self, capsys):
        assert main(["solve", "--meta", "gibberish here"]) == 1
        assert "error" in capsys.readouterr().err

    def test_needs_exactly_one_input(self, capsys):
        assert main(["solve"]) == 1
        assert main(["solve", "--meta", "x", "--in", "y"]) == 1


class TestGenerate:
    def test_deterministic_files(self, tmp_path, capsys):
        args = ["generate", "--task", "CF", "--count", "20", "--seed", "1"]
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_default_counts(self, tmp_path):
        out = tmp_path / "wol.jsonl"
        assert main(["generate", "--task", "WoL", "--seed", "3", "--out", str(out)]) == 0
        assert len(load_instances(out)) == 250

    def test_case_insensitive_task_flag(self, tmp_path):
        out = tmp_path / "llc.jsonl"
        assert main(["generate", "--task", "llc", "--count", "4", "--seed", "0", "--out", str(out)]) == 0
        assert load_instances(out)[0].task is Task.LLC

    def test_unknown_task_is_usage_error(self, tmp_path, capsys):
        rc = main(["generate", "--task", "XYZ", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--count", "0"], "count must be an integer >= 1, got 0"),
            # a truth-chain parameter, refused for coin flips too
            (["--chain-len", "1"], "chain_len must be an integer >= 2, got 1"),
        ],
    )
    def test_a_parameter_below_its_bound_is_validation_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "cf.jsonl"
        assert main(["generate", "--task", "CF", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_a_kill_during_the_write_leaves_the_previous_file_or_none(self, tmp_path):
        """A child ``generate`` is SIGKILLed after the i-th item reaches the writer, at seeded
        points: the target is the previous file, or absent, never a prefix of the new one."""
        script = (
            "import os, signal, sys\n"
            "from metareason import cli, taskgen\n"
            "kill_after, real = int(sys.argv[1]), taskgen.generate\n"
            "class Killing(list):\n"
            "    def __iter__(self):\n"
            "        for n, item in enumerate(list.__iter__(self), 1):\n"
            "            yield item\n"
            "            if n == kill_after:\n"
            "                os.kill(os.getpid(), signal.SIGKILL)\n"
            "taskgen.generate = lambda cfg: Killing(real(cfg))\n"
            "cli.main(sys.argv[2:])\n"
        )
        src = str(Path(metareason.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = tmp_path / "tso7.jsonl"
        generate = ["--quiet", "generate", "--task", "TSO7", "--count", "120", "--out", str(out)]
        rng = random.Random(21)
        for over_a_file in (True, True, True, False):
            if over_a_file:
                assert main(generate + ["--seed", str(rng.randrange(100))]) == 0
            else:
                out.unlink()
            before = out.read_bytes() if over_a_file else None
            proc = subprocess.run(
                [sys.executable, "-c", script, str(rng.randrange(1, 120)), *generate, "--seed", "1"],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == -signal.SIGKILL, proc.stderr
            assert (out.read_bytes() if out.exists() else None) == before
        # The next write replaces what the kill left behind.
        assert main(generate + ["--seed", "1"]) == 0
        assert len(load_instances(out)) == 120
        assert sorted(os.listdir(tmp_path)) == ["tso7.jsonl"]


class TestResolveSolve:
    def test_resolve_attaches_meta_and_solve_prints_gold(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        resolved = tmp_path / "resolved.jsonl"
        assert main(["generate", "--task", "TSO3", "--count", "6", "--seed", "2", "--out", str(raw)]) == 0
        assert main(["resolve", "--in", str(raw), "--out", str(resolved)]) == 0
        instances = load_instances(resolved)
        assert all(inst.meta for inst in instances)
        capsys.readouterr()
        assert main(["solve", "--in", str(resolved)]) == 0
        answers = capsys.readouterr().out.strip().splitlines()
        assert answers == [inst.gold for inst in instances]

    def test_missing_file_is_runtime_error(self, capsys):
        assert main(["resolve", "--in", "/nonexistent.jsonl", "--out", "/tmp/x.jsonl"]) == 2


# A free-form item: it resolves through its attached meta, so every field is read.
_FREE_FORM_ITEM = {
    "id": "ma-1", "task": "MA", "question": "Tom had some apples and ate two of them.",
    "answer": "3", "meta": "It is known that A = 5. Subtract 2 from A. What is the value of A?",
}


class TestMalformedInput:
    @pytest.mark.parametrize("command", ["solve", "build-demos"])
    @pytest.mark.parametrize("line, problem", [
        ({**_FREE_FORM_ITEM, "options": 5}, "options must be a list of strings, got 5"),
        ({**_FREE_FORM_ITEM, "question": 5}, "question must be a string, got 5"),
        ({**_FREE_FORM_ITEM, "meta": 5}, "meta must be a string, got 5"),
        ({**_FREE_FORM_ITEM, "task": 3}, "task must be a task name, got 3"),
        ({**_FREE_FORM_ITEM, "task": "MB"}, "task must be a task name, got 'MB'"),
        ([_FREE_FORM_ITEM], f"the line must be a JSON object, got {[_FREE_FORM_ITEM]!r}"),
        ({k: v for k, v in _FREE_FORM_ITEM.items() if k != "question"}, "question is missing"),
        ({**_FREE_FORM_ITEM, "answer": None}, "answer must be a string or an integer, got None"),
        ({**_FREE_FORM_ITEM, "id": [1]}, "id must be a string or an integer, got [1]"),
        # A misspelled or stray key is refused, not read as a missing optional field.
        ({**_FREE_FORM_ITEM, "optoins": ["a"]}, "optoins is not a known field"),
        ({**_FREE_FORM_ITEM, "mtea": "x"}, "mtea is not a known field"),
    ], ids=["options", "question", "meta", "task", "task-name", "list", "missing", "answer", "id",
            "optoins", "mtea"])
    def test_names_file_and_line_and_exits_1(self, tmp_path, capsys, command, line, problem):
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps(_FREE_FORM_ITEM) + "\n\n" + json.dumps(line) + "\n")
        args = ["--in", str(data)] + (["--out", str(tmp_path / "out.jsonl")] if command != "solve" else [])
        assert main([command] + args) == 1
        assert capsys.readouterr().err == f"error: {data}: line 3: {problem}\n"

    @pytest.mark.parametrize("command", ["solve", "build-demos"])
    def test_a_line_that_is_not_utf8_names_file_and_line_and_exits_1(self, tmp_path, capsys, command):
        data = tmp_path / "data.jsonl"
        data.write_bytes(json.dumps(_FREE_FORM_ITEM).encode() + b'\n{"id": "\xff"}\n')
        args = ["--in", str(data)] + (["--out", str(tmp_path / "out.jsonl")] if command != "solve" else [])
        assert main([command] + args) == 1
        problem = "not UTF-8 ('utf-8' codec can't decode byte 0xff in position 8: invalid start byte)"
        assert capsys.readouterr().err == f"error: {data}: line 2: {problem}\n"

    @pytest.mark.parametrize("change, problem", [
        ({"n_substeps": True}, "n_substeps must be an integer, got True"),
        ({"n_substeps": 2.0}, "n_substeps must be an integer, got 2.0"),
        ({"rationale": 5}, "rationale must be a string, got 5"),
        ({"mode": "serial"}, "mode must be a fusion mode name, got 'serial'"),
        ({"n_subteps": 2}, "n_subteps is not a known field"),
    ], ids=["n_substeps-bool", "n_substeps-float", "rationale", "mode", "n_subteps"])
    def test_a_demonstration_line_names_file_and_line_and_exits_1(
        self, tmp_path, capsys, change, problem
    ):
        data, demos = tmp_path / "cf.jsonl", tmp_path / "demos.jsonl"
        main(["generate", "--task", "CF", "--count", "2", "--seed", "6", "--out", str(data)])
        main(["build-demos", "--in", str(data), "--k", "1", "--out", str(demos)])
        good = json.loads(demos.read_text(encoding="utf-8"))
        demos.write_text(json.dumps(good) + "\n" + json.dumps({**good, **change}) + "\n")
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "datasets": [{"name": "cf", "path": str(data)}],
            "paradigms": ["few-shot"],
            "backend": {"kind": "oracle"},
            "demos": {"cf": {"path": str(demos)}},
            "output_dir": str(tmp_path / "out"),
        }))
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == f"error: {demos}: line 2: {problem}\n"
        assert not (tmp_path / "out" / "records.jsonl").exists()


class TestBuildDemos:
    def test_build_and_count(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        out = tmp_path / "demos.jsonl"
        main(["generate", "--task", "TSO7", "--count", "5", "--seed", "4", "--out", str(raw)])
        assert main(
            ["build-demos", "--in", str(raw), "--mode", "cross-serial", "--k", "1",
             "--seed", "7", "--out", str(out)]
        ) == 0
        demos = load_demonstrations(out)
        assert len(demos) == 1
        assert demos[0].n_substeps == 7

    def test_default_k_per_task(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        out = tmp_path / "demos.jsonl"
        main(["generate", "--task", "LLC", "--count", "5", "--seed", "4", "--out", str(raw)])
        assert main(["build-demos", "--in", str(raw), "--out", str(out)]) == 0
        assert len(load_demonstrations(out)) == 2  # letter task default

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_validation_error(self, tmp_path, capsys, k):
        raw = tmp_path / "raw.jsonl"
        out = tmp_path / "demos.jsonl"
        main(["generate", "--task", "CF", "--count", "5", "--seed", "4", "--out", str(raw)])
        capsys.readouterr()
        assert main(["build-demos", "--in", str(raw), "--k", k, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --k must be an integer >= 1, got {k}\n"
        assert not out.exists()


class TestEvalReport:
    def _setup(self, tmp_path):
        data = tmp_path / "tso5.jsonl"
        demos = tmp_path / "demos.jsonl"
        main(["generate", "--task", "TSO5", "--count", "10", "--seed", "5", "--out", str(data)])
        main(["build-demos", "--in", str(data), "--k", "1", "--seed", "1", "--out", str(demos)])
        config = {
            "datasets": [{"name": "TSO5", "path": str(data)}],
            "paradigms": ["meta-reasoning"],
            "backend": {"kind": "oracle"},
            "demos": {"TSO5": {"path": str(demos), "k": 1}},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        return config_path

    def test_eval_oracle_ceiling_and_report(self, tmp_path, capsys):
        config_path = self._setup(tmp_path)
        assert main(["eval", "--config", str(config_path)]) == 0
        table = capsys.readouterr().out
        assert "100.0" in table
        records = tmp_path / "out" / "records.jsonl"
        capsys.readouterr()
        assert main(["report", "--records", str(records), "--format", "csv"]) == 0
        csv_text = capsys.readouterr().out
        assert "TSO5,TSO5,meta-reasoning,10,10,100.0" in csv_text
        assert main(["report", "--records", str(records), "--format", "json",
                     "--out", str(tmp_path / "r.json")]) == 0
        assert json.loads((tmp_path / "r.json").read_text())["summary"]

    def test_the_json_report_is_report_json_of_the_records(self, tmp_path, capsys):
        from metareason.harness.reporting import report_json
        from metareason.harness.runner import load_records, score

        config_path = self._setup(tmp_path)
        assert main(["eval", "--config", str(config_path)]) == 0
        records = tmp_path / "out" / "records.jsonl"
        expected = report_json(score(load_records(records)))
        capsys.readouterr()
        assert main(["report", "--records", str(records), "--format", "json"]) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "r.json"
        assert main(["report", "--records", str(records), "--format", "json", "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")

    def test_report_verdicts_agree_with_the_cell_counts(self, tmp_path):
        config_path = self._setup(tmp_path)
        assert main(["eval", "--config", str(config_path)]) == 0
        records = tmp_path / "out" / "records.jsonl"
        stored = [json.loads(line) for line in records.read_text().splitlines()]
        for record in stored:
            record["correct"] = not record["correct"]  # every stored verdict is now false
        stored[0]["extracted"] = "Z"  # and one answer is now wrong
        records.write_text("".join(json.dumps(record) + "\n" for record in stored))
        out = tmp_path / "r.json"
        assert main(["report", "--records", str(records), "--format", "json",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        [cell] = report["cells"]
        assert (cell["correct"], cell["total"]) == (9, 10)
        verdicts = [record["correct"] for record in report["records"]]
        assert verdicts == [record["extracted"] == record["gold"] for record in report["records"]]
        assert sum(verdicts) == cell["correct"]

    def test_negative_max_records_is_validation_error(self, tmp_path, capsys):
        config_path = self._setup(tmp_path)
        config = json.loads(config_path.read_text())
        # Both dispatch paths: the refusal comes before any request is made.
        http = {"kind": "http", "endpoint_url": "http://127.0.0.1:9/v1/completions",
                "model_name": "m", "max_retries": 0, "parallelism": 2}
        capsys.readouterr()
        for backend in ({"kind": "oracle"}, http):
            config["backend"] = backend
            config_path.write_text(json.dumps(config))
            assert main(["eval", "--config", str(config_path), "--max-records", "-2"]) == 1
            assert capsys.readouterr().err == "error: max_records must be an integer >= 0, got -2\n"
            assert not (tmp_path / "out" / "records.jsonl").exists()

    def test_zero_max_records_rescores_an_existing_run(self, tmp_path, capsys):
        config_path = self._setup(tmp_path)
        assert main(["eval", "--config", str(config_path), "--max-records", "0"]) == 1
        assert "max_records=0 produced no records" in capsys.readouterr().err
        assert main(["eval", "--config", str(config_path)]) == 0
        report = tmp_path / "out" / "report.json"
        first = report.read_bytes()
        report.unlink()
        assert main(["eval", "--config", str(config_path), "--max-records", "0"]) == 0
        assert report.read_bytes() == first

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"datasets": [], "paradigms": [], "backend": {"kind": "oracle"}}))
        assert main(["eval", "--config", str(config_path)]) == 1

    def test_an_empty_output_dir_flag_is_validation_error(self, tmp_path, capsys):
        config_path = self._setup(tmp_path)
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path), "--output-dir", ""]) == 1
        message = "error: bad config: --output-dir must be a non-empty string, got ''\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    def test_the_report_names_the_output_dir_flag(self, tmp_path):
        config_path = self._setup(tmp_path)
        other = tmp_path / "other"
        assert main(["eval", "--config", str(config_path), "--output-dir", str(other)]) == 0
        assert not (tmp_path / "out").exists()
        config = json.loads((other / "report.json").read_text())["config"]
        assert config["output_dir"] == str(other)
        assert config == {**json.loads(config_path.read_text()), "output_dir": str(other)}

    def test_malformed_config_exits_1_without_a_traceback(self, tmp_path):
        config_path = self._setup(tmp_path)
        config = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**config, "seed": None}))
        src = str(Path(metareason.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "metareason.cli", "eval", "--config", str(config_path)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: bad config: ")
        assert not (tmp_path / "out").exists()

    def test_fixture_miss_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "cf.jsonl"
        main(["generate", "--task", "CF", "--count", "2", "--seed", "6", "--out", str(data)])
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text("")
        config_path = tmp_path / "cfg.json"
        config_path.write_text(
            json.dumps(
                {
                    "datasets": [{"name": "cf", "path": str(data)}],
                    "paradigms": ["zero-shot"],
                    "backend": {"kind": "replay", "fixture_path": str(fixtures)},
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        assert main(["eval", "--config", str(config_path)]) == 2
        assert "fixture" in capsys.readouterr().err.lower()

    def test_a_fixture_completion_that_is_not_text_names_its_line(self, tmp_path, capsys):
        data = tmp_path / "cf.jsonl"
        main(["generate", "--task", "CF", "--count", "2", "--seed", "6", "--out", str(data)])
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text('{"prompt_sha256": "d", "completion": 5}\n')
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "datasets": [{"name": "cf", "path": str(data)}],
            "paradigms": ["zero-shot"],
            "backend": {"kind": "replay", "fixture_path": str(fixtures)},
            "output_dir": str(tmp_path / "out"),
        }))
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path)]) == 1
        problem = "completion must be a string, got 5"
        assert capsys.readouterr().err == f"error: {fixtures}: line 1: {problem}\n"


class TestLogging:
    def test_quiet_suppresses_info(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        main(["--quiet", "generate", "--task", "CF", "--count", "2", "--seed", "0", "--out", str(out)])
        assert "wrote" not in capsys.readouterr().err

    def test_json_logs(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        main(["--log-json", "generate", "--task", "CF", "--count", "2", "--seed", "0", "--out", str(out)])
        err_lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert err_lines and all(json.loads(line)["level"] for line in err_lines)


    def test_main_leaves_the_logger_as_it_found_it(self, tmp_path, capsys):
        logger = logging.getLogger("metareason")
        before = (logger.handlers[:], logger.level)
        generate = ["generate", "--task", "CF", "--count", "2", "--seed", "0"]
        for argv in (
            generate + ["--out", str(tmp_path / "x.jsonl")],
            ["--quiet", "--log-json"] + generate + ["--out", str(tmp_path / "y.jsonl")],
            ["solve", "--meta", "gibberish here"],  # a validation error, exit 1
        ):
            main(argv)
            assert (logger.handlers, logger.level) == before


class TestDependencies:
    def test_cli_imports_only_the_standard_library(self):
        script = (
            "import sys; before = set(sys.modules); import metareason.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
        )
        src = str(Path(metareason.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "metareason" in loaded
        assert not loaded & {"requests", "urllib3"}
        assert loaded - set(sys.stdlib_module_names) == {"metareason"}

    def test_the_benchmark_imports_and_traces_the_packages(self):
        """The benchmark imports names from the package ``__init__``s and traces reporting."""
        script = (
            "import inputs, tracing, worker; tracing.instrument(tracing.Tracer()); "
            "from metareason.harness.reporting import report_json; "
            "assert report_json.__wrapped__ and worker.meta_lang.render_meta.__wrapped__"
        )
        root = Path(__file__).resolve().parents[1]
        src = str(Path(metareason.__file__).resolve().parents[1])
        path = os.pathsep.join([src, str(root / "perfbench")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
