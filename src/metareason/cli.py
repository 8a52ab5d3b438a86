"""Command-line entry point wiring the library into reproducible workflows.

Exit codes: 0 success, 1 validation error (flags, config, unparseable
input), 2 runtime error (I/O, transport, template mismatches).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

from . import demos as demos_mod
from . import taskgen
from .harness.backends import ConfigError, bad_config
from .harness.prompts import HarnessError, IncompatibleDemosError
from .harness.reporting import render_table, report_csv, report_json
from .harness.runner import EvalConfig, load_records, run_eval, score
from .meta_lang.errors import MetaLangError, ParseError
from .meta_lang.interpreter import eval_program
from .meta_lang.parser import parse_meta
from .resolution import (
    ResolutionError,
    Task,
    config_number,
    config_text,
    load_instances,
    resolve,
    save_instances,
    solve_surface,
    task_from_string,
)

log = logging.getLogger("metareason")

# Dataset sizes follow the evaluation setup: 250 items for the harder
# tracking/lying tasks, 500 for letter and coin tasks, 600/395 for the two
# arithmetic suites.
DEFAULT_COUNTS = {
    Task.MA: 600,
    Task.AS: 395,
    Task.LLC: 500,
    Task.CF: 500,
    Task.WOL: 250,
    Task.TSO3: 250,
    Task.TSO5: 250,
    Task.TSO7: 250,
}

# Demonstration counts: the letter task needs 2 and the 7-step tracking
# task needs only 1; the rest are configurable estimates.
DEFAULT_DEMO_K = {
    Task.MA: 4,
    Task.AS: 4,
    Task.LLC: 2,
    Task.CF: 2,
    Task.WOL: 2,
    Task.TSO3: 1,
    Task.TSO5: 1,
    Task.TSO7: 1,
}

# The generation parameters that have a flag of their own.
_GEN_PARAMS = ("n_swaps", "chain_len", "n_people", "n_words", "n_ops")

_VALIDATION_ERRORS = (
    ConfigError,
    IncompatibleDemosError,
    ParseError,
    taskgen.InvalidParamsError,
    taskgen.LexiconTooSmallError,
    ValueError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise _UsageError(message)


def _task_arg(text: str) -> Task:
    try:
        return task_from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metareason", description=__doc__.splitlines()[0])
    parser.add_argument("--quiet", action="store_true", help="only warnings and errors")
    parser.add_argument("--log-json", action="store_true", help="one JSON object per log line")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a seeded synthetic dataset")
    gen.add_argument("--task", type=_task_arg, required=True)
    gen.add_argument("--count", type=int, default=None, help="instances (default per task)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    for name in _GEN_PARAMS:  # a flag not given is left out, so GenConfig gives its default
        gen.add_argument("--" + name.replace("_", "-"), type=int, default=argparse.SUPPRESS)
    gen.set_defaults(func=_cmd_generate)

    res = commands.add_parser("resolve", help="attach canonical meta text to instances")
    res.add_argument("--in", dest="infile", required=True)
    res.add_argument("--out", required=True)
    res.set_defaults(func=_cmd_resolve)

    sol = commands.add_parser("solve", help="evaluate meta text or resolved instances")
    sol.add_argument("--meta", help="meta-question text to solve")
    sol.add_argument("--in", dest="infile", help="instances file; prints one answer per line")
    sol.set_defaults(func=_cmd_solve)

    dem = commands.add_parser("build-demos", help="build demonstrations from instances")
    dem.add_argument("--in", dest="infile", required=True)
    dem.add_argument(
        "--mode",
        choices=[m.value for m in demos_mod.FusionMode] + ["default"],
        default="default",
    )
    dem.add_argument("--k", type=int, default=None, help="demos to keep (default per task)")
    dem.add_argument("--seed", type=int, default=0)
    dem.add_argument("--out", required=True)
    dem.set_defaults(func=_cmd_build_demos)

    ev = commands.add_parser("eval", help="run the evaluation harness (resumable)")
    ev.add_argument("--config", required=True)
    ev.add_argument("--max-records", type=int, default=None)
    ev.add_argument("--output-dir", default=None, help="override the config output_dir")
    ev.set_defaults(func=_cmd_eval)

    rep = commands.add_parser("report", help="render a report from persisted records")
    rep.add_argument("--records", required=True)
    rep.add_argument("--format", choices=["table", "json", "csv"], default="table")
    rep.add_argument("--out", default=None, help="write here instead of stdout")
    rep.set_defaults(func=_cmd_report)

    return parser


def _cmd_generate(args) -> None:
    count = args.count if args.count is not None else DEFAULT_COUNTS[args.task]
    cfg = taskgen.GenConfig(
        task=args.task,
        count=count,
        seed=args.seed,
        **{name: getattr(args, name) for name in _GEN_PARAMS if hasattr(args, name)},
    )
    instances = taskgen.generate(cfg)
    save_instances(args.out, instances)
    log.info("wrote %d %s instances to %s", len(instances), args.task.value, args.out)


def _cmd_resolve(args) -> None:
    from .meta_lang.renderer import render_meta

    instances = load_instances(args.infile)
    resolved = [replace(inst, meta=render_meta(resolve(inst).program)) for inst in instances]
    save_instances(args.out, resolved)
    log.info("resolved %d instances to %s", len(resolved), args.out)


def _cmd_solve(args) -> None:
    if bool(args.meta) == bool(args.infile):
        raise ConfigError("solve needs exactly one of --meta or --in")
    if args.meta:
        trace = eval_program(parse_meta(args.meta))
        for line in demos_mod.chain_lines(trace):
            print(line)
        print(trace.answer)
        return
    for inst in load_instances(args.infile):
        print(solve_surface(inst))


def _cmd_build_demos(args) -> None:
    if args.k is not None:
        config_number(int, 1)(args.k, "--k")
    instances = load_instances(args.infile)
    if not instances:
        raise ConfigError(f"no instances in {args.infile}")
    mode = None if args.mode == "default" else demos_mod.FusionMode(args.mode)
    pool = [demos_mod.build_demonstration(inst, mode=mode) for inst in instances]
    k = args.k if args.k is not None else DEFAULT_DEMO_K[instances[0].task]
    selected = demos_mod.select_demos(pool, k, args.seed)
    demos_mod.save_demonstrations(args.out, selected)
    log.info("wrote %d demonstrations to %s", len(selected), args.out)


def _cmd_eval(args) -> None:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = EvalConfig.from_json_dict(json.load(handle))
    if args.output_dir is not None:
        with bad_config():
            output_dir = config_text(args.output_dir, "--output-dir")
        # The report's copy of the config names the directory the run writes to.
        snapshot = {**config.snapshot, "output_dir": output_dir}
        config = replace(config, output_dir=output_dir, snapshot=snapshot)
    report = run_eval(config, max_records=args.max_records)
    print(render_table(report))


def _cmd_report(args) -> None:
    records = load_records(args.records)
    report = score(records)
    if args.format == "table":
        text = render_table(report) + "\n"
    elif args.format == "json":
        text = report_json(report)
    else:
        text = report_csv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# Attributes every LogRecord has; anything else on a record came from ``extra=``.
_STANDARD_LOG_ATTRS = frozenset(vars(logging.makeLogRecord({}))) | {"message", "asctime"}


class _JsonLogFormatter(logging.Formatter):
    def format(self, record):
        fields = {
            "level": record.levelname.lower(),
            "name": record.name,
            "message": record.getMessage(),
        }
        for key, value in vars(record).items():
            if key not in _STANDARD_LOG_ATTRS:
                fields.setdefault(key, value)
        return json.dumps(fields, default=str)


def _configure_logging(quiet: bool, log_json: bool) -> None:
    handler = logging.StreamHandler(sys.stderr)
    if log_json:
        handler.setFormatter(_JsonLogFormatter())
    else:
        handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    root = logging.getLogger("metareason")
    root.handlers[:] = [handler]
    root.setLevel(logging.WARNING if quiet else logging.INFO)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    handlers, level = log.handlers[:], log.level  # restored for the caller, e.g. a test
    _configure_logging(args.quiet, args.log_json)
    try:
        args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        MetaLangError,
        ResolutionError,
        demos_mod.DemoError,
        HarnessError,
        OSError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.handlers[:] = handlers
        log.setLevel(level)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
