"""Evaluation runner: dispatches prompts to a backend (on worker threads
only for HTTP), persists one record per item (resumable), and scores reports."""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import operator
import os
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring  # the escaper of ensure_ascii=False
from typing import NamedTuple, TextIO

from ..demos import Demonstration, load_demonstrations, select_demos
from ..meta_lang.ast import frozen
from ..resolution import TSO_TASKS, FieldError, MalformedLineError, Task, TaskInstance, config_number
from ..resolution import config_reader, config_string, config_task, config_text, load_instances
from ..resolution import json_line, read_config, setting, write_atomically
from .backends import BackendSpec, ConfigError, HttpBackend, backend_from_config, bad_config
from .backends import _HttpRequest, backend_fingerprint, complete, load_transport, request_headers
from .extraction import extract_answer, is_correct
from .prompts import DEMO_PARADIGMS, Paradigm, config_paradigm, demo_prefix, target_block

log = logging.getLogger(__name__)


class EmptyDatasetError(ConfigError):
    """A dataset file contains no instances (or no records were given)."""


class RecordLineError(MalformedLineError):
    """A complete line of a records file that holds no record."""


def _verdict(value, name: str) -> None:
    """The rule for a stored verdict: any value is allowed, and read as None, so that the
    record makes its verdict again."""


_verdict.inline = "True", "None", {}


@frozen
class EvalRecord:
    """One scored item. ``correct`` is the verdict on extracted/gold, made
    once, as the record is built with None for it: when the item is run, or
    when its stored record is loaded (the stored copy is not trusted).
    ``prompt_sha256`` is the digest of its prompt."""

    instance_id: str = setting(config_string)
    dataset: str = setting(config_string)
    task: Task = setting(config_task)
    paradigm: Paradigm = setting(config_paradigm)
    prompt_sha256: str = setting(config_string)
    completion: str = setting(config_string, default="")
    extracted: str = setting(config_string, default="")
    gold: str = setting(config_string, default="")
    correct: bool | None = setting(_verdict, default=None)
    latency_ms: float = setting(config_number(float, exact=True), default=0.0)

    def __post_init__(self) -> None:
        if self.correct is None:
            object.__setattr__(self, "correct", is_correct(self.task, self.extracted, self.gold))

    def key(self) -> tuple[str, str, str]:
        return (self.dataset, self.paradigm.value, self.instance_id)


def _read_records(path) -> tuple[list[EvalRecord], int]:
    """The records of a JSONL file and the byte length of the lines they
    came from. A torn last line (no final newline, or JSON that does not
    parse), left by an interrupted append, is skipped with a warning; an
    unparseable line before the last, or a parsed line that is not a
    record, raises ``RecordLineError``, which names its 1-based line."""
    read_record = config_reader(EvalRecord)
    records: list[EvalRecord] = []
    complete_bytes = 0
    torn: ValueError | None = None
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            if torn is not None:  # the unparseable line was not the last
                if isinstance(torn, UnicodeDecodeError):
                    raise RecordLineError(path, number - 1, f"not UTF-8 ({torn})")
                cause = torn.msg if isinstance(torn, json.JSONDecodeError) else torn  # or json's digit limit
                raise RecordLineError(path, number - 1, f"not JSON: {cause}")
            if not line.endswith(b"\n"):
                torn = ValueError("no final newline")
                continue
            if not line.isspace():
                try:
                    text = line.decode("utf-8", "surrogatepass")
                    fields = json_line(text, len(text) - 1)  # its value ends before the "\n"
                except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError, or json's digit limit
                    torn = exc
                    continue
                try:
                    records.append(read_record(fields))
                except FieldError as exc:
                    raise RecordLineError(path, number, str(exc)) from None
            complete_bytes += len(line)
    if torn is not None:
        log.warning(
            "%s: the last line is torn (%s); reading %d records before it",
            path, torn, len(records),
            extra={"path": str(path), "records": len(records), "torn_at_byte": complete_bytes},
        )
    return records, complete_bytes


def load_records(path) -> list[EvalRecord]:
    return _read_records(path)[0]


# One records.jsonl line: json.dumps(fields, ensure_ascii=False) of a record's fields in
# table order, written with the C string escaper. The latency is a measured duration, so
# finite: str() is json's spelling of it.
_RECORD_LINE = "{%s}\n" % ", ".join(f'"{name}": %s' for name in EvalRecord.__annotations__)


class RecordStore:
    """Append-only JSONL persistence; one complete line per record, flushed
    immediately, so an interrupted run resumes from what reached disk. It is
    single-threaded: ``run_eval`` appends from its own thread either way.

    The file is opened for append once, at the first new record, and kept
    open until ``close`` (or the end of a ``with`` block). A torn last line
    is cut off then, so a run that appends nothing leaves the file as it is."""

    def __init__(self, path: str):
        self.path = path
        self._handle: TextIO | None = None
        self._records: list[EvalRecord] = []
        # key -> prompt_sha256 of each stored record; run_eval pops each key it checks.
        self.digests: dict[tuple[str, str, str], str] = {}
        self._torn_at: int | None = None
        if os.path.exists(path):
            self._records, complete_bytes = _read_records(path)
            self.digests = {record.key(): record.prompt_sha256 for record in self._records}
            self._torn_at = complete_bytes if complete_bytes < os.path.getsize(path) else None

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def append(self, record: EvalRecord) -> None:
        quoted = encode_basestring  # Task and Paradigm are str enums: it writes their values
        line = _RECORD_LINE % (
            quoted(record.instance_id), quoted(record.dataset), quoted(record.task),
            quoted(record.paradigm), quoted(record.prompt_sha256), quoted(record.completion),
            quoted(record.extracted), quoted(record.gold), "true" if record.correct else "false",
            record.latency_ms,
        )
        if self._handle is None:
            if self._torn_at is not None:
                # Appending after a torn line would fuse it with the next record.
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            # A lone surrogate (a completion cut inside a pair) is written as its JSON escape.
            self._handle = open(self.path, "a", encoding="utf-8", errors="backslashreplace")
        self._handle.write(line)
        self._handle.flush()
        self._records.append(record)

    def records(self) -> list[EvalRecord]:
        return self._records


@dataclass(frozen=True)
class DatasetSpec:
    name: str = setting(config_text)
    path: str = setting(config_text)


@dataclass(frozen=True)
class DemoSpec:
    path: str = setting(config_text)
    k: int = setting(config_number(int, 1), default=1)


def _config_list(read, key):
    """The rule for a non-empty JSON array of items that ``read`` reads, no two alike in ``key``."""

    def read_list(value, name: str) -> tuple:
        if not isinstance(value, list) or not value:
            raise FieldError(f"{name} must be a non-empty list, got {value!r}")
        items = tuple(read(item, f"{name}[{i}]") for i, item in enumerate(value))
        keys = [getattr(item, key) for item in items]
        for i, item_key in enumerate(keys):
            if item_key in keys[:i]:
                raise FieldError(f"{name}[{i}]: {item_key!r} is listed twice")
        return items

    return read_list


def _demo_specs(value, name: str) -> dict[str, DemoSpec]:
    if not isinstance(value, dict):
        raise FieldError(f"{name} must map dataset names to demo specs, got {value!r}")
    return {key: read_config(DemoSpec, spec, f"{name}[{key!r}]") for key, spec in value.items()}


@dataclass(frozen=True)
class EvalConfig:
    datasets: tuple[DatasetSpec, ...] = setting(_config_list(partial(read_config, DatasetSpec), "name"))
    paradigms: tuple[Paradigm, ...] = setting(_config_list(config_paradigm, "value"))
    backend: BackendSpec = setting(backend_from_config)  # its ConfigError passes through as it is
    demos: dict[str, DemoSpec] = setting(_demo_specs, default_factory=dict)
    seed: int = setting(config_number(int), default=0)
    output_dir: str = setting(config_text, default="eval-out")
    snapshot: dict = field(default_factory=dict)

    @classmethod
    def from_json_dict(cls, config: dict) -> "EvalConfig":
        with bad_config():
            evaluation = read_config(cls, config, whole="the config", snapshot=config)
            names = [dataset.name for dataset in evaluation.datasets]
            for name in evaluation.demos:
                if name not in names:
                    raise FieldError(f"demos[{name!r}] names no dataset of this config")
        return evaluation


@dataclass(frozen=True)
class CellStats:
    correct: int
    total: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


@dataclass
class EvalReport:
    """Per-(dataset, paradigm) accuracies plus the raw records."""

    records: list[EvalRecord]
    cells: dict[tuple[str, Paradigm], CellStats]
    dataset_tasks: dict[str, Task]
    config: dict | None = None

    def paradigms(self) -> list[Paradigm]:
        present = {paradigm for _, paradigm in self.cells}
        return [p for p in Paradigm if p in present]

    def task_cells(self, paradigm: Paradigm) -> dict[Task, CellStats]:
        merged: dict[Task, list[int]] = {}
        for (dataset, cell_paradigm), stats in self.cells.items():
            if cell_paradigm is not paradigm:
                continue
            task = self.dataset_tasks[dataset]
            bucket = merged.setdefault(task, [0, 0])
            bucket[0] += stats.correct
            bucket[1] += stats.total
        return {task: CellStats(c, t) for task, (c, t) in merged.items()}

    def tso_average(self, paradigm: Paradigm) -> float | None:
        """Arithmetic mean of the three tracking-task accuracies."""
        cells = self.task_cells(paradigm)
        values = [cells[t].accuracy for t in TSO_TASKS if t in cells]
        if not values:
            return None
        return sum(values) / len(values)

    def overall_average(self, paradigm: Paradigm) -> float | None:
        """Mean over the per-dataset accuracies (tracking average excluded)."""
        cells = self.task_cells(paradigm)
        if not cells:
            return None
        return sum(stats.accuracy for stats in cells.values()) / len(cells)


# The order of EvalRecord.key() without building the keys: a Paradigm is a
# str enum whose text is its value.
_ORDER = operator.attrgetter("dataset", "paradigm", "instance_id")


def score(records: list[EvalRecord], config: dict | None = None) -> EvalReport:
    """Aggregate records into a report, counting each record's verdict."""
    if not records:
        raise EmptyDatasetError("no records to score")
    ordered = sorted(records, key=_ORDER)
    cells: dict[tuple[str, Paradigm], list[int]] = {}
    dataset_tasks: dict[str, Task] = {}
    for record in ordered:
        dataset_tasks[record.dataset] = record.task
        bucket = cells.setdefault((record.dataset, record.paradigm), [0, 0])
        bucket[0] += record.correct
        bucket[1] += 1
    return EvalReport(
        records=ordered,
        cells={key: CellStats(c, t) for key, (c, t) in cells.items()},
        dataset_tasks=dataset_tasks,
        config=config,
    )


def _demo_pools(config: EvalConfig) -> dict[str, list[Demonstration]]:
    if not any(paradigm in DEMO_PARADIGMS for paradigm in config.paradigms):
        return {}
    pools: dict[str, list[Demonstration]] = {}
    for dataset in config.datasets:
        spec = config.demos.get(dataset.name)
        if spec is None:
            raise ConfigError(
                f"paradigms with demonstrations need a demo file for {dataset.name!r}"
            )
        pool = load_demonstrations(spec.path)
        pools[dataset.name] = select_demos(pool, spec.k, config.seed)
    return pools


def _prompt_digest(prefix_hash, target: str) -> str:
    """``prompt_sha256(prefix + target)`` from ``prefix_hash``, the SHA-256
    object of a cell's demonstration prefix, which it leaves as it is."""
    digest = prefix_hash.copy()
    digest.update(target.encode("utf-8", "surrogatepass"))  # as prompt_sha256 encodes
    return digest.hexdigest()


class _Job(NamedTuple):
    """One item of one cell, with the cell's demonstration prefix and its SHA-256 object."""

    dataset: str
    paradigm: Paradigm
    prefix: str
    prefix_hash: object
    inst: TaskInstance

    def prompt(self) -> tuple[str, str]:
        """The item's prompt and its digest."""
        target = target_block(self.paradigm, self.inst)
        return self.prefix + target, _prompt_digest(self.prefix_hash, target)

    def record(self, digest: str, completion: str, started: float) -> EvalRecord:
        """The record of the item's completion, first requested at ``started``."""
        latency_ms = (time.perf_counter() - started) * 1000.0
        inst = self.inst
        extracted = extract_answer(inst.task, completion)
        return EvalRecord(  # positional, in field order; None for the verdict, made from the rest
            inst.id, self.dataset, inst.task, self.paradigm, digest, completion, extracted,
            inst.gold, None, latency_ms,
        )


def _run_http(
    backend: HttpBackend, headers: dict[str, str], jobs: list[_Job], store: RecordStore
) -> None:
    """Run ``jobs`` with at most ``parallelism`` attempts in flight, one per
    worker thread; records are built and appended on this thread. A backoff
    waits here, and its retry, once due, goes ahead of new items. A lone
    backoff lends its slot to the next item, but while two or more back off
    their slots stay idle: a refusing server sees at most one extra request."""
    if jobs:  # a resume with nothing left to send imports no HTTP module
        load_transport()
    slots, pending = backend.parallelism, iter(jobs)
    running = {}  # future of an attempt -> (request, job, digest, started)
    backoffs = []  # heap of (due, id, entry): the id breaks ties, as entries do not compare
    with ThreadPoolExecutor(max_workers=slots) as pool:
        while True:
            while len(running) < slots:
                if backoffs and backoffs[0][0] <= time.monotonic():
                    entry = heapq.heappop(backoffs)[2]
                # Attempts in flight and items backing off stay within slots + 1.
                elif len(running) + len(backoffs) <= slots and (job := next(pending, None)):
                    prompt, digest = job.prompt()
                    entry = (_HttpRequest(backend, prompt, headers), job, digest, time.perf_counter())
                else:
                    break
                running[pool.submit(entry[0].attempt)] = entry
            # A full pool waits for an attempt to end; one with a free slot, also for a backoff.
            due = backoffs[0][0] - time.monotonic() if backoffs and len(running) < slots else None
            if not running:
                if due is None:
                    return
                time.sleep(max(0.0, due))  # wait() on no futures would return at once
                continue
            for future in wait(running, timeout=due, return_when=FIRST_COMPLETED).done:
                entry = running.pop(future)
                result = future.result()
                if isinstance(result, str):
                    _, job, digest, started = entry
                    store.append(job.record(digest, result, started))
                else:  # the backoff before its next attempt
                    heapq.heappush(backoffs, (time.monotonic() + result, id(entry), entry))


def _check_backend(run_path: str, run_text: str, has_records: bool, output_dir: str) -> str | None:
    """The text stored in ``run_path``, or None if there is none. Refuse to add to
    records that another backend made."""
    try:
        with open(run_path, "r", encoding="utf-8", errors="replace") as handle:
            stored = handle.read()
    except FileNotFoundError:
        stored = None
    if has_records and stored != run_text:
        made_by = "an unknown backend (there is no run.json)" if stored is None else stored.strip()
        raise ConfigError(
            f"{run_path}: the stored records were made by {made_by}, but this config "
            f"runs {run_text.strip()}. Delete {output_dir} to start over"
        )
    return stored


def run_eval(config: EvalConfig, max_records: int | None = None) -> EvalReport:
    """Run the evaluation described by ``config``; resumable.

    Completed records are persisted one JSONL line at a time and skipped on
    rerun. ``max_records`` bounds how many new records this call produces
    (the hook that models an interrupted run). Writes ``records.jsonl``,
    ``run.json`` (the fingerprint of the backend that made the records),
    ``report.json``, and ``report.txt`` under the output directory.
    """
    if max_records is not None:
        max_records = config_number(int, 0)(max_records, "max_records")
    headers = request_headers(config.backend) if isinstance(config.backend, HttpBackend) else None
    os.makedirs(config.output_dir, exist_ok=True)
    datasets: list[tuple[DatasetSpec, list[TaskInstance]]] = []
    for spec in config.datasets:
        instances = load_instances(spec.path)
        if not instances:
            raise EmptyDatasetError(f"dataset {spec.name!r} is empty")
        ids = set()
        for inst in instances:
            if inst.id in ids:  # its records would share one key
                raise ConfigError(f"{spec.path}: instance id {inst.id!r} is repeated")
            ids.add(inst.id)
        datasets.append((spec, instances))
    pools = _demo_pools(config)

    store = RecordStore(os.path.join(config.output_dir, "records.jsonl"))
    run_path = os.path.join(config.output_dir, "run.json")
    run_text = json.dumps({"backend": backend_fingerprint(config.backend)}, sort_keys=True) + "\n"
    stored_run = _check_backend(run_path, run_text, bool(store.digests), config.output_dir)
    jobs = []
    for spec, instances in datasets:
        for paradigm in config.paradigms:
            demos = pools.get(spec.name, []) if paradigm in DEMO_PARADIGMS else []
            # Every prompt of the cell is prefix + target: build and hash the prefix once.
            prefix = demo_prefix(paradigm, demos)
            prefix_hash = hashlib.sha256(prefix.encode("utf-8", "surrogatepass"))
            for inst in instances:
                key = (spec.name, paradigm.value, inst.id)
                stored = store.digests.pop(key, None)
                if stored is None:
                    jobs.append(_Job(spec.name, paradigm, prefix, prefix_hash, inst))
                    continue
                digest = _prompt_digest(prefix_hash, target_block(paradigm, inst))
                if digest != stored:
                    raise ConfigError(
                        f"{store.path}: record {key} was made from a prompt with SHA-256 {stored}, "
                        f"but this config assembles {digest}: the config or its input "
                        f"files changed. Delete {config.output_dir} to start over"
                    )
    if store.digests:  # the stored keys this config does not reach
        raise ConfigError(
            f"{store.path}: record {next(iter(store.digests))} is not one this config runs: a "
            f"dataset, paradigm or item was dropped. Delete {config.output_dir} to start over"
        )

    if stored_run != run_text:  # before the first append, so records never outlive it
        write_atomically(run_path, [run_text])
    budget = len(jobs) if max_records is None else min(max_records, len(jobs))
    with store:
        if isinstance(config.backend, HttpBackend):
            _run_http(config.backend, headers, jobs[:budget], store)
        else:  # oracle and replay do not wait, so they run on this thread
            for job in jobs[:budget]:
                prompt, digest = job.prompt()
                started = time.perf_counter()
                store.append(job.record(digest, complete(config.backend, prompt, digest), started))

    records = store.records()
    if not records:  # only a zero budget over an empty directory gets here
        raise EmptyDatasetError(
            f"max_records={max_records} produced no records, and "
            f"{config.output_dir} holds none to score"
        )
    report = score(records, config=config.snapshot)
    _write_reports(report, config.output_dir)
    return report


def _write_reports(report: EvalReport, output_dir: str) -> None:
    from .reporting import render_table, report_pieces

    write_atomically(os.path.join(output_dir, "report.json"), report_pieces(report))
    write_atomically(os.path.join(output_dir, "report.txt"), [render_table(report) + "\n"])
