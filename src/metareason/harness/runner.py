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
from json.encoder import encode_basestring  # the escaper of ensure_ascii=False
from typing import NamedTuple, TextIO

from ..demos import Demonstration, load_demonstrations, select_demos
from ..resolution import TSO_TASKS, MalformedLineError, Task, TaskInstance, load_instances
from ..resolution import task_from_string
from .backends import BackendSpec, ConfigError, HttpBackend, backend_from_config, complete
from .backends import _HttpRequest, backend_fingerprint, prompt_sha256
from .extraction import extract_answer, is_correct
from .prompts import DEMO_PARADIGMS, Paradigm, demo_prefix, target_block
from .prompts import _PARADIGMS_BY_VALUE, paradigm_from_string  # exact value -> paradigm

log = logging.getLogger(__name__)


class EmptyDatasetError(ConfigError):
    """A dataset file contains no instances (or no records were given)."""


class RecordLineError(MalformedLineError):
    """A complete line of a records file that holds no record."""


# Exact stored values; anything else goes through the folding *_from_string.
_TASKS_BY_VALUE = {task.value: task for task in Task}


@dataclass(frozen=True, init=False)
class EvalRecord:
    """One scored item. ``correct`` is the verdict on extracted/gold, made
    once: when the item is run, or when its stored record is loaded (the
    stored copy is not trusted). ``prompt_sha256`` is the digest of its prompt."""

    instance_id: str
    dataset: str
    task: Task
    paradigm: Paradigm
    prompt_sha256: str
    completion: str
    extracted: str
    gold: str
    correct: bool
    latency_ms: float

    def __init__(self, instance_id, dataset, task, paradigm, prompt_sha256,
                 completion, extracted, gold, correct, latency_ms):
        # One dict update, not the generated frozen __init__'s object.__setattr__ per field.
        self.__dict__.update(
            instance_id=instance_id, dataset=dataset, task=task, paradigm=paradigm,
            prompt_sha256=prompt_sha256, completion=completion, extracted=extracted,
            gold=gold, correct=correct, latency_ms=latency_ms,
        )

    def key(self) -> tuple[str, str, str]:
        return (self.dataset, self.paradigm.value, self.instance_id)

    @classmethod
    def from_json_dict(cls, record: dict) -> "EvalRecord":
        """Raises KeyError, TypeError, AttributeError or ValueError for a
        value that is not a record (``_record_problem`` says which field)."""
        task = _TASKS_BY_VALUE.get(record["task"]) or task_from_string(record["task"])
        paradigm = _PARADIGMS_BY_VALUE.get(record["paradigm"]) or paradigm_from_string(
            record["paradigm"]
        )
        dataset = record["dataset"]
        extracted = record.get("extracted", "")
        digest = record.get("prompt_sha256")
        if digest is None:  # a line from before records held the digest
            digest = prompt_sha256(record.get("prompt", ""))
        if type(dataset) is not str or type(extracted) is not str or type(digest) is not str:
            raise TypeError("dataset, extracted and prompt_sha256 must be strings")
        gold = str(record.get("gold", ""))
        return cls(  # positional, in field order: a resume makes one per stored line
            str(record["instance_id"]), dataset, task, paradigm, digest,
            record.get("completion", ""), extracted, gold, is_correct(task, extracted, gold),
            float(record.get("latency_ms", 0.0)),
        )


def _record_problem(fields) -> str:
    """Which field keeps ``fields`` from being a record; called only once
    ``EvalRecord.from_json_dict`` has failed on it."""
    if not isinstance(fields, dict):
        return "not a JSON object"
    for name in ("instance_id", "dataset", "task", "paradigm"):
        if name not in fields:
            return f"field {name!r} is missing"
    for name in ("dataset", "extracted", "prompt_sha256", "prompt"):
        if not isinstance(fields.get(name, ""), str):
            return f"field {name!r} is not a string: {fields[name]!r}"
    for name, parse, wanted in (
        ("task", task_from_string, "a task name"),
        ("paradigm", paradigm_from_string, "a paradigm name"),
        ("latency_ms", float, "a number"),
    ):
        try:
            parse(fields.get(name, 0.0))
        except (AttributeError, TypeError, ValueError):
            return f"field {name!r} is not {wanted}: {fields[name]!r}"
    return "not a record"


def _read_records(path) -> tuple[list[EvalRecord], int]:
    """The records of a JSONL file and the byte length of the lines they
    came from. A torn last line (no final newline, or JSON that does not
    parse), left by an interrupted append, is skipped with a warning; an
    unparseable line before the last raises ``json.JSONDecodeError`` (or
    ``RecordLineError`` if it is not UTF-8), and a parsed line that is not
    a record raises ``RecordLineError``. Each names its 1-based line."""
    records: list[EvalRecord] = []
    complete_bytes = 0
    torn: ValueError | None = None
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            if torn is not None:  # the unparseable line was not the last
                if isinstance(torn, json.JSONDecodeError):
                    message = f"{path}: line {number - 1}: {torn.msg}"
                    raise json.JSONDecodeError(message, torn.doc, torn.pos)
                raise RecordLineError(path, number - 1, f"not UTF-8 ({torn})")
            if not line.endswith(b"\n"):
                torn = ValueError("no final newline")
                continue
            if not line.isspace():
                try:
                    fields = json.loads(line.decode("utf-8", "surrogatepass"))
                except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                    torn = exc
                    continue
                try:
                    records.append(EvalRecord.from_json_dict(fields))
                except (AttributeError, KeyError, TypeError, ValueError):
                    raise RecordLineError(path, number, _record_problem(fields)) from None
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


# One records.jsonl line: json.dumps(fields, ensure_ascii=False) of a
# record's fields in this order, written with the C string escaper. The
# latency is a measured duration, so finite: repr is json's spelling of it.
_RECORD_LINE = (
    '{"instance_id": %s, "dataset": %s, "task": %s, "paradigm": %s, "prompt_sha256": %s, '
    '"completion": %s, "extracted": %s, "gold": %s, "correct": %s, "latency_ms": %r}\n'
)


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
        self.digests: dict[tuple[str, str, str], str] = {}  # key -> stored prompt_sha256
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
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(line)
        self._handle.flush()
        self._records.append(record)
        self.digests[record.key()] = record.prompt_sha256

    def records(self) -> list[EvalRecord]:
        return self._records


def _require_text(what: str, value) -> None:
    """Names and paths from a config must be non-empty strings: ``open`` takes
    an int as a file descriptor."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{what} must be a non-empty string, got {value!r}")


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    path: str


@dataclass(frozen=True)
class DemoSpec:
    path: str
    k: int = 1


@dataclass(frozen=True)
class EvalConfig:
    datasets: tuple[DatasetSpec, ...]
    paradigms: tuple[Paradigm, ...]
    backend: BackendSpec
    demos: dict[str, DemoSpec] = field(default_factory=dict)
    seed: int = 0
    output_dir: str = "eval-out"
    snapshot: dict = field(default_factory=dict)

    @classmethod
    def from_json_dict(cls, config: dict) -> "EvalConfig":
        try:
            datasets = tuple(
                DatasetSpec(name=d["name"], path=d["path"]) for d in config["datasets"]
            )
            paradigms = tuple(paradigm_from_string(p) for p in config["paradigms"])
            backend = backend_from_config(config["backend"])
            seed = int(config.get("seed", 0))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        if not datasets:
            raise ConfigError("config names no datasets")
        for dataset in datasets:
            _require_text("dataset name", dataset.name)
            _require_text(f"path of dataset {dataset.name!r}", dataset.path)
        if not paradigms:
            raise ConfigError("config names no paradigms")
        if len(set(paradigms)) != len(paradigms):
            repeated = next(p for i, p in enumerate(paradigms) if p in paradigms[:i])
            raise ConfigError(f"paradigms must be unique, but {repeated.value!r} is listed twice")
        if len({d.name for d in datasets}) != len(datasets):
            raise ConfigError("dataset names must be unique")
        demo_specs = config.get("demos") or {}
        if not isinstance(demo_specs, dict):
            raise ConfigError(f"demos must map dataset names to demo specs, got {demo_specs!r}")
        demos = {}
        for name, spec in demo_specs.items():
            try:
                demos[name] = DemoSpec(path=spec["path"], k=int(spec.get("k", 1)))
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad demo spec for {name!r}: {exc}") from exc
            _require_text(f"demo path for {name!r}", demos[name].path)
            if demos[name].k < 1:
                raise ConfigError(f"k for {name!r} must be >= 1, got {demos[name].k}")
        output_dir = config.get("output_dir", "eval-out")
        _require_text("output_dir", output_dir)
        return cls(datasets, paradigms, backend, demos, seed, output_dir, snapshot=config)

    @classmethod
    def from_file(cls, path) -> "EvalConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json_dict(json.load(handle))


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
    digest.update(target.encode("utf-8"))
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
        return EvalRecord(  # positional, in field order
            inst.id, self.dataset, inst.task, self.paradigm, digest, completion, extracted,
            inst.gold, is_correct(inst.task, extracted, inst.gold), latency_ms,
        )


def _run_http(backend: HttpBackend, jobs: list[_Job], store: RecordStore) -> None:
    """Run ``jobs`` with at most ``parallelism`` attempts in flight, one per
    worker thread; records are built and appended on this thread. A backoff
    waits here, and its retry, once due, goes ahead of new items. A lone
    backoff lends its slot to the next item, but while two or more back off
    their slots stay idle: a refusing server sees at most one extra request."""
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
                    entry = (_HttpRequest(backend, prompt), job, digest, time.perf_counter())
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


def _check_backend(run_path: str, run_text: str, has_records: bool, output_dir: str) -> bool:
    """Refuse to add to records that another backend made; True when
    ``run_path`` does not hold ``run_text`` yet."""
    if not has_records:  # nothing another backend could have made
        return True
    try:
        with open(run_path, "r", encoding="utf-8") as handle:
            stored = handle.read()
    except FileNotFoundError:  # made before run.json was written
        log.warning(
            "%s holds records but no run.json, so the backend that made them is unknown; "
            "taking it to be this config's", output_dir, extra={"path": run_path},
        )
        return True
    if stored != run_text:
        raise ConfigError(
            f"{run_path}: the stored records were made by {stored.strip()}, but this config "
            f"runs {run_text.strip()}. Delete {output_dir} to start over"
        )
    return False


def run_eval(config: EvalConfig, max_records: int | None = None) -> EvalReport:
    """Run the evaluation described by ``config``; resumable.

    Completed records are persisted one JSONL line at a time and skipped on
    rerun. ``max_records`` bounds how many new records this call produces
    (the hook that models an interrupted run). Writes ``records.jsonl``,
    ``run.json`` (the fingerprint of the backend that made the records),
    ``report.json``, and ``report.txt`` under the output directory.
    """
    if max_records is not None and max_records < 0:
        raise ConfigError(f"max_records must be >= 0, got {max_records}")
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
    write_run = _check_backend(run_path, run_text, bool(store.digests), config.output_dir)
    unchecked = dict(store.digests)  # the stored keys this config has not reached yet
    jobs = []
    for spec, instances in datasets:
        for paradigm in config.paradigms:
            demos = pools.get(spec.name, []) if paradigm in DEMO_PARADIGMS else []
            # Every prompt of the cell is prefix + target: build and hash the prefix once.
            prefix = demo_prefix(paradigm, demos)
            prefix_hash = hashlib.sha256(prefix.encode("utf-8"))
            for inst in instances:
                key = (spec.name, paradigm.value, inst.id)
                stored = store.digests.get(key)
                if stored is None:
                    jobs.append(_Job(spec.name, paradigm, prefix, prefix_hash, inst))
                    continue
                del unchecked[key]
                digest = _prompt_digest(prefix_hash, target_block(paradigm, inst))
                if digest != stored:
                    raise ConfigError(
                        f"{store.path}: record {key} was made from a prompt with SHA-256 {stored}, "
                        f"but this config assembles {digest}: the config or its input "
                        f"files changed. Delete {config.output_dir} to start over"
                    )
    if unchecked:
        raise ConfigError(
            f"{store.path}: record {next(iter(unchecked))} is not one this config runs: a "
            f"dataset, paradigm or item was dropped. Delete {config.output_dir} to start over"
        )

    if write_run:  # before the first append, so records never outlive their backend's name
        with open(run_path + ".tmp", "w", encoding="utf-8") as handle:
            handle.write(run_text)
        os.replace(run_path + ".tmp", run_path)  # never a torn run.json beside records
    budget = len(jobs) if max_records is None else min(max_records, len(jobs))
    with store:
        if isinstance(config.backend, HttpBackend):
            _run_http(config.backend, jobs[:budget], store)
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
    from .reporting import render_table, report_json

    with open(os.path.join(output_dir, "report.json"), "w", encoding="utf-8") as handle:
        handle.write(report_json(report))
    with open(os.path.join(output_dir, "report.txt"), "w", encoding="utf-8") as handle:
        handle.write(render_table(report) + "\n")
