"""Semantic resolution: deterministic reduction of template-family task
instances to (entity table, meta-program), and the inverse mapping from
symbolic answers back to surface answers.

Only the template families are resolved from raw text (option-tracking
swaps, truth chains, coin flips, last-letter concatenation, and template
arithmetic). Free-form arithmetic is not parsed; instances may instead
carry an externally authored meta rewrite as canonical DSL text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from . import templates
from .meta_lang import (
    ConcatOf,
    Flip,
    IsEqual,
    LastOf,
    MetaProgram,
    OptionOf,
    Says,
    Statement,
    Swap,
    Trace,
    ValueOf,
    eval_program,
    parse_meta,
)
from .meta_lang.ast import Add, Div, Mul, Sub, Value


class Task(str, Enum):
    MA = "MA"
    AS = "AS"
    LLC = "LLC"
    CF = "CF"
    WOL = "WoL"
    TSO3 = "TSO3"
    TSO5 = "TSO5"
    TSO7 = "TSO7"


TSO_TASKS = (Task.TSO3, Task.TSO5, Task.TSO7)
OPTION_TASKS = frozenset(TSO_TASKS)
YES_NO_TASKS = frozenset({Task.CF, Task.WOL})
NUMERIC_TASKS = frozenset({Task.MA, Task.AS})


_TASKS_BY_KEY = {task.value.upper(): task for task in Task}


def task_from_string(text: str) -> Task:
    try:
        return _TASKS_BY_KEY[text.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown task {text!r}") from None


def tso_object_count(task: Task) -> int:
    return {Task.TSO3: 3, Task.TSO5: 5, Task.TSO7: 7}[task]


class ResolutionError(Exception):
    """Base class for resolution failures."""


class TemplateMismatchError(ResolutionError):
    """Surface text does not parse against the family template."""

    def __init__(self, message: str, span: str | None = None):
        self.span = span
        if span is not None:
            message = f"{message}: {span!r}"
        super().__init__(message)


class UnsupportedTaskError(ResolutionError):
    """Free-form text with no template and no attached meta rewrite."""


class MissingOptionMapError(ResolutionError):
    """An option query was answered but no option map is attached."""


class ValueOutOfOptionRangeError(ResolutionError):
    """The symbolic answer does not index any option."""


class TooManyEntitiesError(ResolutionError):
    """More than 702 distinct entities (A..Z then AA..ZZ) in one instance."""


@dataclass(frozen=True)
class Span:
    """A surface substring with character offsets (-1 when synthetic)."""

    text: str
    start: int = -1
    end: int = -1


@dataclass(frozen=True)
class EntityTable:
    """Per-instance realization of the entity and operation mappings.

    ``entries`` assigns symbols to surface entity spans in first-mention
    order. ``op_spans`` carries one surface span per statement (indexed by
    statement position) plus, when known, a final span for the query
    clause indexed one past the last statement.
    """

    entries: tuple[tuple[Span, str], ...] = ()
    op_spans: tuple[tuple[Span, int], ...] = ()

    def symbol_for(self, text: str) -> str:
        for span, sym in self.entries:
            if span.text == text:
                return sym
        raise KeyError(text)

    def surface_for(self, sym: str) -> str:
        for span, entry_sym in self.entries:
            if entry_sym == sym:
                return span.text
        raise KeyError(sym)

    def as_dict(self) -> dict[str, str]:
        return {span.text: sym for span, sym in self.entries}


class MalformedLineError(ValueError):
    """A line of a JSON Lines file that holds no valid item."""

    def __init__(self, path, line_number: int, problem: str):
        super().__init__(f"{path}: line {line_number}: {problem}")
        self.path = str(path)
        self.line_number = line_number


def check_field(name: str, value, kind, wanted: str) -> None:
    if not isinstance(value, kind):
        raise TypeError(f"field {name!r} is not {wanted}: {value!r}")


def read_jsonl(path, parse: Callable[[dict], object]) -> Iterator:
    """Yield ``parse(fields)`` for the JSON object on each non-blank line. A line that
    is not one, or that ``parse`` rejects (KeyError, TypeError, ValueError), raises
    MalformedLineError."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                fields = json.loads(line)
                if not isinstance(fields, dict):
                    raise TypeError("not a JSON object")
                item = parse(fields)
            except json.JSONDecodeError as exc:
                raise MalformedLineError(path, number, f"not JSON: {exc.msg}") from None
            except KeyError as exc:
                raise MalformedLineError(path, number, f"field {exc.args[0]!r} is missing") from None
            except (TypeError, ValueError) as exc:
                raise MalformedLineError(path, number, str(exc)) from None
            yield item


def write_jsonl(path, items: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for fields in items:
            handle.write(json.dumps(fields, ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class TaskInstance:
    """One benchmark item. ``meta`` optionally carries canonical DSL text."""

    id: str
    task: Task
    question: str
    options: tuple[str, ...] | None
    gold: str
    meta: str | None = None

    def to_json_dict(self) -> dict:
        record: dict = {
            "id": self.id,
            "task": self.task.value,
            "question": self.question,
        }
        if self.options is not None:
            record["options"] = list(self.options)
        record["answer"] = self.gold
        if self.meta is not None:
            record["meta"] = self.meta
        return record

    @classmethod
    def from_json_dict(cls, record: dict) -> "TaskInstance":
        options, meta = record.get("options"), record.get("meta")
        check_field("task", record["task"], str, "a string")
        check_field("question", record["question"], str, "a string")
        check_field("meta", meta, (str, type(None)), "a string")
        if options is not None and not (isinstance(options, list) and all(isinstance(o, str) for o in options)):
            raise TypeError(f"field 'options' is not a list of strings: {options!r}")
        for name in ("id", "answer"):  # str() would turn null, a bool or a list into text
            if type(record[name]) is not int:
                check_field(name, record[name], str, "a string or an integer")
        return cls(
            id=str(record["id"]),
            task=task_from_string(record["task"]),
            question=record["question"],
            options=tuple(options) if options is not None else None,
            gold=str(record["answer"]),
            meta=meta,
        )


def load_instances(path) -> list[TaskInstance]:
    return list(read_jsonl(path, TaskInstance.from_json_dict))


def save_instances(path, instances: Iterable[TaskInstance]) -> None:
    write_jsonl(path, (inst.to_json_dict() for inst in instances))


@dataclass(frozen=True)
class MetaQuestion:
    """A resolved instance: program, entity table, and the option back-map."""

    program: MetaProgram
    table: EntityTable
    option_map: tuple[tuple[int, str], ...] | None = None


def symbol_name(index: int) -> str:
    """Deterministic symbol sequence A..Z, AA..AZ, BA..ZZ (702 total)."""
    if index < 0:
        raise ValueError("negative symbol index")
    if index < 26:
        return chr(ord("A") + index)
    index -= 26
    if index < 26 * 26:
        return chr(ord("A") + index // 26) + chr(ord("A") + index % 26)
    raise TooManyEntitiesError("more than 702 distinct entities")


def allocate_symbols(spans: Sequence[Span] | Sequence[str]) -> EntityTable:
    """Assign symbols to spans in first-mention order; repeats are idempotent."""
    if not spans:
        raise ValueError("no spans to allocate")
    entries: list[tuple[Span, str]] = []
    seen: dict[str, str] = {}
    for raw in spans:
        span = raw if isinstance(raw, Span) else Span(text=raw)
        if span.text in seen:
            continue
        sym = symbol_name(len(seen))
        seen[span.text] = sym
        entries.append((span, sym))
    return EntityTable(entries=tuple(entries))


def _sentences_with_offsets(text: str) -> list[Span]:
    """Split on sentence boundaries, keeping offsets; the final clause may
    be an unterminated cloze ("..., Alice is dancing with")."""
    spans = []
    for match in re.finditer(r"[^.?!]+[.?!]?", text):
        chunk = match.group(0).strip()
        if not chunk:
            continue
        start = match.start() + (len(match.group(0)) - len(match.group(0).lstrip()))
        spans.append(Span(text=chunk, start=start, end=start + len(chunk)))
    return spans


def _slot_span(match: re.Match, slot: str, base: int) -> Span:
    """The span of one matched slot; ``base`` is the offset of the matched text."""
    start = base + match.start(slot)
    return Span(text=match[slot], start=start, end=start + len(match[slot]))


def _meta_question(
    inits, steps: list[tuple[Span, Statement]], query, query_span: Span, entries, option_map=None
) -> MetaQuestion:
    """Assemble a resolved instance; ``steps`` pairs each statement with its surface span."""
    stmts = tuple(stmt for _, stmt in steps)
    op_spans = tuple((span, index) for index, (span, _) in enumerate(steps))
    return MetaQuestion(
        program=MetaProgram(inits=tuple(inits), stmts=stmts, query=query),
        table=EntityTable(entries=tuple(entries), op_spans=op_spans + ((query_span, len(stmts)),)),
        option_map=option_map,
    )


def _read_chain(
    question: str, opening: templates.Form, query: templates.Form, min_sentences: int = 2
) -> tuple[list[Span], re.Match, re.Match]:
    """Split a question and read its first and last sentences against the
    family's opening and query forms."""
    sentences = _sentences_with_offsets(question)
    if len(sentences) < min_sentences:
        raise TemplateMismatchError("too few sentences", question)
    first = opening.match(sentences[0].text)
    if not first:
        raise TemplateMismatchError("bad opening sentence", sentences[0].text)
    last = query.match(sentences[-1].text)
    if not last:
        raise TemplateMismatchError("bad query sentence", sentences[-1].text)
    return sentences, first, last


def _resolve_tso(question: str, options: tuple[str, ...] | None) -> MetaQuestion:
    if not options:
        raise TemplateMismatchError("option-tracking question without options")
    sentences = _sentences_with_offsets(question)
    if len(sentences) < 3:
        raise TemplateMismatchError("too few sentences", question)
    for assignment in sentences:
        assigned = templates.TSO_ASSIGNMENT.match(assignment.text)
        if assigned:
            break
    else:
        raise TemplateMismatchError("no initial-assignment sentence", sentences[0].text)

    entries: list[tuple[Span, str]] = []
    objects: list[str] = []
    base = assignment.start + assigned.start("pairs")
    for offset, chunk in templates.split_series(assigned["pairs"]):
        pair = templates.TSO_PAIR.match(chunk)
        if not pair:
            raise TemplateMismatchError("bad assignment pair", chunk)
        entries.append((_slot_span(pair, "person", base + offset), symbol_name(len(entries))))
        objects.append(pair["obj"])
    table = {span.text: sym for span, sym in entries}
    if len(table) != len(entries) or len(set(objects)) != len(objects):
        raise TemplateMismatchError("repeated person or object in assignment", assigned["pairs"])

    steps: list[tuple[Span, Statement]] = []
    query_span: Span | None = None
    for sentence in sentences:
        if sentence is assignment or templates.TSO_ACTION.match(sentence.text):
            continue
        swap = templates.TSO_SWAP.match(sentence.text)
        if swap:
            if swap["a"] not in table or swap["b"] not in table:
                raise TemplateMismatchError("swap names an unknown person", sentence.text)
            steps.append((sentence, Swap(left=table[swap["a"]], right=table[swap["b"]])))
            continue
        queried = templates.TSO_QUERY.match(sentence.text)
        if queried:
            if queried["person"] not in table:
                raise TemplateMismatchError("query names an unknown person", sentence.text)
            query_span, query = sentence, OptionOf(sym=table[queried["person"]])
            continue
        if sentence is sentences[0]:
            continue  # scene-setting intro
        raise TemplateMismatchError("unrecognized sentence", sentence.text)
    if query_span is None:
        raise TemplateMismatchError("no query clause", sentences[-1].text)

    option_map = []
    for position, obj in enumerate(objects, start=1):
        # options may carry truncated text; fall back to position
        index = options.index(obj) if obj in options else position - 1
        option_map.append((position, chr(ord("A") + index)))

    inits = [(sym, value) for value, (_, sym) in enumerate(entries, start=1)]
    return _meta_question(inits, steps, query, query_span, entries, tuple(option_map))


def _resolve_wol(question: str, options: tuple[str, ...] | None) -> MetaQuestion:
    del options
    sentences, first, last = _read_chain(question, templates.WOL_OPENING, templates.WOL_QUERY, 3)

    entries = [(_slot_span(first, "person", sentences[0].start), symbol_name(0))]
    table: dict[str, str] = {first["person"]: symbol_name(0)}
    steps: list[tuple[Span, Statement]] = []
    for sentence in sentences[1:-1]:
        says = templates.WOL_SAYS.match(sentence.text)
        if not says:
            raise TemplateMismatchError("bad chain sentence", sentence.text)
        speaker, target = says["speaker"], says["target"]
        if target not in table:
            raise TemplateMismatchError("claim about an unknown person", sentence.text)
        if speaker in table:
            raise TemplateMismatchError("speaker already introduced", sentence.text)
        table[speaker] = symbol_name(len(table))
        entries.append((_slot_span(says, "speaker", sentence.start), table[speaker]))
        claimed = says["claim"] == templates.TRUTH
        stmt = Says(speaker=table[speaker], target=table[target], claimed=claimed)
        steps.append((sentence, stmt))
    if last["person"] not in table:
        raise TemplateMismatchError("query names an unknown person", sentences[-1].text)

    inits = [(symbol_name(0), first["claim"] == templates.TRUTH)]
    query = IsEqual(sym=table[last["person"]], value=True)
    return _meta_question(inits, steps, query, sentences[-1], entries)


def _resolve_cf(question: str, options: tuple[str, ...] | None) -> MetaQuestion:
    del options
    sentences, opening, _ = _read_chain(question, templates.CF_OPENING, templates.CF_QUERY)

    sym = symbol_name(0)
    steps: list[tuple[Span, Statement]] = []
    for sentence in sentences[1:-1]:
        if templates.CF_FLIP.match(sentence.text):
            steps.append((sentence, Flip(sym=sym)))
        elif templates.CF_NON_FLIP.match(sentence.text):
            continue  # non-flips change nothing and emit no statement
        else:
            raise TemplateMismatchError("bad flip sentence", sentence.text)

    entries = [(_slot_span(opening, "coin", sentences[0].start), sym)]
    query = IsEqual(sym=sym, value=True)
    return _meta_question([(sym, True)], steps, query, sentences[-1], entries)


def _resolve_llc(question: str, options: tuple[str, ...] | None) -> MetaQuestion:
    del options
    stripped = question.strip()
    m = templates.LLC_QUESTION.match(stripped)
    if not m:
        raise TemplateMismatchError("not a last-letter question", question)
    base = len(question) - len(question.lstrip()) + m.start("words")
    spans = [_slot_span(word, 0, base) for word in re.finditer(r"\S+", m["words"])]
    if not spans:
        raise TemplateMismatchError("empty name", question)

    symbols = allocate_symbols(spans)
    steps = [(span, LastOf(sym=sym, literal=span.text)) for span, sym in symbols.entries]
    query = ConcatOf(syms=tuple(symbols.symbol_for(span.text) for span in spans))
    question_span = Span(text=stripped, start=0, end=len(stripped))
    return _meta_question([], steps, query, question_span, symbols.entries)


_ARITH_OPS = (
    (templates.ARITH_ADD, Add),
    (templates.ARITH_SUB, Sub),
    (templates.ARITH_MUL, Mul),
    (templates.ARITH_DIV, Div),
)


def _resolve_arith(question: str, options: tuple[str, ...] | None) -> MetaQuestion:
    del options
    sentences, first, last = _read_chain(question, templates.ARITH_OPENING, templates.ARITH_QUERY)
    if last["name"] != first["name"]:
        raise TemplateMismatchError("query names another person", sentences[-1].text)

    sym = symbol_name(0)
    steps: list[tuple[Span, Statement]] = []
    for sentence in sentences[1:-1]:
        for form, op in _ARITH_OPS:
            m = form.match(sentence.text)
            if m:
                break
        else:
            raise TemplateMismatchError("bad operation sentence", sentence.text)
        steps.append((sentence, op(sym, int(m["amount"]))))

    inits = [(sym, int(first["amount"]))]
    entries = [(_slot_span(first, "name", sentences[0].start), sym)]
    return _meta_question(inits, steps, ValueOf(sym=sym), sentences[-1], entries)


def _from_attached_meta(inst: TaskInstance) -> MetaQuestion:
    program = parse_meta(inst.meta)
    option_map = None
    if isinstance(program.query, OptionOf) and inst.options:
        option_map = tuple(
            (position, chr(ord("A") + position - 1))
            for position in range(1, len(inst.options) + 1)
        )
    return MetaQuestion(program=program, table=EntityTable(), option_map=option_map)


_RESOLVERS = {
    **dict.fromkeys(TSO_TASKS, _resolve_tso),
    Task.WOL: _resolve_wol,
    Task.CF: _resolve_cf,
    Task.LLC: _resolve_llc,
    Task.MA: _resolve_arith,
    Task.AS: _resolve_arith,
}


def resolve(inst: TaskInstance) -> MetaQuestion:
    """Reduce a surface instance to its meta-question.

    Template families are parsed deterministically; anything else must
    carry an attached meta rewrite. Raises TemplateMismatchError or, for
    free-form arithmetic without a rewrite, UnsupportedTaskError.
    """
    resolver = _RESOLVERS[inst.task]
    try:
        mq = resolver(inst.question, inst.options)
    except TemplateMismatchError:
        if inst.meta:
            return _from_attached_meta(inst)
        if inst.task in NUMERIC_TASKS:
            raise UnsupportedTaskError(
                f"free-form {inst.task.value} text needs an attached meta rewrite"
            ) from None
        raise
    if inst.task in OPTION_TASKS:
        expected = tso_object_count(inst.task)
        if len(mq.program.inits) != expected:
            raise TemplateMismatchError(
                f"expected {expected} tracked objects, found {len(mq.program.inits)}"
            )
    return mq


# resolve_any picks the family whose opening sentence starts the question.
# Tracking questions open with free scene-setting text, so they are the rest.
_OPENINGS = (
    (templates.CF_OPENING, Task.CF),
    (templates.WOL_OPENING, Task.WOL),
    (templates.LLC_QUESTION, Task.LLC),
    (templates.ARITH_OPENING, Task.MA),
)


def resolve_any(question: str, options: tuple[str, ...] | None = None) -> tuple[Task, MetaQuestion]:
    """Resolve a bare question with the family its opening sentence names."""
    opening = question.lstrip()
    for form, task in _OPENINGS:
        if form.regex.match(opening):
            return task, _RESOLVERS[task](question, options)
    try:
        mq = _resolve_tso(question, options)
    except TemplateMismatchError:
        raise TemplateMismatchError("no family template matches", question) from None
    count = len(mq.program.inits)
    for task in TSO_TASKS:
        if tso_object_count(task) == count:
            return task, mq
    raise TemplateMismatchError(f"no tracking family has {count} objects", question)


def surface_answer(mq: MetaQuestion, trace: Trace) -> str:
    """Map a trace's symbolic answer back to the surface answer string."""
    query = mq.program.query
    if isinstance(query, OptionOf):
        if not mq.option_map:
            raise MissingOptionMapError("option query without an option map")
        value = trace.answer
        for candidate, letter in mq.option_map:
            if candidate == value:
                return letter
        raise ValueOutOfOptionRangeError(f"answer {value!r} indexes no option")
    if isinstance(query, (IsEqual, ConcatOf)):
        return str(trace.answer)
    # ValueOf: exact decimal string; rationals stay exact ("7/2")
    value = trace.answer
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def solve_surface(inst: TaskInstance) -> str:
    """Resolve, evaluate, and back-map in one step."""
    mq = resolve(inst)
    return surface_answer(mq, eval_program(mq.program))
