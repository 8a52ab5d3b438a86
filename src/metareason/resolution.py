"""Semantic resolution: deterministic reduction of template-family task
instances to (entity table, meta-program), and the inverse mapping from
symbolic answers back to surface answers.

Only the template families are resolved from raw text (option-tracking
swaps, truth chains, coin flips, last-letter concatenation, and template
arithmetic). Free-form arithmetic is not parsed; instances may instead
carry an externally authored meta rewrite as canonical DSL text.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from . import templates
from .meta_lang.ast import (
    Add,
    ConcatOf,
    Div,
    Flip,
    IsEqual,
    LastOf,
    MetaProgram,
    Mul,
    OptionOf,
    Says,
    Statement,
    Sub,
    Swap,
    Trace,
    ValueOf,
)
from .meta_lang.interpreter import eval_program
from .meta_lang.parser import parse_meta


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
    order. ``op_spans`` holds one surface span per statement, in statement
    order, then, when known, the span of the query clause.
    """

    entries: tuple[tuple[Span, str], ...] = ()
    op_spans: tuple[Span, ...] = ()

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


class FieldError(ValueError):
    """A JSON object, or a field of one, that is not what its rule reads; the message names it."""


def setting(read, key: str | None = None, **default):
    """A dataclass field read by ``read(value, name)`` from the JSON key ``key`` (the field's
    own name if None); its ``default`` or ``default_factory`` stands in for a missing key."""
    return field(metadata={"read": read, "key": key}, **default)


def config_rule(wanted: str, fits: Callable | None = None, read: Callable | None = None):
    """The rule for a value that ``fits`` (any, if None), read by ``read`` (as it is, if None).
    A value that does not fit, or that ``read`` refuses with an AttributeError, TypeError or
    ValueError, is a FieldError that names the field."""

    def rule(value, name: str):
        try:
            if fits is None or fits(value):
                return value if read is None else read(value)
        except (AttributeError, TypeError, ValueError):  # AttributeError: a name that is no string
            pass
        raise FieldError(f"{name} must be {wanted}, got {value!r}")

    return rule


config_string = config_rule("a string", lambda value: type(value) is str)
# A name or path: ``open`` takes an int as a file descriptor.
config_text = config_rule("a non-empty string", lambda value: type(value) is str and value != "")
# str() would turn null, a bool or a list into text.
config_text_or_int = config_rule("a string or an integer", lambda value: type(value) in (str, int), str)
config_strings = config_rule(
    "a list of strings", lambda value: type(value) is list and all(type(item) is str for item in value),
    tuple,
)
config_task = config_rule("a task name", read=task_from_string)


def config_number(kind: type, low: float = -math.inf, above: bool = False, exact: bool = False):
    """The rule for a finite number read by ``kind`` (int or float), at least ``low`` (above it
    if ``above``). A bool is refused, not read as 1 or 0; so is a fraction for an int. Unless
    ``exact``, a numeric string or a whole float is read too (``"3"`` or ``3.0`` as the int 3)."""
    wanted = "an integer" if kind is int else "a finite number"
    wanted += f" {'>' if above else '>='} {low}" if low > -math.inf else ""
    kinds = (int,) if kind is int else (int, float)

    def read(value, name: str):
        try:
            refused = isinstance(value, bool) or exact and type(value) not in kinds
            number = math.nan if refused else kind(value)
        except (OverflowError, TypeError, ValueError):
            number = math.nan
        # NaN fails every comparison: a bool, an unreadable value and NaN are refused.
        fits = (low < number if above else low <= number) and number < math.inf
        if not fits or isinstance(value, float) and number != value:  # 2.5 for an int
            raise FieldError(f"{name} must be {wanted}, got {value!r}")
        return number

    return read


@functools.cache
def _settings(cls) -> tuple[tuple, frozenset[str]]:
    """Each setting of ``cls`` as (key, field, rule, required, null reads as None); the keys."""
    rows = tuple(
        (spec.metadata["key"] or spec.name, spec.name, spec.metadata["read"],
         spec.default is MISSING and spec.default_factory is MISSING, spec.default is None)
        for spec in fields(cls) if "read" in spec.metadata
    )
    return rows, frozenset(row[0] for row in rows)


def read_fields(cls, config, name: str = "", extra: tuple = (), whole: str = "the line") -> dict:
    """The settings of the dataclass ``cls`` read from the JSON object ``config`` that messages
    call ``name`` (``whole`` if empty), by field. A missing key leaves out a setting that has a
    default, and a null reads as None if that is its default. Keys not in ``cls`` or ``extra``
    are refused."""
    if not isinstance(config, dict):
        raise FieldError(f"{name or whole} must be a JSON object, got {config!r}")
    rows, keys = _settings(cls)
    prefix = f"{name}." if name else ""
    if not keys.issuperset(config):
        for key in config:
            if key not in keys and key not in extra:
                raise FieldError(f"{prefix}{key} is not a known field")
    values = {}
    for key, attr, read, required, nullable in rows:
        value = config.get(key, MISSING)
        if value is not MISSING:
            values[attr] = None if value is None and nullable else read(value, prefix + key)
        elif required:
            raise FieldError(f"{prefix}{key} is missing")
    return values


def read_config(cls, config, name: str = "", extra: tuple = (), whole: str = "the line", **given):
    """The dataclass ``cls`` read by ``read_fields``; ``given`` sets its other fields."""
    return cls(**read_fields(cls, config, name, extra, whole), **given)


def json_fields(obj, drop_none: bool = False) -> dict:
    """The settings of the dataclass ``obj`` by JSON key, ``read_fields`` reversed (json writes
    a tuple as a list and a str enum as its value); a None is left out if ``drop_none``."""
    values = {key: getattr(obj, attr) for key, attr, _, _, _ in _settings(type(obj))[0]}
    return {key: value for key, value in values.items() if value is not None} if drop_none else values


def read_jsonl(path, parse: Callable[[dict], object]) -> Iterator:
    """Yield ``parse(fields)`` for the JSON value on each non-blank line. A line that is not
    UTF-8 or not JSON, or that ``parse`` refuses with a ValueError, raises MalformedLineError."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                item = parse(json.loads(line))
            except UnicodeDecodeError as exc:
                raise MalformedLineError(path, number, f"not UTF-8 ({exc})") from None
            except json.JSONDecodeError as exc:
                raise MalformedLineError(path, number, f"not JSON: {exc.msg}") from None
            except ValueError as exc:
                raise MalformedLineError(path, number, str(exc)) from None
            yield item


def write_jsonl(path, items: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for item in items:
            handle.write(json.dumps(item, ensure_ascii=False) + "\n")


@dataclass(frozen=True, kw_only=True)
class TaskInstance:
    """One benchmark item. ``meta`` optionally carries canonical DSL text."""

    id: str = setting(config_text_or_int)
    task: Task = setting(config_task)
    question: str = setting(config_string)
    options: tuple[str, ...] | None = setting(config_strings, default=None)
    gold: str = setting(config_text_or_int, key="answer")
    meta: str | None = setting(config_string, default=None)


def load_instances(path) -> list[TaskInstance]:
    return list(read_jsonl(path, functools.partial(read_config, TaskInstance)))


def save_instances(path, instances: Iterable[TaskInstance]) -> None:
    write_jsonl(path, (json_fields(inst, drop_none=True) for inst in instances))


@dataclass(frozen=True)
class MetaQuestion:
    """A resolved instance: program, entity table, and the option back-map:
    ``option_letters[p - 1]`` is the letter of the option at position ``p``."""

    program: MetaProgram
    table: EntityTable
    option_letters: tuple[str, ...] | None = None


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
    inits, steps: list[tuple[Span, Statement]], query, query_span: Span, entries, letters=None
) -> MetaQuestion:
    """Assemble a resolved instance; ``steps`` pairs each statement with its surface span."""
    stmts = tuple(stmt for _, stmt in steps)
    op_spans = tuple(span for span, _ in steps) + (query_span,)
    return MetaQuestion(
        program=MetaProgram(inits=tuple(inits), stmts=stmts, query=query),
        table=EntityTable(entries=tuple(entries), op_spans=op_spans),
        option_letters=letters,
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

    # options may carry truncated text; fall back to position
    letters = tuple(
        chr(ord("A") + (options.index(obj) if obj in options else index))
        for index, obj in enumerate(objects)
    )
    inits = [(sym, value) for value, (_, sym) in enumerate(entries, start=1)]
    return _meta_question(inits, steps, query, query_span, entries, letters)


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
        claimed = int(says["claim"] == templates.TRUTH)
        stmt = Says(speaker=table[speaker], target=table[target], claimed=claimed)
        steps.append((sentence, stmt))
    if last["person"] not in table:
        raise TemplateMismatchError("query names an unknown person", sentences[-1].text)

    inits = [(symbol_name(0), int(first["claim"] == templates.TRUTH))]
    query = IsEqual(sym=table[last["person"]], value=1)
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
    query = IsEqual(sym=sym, value=1)
    return _meta_question([(sym, 1)], steps, query, sentences[-1], entries)


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
    letters = None
    if isinstance(program.query, OptionOf) and inst.options:
        letters = tuple(chr(ord("A") + index) for index in range(len(inst.options)))
    return MetaQuestion(program=program, table=EntityTable(), option_letters=letters)


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
    if inst.task in TSO_TASKS:
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
        letters = mq.option_letters
        if not letters:
            raise MissingOptionMapError("option query without an option map")
        value = trace.answer
        if not 1 <= value <= len(letters):  # letters[-1] would answer 0
            raise ValueOutOfOptionRangeError(f"answer {value!r} indexes no option")
        return letters[value - 1]
    # IsEqual and ConcatOf answer a string; ValueOf an exact number ("7/2")
    return str(trace.answer)


def solve_surface(inst: TaskInstance) -> str:
    """Resolve, evaluate, and back-map in one step."""
    mq = resolve(inst)
    return surface_answer(mq, eval_program(mq.program))
