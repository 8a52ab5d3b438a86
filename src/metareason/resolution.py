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
import os
import re
from contextlib import suppress
from dataclasses import MISSING, field, fields
from enum import Enum
from itertools import takewhile
from typing import Callable, Iterable, Iterator, Sequence

from . import templates
from .meta_lang.ast import (
    SYMBOL_SEQUENCE,
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
    format_value,
    frozen,
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


# Each task by its value and by its folded spelling: the one lookup of task names.
_TASKS = {name: task for task in Task for name in (task.value, task.value.upper())}


def task_from_string(text: str) -> Task:
    """The task named ``text``: its value, or else that in any case with spaces around it."""
    try:
        return _TASKS[text] if text in _TASKS else _TASKS[text.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown task {text!r}") from None


_TSO_OBJECTS = {Task.TSO3: 3, Task.TSO5: 5, Task.TSO7: 7}


def tso_object_count(task: Task) -> int:
    return _TSO_OBJECTS[task]


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


@frozen
class Span:
    """A surface substring with character offsets (-1 when synthetic)."""

    text: str
    start: int = -1
    end: int = -1


@frozen
class EntityTable:
    """Per-instance realization of the entity and operation mappings.

    ``entries`` assigns symbols to surface entity spans in first-mention
    order. ``op_spans`` holds one surface span per statement, in statement
    order, then, when known, the span of the query clause.
    """

    entries: tuple[tuple[Span, str], ...] = ()
    op_spans: tuple[Span, ...] = ()

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


def config_rule(wanted: str, fits: str = "True", read: Callable | None = None, as_is: str = ""):
    """The rule for a value ``v`` of which the expression ``fits`` holds, read by ``read`` (as it
    is, if None). A value that does not fit, or that ``read`` refuses with an AttributeError,
    TypeError or ValueError, is a FieldError that names the field. Its inline check (see
    ``config_reader``) is ``fits`` if ``read`` is None, else ``as_is``, which holds of values that
    ``read`` returns as they are (of none, if empty)."""
    check = eval(f"lambda v: {fits}")

    def rule(value, name: str):
        try:
            if check(value):
                return value if read is None else read(value)
        except (AttributeError, TypeError, ValueError):  # AttributeError: a name that is no string
            pass
        raise FieldError(f"{name} must be {wanted}, got {value!r}")

    if read is None or as_is:
        rule.inline = as_is or fits, "v", {}
    return rule


def config_enum(wanted: str, lookup: Callable[[str], Enum], names: dict[str, Enum]):
    """The rule for a member of a str enum read by ``lookup``, whose table is ``names``. Its
    inline check looks a key of ``names`` up."""
    rule = config_rule(wanted, read=lookup)
    rule.inline = "type(v) is str and v in {names}", "{names}[v]", {"names": names}
    return rule


config_string = config_rule("a string", "type(v) is str")
# A name or path: ``open`` takes an int as a file descriptor.
config_text = config_rule("a non-empty string", "type(v) is str and v != ''")
# str() would turn null, a bool or a list into text.
config_text_or_int = config_rule("a string or an integer", "type(v) in (str, int)", str, "type(v) is str")
config_strings = config_rule(
    "a list of strings", "type(v) is list and all(type(item) is str for item in v)", tuple
)
config_task = config_enum("a task name", task_from_string, _TASKS)


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
        fits = (low < number if above else low <= number) and -math.inf < number < math.inf
        if not fits or isinstance(value, float) and number != value:  # 2.5 for an int
            raise FieldError(f"{name} must be {wanted}, got {value!r}")
        return number

    test = f"type(v) is {kind.__name__}" + (" and {isfinite}(v)" if kind is float else "")
    test += f" and v {'>' if above else '>='} {{low}}" if low > -math.inf else ""
    read.inline = test, "v", {"low": low, "isfinite": math.isfinite}
    return read


@functools.cache
def _settings(cls) -> tuple[tuple, frozenset[str]]:
    """Each setting of ``cls`` as (key, field); the keys."""
    rows = tuple(
        (spec.metadata["key"] or spec.name, spec) for spec in fields(cls) if "read" in spec.metadata
    )
    return rows, frozenset(key for key, _ in rows)


def _refuse(config, name: str, whole: str, known: frozenset, required: tuple) -> None:
    """Raise the FieldError of a reader's object ``config``, if it has one: not an object, a key
    that names no field, or (after a KeyError) the first of the ``required`` keys it lacks."""
    if not isinstance(config, dict):
        raise FieldError(f"{name or whole} must be a JSON object, got {config!r}")
    prefix = f"{name}." if name else ""
    for key in config:
        if key not in known:
            raise FieldError(f"{prefix}{key} is not a known field")
    for key in required:
        if key not in config:
            raise FieldError(f"{prefix}{key} is missing")


def _fallback(key: str, spec):
    """What a reader calls for a value of the setting ``spec`` that fails its rule's inline
    check: a missing key (``MISSING``) reads as the default, a null as None if that is the
    default, and anything else as the rule reads it."""
    rule, default, factory = spec.metadata["read"], spec.default, spec.default_factory

    def read(value, name: str):
        if value is MISSING:
            return default if factory is MISSING else factory()
        return None if value is None and default is None else rule(value, f"{name}.{key}" if name else key)

    return read


@functools.cache
def config_reader(cls, extra: tuple = ()) -> Callable:
    """The reader of the dataclass ``cls``, ``read(config, name="", whole="the line")``: ``cls``
    made from the settings read from the JSON object ``config``, which messages call ``name``
    (``whole`` if empty). A missing key reads as the setting's default, and a null as None if
    that is its default; keys not in ``cls`` or ``extra`` are refused, and fields that are no
    settings keep their defaults. It is written out from the field table as source and compiled
    once per class and ``extra``, as ``dataclasses`` writes ``__init__``. A rule's ``inline``
    holds two expressions of the value ``v``, a check and what the rule reads from a value that
    passes it, and the ``names`` they use (as ``{name}``). The reader runs that check, and calls
    the rule only for a value that fails it."""
    rows, keys = _settings(cls)
    required = tuple(key for key, spec in rows if spec.default is spec.default_factory is MISSING)
    scope = {"MISSING": MISSING, "cls": cls, "known": keys.union(extra)}
    scope["refuse"] = functools.partial(_refuse, known=scope["known"], required=required)
    code = ["def read(config, name='', whole='the line'):",
            "    if not isinstance(config, dict) or not known.issuperset(config):",
            "        refuse(config, name, whole)",
            "    try:"]
    for i, (key, spec) in enumerate(rows):
        test, value, names = getattr(spec.metadata["read"], "inline", ("False", "v", {}))
        own = {name: f"{name}_{i}" for name in names}
        scope.update({own[name]: names[name] for name in names})
        scope[f"fallback_{i}"], scope[f"default_{i}"] = _fallback(key, spec), spec.default
        # A required key is never MISSING here; a default_factory is called by the fallback.
        missing = "" if spec.default is MISSING else f"default_{i} if v is MISSING else "
        code += [f"        v = config[{key!r}]" if key in required else f"        v = config.get({key!r}, MISSING)",
                 f"        a{i} = {value.format(**own)} if {test.format(**own)} else {missing}fallback_{i}(v, name)"]
    if not rows:
        code.append("        pass")
    code += ["    except KeyError:", "        refuse(config, name, whole)", "        raise"]
    # By position while the fields of __init__ are settings, then by keyword.
    values = {spec.name: f"a{i}" for i, (_, spec) in enumerate(rows)}
    leading = list(takewhile(lambda spec: spec.name in values and not spec.kw_only, fields(cls)))
    args = [values.pop(spec.name) for spec in leading] + [f"{k}={v}" for k, v in values.items()]
    code.append(f"    return cls({', '.join(args)})")
    exec("\n".join(code), scope)
    return scope["read"]


def json_fields(obj, drop_none: bool = False) -> dict:
    """The settings of the dataclass ``obj`` by JSON key, its ``config_reader`` reversed (json
    writes a tuple as a list and a str enum as its value); a None is left out if ``drop_none``."""
    values = {key: getattr(obj, spec.name) for key, spec in _settings(type(obj))[0]}
    return {key: value for key, value in values.items() if value is not None} if drop_none else values


_RAW_DECODE = json.JSONDecoder().raw_decode
_ENCODE = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps(item, ensure_ascii=False)


def json_line(text: str, length: int):
    """``json.loads(text)``, for a line whose JSON value, if it holds one, ends at ``length``.
    The value is read in one C call, from the first character; a line that this read refuses,
    or does not take to ``length``, is read again by ``json.loads``, so every value and every
    error is json's own."""
    try:
        value, end = _RAW_DECODE(text)
    except ValueError:
        end = -1
    return value if end == length else json.loads(text)


def read_jsonl(path, parse: Callable[[dict], object]) -> Iterator:
    """Yield ``parse(fields)`` for the JSON value on each non-blank line, stripped of the
    whitespace around it (``str.strip``'s, which counts ``\\x1c`` and ``\\u2028``) and read by
    ``json_line``. A line that is not UTF-8 or not JSON (as the records reader labels them, json's
    digit limit included), or that ``parse`` refuses with a ValueError, raises MalformedLineError."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                fields = json_line(line, len(line))
            except UnicodeDecodeError as exc:
                raise MalformedLineError(path, number, f"not UTF-8 ({exc})") from None
            except ValueError as exc:  # a JSONDecodeError, or json's digit limit
                cause = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise MalformedLineError(path, number, f"not JSON: {cause}") from None
            try:
                item = parse(fields)
            except ValueError as exc:
                raise MalformedLineError(path, number, str(exc)) from None
            yield item


def write_atomically(path, pieces: Iterable[str]) -> None:
    """Write ``pieces`` to ``path`` + ".tmp" and move it into place, so ``path`` is
    always whole: the previous file until the new one is complete, or none. If a piece
    raises, the ".tmp" file is removed and ``path`` stays as it was. A lone surrogate,
    which UTF-8 cannot hold, is written as its ``\\uXXXX`` escape (inside a JSON string,
    json reads that back as the same character)."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", errors="backslashreplace") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):  # open() itself failed
            os.remove(tmp)
        raise


def write_jsonl(path, items: Iterable[dict]) -> None:
    write_atomically(path, (_ENCODE(item) + "\n" for item in items))


@frozen(kw_only=True)
class TaskInstance:
    """One benchmark item. ``meta`` optionally carries canonical DSL text."""

    id: str = setting(config_text_or_int)
    task: Task = setting(config_task)
    question: str = setting(config_string)
    options: tuple[str, ...] | None = setting(config_strings, default=None)
    gold: str = setting(config_text_or_int, key="answer")
    meta: str | None = setting(config_string, default=None)


def load_instances(path) -> list[TaskInstance]:
    return list(read_jsonl(path, config_reader(TaskInstance)))


def save_instances(path, instances: Iterable[TaskInstance]) -> None:
    write_jsonl(path, (json_fields(inst, drop_none=True) for inst in instances))


@frozen
class MetaQuestion:
    """A resolved instance: program, entity table, and the option back-map:
    ``option_letters[p - 1]`` is the letter of the option at position ``p``."""

    program: MetaProgram
    table: EntityTable
    option_letters: tuple[str, ...] | None = None


def symbol_name(index: int) -> str:
    """The ``index``-th symbol of the deterministic sequence A..Z, AA..AZ, BA..ZZ (702 total)."""
    if index < 0:
        raise ValueError("negative symbol index")
    if index < len(SYMBOL_SEQUENCE):
        return SYMBOL_SEQUENCE[index]
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


# A sentence in group 1, stripped: from a character that is no end mark up to an end mark,
# or, unterminated, up to its last character that is not whitespace.
_SENTENCE = re.compile(r"(?=[^.?!])\s*([^.?!]*[.?!]|[^.?!]*[^.?!\s])")


def _sentences_with_offsets(text: str) -> list[Span]:
    """Split on sentence boundaries (``.``, ``?`` or ``!``), keeping offsets; the final clause
    may be an unterminated cloze ("..., Alice is dancing with"). One match per sentence reads
    it without the whitespace around it, so nothing is stripped after the match."""
    return [Span(m[1], m.start(1), m.end(1)) for m in _SENTENCE.finditer(text)]


def _slot_span(match: re.Match, slot: str, base: int) -> Span:
    """The span of one matched slot; ``base`` is the offset of the matched text."""
    text, start = match[slot], base + match.start(slot)
    return Span(text, start, start + len(text))


def _meta_question(inits, stmts: list[Statement], query, op_spans: list[Span], entries, letters=None):
    """Assemble a resolved instance; ``op_spans`` holds each statement's surface span, then the query's."""
    program = MetaProgram(tuple(inits), tuple(stmts), query)
    return MetaQuestion(program, EntityTable(tuple(entries), tuple(op_spans)), letters)


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


# A tracking story's action, swap and query forms, tried in that order by one fullmatch in
# which each form is a group named in upper case (no slot is): ``lastgroup`` names the form
# that read the sentence.
_TSO_STEPS = {"ACTION": templates.TSO_ACTION, "SWAP": templates.TSO_SWAP, "QUERY": templates.TSO_QUERY}
_TSO_STEP = re.compile("|".join(f"(?P<{name}>{form.regex.pattern})" for name, form in _TSO_STEPS.items())).fullmatch


def _resolve_tso(question: str, options: tuple[str, ...] | None) -> MetaQuestion:
    if not options:
        raise TemplateMismatchError("option-tracking question without options")
    sentences = _sentences_with_offsets(question)
    if len(sentences) < 3:
        raise TemplateMismatchError("too few sentences", question)
    for assignment in sentences:  # a sentence with no ": " fails the form: skip its scan
        assigned = ": " in assignment.text and templates.TSO_ASSIGNMENT.match(assignment.text)
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
        person, start = pair["person"], base + offset  # the person opens the pair
        entries.append((Span(person, start, start + len(person)), symbol_name(len(entries))))
        objects.append(pair["obj"])
    table = {span.text: sym for span, sym in entries}
    if len(table) != len(entries) or len(set(objects)) != len(objects):
        raise TemplateMismatchError("repeated person or object in assignment", assigned["pairs"])

    stmts: list[Statement] = []
    spans: list[Span] = []
    query_span: Span | None = None
    for sentence in sentences:
        step = sentence is not assignment and _TSO_STEP(sentence.text)
        if not step:
            if sentence is assignment or sentence is sentences[0]:
                continue  # the assignment, or a scene-setting intro
            raise TemplateMismatchError("unrecognized sentence", sentence.text)
        if step.lastgroup == "SWAP":
            left, right = table.get(step["a"]), table.get(step["b"])
            if left is None or right is None:
                raise TemplateMismatchError("swap names an unknown person", sentence.text)
            stmts.append(Swap(left, right))
            spans.append(sentence)
        elif step.lastgroup == "QUERY":
            if step["person"] not in table:
                raise TemplateMismatchError("query names an unknown person", sentence.text)
            query_span, query = sentence, OptionOf(table[step["person"]])
    if query_span is None:
        raise TemplateMismatchError("no query clause", sentences[-1].text)
    spans.append(query_span)

    # options may carry truncated text; fall back to position
    letters = tuple(
        [chr(ord("A") + (options.index(obj) if obj in options else index)) for index, obj in enumerate(objects)]
    )
    inits = [(sym, value) for value, (_, sym) in enumerate(entries, start=1)]
    return _meta_question(inits, stmts, query, spans, entries, letters)


def _resolve_wol(question: str, options: tuple[str, ...] | None) -> MetaQuestion:
    del options
    sentences, first, last = _read_chain(question, templates.WOL_OPENING, templates.WOL_QUERY, 3)

    entries = [(_slot_span(first, "person", sentences[0].start), symbol_name(0))]
    table: dict[str, str] = {first["person"]: symbol_name(0)}
    stmts: list[Statement] = []
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
        stmts.append(Says(table[speaker], table[target], int(says["claim"] == templates.TRUTH)))
    if last["person"] not in table:
        raise TemplateMismatchError("query names an unknown person", sentences[-1].text)

    inits = [(symbol_name(0), int(first["claim"] == templates.TRUTH))]
    return _meta_question(inits, stmts, IsEqual(table[last["person"]], 1), sentences[1:], entries)


def _resolve_cf(question: str, options: tuple[str, ...] | None) -> MetaQuestion:
    del options
    sentences, opening, _ = _read_chain(question, templates.CF_OPENING, templates.CF_QUERY)

    sym = symbol_name(0)
    flip = Flip(sym)
    spans: list[Span] = []
    for sentence in sentences[1:-1]:
        if templates.CF_FLIP.match(sentence.text):
            spans.append(sentence)
        elif not templates.CF_NON_FLIP.match(sentence.text):  # a non-flip emits no statement
            raise TemplateMismatchError("bad flip sentence", sentence.text)
    spans.append(sentences[-1])

    entries = [(_slot_span(opening, "coin", sentences[0].start), sym)]
    return _meta_question([(sym, 1)], [flip] * (len(spans) - 1), IsEqual(sym, 1), spans, entries)


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

    table = allocate_symbols(spans)
    symbols = table.as_dict()
    stmts = [LastOf(sym, span.text) for span, sym in table.entries]
    query = ConcatOf(tuple([symbols[span.text] for span in spans]))
    op_spans = [span for span, _ in table.entries] + [Span(stripped, 0, len(stripped))]
    return _meta_question([], stmts, query, op_spans, table.entries)


_ARITH_OPS = (
    (templates.ARITH_ADD, Add),
    (templates.ARITH_SUB, Sub),
    (templates.ARITH_MUL, Mul),
    (templates.ARITH_DIV, Div),
)


def _amount(m: re.Match, sentence: Span) -> int:
    try:
        return int(m["amount"])
    except ValueError:  # the form reads only digits, so this is Python's limit on their number
        raise TemplateMismatchError(f"amount of {len(m['amount'])} digits is too long", sentence.text) from None


def _resolve_arith(question: str, options: tuple[str, ...] | None) -> MetaQuestion:
    del options
    sentences, first, last = _read_chain(question, templates.ARITH_OPENING, templates.ARITH_QUERY)
    if last["name"] != first["name"]:
        raise TemplateMismatchError("query names another person", sentences[-1].text)

    sym = symbol_name(0)
    stmts: list[Statement] = []
    for sentence in sentences[1:-1]:
        for form, op in _ARITH_OPS:
            m = form.match(sentence.text)
            if m:
                break
        else:
            raise TemplateMismatchError("bad operation sentence", sentence.text)
        stmts.append(op(sym, _amount(m, sentence)))

    inits = [(sym, _amount(first, sentences[0]))]
    entries = [(_slot_span(first, "name", sentences[0].start), sym)]
    return _meta_question(inits, stmts, ValueOf(sym), sentences[1:], entries)


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
    free-form arithmetic without a rewrite, UnsupportedTaskError; a program
    that cannot run raises its MetaLangError when it is built.
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
    """Map a trace's symbolic answer back to the surface answer string; a number is written by
    ``format_value``, so one past Python's digit limit is a ``MetaLangError``."""
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
    return answer if isinstance(answer := trace.answer, str) else format_value(answer)


def solve_surface(inst: TaskInstance) -> str:
    """Resolve, evaluate, and back-map in one step."""
    mq = resolve(inst)
    return surface_answer(mq, eval_program(mq.program))
