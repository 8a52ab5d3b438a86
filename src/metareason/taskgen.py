"""Seeded synthetic generators for the template task families, each paired
with an independent brute-force oracle that supplies the gold answer.

The oracle recomputes answers from the surface text alone (array
simulation, parity counting, boolean folds, string slicing, exact
rational folds): it never touches the symbolic reducer or the
interpreter, so the two answer routes stay independent.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from . import templates
from .resolution import TSO_TASKS, FieldError, Task, TaskInstance, TemplateMismatchError
from .resolution import config_number, config_reader, config_task, json_fields, setting, tso_object_count


class GenerationError(Exception):
    """Base class for generator failures."""


class LexiconTooSmallError(GenerationError):
    """A word list cannot supply enough distinct entries for one instance."""


class InvalidParamsError(GenerationError):
    """A generation parameter breaks its rule; the message names it."""


PERSON_NAMES = (
    "Alice", "Bob", "Claire", "Dave", "Eve", "Fred", "Gertrude", "Helga",
    "Isabella", "Jamey", "Karl", "Liam", "Mia", "Noah", "Olga", "Paul",
    "Quinn", "Rosa", "Sam", "Tina", "Ursula", "Victor", "Wendy", "Yara",
    "Zack", "Sherrie", "Ryan", "Bernita", "Tamika", "Jerry", "Ka",
    "Millicent", "Vina", "Raymond", "Teressa", "Shalonda", "Kristian",
    "Fidel", "Delbert", "Leda", "Osvaldo", "Maybelle", "Fletcher", "Sima",
    "Inga", "Audrie", "Gwenn", "Conception",
)
PARTNER_NAMES = (
    "Lola", "Rodrigo", "Patrick", "Melissa", "Jamie", "Ophelia", "Izzi",
    "Marco", "Dana", "Yuki", "Helena", "Stefan",
)
BOOK_TITLES = (
    "Moby Dick", "The Great Gatsby", "Ulysses", "The Odyssey",
    "Frankenstein", "Hamlet", "Catch-22", "The Pearl", "Lolita",
    "The Fellowship of the Ring", "Brave New World", "Middlemarch",
)
POSITIONS = (
    "goalkeeper", "left winger", "right winger", "striker",
    "center midfielder", "left midfielder", "right midfielder", "fullback",
    "benchwarmer", "cheerleader", "sweeper", "left back",
)
OBJECT_NOUNS = (
    "apples", "oranges", "marbles", "pencils", "coins", "stickers",
    "candies", "cards", "balloons", "seashells",
)
LLC_WORDS = (
    "Elon", "Musk", "Bill", "Gates", "Larry", "Page", "Sergey", "Brin",
    "Lady", "Gaga", "Taylor", "Swift", "Barack", "Obama", "Angela",
    "Merkel", "Serena", "Williams", "Roger", "Federer", "Marie", "Curie",
    "Albert", "Einstein", "Isaac", "Newton", "Ada", "Lovelace", "Alan",
    "Turing", "Grace", "Hopper", "Nelson", "Mandela", "Frida", "Kahlo",
)


# The words a tracking scenario's objects are drawn from, by the name its ``objects`` gives.
_SCENARIO_OBJECTS = {"partner_names": PARTNER_NAMES, "book_titles": BOOK_TITLES, "positions": POSITIONS}


# An arithmetic question's starting amount is drawn from this range, inclusive.
ARITH_START_RANGE = (2, 30)


def _param(low: float = -math.inf, **default):
    """A generation parameter: an integer of at least ``low``."""
    return setting(config_number(int, low, exact=True), **default)


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters. Only the fields for ``task`` are used, but every
    rule is checked whatever the task."""

    task: Task = setting(config_task)
    count: int = _param(1)
    seed: int = _param()
    n_swaps: int | None = _param(0, default=None)  # tracking tasks; default = object count
    chain_len: int = _param(2, default=5)          # truth chains: number of persons
    n_people: int = _param(1, default=4)           # coin flips: number of actors
    n_words: int = _param(1, default=2)            # last-letter: words per name
    n_ops: int = _param(1, default=3)              # arithmetic: operation count


def child_rng(seed: int, task: Task, index: int) -> random.Random:
    """One child stream per instance index, so adding tasks or extending a
    run never perturbs previously generated instances."""
    digest = hashlib.sha256(f"{seed}:{task.value}:{index}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _sample(rng: random.Random, pool: tuple[str, ...], k: int, what: str) -> list[str]:
    if k > len(pool):
        raise LexiconTooSmallError(f"need {k} distinct {what}, lexicon has {len(pool)}")
    return rng.sample(list(pool), k)


def _build_tso(cfg: GenConfig, rng: random.Random) -> tuple[str, tuple[str, ...] | None]:
    n = tso_object_count(cfg.task)
    n_swaps = cfg.n_swaps if cfg.n_swaps is not None else n
    scenario = rng.choice(templates.SCENARIOS)
    persons = _sample(rng, PERSON_NAMES, n, "person names")
    objects = _sample(rng, _SCENARIO_OBJECTS[scenario.objects], n, "objects")
    pairs = [
        templates.TSO_PAIR.render(person=p, holds=scenario.holds, obj=o)
        for p, o in zip(persons, objects)
    ]
    sentences = [
        templates.TSO_INTRO.render(people=templates.series(persons), scene=scenario.scene),
        templates.TSO_ASSIGNMENT.render(lead=scenario.lead, pairs=templates.series(pairs)),
        templates.TSO_ACTION.render(opener=scenario.opener, rest=scenario.rest),
    ]
    first, then, last = templates.ORDINALS[:3]
    for k in range(n_swaps):
        i, j = rng.sample(range(n), 2)
        step = first if k == 0 else last if k == n_swaps - 1 else then
        sentences.append(
            templates.TSO_SWAP.render(ordinal=step, a=persons[i], b=persons[j], swap=scenario.swap)
        )
    queried = rng.choice(persons)
    query = templates.TSO_QUERY.render(end=scenario.end, person=queried, holds=scenario.holds)
    return " ".join(sentences + [query]), tuple(objects)


def _build_wol(cfg: GenConfig, rng: random.Random) -> tuple[str, None]:
    persons = _sample(rng, PERSON_NAMES, cfg.chain_len, "person names")
    claims = [templates.TRUTH if rng.random() < 0.5 else templates.LIE for _ in persons]
    sentences = [templates.WOL_OPENING.render(person=persons[0], claim=claims[0])]
    for speaker, target, claim in zip(persons[1:], persons, claims[1:]):
        sentences.append(templates.WOL_SAYS.render(speaker=speaker, target=target, claim=claim))
    sentences.append(templates.WOL_QUERY.render(person=persons[-1]))
    return " ".join(sentences), None


def _build_cf(cfg: GenConfig, rng: random.Random) -> tuple[str, None]:
    persons = _sample(rng, PERSON_NAMES, cfg.n_people, "person names")
    sentences = [templates.CF_OPENING.render()]
    for person in persons:
        form = templates.CF_FLIP if rng.random() < 0.5 else templates.CF_NON_FLIP
        sentences.append(form.render(person=person))
    sentences.append(templates.CF_QUERY.render())
    return " ".join(sentences), None


def _build_llc(cfg: GenConfig, rng: random.Random) -> tuple[str, None]:
    words = _sample(rng, LLC_WORDS, cfg.n_words, "name words")
    return templates.LLC_QUESTION.render(words=" ".join(words)), None


def _build_arith(cfg: GenConfig, rng: random.Random) -> tuple[str, None]:
    name = rng.choice(PERSON_NAMES)
    noun = rng.choice(OBJECT_NOUNS)
    value = Fraction(rng.randint(*ARITH_START_RANGE))
    slots = {"name": name, "noun": noun}
    sentences = [templates.ARITH_OPENING.render(**slots, amount=value)]
    kinds = ("add", "sub") if cfg.task is Task.AS else ("add", "sub", "mul", "div")
    for _ in range(cfg.n_ops):
        kind = rng.choice(kinds)
        if kind == "sub" and value < 2:
            kind = "add"
        if kind == "add":
            amount = rng.randint(1, 12)
            verb = rng.choice(templates.ADD_VERBS)
            sentences.append(templates.ARITH_ADD.render(**slots, verb=verb, amount=amount))
            value += amount
        elif kind == "sub":
            amount = rng.randint(1, min(12, int(value)))
            verb = rng.choice(templates.SUB_VERBS)
            sentences.append(templates.ARITH_SUB.render(**slots, verb=verb, amount=amount))
            value -= amount
        elif kind == "mul":
            factor = rng.randint(2, 5)
            sentences.append(templates.ARITH_MUL.render(**slots, amount=factor))
            value *= factor
        else:
            divisor = rng.randint(2, 5)
            sentences.append(templates.ARITH_DIV.render(**slots, amount=divisor))
            value /= divisor
    sentences.append(templates.ARITH_QUERY.render(**slots))
    return " ".join(sentences), None


_BUILDERS = {
    **dict.fromkeys(TSO_TASKS, _build_tso),
    Task.WOL: _build_wol,
    Task.CF: _build_cf,
    Task.LLC: _build_llc,
    Task.MA: _build_arith,
    Task.AS: _build_arith,
}


def generate(cfg: GenConfig) -> list[TaskInstance]:
    """Deterministically generate ``cfg.count`` instances with oracle gold."""
    try:
        config_reader(GenConfig)(json_fields(cfg))
    except FieldError as exc:
        raise InvalidParamsError(str(exc)) from None
    builder = _BUILDERS[cfg.task]
    instances = []
    for index in range(cfg.count):
        rng = child_rng(cfg.seed, cfg.task, index)
        question, options = builder(cfg, rng)
        instances.append(TaskInstance(
            id=f"{cfg.task.value}-{cfg.seed}-{index:04d}",
            task=cfg.task,
            question=question,
            options=options,
            gold=_oracle(cfg.task, question, options),
        ))
    return instances


# --- brute-force oracles over the surface text ---------------------------

_ORACLE_ASSIGN = re.compile(r": (?P<pairs>.+?)\.(?: |$)")
_ORACLE_SWAP = re.compile(r"(?:^|[.!?] )(?:\w+, )?(\w+) and (\w+) (?:switch|swap|trade)")
_ORACLE_QUERY = re.compile(r"At the end of [^,]+, (\w+)\b")
_ORACLE_WOL_FIRST = re.compile(r"^(\w+) (tells the truth|lies)\.")
_ORACLE_WOL_LINK = re.compile(r"(\w+) says (\w+) (tells the truth|lies)\.")
_ORACLE_NAME = re.compile(r'"([^"]+)"')
_ORACLE_INTRO = re.compile(r"^(\w+) has (\d+) \w+\.")
_ORACLE_ARITH_ADD = re.compile(r"\w+ (?:buys|finds|gets) (\d+) more \w+\.")
_ORACLE_ARITH_SUB = re.compile(r"\w+ (?:loses|eats|gives away) (\d+) \w+\.")
_ORACLE_ARITH_MUL = re.compile(r"is multiplied by (\d+)\.")
_ORACLE_ARITH_DIV = re.compile(r"is divided by (\d+)\.")


def _oracle_tso(question: str, options: tuple[str, ...] | None) -> str:
    m = _ORACLE_ASSIGN.search(question)
    if not m or not options:
        raise TemplateMismatchError("oracle cannot read assignments", question)
    holdings: dict[str, str] = {}
    order: list[str] = []
    for chunk in m.group("pairs").split(", "):
        chunk = chunk.strip()
        if chunk.startswith("and "):
            chunk = chunk[4:]
        words = chunk.split(" ")
        person = words[0]
        for marker in (" is dancing with ", " has ", " is playing ", " is holding "):
            if marker in chunk:
                obj = chunk.split(marker, 1)[1]
                break
        else:
            raise TemplateMismatchError("oracle cannot read pair", chunk)
        holdings[person] = obj
        order.append(obj)
    for a, b in _ORACLE_SWAP.findall(question):
        holdings[a], holdings[b] = holdings[b], holdings[a]
    queried = _ORACLE_QUERY.search(question)
    if not queried or queried.group(1) not in holdings:
        raise TemplateMismatchError("oracle cannot read query", question)
    obj = holdings[queried.group(1)]
    try:
        return chr(ord("A") + options.index(obj))
    except ValueError:
        return chr(ord("A") + order.index(obj))


def _oracle_wol(question: str) -> str:
    first = _ORACLE_WOL_FIRST.match(question)
    if not first:
        raise TemplateMismatchError("oracle cannot read opening", question)
    truthful = first.group(2) == "tells the truth"
    for _, _, claim in _ORACLE_WOL_LINK.findall(question):
        truthful = truthful == (claim == "tells the truth")
    return "yes" if truthful else "no"


def _oracle_cf(question: str) -> str:
    flips = len(re.findall(r"\w+ (?:flips|reverses) the coin\.", question))
    return "yes" if flips % 2 == 0 else "no"


def _oracle_llc(question: str) -> str:
    m = _ORACLE_NAME.search(question)
    if not m:
        raise TemplateMismatchError("oracle cannot read name", question)
    return "".join(word[-1] for word in m.group(1).split())


def _oracle_arith(question: str) -> str:
    intro = _ORACLE_INTRO.match(question)
    if not intro:
        raise TemplateMismatchError("oracle cannot read opening", question)
    value = Fraction(int(intro.group(2)))
    rest = question[intro.end():]
    for sentence in re.findall(r"[^.?]+[.?]", rest):
        sentence = sentence.strip()
        if sentence.startswith("How many"):
            continue
        add = _ORACLE_ARITH_ADD.search(sentence)
        sub = _ORACLE_ARITH_SUB.search(sentence)
        mul = _ORACLE_ARITH_MUL.search(sentence)
        div = _ORACLE_ARITH_DIV.search(sentence)
        if add:
            value += int(add.group(1))
        elif mul:
            value *= int(mul.group(1))
        elif div:
            value /= int(div.group(1))
        elif sub:
            value -= int(sub.group(1))
        else:
            raise TemplateMismatchError("oracle cannot read operation", sentence)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def oracle_answer(inst: TaskInstance) -> str:
    """Ground truth by direct simulation of the surface text."""
    return _oracle(inst.task, inst.question, inst.options)


def _oracle(task: Task, question: str, options: tuple[str, ...] | None) -> str:
    if task in TSO_TASKS:
        return _oracle_tso(question, options)
    if task is Task.WOL:
        return _oracle_wol(question)
    if task is Task.CF:
        return _oracle_cf(question)
    if task is Task.LLC:
        return _oracle_llc(question)
    return _oracle_arith(question)
