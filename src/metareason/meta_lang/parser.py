"""Parser for the meta-question language.

Reads the grammar table in ``renderer``: one compiled alternation for the
statement rows and one for the query rows, a named group per row, and each
field converted by its slot kind. A parse error's hint is the row's format
string with each slot shown as its kind, e.g. ``Divide SYM by NUM.``

Besides canonical renderings (``parse_meta(render_meta(p)) == p``) it takes
the looser connective phrasings of running text ("..., then subtract 4 from
A, and finally multiply A by 2, now what is the value of A?"): a clause
connective after a comma starts a new sentence, and leading connective
words are dropped before matching.
"""

from __future__ import annotations

import re
from dataclasses import fields
from fractions import Fraction
from string import Formatter

from .ast import MetaProgram, Query, Statement, Value
from .errors import ParseError
from .renderer import FIELDS, INIT, NUM, PAIR, QUERIES, STATEMENTS, SYM, SYMS, VAL, WORD, form_fields

_SYM = r"[A-Z]{1,2}"
_NUM = r"-?\d+"
_QUOTED = r'"(?:[^"\\]|\\.)*"'
# A quoted string as the tokenizer skips it: escapes may hide any character,
# and an unterminated quote runs to the end of the text.
_OPEN_QUOTED = r'"[^"\\]*(?:\\.[^"\\]*)*"?'
_CONNECTIVES = r"then|finally|now|next|lastly|after\s+that"

# A fragment ends at "." or "?" before whitespace or the end, or at a comma
# before a clause connective; the query's "?" stays in the fragment.
_FRAGMENT = re.compile(
    rf'((?:[^".?,]+|{_OPEN_QUOTED}|[.?](?!\s|\Z)|,(?!(?i:\s*(?:and\s+)?(?:{_CONNECTIVES})\b)))*\??)'
    r"(?:[.,]|(?<=\?)|\Z)",
    re.S,
)
_LEADING_CONNECTIVE = re.compile(rf"^(?:(?:and|{_CONNECTIVES})\b[,\s]+)+", re.IGNORECASE)
# The text up to the next comma outside quotes.
_CHUNK = re.compile(rf'(?:[^",]+|{_OPEN_QUOTED})*', re.S)


def _parse_value(text: str, index: int) -> Value:
    if text[0] == '"':
        body = text[1:-1]
        return re.sub(r"\\(.)", r"\1", body) if "\\" in body else body
    if "/" in text:
        num_text, den_text = text.split("/", 1)
        den = int(den_text.strip())
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}", index, "a nonzero denominator")
        value = Fraction(int(num_text.strip()), den)
        return value.numerator if value.denominator == 1 else value
    return int(text)


# Per slot kind: its regex, its reader (text, sentence index -> value), and its hint.
_KINDS = {
    SYM: (_SYM, lambda text, index: text, "SYM"),
    NUM: (_NUM, lambda text, index: int(text), "NUM"),
    VAL: (rf"(?:{_NUM}(?:\s*/\s*\d+)?|{_QUOTED})", _parse_value, "VAL"),
    WORD: (_QUOTED, _parse_value, '"WORD"'),
    SYMS: (
        rf"{_SYM}(?:\s+and\s+{_SYM})*", lambda text, index: tuple(re.findall(_SYM, text)), "SYM and SYM ..."
    ),
}
# Whitespace in a form: required between words, optional beside "=", "(" and ")".
_SPACING = {" ": r"\s+", " = ": r"\s*=\s*", "(": r"\(\s*", ")": r"\s*\)"}


def _form_regex(template: str, **kinds: str) -> str:
    """A format string as a regex: a capturing group per field, by slot kind."""
    parts = []
    for literal, field, _, _ in Formatter().parse(template):
        parts.append(re.sub(r" = | |\(|\)|[^ =()]+", lambda m: _SPACING.get(m[0]) or re.escape(m[0]), literal))
        if field:
            parts.append(f"({kinds.get(field) or _KINDS[FIELDS[field]][0]})")
    return "".join(parts)


def _shown(template: str, **shown: str) -> str:
    return template.format_map({f: shown.get(f) or _KINDS[FIELDS[f]][2] for f in form_fields(template)})


def _reader(rows: dict):
    """Reads a fragment with one alternation over ``rows``, a group named
    after each row's class: the row's node, or None when no row matches. The
    row's fields are the groups after its own, read in its class's field order."""
    match = re.compile("|".join(f"(?P<{c.__name__}>{_form_regex(t)})" for c, t in rows.items())).fullmatch
    nodes = {c.__name__: (c, [(form_fields(t).index(f.name) + 1, _KINDS[FIELDS[f.name]][1]) for f in fields(c)])
             for c, t in rows.items()}

    def read(fragment: str, index: int):
        if m := match(_capitalized(fragment)):
            cls, slots = nodes[m.lastgroup]
            row = m.lastindex  # the row's group, which closes last
            return cls(*[reader(m[row + k], index) for k, reader in slots])
        return None

    return read


_read_statement = _reader(STATEMENTS)
_read_query = _reader(QUERIES)
# "that" may be left out of the init sentence on input; its pairs may span
# lines, as a string value may hold a newline.
_INIT = re.compile(_form_regex(INIT[:-1], pairs=".+").replace(r"\s+that", r"(?:\s+that)?", 1), re.S).fullmatch
_PAIR = re.compile(rf"\s*{_form_regex(PAIR)}\s*(?:(,)|\Z)")
_PAIR_HINT = f'{_shown(PAIR)} pairs separated by ", "'
_QUERY_HINT = "a query sentence ending with '?'"


def _hints() -> list:
    """Per sentence form, a test of a lowered fragment that does not parse and
    the hint it earns. A row opening with words is cued by the fewest opening
    words no other row shares ("what is the value"), one opening with a slot by
    its longest word no other row has, spaced as in the row (" says "). Opening
    cues go first, then the others in table order. The init form is cued by its
    words before the optional "that".
    """
    rows = {**STATEMENTS, **QUERIES}
    words = {  # a row's literal words, lowered, with None for each slot
        cls: [
            w for literal, field, _, _ in Formatter().parse(t) for w in literal.lower().split() + [None] * bool(field)
        ]
        for cls, t in rows.items()
    }
    pairs = f"{_shown(PAIR)}, {_shown(PAIR)}, ..."
    cues = [(re.escape(INIT.lower().partition(" that")[0]), "an init sentence: " + _shown(INIT[:-1], pairs=pairs))]
    for cls, own in words.items():
        others = [w for c, w in words.items() if c is not cls]
        if own[0]:
            k = next(k for k in range(1, len(own)) if all(o[:k] != own[:k] for o in others))
            cue = re.escape(" ".join(own[:k]))
        else:
            word = max((w for w in own if w and all(w not in o for o in others)), key=len)
            cue = ".*?" + re.escape(re.search(rf" ?{re.escape(word)} ?", rows[cls])[0])
        cues.append((cue, _shown(rows[cls]) + ("." if cls in STATEMENTS else "")))
    return [(re.compile(cue, re.S).match, hint) for cue, hint in sorted(cues, key=lambda c: c[0].startswith(".*?"))]


_HINTS = _hints()


def split_clauses(text: str) -> list[str]:
    """Split text into clause fragments.

    Quote-aware: terminators and commas inside string literals do not
    split. Sentences end at ``.`` or ``?``; a comma followed by a clause
    connective also ends a fragment. Leading connective words are dropped;
    the query's ``?`` is kept.
    """
    fragments = [_LEADING_CONNECTIVE.sub("", fragment.strip()).strip(" ,") for fragment in _FRAGMENT.findall(text)]
    return [fragment for fragment in fragments if fragment]


def _capitalized(fragment: str) -> str:
    return fragment[:1].upper() + fragment[1:]


def _hint_for(fragment: str) -> str:
    lowered = fragment.lower()
    default = "an init, statement, or query sentence in the canonical grammar"
    return next((hint for cue, hint in _HINTS if cue(lowered)), default)


def _parse_init_pairs(body: str, index: int) -> list[tuple[str, Value]]:
    pairs, pos = [], 0
    while True:
        m = _PAIR.match(body, pos)
        if not m:
            chunk = _CHUNK.match(body, pos)[0].strip()
            raise ParseError(f"bad init pair {chunk!r}", index, _PAIR_HINT)
        pairs.append((m[1], _parse_value(m[2], index)))
        if not m[3]:
            return pairs
        pos = m.end()


def _parse_statement(fragment: str, index: int) -> Statement:
    if (stmt := _read_statement(fragment, index)) is not None:
        return stmt
    if _INIT(_capitalized(fragment)):
        raise ParseError("init sentence must come first", index, "statements after the init sentence")
    if fragment.endswith("?"):
        raise ParseError("query must be the final sentence", index, "a statement sentence")
    raise ParseError(f"cannot parse {fragment!r}", index, _hint_for(fragment))


def _parse_query(fragment: str, index: int) -> Query:
    if (query := _read_query(fragment, index)) is not None:
        return query
    if _read_statement(fragment, index) is not None or _INIT(_capitalized(fragment)):
        raise ParseError("program must end with a query", index, _QUERY_HINT)
    raise ParseError(f"cannot parse {fragment!r}", index, _hint_for(fragment))


def parse_meta(text: str) -> MetaProgram:
    """Parse meta-question text into a program, which building checks and runs.

    Raises ParseError (with a 1-based sentence index and an expected-form
    hint) on syntax problems, and the error of building the program
    (``MetaProgram``) on one that fails a check or cannot run.
    """
    fragments = split_clauses(text)
    if not fragments:
        raise ParseError("empty input", 1, "an init sentence or a query")
    m = _INIT(_capitalized(fragments[0]))
    inits = _parse_init_pairs(m[1], 1) if m else []
    start = 1 if m else 0
    if start == len(fragments):
        raise ParseError("missing query sentence", start, _QUERY_HINT)
    stmts = tuple(_parse_statement(f, index) for index, f in enumerate(fragments[start:-1], start + 1))
    return MetaProgram(inits=tuple(inits), stmts=stmts, query=_parse_query(fragments[-1], len(fragments)))
