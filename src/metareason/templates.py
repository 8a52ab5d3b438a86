"""Sentence forms of the template task families, one table per family.

A form is a format string whose ``{slot}`` fields are typed. A slot is a
name word unless the form says otherwise: an integer (``INT``), free text
(``TEXT``), another regex, or a closed tuple of alternatives. Both
directions read the same forms:

- ``taskgen`` renders every sentence it generates with ``Form.render``. A
  tuple slot renders its first alternative unless the generator picks one.
- ``resolution`` matches surface sentences against the regex each form
  compiles to, and takes entity and operation spans from the slot offsets.

Alternatives and free-text slots that the generator never writes keep the
resolver lenient towards hand-written variants ("is holding", "Next, ...",
"doesn't flip the coin", any swap object). A new phrasing is therefore one
table edit, and the generator and the resolver see it together.

The brute-force oracles in ``taskgen`` do not read this table. They parse
the surface text with their own regexes, so they remain an independent
check: a wrong form cannot make the generator, the resolver and the oracle
agree on a wrong answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from string import Formatter

NAME = r"[A-Za-z][\w'-]*"
INT = r"\d+"
TEXT = r".+?"
# TEXT where only a STOPS slot or nothing follows it, read greedily: one scan, not a
# try of what follows after each character. TEXT_TO_STOP leaves a last end mark.
TEXT_TO_STOP, REST = r".+(?=[.!?]\Z)|.+", r".+"
# Sentence ends: the generator writes the first, the resolver takes any.
STOPS = (".", "!", "?", "")


class Form:
    """One sentence form: a format string whose fields are typed slots."""

    def __init__(self, template: str, **slots: str | tuple[str, ...]):
        self.template = template
        self._defaults = {name: kind[0] for name, kind in slots.items() if isinstance(kind, tuple)}
        pattern = []
        for literal, field, _, _ in Formatter().parse(template):
            pattern.append(re.escape(literal))
            if field is not None:
                kind = slots.get(field, NAME)
                if isinstance(kind, tuple):
                    kind = "|".join(map(re.escape, kind))
                pattern.append(f"(?P<{field}>{kind})")
        self.regex = re.compile("".join(pattern))
        # Reads the whole of a text against this form; None when it does not fit.
        self.match = self.regex.fullmatch

    def render(self, **values) -> str:
        for name, default in self._defaults.items():
            values.setdefault(name, default)
        return self.template.format_map(values)


def series(items: list[str]) -> str:
    """A serial-comma list of two or more items: "x, y, and z"."""
    return ", ".join(items[:-1]) + ", and " + items[-1]


def split_series(text: str) -> list[tuple[int, str]]:
    """The items of a serial-comma list, each with its offset in ``text``."""
    items = []
    offset = 0
    for chunk in text.split(", "):
        item = chunk.lstrip()
        if item.startswith("and "):
            item = item[4:]
        items.append((offset + len(chunk) - len(item), item.rstrip()))
        offset += len(chunk) + 2
    return items


# --- tracking shuffled objects (TSO3/5/7) ------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One tracking story: the values it gives the TSO_* forms' slots of the same names."""

    scene: str               # the opening after the names; the resolver skips it
    lead: str                # the assignment sentence up to its colon
    holds: str               # links a person to an object, in pairs and query
    opener: str              # the sentence with no swap: its opener ...
    rest: str                # ... and the rest of it
    swap: str                # verb, then what is swapped
    end: str                 # what the query says has ended: "the dance"
    objects: str             # names the taskgen word list the objects are drawn from


SCENARIOS = (
    Scenario(
        scene="are dancers at a square dance",
        lead="At the start of a song, they each have a partner",
        holds="is dancing with",
        opener="Throughout",
        rest="the song, the dancers often trade partners.",
        swap="switch partners",
        end="the dance",
        objects="partner_names",
    ),
    Scenario(
        scene="are friends and have just finished reading different books",
        lead="At the start of the semester, they each have a book",
        holds="has",
        opener="As the",
        rest="semester proceeds, they start trading books.",
        swap="swap books",
        end="the semester",
        objects="book_titles",
    ),
    Scenario(
        scene="are on the same team in a soccer match",
        lead="At the start of the match, they are each assigned to a position",
        holds="is playing",
        opener="As the",
        rest="match progresses, pairs of players occasionally swap positions.",
        swap="trade positions",
        end="the match",
        objects="positions",
    ),
)

# The generator writes the first three: first swap, middle swaps, last swap.
ORDINALS = ("First, ", "Then, ", "Finally, ", "Next, ", "Later, ", "After that, ", "")
# What the scenarios write, then what only the resolver reads. A swap names
# one of the scenarios' verbs; what is swapped, if anything, is free text.
_HOLDS = tuple(s.holds for s in SCENARIOS) + ("is holding",)
_OPENERS = tuple(dict.fromkeys(s.opener for s in SCENARIOS)) + ("During",)
_SWAP_VERBS = dict.fromkeys(s.swap.split(" ", 1)[0] for s in SCENARIOS)
_SWAP = rf"(?:{'|'.join(_SWAP_VERBS)})\b(?:.*(?=[.!?]\Z)|.*)"  # cf. TEXT_TO_STOP

TSO_INTRO = Form("{people} {scene}.", people=TEXT, scene=TEXT)
TSO_ASSIGNMENT = Form("{lead}: {pairs}{stop}", lead=TEXT, pairs=TEXT_TO_STOP, stop=STOPS)
TSO_PAIR = Form("{person} {holds} {obj}", holds=_HOLDS, obj=REST)
TSO_ACTION = Form("{opener} {rest}", opener=_OPENERS, rest=REST)
TSO_SWAP = Form("{ordinal}{a} and {b} {swap}{stop}", ordinal=ORDINALS, swap=_SWAP, stop=STOPS)
TSO_QUERY = Form("At the end of {end}, {person} {holds}", end=TEXT, holds=REST)

# --- truth chains (WoL) ------------------------------------------------------

TRUTH = "tells the truth"
LIE = "lies"
WOL_OPENING = Form("{person} {claim}.", claim=(TRUTH, LIE))
WOL_SAYS = Form("{speaker} says {target} {claim}.", claim=(TRUTH, LIE))
WOL_QUERY = Form("Does {person} tell the truth?")

# --- coin flips (CF) ---------------------------------------------------------

CF_OPENING = Form("A {coin} is heads up.", coin=("coin",))
CF_FLIP = Form("{person} {act}.", act=("flips the coin", "reverses the coin"))
CF_NON_FLIP = Form("{person} {act}.", act=("does not flip the coin", "doesn't flip the coin"))
CF_QUERY = Form("Is the coin still heads up?")

# --- last-letter concatenation (LLC) -----------------------------------------

LLC_QUESTION = Form(
    'Take the last letters of the words in "{words}" and concatenate them{stop}',
    words=TEXT,
    stop=STOPS,
)

# --- template arithmetic (MA, AS) --------------------------------------------

ADD_VERBS = ("buys", "finds", "gets")
SUB_VERBS = ("loses", "eats", "gives away")
ARITH_OPENING = Form("{name} has {amount} {noun}.", amount=INT)
ARITH_ADD = Form("{name} {verb} {amount} more {noun}.", verb=ADD_VERBS, amount=INT)
ARITH_SUB = Form("{name} {verb} {amount} {noun}.", verb=SUB_VERBS, amount=INT)
ARITH_MUL = Form("The number of {noun} {name} has is multiplied by {amount}.", amount=INT)
ARITH_DIV = Form("The number of {noun} {name} has is divided by {amount}.", amount=INT)
ARITH_QUERY = Form("How many {noun} does {name} have now?")
