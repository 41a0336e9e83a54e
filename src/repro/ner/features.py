"""Feature templates for the sequence taggers.

The templates mirror Stanford NER's default ingredient-scale feature
set: token identity, orthographic shape, affixes, neighbouring tokens,
and small domain lexicons (units, sizes, temperatures, dry/fresh and
state words).  Features are plain strings — both the CRF and the
perceptron index them the same way.

Every template reads exactly one token, so the templates are stated
per token, as the :class:`TokenParts` a token contributes in each role
(itself, w±1, w±2); :func:`compose` concatenates a position's parts.
Training, ``predict`` and the perceptron's batched decode share this
one definition.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable, Sequence
from typing import NamedTuple

_NUM_RE = re.compile(r"^\d+(\.\d+)?$")
_FRACTION_RE = re.compile(r"^\d+/\d+$")

#: Lexicons: cheap, high-precision cues.  The learners can override
#: them from context ("500 g or 1 cup" teaches that "cup" after "or"
#: may be part of an alternative measure).
UNIT_WORDS: frozenset[str] = frozenset(
    {
        "cup", "cups", "tablespoon", "tablespoons", "tbsp", "tbsps",
        "tbs", "teaspoon", "teaspoons", "tsp", "tsps",
        "ounce", "ounces", "oz", "pound", "pounds",
        "lb", "lbs", "gram", "grams", "g", "kg", "ml", "l", "liter",
        "litre", "pint", "pints", "quart", "quarts", "gallon", "gallons",
        "pinch", "pinches", "dash", "dashes", "clove", "cloves", "slice",
        "slices", "stick", "sticks", "can", "cans", "package", "packages",
        "packet", "packets", "jar", "jars", "bottle", "bottles", "bunch",
        "bunches", "head", "heads", "stalk", "stalks", "sprig", "sprigs",
        "piece", "pieces", "fillet", "fillets", "loaf", "loaves", "leaf",
        "leaves", "ear", "ears", "envelope", "envelopes", "container",
        "drop", "drops", "cube", "cubes", "strip", "strips", "wedge",
        "wedges", "scoop", "scoops", "box", "boxes", "bag", "bags",
        "carton", "cartons", "pat", "pats", "fl", "fluid",
    }
)

SIZE_WORDS: frozenset[str] = frozenset(
    {"small", "medium", "large", "extra-large", "jumbo", "big", "little"}
)

TEMP_WORDS: frozenset[str] = frozenset(
    {"cold", "hot", "warm", "chilled", "frozen", "iced", "lukewarm",
     "room-temperature", "boiling"}
)

DF_WORDS: frozenset[str] = frozenset({"dry", "dried", "fresh", "freshly"})

STATE_WORDS: frozenset[str] = frozenset(
    {
        "chopped", "minced", "diced", "sliced", "grated", "ground",
        "crushed", "shredded", "peeled", "seeded", "halved", "quartered",
        "cubed", "julienned", "mashed", "pureed", "beaten", "whisked",
        "melted", "softened", "cooked", "uncooked", "boiled", "steamed",
        "roasted", "toasted", "grilled", "fried", "baked", "smoked",
        "cured", "pitted", "stemmed", "trimmed", "rinsed", "drained",
        "pressed", "hulled", "deveined", "flaked", "warmed", "soaked",
        "washed", "packed", "sifted", "divided", "separated", "crumbled",
        "torn", "cut", "split", "thawed", "defrosted", "scalded",
        "hard-cooked", "hard-boiled", "soft-boiled", "lean",
    }
)


def word_shape(token: str) -> str:
    """Collapse a token to its orthographic shape.

    Called once per distinct token: :func:`token_parts` memoizes
    everything derived from a token, the shape included.

    >>> word_shape("Onion")
    'Xx'
    >>> word_shape("1/2")
    'd/d'
    >>> word_shape("all-purpose")
    'x-x'
    """
    shape: list[str] = []
    for ch in token:
        if ch.isdigit():
            cls = "d"
        elif ch.isalpha():
            cls = "X" if ch.isupper() else "x"
        else:
            cls = ch
        if not shape or shape[-1] != cls:
            shape.append(cls)
    return "".join(shape)


class TokenParts(NamedTuple):
    """The feature strings one token contributes, by role.

    Every template reads exactly one token — the token itself, w±1 or
    w±2 — so a position's features are the concatenation of five
    per-token parts (see :func:`compose`).  The taggers exploit this
    to derive features, or interned feature ids, once per distinct
    token instead of once per position.
    """

    own: tuple  # at its own position
    as_prev: tuple  # as w-1 of the next position
    as_next: tuple  # as w+1 of the previous position
    as_prev2: tuple  # as w-2
    as_next2: tuple  # as w+2


#: The parts of an out-of-range neighbour: ``BOS`` where w-1 is
#: missing, ``EOS`` where w+1 is, nothing for a missing w±2.
EDGE = TokenParts((), ("BOS",), ("EOS",), (), ())


@functools.lru_cache(maxsize=65536)
def token_parts(token: str) -> TokenParts:
    """Per-role feature strings of *token* (memoized).

    Corpus vocabulary is small relative to corpus size, so the
    orthographic scans and lexicon probes run once per distinct token.
    """
    lower = token.lower()
    shape = word_shape(token)
    own = [
        f"w={lower}",
        f"shape={shape}",
        f"suf2={lower[-2:]}",
        f"suf3={lower[-3:]}",
        f"pre2={lower[:2]}",
        f"pre3={lower[:3]}",
    ]
    is_number = bool(_NUM_RE.match(token))
    is_fraction = bool(_FRACTION_RE.match(token))
    is_unit = lower in UNIT_WORDS
    if is_number:
        own.append("is_number")
    if is_fraction:
        own.append("is_fraction")
    if not any(c.isalnum() for c in token):
        own.append("is_punct")
    if "-" in token:
        own.append("has_hyphen")
    if is_unit:
        own.append("lex=unit")
    if lower in SIZE_WORDS:
        own.append("lex=size")
    if lower in TEMP_WORDS:
        own.append("lex=temp")
    if lower in DF_WORDS:
        own.append("lex=df")
    if lower in STATE_WORDS:
        own.append("lex=state")
    if lower.endswith("ed"):
        own.append("suffix_ed")
    if lower.endswith("ing"):
        own.append("suffix_ing")
    if lower.endswith("ly"):
        own.append("suffix_ly")
    as_prev = [f"w-1={lower}", f"shape-1={shape}"]
    if is_unit:
        as_prev.append("prev_lex=unit")
    if is_number or is_fraction:
        as_prev.append("prev_is_number")
    as_next = [f"w+1={lower}"]
    if is_unit:
        as_next.append("next_lex=unit")
    return TokenParts(
        tuple(own),
        tuple(as_prev),
        tuple(as_next),
        (f"w-2={lower}",),
        (f"w+2={lower}",),
    )


def padded_parts(tokens: Iterable[str]) -> list[TokenParts]:
    """:func:`token_parts` of every token, with two :data:`EDGE` pads
    on each side — the layout :func:`compose` indexes."""
    return [EDGE, EDGE, *map(token_parts, tokens), EDGE, EDGE]


def compose(padded: Sequence[TokenParts], i: int) -> list:
    """Features of position *i* from its neighbourhood's parts.

    *padded* is :func:`padded_parts` output (or the same layout with
    interned ids in place of strings), so position *i* sits at
    ``padded[i + 2]`` and its missing neighbours are edge pads.  The
    order — own, w-1 (or ``BOS``), w+1 (or ``EOS``), w-2, w+2 — is
    the template order.
    """
    j = i + 2
    return [
        *padded[j].own,
        *padded[j - 1].as_prev,
        *padded[j + 1].as_next,
        *padded[j - 2].as_prev2,
        *padded[j + 2].as_next2,
    ]


def token_features(tokens: Sequence[str], i: int) -> list[str]:
    """Features for position *i* of the token sequence.

    Only the five tokens around *i* are read, so only their parts are
    derived.
    """
    return compose(padded_parts(tokens[max(0, i - 2) : i + 3]), min(i, 2))


def extract_features(tokens: Iterable[str]) -> list[list[str]]:
    """Per-token feature lists for a whole phrase."""
    padded = padded_parts(tokens)
    return [compose(padded, i) for i in range(len(padded) - 4)]
