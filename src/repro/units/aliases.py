"""Canonical cooking units and their aliases.

The paper: "standard units were defined for units where aliases were
present, for example, tbsp and tablespoon both now represent the
standard unit tablespoon" — plus 'pound'/'lb'.  This module owns that
standardization: every unit string that survives
:func:`repro.units.normalize.normalize_unit` is mapped to a canonical
spelling here.
"""

from __future__ import annotations

#: canonical unit -> aliases (lemmatized, lower-case, alphabetic only).
ALIASES: dict[str, tuple[str, ...]] = {
    "tablespoon": ("tbsp", "tbs", "tb", "tbl", "tablespoonful"),
    "teaspoon": ("tsp", "teaspoonful"),
    "cup": ("c",),
    "fluid ounce": ("floz",),  # "fl oz" collapses to "floz" after cleaning
    "ounce": ("oz", "ozs"),
    "pound": ("lb", "lbs"),
    "gram": ("g", "gm", "gr", "gms"),
    "kilogram": ("kg", "kgs", "kilo"),
    "milliliter": ("ml", "millilitre", "mls"),
    "liter": ("l", "litre"),
    "pint": ("pt",),
    "quart": ("qt",),
    "gallon": ("gal",),
    "package": ("pkg", "pkt", "packages"),
    "piece": ("pc", "pcs"),
    "dozen": ("doz",),
    "pinch": (),
    "dash": (),
    "drop": (),
    "clove": (),
    "slice": (),
    "stick": (),
    "pat": (),
    "can": (),
    "jar": (),
    "bottle": (),
    "packet": (),
    "envelope": (),
    "container": (),
    "carton": (),
    "box": (),
    "bag": (),
    "bunch": (),
    "head": (),
    "stalk": (),
    "rib": (),
    "sprig": (),
    "leaf": ("leave",),
    "loaf": (),
    "ear": (),
    "wedge": (),
    "cube": (),
    "strip": (),
    "patty": (),
    "link": (),
    "bar": (),
    "square": (),
    "scoop": (),
    "serving": (),
    "fillet": ("filet",),
    "breast": (),
    "thigh": (),
    "drumstick": (),
    "wing": (),
    "liver": (),
    "steak": (),
    "chop": (),
    "roll": (),
    "sheet": (),
    "cracker": (),
    "cookie": (),
    "tortilla": (),
    "pita": (),
    "date": (),
    "olive": (),
    "pickle": (),
    "spear": (),
    "pod": (),
    "floweret": ("floret",),
    "shallot": (),
    "pepper": (),
    "carrot": (),
    "beet": (),
    "radish": (),
    "turnip": (),
    "apricot": (),
    "banana": (),
    "grape": (),
    "cherry": (),
    "strawberry": (),
    "lemon": (),
    "lime": (),
    "orange": (),
    "fruit": (),
    "avocado": (),
    "mango": (),
    "plum": (),
    "peach": (),
    "pear": (),
    "eggplant": (),
    "cucumber": (),
    "zucchini": (),
    "artichoke": (),
    "mushroom": (),
    "potato": (),
    "sweetpotato": (),
    "tomato": (),
    "onion": (),
    "leek": (),
    "chicken": (),
    "quesadilla": (),
    "pizza": (),
    "frankfurter": ("frank",),
    "sausage": (),
    "anchovy": (),
    "sardine": (),
    "shrimp": (),
    "egg": (),
    "block": (),
    "bean": (),
    "sprout": (),
    "marshmallow": (),
    "large": ("lg", "lge"),
    "medium": ("med",),
    "small": ("sm",),
    "extra large": ("xl",),
    "whole": (),
    "half": (),
    "quarter": (),
    "handful": (),
}

#: alias -> canonical (includes identity mappings).
_CANONICAL: dict[str, str] = {}
for canonical, aliases in ALIASES.items():
    key = canonical.replace(" ", "")
    _CANONICAL[key] = canonical
    _CANONICAL[canonical] = canonical
    for alias in aliases:
        _CANONICAL[alias] = canonical

#: The set of canonical unit names.
CANONICAL_UNITS: frozenset[str] = frozenset(ALIASES)

#: Sizes are "considered equivalent because of ambiguity between sizes"
#: (paper §II-C): small, medium and large interchange when resolving
#: portion gram weights.  A size the food has no portion for takes the
#: first of these the food does have.  The paper fixes no order;
#: medium, the middle size, comes first.
#: Iterate this tuple, never :data:`SIZE_UNITS`: a frozenset of strings
#: iterates in an order set by the process's ``PYTHONHASHSEED``, which
#: would make the picked portion differ from run to run.
SIZE_PREFERENCE: tuple[str, ...] = ("medium", "large", "small", "extra large")

#: The size units, for membership tests.
SIZE_UNITS: frozenset[str] = frozenset(SIZE_PREFERENCE)


def canonicalize_unit(cleaned: str) -> str | None:
    """Map a cleaned unit token to its canonical unit, or ``None``.

    *cleaned* must already be lemmatized/lower-cased (the output of
    :func:`repro.units.normalize.normalize_unit` pre-canonical step).

    >>> canonicalize_unit("tbsp")
    'tablespoon'
    >>> canonicalize_unit("lb")
    'pound'
    """
    return _CANONICAL.get(cleaned)
