"""Per-food unit -> gram resolution (paper §II-C and Table IV).

Given a matched :class:`~repro.usda.schema.FoodItem`, the resolver
answers "how many grams is 1 <unit> of this food?" by:

1. exact lookup among the food's SR portions (after normalization),
2. size equivalence — small/medium/large "were considered equivalent
   because of ambiguity between sizes",
3. direct mass arithmetic (gram/ounce/pound need no portion),
4. volume derivation — "For butter, the units 'cup' and 'tablespoon'
   are present, but 'teaspoon' is not.  Hence, we can add teaspoon as a
   unit since the ratio of volume of a cup and a teaspoon is constant",
5. countable fallback — a bare quantity ("2 eggs") uses the first
   countable portion of the food.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units.aliases import SIZE_PREFERENCE, SIZE_UNITS
from repro.units.conversions import MASS_GRAMS, VOLUME_ML, is_mass_unit, is_volume_unit
from repro.units.normalize import normalize_unit
from repro.usda.schema import FoodItem

#: How a gram weight was obtained; benchmark coverage reports group by
#: this (Figure 2's "main problem lies in matching the units").
METHOD_EXACT = "exact"
METHOD_SIZE = "size-equivalent"
METHOD_MASS = "mass"
METHOD_VOLUME = "volume-derived"
METHOD_COUNT = "countable"


@dataclass(frozen=True, slots=True)
class UnitResolution:
    """Result of resolving a unit for a food."""

    unit: str
    grams_per_unit: float
    method: str


# Units that denote "one piece of the food" when the phrase gives a bare
# count ("2 eggs", "1 onion").  Excludes measures (cup, tbsp, ...) and
# packagings resolved explicitly.
_NON_COUNTABLE: frozenset[str] = frozenset(VOLUME_ML) | frozenset(MASS_GRAMS) | {
    "package", "can", "jar", "bottle", "packet", "envelope", "container",
    "carton", "box", "bag",
}


class UnitResolver:
    """Resolve units to gram weights for one food item."""

    def __init__(self, food: FoodItem):
        self._food = food
        self._portion_grams: dict[str, float] = {}
        for portion in food.portions:
            unit = normalize_unit(portion.unit)
            if unit is None:
                continue
            # Keep the first (lowest-seq) portion per unit, mirroring
            # SR's own ordering of household measures.
            self._portion_grams.setdefault(unit, portion.grams_per_amount)

    @classmethod
    def from_parts(
        cls, food: FoodItem, portion_grams: dict[str, float]
    ) -> "UnitResolver":
        """Reconstruct a resolver from precomputed portion weights.

        *portion_grams* must be a prior :meth:`known_units` result for
        *food* — the artifact loader (:mod:`repro.artifacts`) stores
        one table per food so restored estimators skip the portion
        normalization pass.  Countable fallback still walks the food's
        portions at resolve time, exactly like a freshly built
        resolver.
        """
        resolver = cls.__new__(cls)
        resolver._food = food
        resolver._portion_grams = dict(portion_grams)
        return resolver

    @property
    def food(self) -> FoodItem:
        return self._food

    def known_units(self) -> dict[str, float]:
        """Canonical unit -> grams-per-unit from the food's portions."""
        return dict(self._portion_grams)

    def resolve(self, unit: str | None) -> UnitResolution | None:
        """Gram weight of 1 *unit* of this food, or ``None``.

        ``unit`` may be a raw string (it is normalized first) or
        ``None`` / "" / "whole", meaning a bare count of the food.
        """
        if unit is None or not unit.strip() or unit.strip().lower() in ("whole", "each"):
            return self._resolve_countable()
        canonical = normalize_unit(unit)
        if canonical is None:
            return None

        grams = self._portion_grams.get(canonical)
        if grams is not None:
            return UnitResolution(canonical, grams, METHOD_EXACT)

        if canonical in SIZE_UNITS:
            for alt in SIZE_PREFERENCE:
                grams = self._portion_grams.get(alt)
                if grams is not None:
                    return UnitResolution(canonical, grams, METHOD_SIZE)

        if is_mass_unit(canonical):
            return UnitResolution(canonical, MASS_GRAMS[canonical], METHOD_MASS)

        if is_volume_unit(canonical):
            derived = self._derive_volume(canonical)
            if derived is not None:
                return UnitResolution(canonical, derived, METHOD_VOLUME)

        if canonical == "half":
            base = self._resolve_countable()
            if base is not None:
                return UnitResolution("half", base.grams_per_unit / 2.0, METHOD_COUNT)
        if canonical == "quarter":
            base = self._resolve_countable()
            if base is not None:
                return UnitResolution("quarter", base.grams_per_unit / 4.0, METHOD_COUNT)

        return None

    def _derive_volume(self, unit: str) -> float | None:
        """Derive grams for a volume unit from any known volume portion.

        Density (g/ml) is constant for the food, so grams scale with
        the volume ratio.  Prefer the smallest known volume unit: SR
        rounds portion grams, and scaling a tablespoon down to a
        teaspoon loses less precision than scaling a cup down.
        """
        known_volumes = [
            (VOLUME_ML[u], u, grams)
            for u, grams in self._portion_grams.items()
            if is_volume_unit(u)
        ]
        if not known_volumes:
            return None
        _, base_unit, base_grams = min(known_volumes)
        return base_grams * VOLUME_ML[unit] / VOLUME_ML[base_unit]

    def _resolve_countable(self) -> UnitResolution | None:
        """Gram weight for "one of" the food (bare quantity).

        SR sequence order decides: the first countable portion is the
        conventional default piece ("large" for eggs, "medium" for
        onions), exactly as SR orders its household measures.
        """
        for portion in self._food.portions:
            unit = normalize_unit(portion.unit)
            if unit is None or unit in _NON_COUNTABLE:
                continue
            return UnitResolution(unit, portion.grams_per_amount, METHOD_COUNT)
        return None
