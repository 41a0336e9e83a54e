"""Reference implementations the differential suites compare against.

The package runs one path per decision: every corpus pass goes through
the columnar batch pipeline (:mod:`repro.core.columnar`), and every
corpus run collapses duplicate ingredient lines before estimating
them.  The simpler paths those speed-ups replaced live here, outside
the package, as the oracles that pin them:

* **per-line** — each line walks tokenize → tag → match → unit chain
  on its own through :meth:`NutritionEstimator._estimate_line`, with
  fault-injected poison applied line by line
  (:func:`collect_per_line`, :func:`fallback_per_line`,
  :func:`table_per_line`);
* **per-occurrence** — every ingredient-line occurrence of a corpus is
  estimated as its own ``(text, 1)`` entry, with no interning
  (:func:`estimate_corpus_per_occurrence`).  Its quarantined lines
  dead-letter once per occurrence at their corpus position, the
  numbering the engine restores from its distinct-line table;
* **per-position features** — the NER feature templates written out
  for one position at a time (:func:`token_features_reference`), the
  definition :mod:`repro.ner.features` restates as per-token parts.

``tests/test_columnar_parity.py``, ``tests/test_dedup_parity.py``,
``tests/test_ner_token_parts.py`` and ``benchmarks/bench_throughput.py``
import these.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro import faults
from repro.core.estimator import (
    STATUS_FULL,
    STATUS_NAME_ONLY,
    IngredientEstimate,
    NutritionEstimator,
    RecipeEstimate,
    quarantined_estimate,
)
from repro.core.resolution import REASON_ESTIMATOR_ERROR
from repro.deadletter import DeadLetterLog
from repro.ner.features import (
    DF_WORDS,
    SIZE_WORDS,
    STATE_WORDS,
    TEMP_WORDS,
    UNIT_WORDS,
    word_shape,
)
from repro.recipedb.model import Recipe
from repro.service import codec
from repro.units.fallback import UnitFallback, snapshot_digest

Table = dict[str, IngredientEstimate]


def collect_per_line(
    estimator: NutritionEstimator,
    items: Sequence[tuple[str, int]],
    *,
    quarantine: DeadLetterLog | None = None,
    ordinal_base: int = 0,
) -> tuple[Table, dict[str, dict[str, int]]]:
    """Per-line reference for ``corpus_collect_estimates``."""
    plan = faults.active_plan()
    observations = UnitFallback(estimator.fallback.max_grams)
    estimates: Table = {}
    for i, (text, count) in enumerate(items):
        try:
            if plan is not None:
                plan.poison(text)
            estimate = estimator._estimate_line(text, consult_fallback=False)
        except Exception as exc:
            if quarantine is None:
                raise
            estimate = quarantined_estimate(text, exc)
            quarantine.add(
                "estimate", ordinal_base + i, text,
                REASON_ESTIMATOR_ERROR, repr(exc),
            )
        estimates[text] = estimate
        if estimate.status == STATUS_FULL:
            observations.observe(
                estimate.parsed.name, estimate.resolution.unit, count
            )
    return estimates, observations.snapshot()


def fallback_per_line(
    estimator: NutritionEstimator,
    texts: Iterable[str],
    *,
    quarantine: DeadLetterLog | None = None,
    ordinals: dict[str, int] | None = None,
) -> Table:
    """Per-line reference for ``corpus_fallback_estimates``."""
    plan = faults.active_plan()
    estimates: Table = {}
    for text in texts:
        try:
            if plan is not None:
                plan.poison(text)
            estimates[text] = estimator._estimate_line(
                text, consult_fallback=True
            )
        except Exception as exc:
            if quarantine is None:
                raise
            quarantine.add(
                "estimate", (ordinals or {}).get(text, -1), text,
                REASON_ESTIMATOR_ERROR, repr(exc),
            )
    return estimates


def table_per_line(
    estimator: NutritionEstimator,
    counts: dict[str, int] | Sequence[tuple[str, int]],
    *,
    quarantine: DeadLetterLog | None = None,
) -> Table:
    """Per-line reference for ``corpus_estimate_table``: collect,
    install the merged statistics, re-estimate the name-only lines."""
    items = list(counts.items()) if isinstance(counts, dict) else list(counts)
    estimates, observations = collect_per_line(
        estimator, items, quarantine=quarantine
    )
    estimator.fallback.clear()
    estimator.fallback.merge(observations)
    ordinals: dict[str, int] = {}
    for i, (text, _) in enumerate(items):
        ordinals.setdefault(text, i)
    pending = [
        text
        for text, estimate in estimates.items()
        if estimate.status == STATUS_NAME_ONLY
    ]
    estimates.update(
        fallback_per_line(
            estimator, pending, quarantine=quarantine, ordinals=ordinals
        )
    )
    return estimates


@dataclass
class OracleRun:
    """What a per-occurrence oracle run produced."""

    #: One estimate per recipe, in corpus order.
    estimates: list[RecipeEstimate]
    #: Estimate-side dead letters, one per poisoned occurrence.
    dead_letters: DeadLetterLog
    #: Digest of the frozen phase-boundary unit table.
    stats_digest: str


def estimate_corpus_per_occurrence(
    recipes: Sequence[Recipe],
    *,
    estimator: NutritionEstimator | None = None,
    quarantine: bool = False,
    table: Callable[..., Table] = table_per_line,
) -> OracleRun:
    """Estimate every ingredient-line occurrence on its own.

    *table* runs the two-phase protocol over the ``(text, 1)`` entry
    list; the default is the per-line reference, so the run is an
    oracle for both decisions at once.  Passing
    ``NutritionEstimator.corpus_estimate_table`` keeps the columnar
    driver and drops only duplicate collapse (what the throughput
    bench measures collapse against).
    """
    estimator = estimator or NutritionEstimator()
    letters = DeadLetterLog()
    lines = [(text, 1) for recipe in recipes for text in recipe.ingredient_texts]
    final = table(estimator, lines, quarantine=letters if quarantine else None)
    estimates = [
        NutritionEstimator.finish_recipe(
            [final[text] for text in recipe.ingredient_texts],
            recipe.servings,
        )
        for recipe in recipes
    ]
    return OracleRun(
        estimates, letters, snapshot_digest(estimator.fallback.snapshot())
    )


def recipe_response_bytes(estimate: RecipeEstimate) -> bytes:
    """``/v1/estimate`` body, serialized whole (no fragment cache)."""
    return codec.dumps_body(codec.encode_recipe_estimate(estimate))


def batch_response_bytes(estimates: Sequence[RecipeEstimate]) -> bytes:
    """``/v1/estimate_batch`` body, serialized whole."""
    return codec.dumps_body({
        "count": len(estimates),
        "recipes": [codec.encode_recipe_estimate(e) for e in estimates],
    })


# ----------------------------------------------------------------------
# per-position NER features

_NUM_RE = re.compile(r"^\d+(\.\d+)?$")
_FRACTION_RE = re.compile(r"^\d+/\d+$")


def token_features_reference(
    tokens: Sequence[str], i: int
) -> list[str]:
    """Reference for ``repro.ner.features.token_features``: every
    template of position *i*, in template order, read off the
    sequence directly."""
    shapes = [word_shape(t) for t in tokens]
    token = tokens[i]
    lower = token.lower()
    feats = [
        f"w={lower}",
        f"shape={shapes[i]}",
        f"suf2={lower[-2:]}",
        f"suf3={lower[-3:]}",
        f"pre2={lower[:2]}",
        f"pre3={lower[:3]}",
    ]
    if _NUM_RE.match(token):
        feats.append("is_number")
    if _FRACTION_RE.match(token):
        feats.append("is_fraction")
    if not any(c.isalnum() for c in token):
        feats.append("is_punct")
    if "-" in token:
        feats.append("has_hyphen")
    if lower in UNIT_WORDS:
        feats.append("lex=unit")
    if lower in SIZE_WORDS:
        feats.append("lex=size")
    if lower in TEMP_WORDS:
        feats.append("lex=temp")
    if lower in DF_WORDS:
        feats.append("lex=df")
    if lower in STATE_WORDS:
        feats.append("lex=state")
    if lower.endswith("ed"):
        feats.append("suffix_ed")
    if lower.endswith("ing"):
        feats.append("suffix_ing")
    if lower.endswith("ly"):
        feats.append("suffix_ly")
    if i == 0:
        feats.append("BOS")
    else:
        prev = tokens[i - 1].lower()
        feats.append(f"w-1={prev}")
        feats.append(f"shape-1={shapes[i - 1]}")
        if prev in UNIT_WORDS:
            feats.append("prev_lex=unit")
        if _NUM_RE.match(tokens[i - 1]) or _FRACTION_RE.match(tokens[i - 1]):
            feats.append("prev_is_number")
    if i == len(tokens) - 1:
        feats.append("EOS")
    else:
        nxt = tokens[i + 1].lower()
        feats.append(f"w+1={nxt}")
        if nxt in UNIT_WORDS:
            feats.append("next_lex=unit")
    if i >= 2:
        feats.append(f"w-2={tokens[i - 2].lower()}")
    if i + 2 < len(tokens):
        feats.append(f"w+2={tokens[i + 2].lower()}")
    return feats
