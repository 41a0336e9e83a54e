"""The corpus engine decodes every JSONL corpus line exactly once.

``ShardedCorpusEstimator`` reads a corpus in one traversal into a
compact per-recipe line-id table (distinct texts, one id per line
occurrence, per-recipe bounds and servings) and assembles recipe
estimates from that table, never from a second decode.  These tests
count calls to the per-line decoder, ``_recipe_from_line``, across
every engine configuration that reads a corpus: built from source and
restored from a build-once artifact, one and two workers, durable
runs and their resume, quarantine with a corrupted line and a
poisoned ingredient line, and the CLI (whose titles come from the
same traversal).
"""

from __future__ import annotations

import pytest

from repro import NutritionEstimator
from repro.artifacts import save_artifact
from repro.cli import main
from repro.core.resolution import REASON_ESTIMATOR_ERROR
from repro.deadletter import REASON_MALFORMED_JSON
from repro.pipeline import EstimatorSpec, ShardedCorpusEstimator
from repro.recipedb import corpus as corpus_module
from repro.recipedb.corpus import save_recipes_jsonl
from repro.recipedb.generator import GeneratorConfig, RecipeGenerator

N_RECIPES = 16

#: File line (1-based, blank lines included) the quarantine tests
#: corrupt; it holds the third recipe.
CORRUPT_LINE = 4


@pytest.fixture(scope="module")
def recipes():
    generated = RecipeGenerator(config=GeneratorConfig(seed=9)).generate(
        N_RECIPES
    )
    # Repeat half the corpus so dedup has duplicates to collapse.
    return generated + generated[: N_RECIPES // 2]


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory, recipes):
    """The corpus as JSONL, with a blank line after the second recipe
    (blank lines are skipped, never decoded)."""
    path = tmp_path_factory.mktemp("single-decode") / "corpus.jsonl"
    save_recipes_jsonl(recipes, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:2] + ["\n"] + lines[2:]), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def nonblank_lines(corpus_path):
    return sum(
        1 for line in corpus_path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("single-decode-artifact") / "p.artifact"
    save_artifact(path, NutritionEstimator())
    return str(path)


@pytest.fixture()
def decodes(monkeypatch):
    """Every line handed to the JSONL decoder during the test."""
    seen: list[str] = []
    decode = corpus_module._recipe_from_line

    def counting(line: str):
        seen.append(line)
        return decode(line)

    monkeypatch.setattr(corpus_module, "_recipe_from_line", counting)
    return seen


@pytest.fixture(scope="module")
def reference(recipes):
    return ShardedCorpusEstimator(workers=1).estimate_corpus(recipes)


def _poisoned_text(recipes) -> str:
    """The longest ingredient line the corpus repeats."""
    flat = [t for r in recipes for t in r.ingredient_texts]
    return max((t for t in set(flat) if flat.count(t) >= 2), key=len)


def _spec(artifact: bool, artifact_path: str) -> EstimatorSpec:
    """The engine's spec: restored from the artifact, or from source."""
    return EstimatorSpec(artifact_path=artifact_path if artifact else None)


def _read(engine, method: str, source):
    """Drive one corpus-reading engine entry point to completion."""
    if method == "iter_corpus_estimates":
        return list(engine.iter_corpus_estimates(source))
    return engine.corpus_diagnostics(source)


@pytest.mark.parametrize("method", ["iter_corpus_estimates", "corpus_diagnostics"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("artifact", [True, False])
class TestOneDecodePerLine:
    def test_plain_run(
        self, decodes, corpus_path, nonblank_lines, recipes, method,
        workers, artifact, artifact_path,
    ):
        expected = _read(ShardedCorpusEstimator(workers=1), method, recipes)
        decodes.clear()
        with ShardedCorpusEstimator(
            _spec(artifact, artifact_path), workers=workers, chunk_size=32
        ) as engine:
            assert _read(engine, method, str(corpus_path)) == expected
        assert len(decodes) == nonblank_lines

    def test_durable_run_and_resume(
        self, decodes, tmp_path, corpus_path, nonblank_lines, recipes,
        method, workers, artifact, artifact_path,
    ):
        expected = _read(ShardedCorpusEstimator(workers=1), method, recipes)
        decodes.clear()
        run_dir = tmp_path / "run"
        spec = _spec(artifact, artifact_path)
        with ShardedCorpusEstimator(
            spec, workers=workers, chunk_size=32, run_dir=run_dir
        ) as engine:
            assert _read(engine, method, str(corpus_path)) == expected
        assert len(decodes) == nonblank_lines
        decodes.clear()
        with ShardedCorpusEstimator(
            spec, workers=workers, chunk_size=32, run_dir=run_dir,
            resume=True,
        ) as engine:
            assert _read(engine, method, str(corpus_path)) == expected
            assert engine.last_report.resumed
            assert engine.last_report.executed_chunks == 0
        assert len(decodes) == nonblank_lines

    def test_quarantine_letters_keep_their_positions(
        self, monkeypatch, decodes, corpus_path, nonblank_lines, recipes,
        method, workers, artifact, artifact_path,
    ):
        poisoned = _poisoned_text(recipes)
        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"corrupt@ingest-line:{CORRUPT_LINE};"
            f"raise@estimate-line:{poisoned}",
        )
        survivors = recipes[:2] + recipes[3:]
        expected = _read(
            ShardedCorpusEstimator(workers=1, quarantine=True),
            method, survivors,
        )
        decodes.clear()
        with ShardedCorpusEstimator(
            _spec(artifact, artifact_path), workers=workers, chunk_size=32,
            quarantine=True,
        ) as engine:
            assert _read(engine, method, str(corpus_path)) == expected
            letters = engine.last_report.dead_letters.records
        assert len(decodes) == nonblank_lines

        ingest = [letter for letter in letters if letter.source == "ingest"]
        assert [(letter.line_no, letter.reason) for letter in ingest] == [
            (CORRUPT_LINE, REASON_MALFORMED_JSON)
        ]
        flat = [t for r in survivors for t in r.ingredient_texts]
        expected_positions = [i for i, t in enumerate(flat) if t == poisoned]
        assert len(expected_positions) >= 2
        estimate_side = [
            letter for letter in letters if letter.source == "estimate"
        ]
        assert [
            letter.line_no for letter in estimate_side
        ] == expected_positions
        assert {letter.reason for letter in estimate_side} == {
            REASON_ESTIMATOR_ERROR
        }


class TestInMemorySources:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_shot_generator_matches_list(
        self, recipes, reference, workers
    ):
        with ShardedCorpusEstimator(workers=workers, chunk_size=32) as engine:
            assert engine.estimate_corpus(r for r in recipes) == reference
            assert engine.corpus_diagnostics(
                r for r in recipes
            ) == engine.corpus_diagnostics(recipes)

    def test_titled_estimates_pair_titles_with_estimates(
        self, recipes, reference
    ):
        engine = ShardedCorpusEstimator(workers=1)
        pairs = list(engine.iter_titled_estimates(iter(recipes)))
        assert [title for title, _ in pairs] == [r.title for r in recipes]
        assert [estimate for _, estimate in pairs] == reference


class TestCliBatch:
    @pytest.mark.parametrize(
        "flags", [[], ["--workers", "2"], ["--strict"]]
    )
    def test_engine_branch_decodes_once(
        self, capsys, decodes, corpus_path, nonblank_lines, recipes, flags
    ):
        assert main(["batch", str(corpus_path), *flags]) == 0
        assert len(decodes) == nonblank_lines
        out = capsys.readouterr().out
        for recipe in recipes:
            assert recipe.title[:40] in out
