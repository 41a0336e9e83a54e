"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


class TestEstimate:
    def test_estimates_recipe(self, capsys):
        code = main(["estimate", "--servings", "2",
                     "1 cup white sugar", "2 tbsp butter"])
        assert code == 0
        out = capsys.readouterr().out
        # Bare "sugar" resolves to "Sugars, brown" by SR index order
        # (19334 < 19335) — heuristic (i) verbatim; "white sugar"
        # disambiguates via term priority.
        assert "Sugars," in out
        assert "energy_kcal" in out

    def test_unmatched_shown(self, capsys):
        main(["estimate", "2 tsp garam masala"])
        assert "(unmatched)" in capsys.readouterr().out


class TestParse:
    def test_shows_tags_and_entities(self, capsys):
        code = main(["parse", "1 small onion , finely chopped"])
        assert code == 0
        out = capsys.readouterr().out
        assert "QUANTITY" in out and "SIZE" in out and "NAME" in out
        assert "name='onion'" in out


class TestMatch:
    def test_match_found(self, capsys):
        code = main(["match", "red lentils"])
        assert code == 0
        assert "Lentils, pink or red, raw" in capsys.readouterr().out

    def test_match_with_state(self, capsys):
        code = main(["match", "coriander", "--state", "ground"])
        assert code == 0
        assert "Coriander (cilantro) leaves, raw" in capsys.readouterr().out

    def test_unmatched_exit_code(self, capsys):
        assert main(["match", "garam masala"]) == 1
        assert "UNMATCHED" in capsys.readouterr().out

    def test_explain(self, capsys):
        code = main(["match", "apple", "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "winner: Apples, raw, with skin" in out
        assert "decided by" in out


class TestExplain:
    def test_explain_resolved_line(self, capsys):
        code = main(["explain", "2 cups all-purpose flour"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: status=matched reason=ner-unit" in out
        assert "winner:" in out
        assert "unit resolution chain" in out
        assert "trace: ner-unit:resolved" in out

    def test_explain_context_rescue(self, capsys):
        code = main([
            "explain", "1 head butter cup",
            "--context", "2 tablespoons butter",
            "--context", "1 tablespoon butter , melted",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "statistics from 2 context line(s)" in out
        assert "reason=corpus-frequent-unit" in out

    def test_explain_unresolved_exit_code(self, capsys):
        assert main(["explain", "2 teaspoons garam masala"]) == 1
        assert "no-description-match" in capsys.readouterr().out

    def test_explain_rejects_bad_top(self, capsys):
        assert main(["explain", "x", "--top", "-1"]) == 2
        assert "--top must be >= 0" in capsys.readouterr().out


class TestGenerate:
    def test_prints_recipes(self, capsys):
        code = main(["generate", "--recipes", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("# ") == 2

    def test_writes_jsonl(self, tmp_path, capsys):
        out_file = tmp_path / "c.jsonl"
        code = main(["generate", "--recipes", "3", "--out", str(out_file)])
        assert code == 0
        from repro.recipedb.corpus import load_recipes_jsonl

        assert len(load_recipes_jsonl(out_file)) == 3

    def test_seed_changes_corpus(self, capsys):
        main(["generate", "--recipes", "2", "--seed", "1"])
        first = capsys.readouterr().out
        main(["generate", "--recipes", "2", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestTables:
    def test_all_four_tables(self, capsys):
        code = main(["tables"])
        assert code == 0
        out = capsys.readouterr().out
        for marker in ("Table I", "Table II", "Table III", "Table IV",
                       "Butter, salted"):
            assert marker in out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestBatch:
    def test_batch_estimates_corpus(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        assert main(["generate", "--recipes", "4", "--out", str(path)]) == 0
        capsys.readouterr()
        code = main(["batch", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "kcal/serving" in out
        assert "4 recipes" in out and "lines/s" in out

    def test_batch_single_pass(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "2", "--out", str(path)])
        capsys.readouterr()
        assert main(["batch", str(path), "--passes", "1"]) == 0
        assert "1 pass(es)" in capsys.readouterr().out

    def test_batch_empty_corpus(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["batch", str(path)]) == 1
        assert "empty corpus" in capsys.readouterr().out

    def test_batch_rejects_bad_passes(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "2", "--out", str(path)])
        capsys.readouterr()
        assert main(["batch", str(path), "--passes", "0"]) == 2
        assert "--passes must be >= 1" in capsys.readouterr().out

    def test_batch_sharded_workers(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "6", "--out", str(path)])
        capsys.readouterr()
        assert main(["batch", str(path), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "6 recipes" in out
        assert "2 worker(s), two-phase corpus protocol" in out

    def test_batch_jsonl_streaming(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "5", "--out", str(path)])
        capsys.readouterr()
        assert main(["batch", str(path), "--jsonl"]) == 0
        out = capsys.readouterr().out
        assert "5 recipes" in out
        assert "1 worker(s), two-phase corpus protocol" in out

    def test_batch_modes_agree_per_recipe(self, tmp_path, capsys):
        """--workers/--jsonl change execution strategy, never results:
        all three modes run the same two-phase corpus protocol."""
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "5", "--out", str(path)])
        capsys.readouterr()
        main(["batch", str(path), "--jsonl"])
        streamed = capsys.readouterr().out.splitlines()
        main(["batch", str(path), "--workers", "2"])
        sharded = capsys.readouterr().out.splitlines()
        main(["batch", str(path)])
        classic = capsys.readouterr().out.splitlines()

        # identical per-recipe lines; the trailing summary differs by
        # mode (timing line, plus the engine modes' duplicate-collapse
        # accounting — absent from the in-process path).
        def recipe_lines(lines):
            return [line for line in lines if "kcal/serving" in line]

        assert (
            recipe_lines(streamed)
            == recipe_lines(sharded)
            == recipe_lines(classic)
        )
        assert len(recipe_lines(classic)) == 5

    def test_batch_engine_ignores_passes_with_notice(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "2", "--out", str(path)])
        capsys.readouterr()
        assert main(["batch", str(path), "--jsonl", "--passes", "3"]) == 0
        assert "--passes 3 is ignored" in capsys.readouterr().out

    def test_batch_reasons_breakdown(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "4", "--out", str(path)])
        capsys.readouterr()
        assert main(["batch", str(path), "--reasons"]) == 0
        out = capsys.readouterr().out
        assert "reason-code breakdown:" in out
        assert "unit gap (Figure 2" in out
        assert "resolved by:" in out

    def test_batch_reasons_identical_across_engine_modes(
        self, tmp_path, capsys
    ):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "5", "--out", str(path)])
        capsys.readouterr()
        main(["batch", str(path), "--reasons"])
        classic = capsys.readouterr().out
        main(["batch", str(path), "--reasons", "--workers", "2"])
        sharded = capsys.readouterr().out
        tail = "reason-code breakdown:"
        assert classic.split(tail)[1] == sharded.split(tail)[1]

    def test_batch_rejects_bad_workers(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "2", "--out", str(path)])
        capsys.readouterr()
        assert main(["batch", str(path), "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().out


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestTypedExits:
    """Bad input ends in a documented exit code and a one-line error,
    never a traceback: 2 for usage errors, 65 for a corpus line that is
    not a recipe."""

    @pytest.fixture()
    def bad_corpus(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "4", "--out", str(path)])
        capsys.readouterr()
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "{not json\n"
        path.write_text("".join(lines))
        return path

    def test_estimate_zero_servings_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["estimate", "--servings", "0", "1 cup flour"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--servings: must be an integer >= 1, got '0'" in err

    def test_estimate_zero_servings_subprocess(self):
        done = _run_cli("estimate", "--servings", "0", "1 cup flour")
        assert done.returncode == 2
        assert "usage:" in done.stderr
        assert "Traceback" not in done.stderr

    def test_batch_bad_line_is_data_error(self, bad_corpus, capsys):
        assert main(["batch", str(bad_corpus)]) == 65
        out = capsys.readouterr().out
        assert f"error: {bad_corpus}:3: not a valid recipe" in out
        assert "malformed-json" in out
        assert "kcal/serving" not in out

    def test_batch_bad_line_subprocess(self, bad_corpus):
        done = _run_cli("batch", str(bad_corpus))
        assert done.returncode == 65
        assert f"{bad_corpus}:3:" in done.stdout
        assert "Traceback" not in done.stderr


class TestServe:
    def test_serve_wires_config_through(self, monkeypatch):
        import repro.cli as cli

        captured = {}

        def fake_serve(config, ready_file=None):
            captured["config"] = config
            captured["ready_file"] = ready_file
            return 0

        monkeypatch.setattr(cli, "serve", fake_serve)
        code = main(["serve", "--port", "0", "--workers", "2",
                     "--cache-cap", "128", "--host", "0.0.0.0",
                     "--procs", "2"])
        assert code == 0
        config = captured["config"]
        assert config.host == "0.0.0.0"
        assert config.port == 0
        assert config.workers == 2
        assert config.cache_cap == 128
        assert config.procs == 2
        assert captured["ready_file"] is None

    def test_serve_defaults(self, monkeypatch):
        import repro.cli as cli
        from repro.service.state import DEFAULT_RESPONSE_CACHE_CAP

        captured = {}
        monkeypatch.setattr(
            cli, "serve",
            lambda config, ready_file=None: (
                captured.setdefault("c", config) and 0
            ),
        )
        main(["serve"])
        config = captured["c"]
        assert (config.host, config.port, config.workers) == (
            "127.0.0.1", 8080, 1)
        assert config.cache_cap == DEFAULT_RESPONSE_CACHE_CAP
        assert config.procs == 1

    def test_serve_rejects_bad_workers(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().out

    def test_serve_artifact_flag_lands_in_spec(self, monkeypatch,
                                               tmp_path):
        import repro.cli as cli
        from repro.artifacts import save_artifact
        from repro.core.estimator import NutritionEstimator

        path = tmp_path / "p.artifact"
        save_artifact(path, NutritionEstimator())
        captured = {}
        monkeypatch.setattr(
            cli, "serve",
            lambda config, ready_file=None: (
                captured.setdefault("c", config) and 0
            ),
        )
        main(["serve", "--artifact", str(path)])
        assert captured["c"].spec.artifact_path == str(path)

    def test_serve_corrupt_artifact_exits_typed(self, tmp_path, capsys):
        bad = tmp_path / "bad.artifact"
        bad.write_bytes(b"REPROART garbage")
        assert main(["serve", "--artifact", str(bad)]) == 2
        assert "error:" in capsys.readouterr().out


class TestBuildArtifact:
    def test_builds_loadable_artifact(self, tmp_path, capsys):
        from repro.artifacts import load_artifact

        path = tmp_path / "out.artifact"
        assert main(["build-artifact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "format v1" in out and "tagger=rule" in out
        assert load_artifact(path).meta["foods"] > 0

    def test_rejects_bad_training_args(self, tmp_path, capsys):
        path = str(tmp_path / "x.artifact")
        assert main(["build-artifact", path, "--tagger", "perceptron",
                     "--train-phrases", "0"]) == 2
        assert "--train-phrases must be >= 1" in capsys.readouterr().out
        assert main(["build-artifact", path, "--tagger", "perceptron",
                     "--epochs", "0"]) == 2
        assert "--epochs must be >= 1" in capsys.readouterr().out

    def test_help_epilog_mentions_new_subcommands(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "serve" in out
        assert "batch corpus.jsonl --workers 4 --jsonl" in out
