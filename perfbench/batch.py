"""The batch workloads: cold ``iter_corpus_estimates`` runs over JSONL.

Each run of the program is a fresh ``batch_child.py`` process, so
every run pays what a ``repro batch`` user pays: interpreter start,
imports, the artifact load and cold memo caches.  This side generates
the corpus, computes the reference once, starts the runs and checks
each run's per-recipe output against the reference.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from common import (
    HERE, WORK, child_env, generate_recipes, output_digest,
    paper_artifact, recipe_digest, sha256_file,
)

#: Per workload: corpus shape and engine shape (see NOTES.md for why).
WORKLOADS = {
    "batch_zipf": {
        "recipes": 12000, "line_reuse": 0.8,
        "workers": 1, "chunk_size": 512, "quarantine": False, "durable": False,
    },
    "batch_fresh": {
        "recipes": 4000, "line_reuse": 0.0,
        "workers": 2, "chunk_size": 256, "quarantine": True, "durable": True,
    },
}

#: A run of the program must never take this long.
CHILD_TIMEOUT_S = 150


def _reference(recipes, artifact: Path) -> list[str]:
    """Per-recipe digests of ``NutritionEstimator.estimate_corpus``."""
    from repro.pipeline import EstimatorSpec

    estimator = EstimatorSpec(artifact_path=str(artifact)).build()
    return [recipe_digest(e) for e in estimator.estimate_corpus(recipes)]


def _run_child(shape: dict, corpus: Path, artifact: Path, workdir: Path,
               index: int, *, trace: bool, accuracy: bool, trace_out: Path) -> dict:
    run_dir = workdir / f"run-{index}" if shape["durable"] else None
    config = {
        "corpus": str(corpus), "artifact": str(artifact),
        "workers": shape["workers"], "chunk_size": shape["chunk_size"],
        "quarantine": shape["quarantine"],
        "run_dir": str(run_dir) if run_dir else None,
        "trace": trace, "accuracy": accuracy, "trace_out": str(trace_out),
    }
    config_path = workdir / f"child-{index}.json"
    out_path = workdir / f"child-{index}.out.json"
    config_path.write_text(json.dumps(config))
    spawned = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "batch_child.py"), str(config_path), str(out_path)],
        env=child_env(), check=True, timeout=CHILD_TIMEOUT_S,
    )
    result = json.loads(out_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    if run_dir is not None:
        shutil.rmtree(run_dir)
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    shape = WORKLOADS[workload]
    recipes = generate_recipes(seed, shape["recipes"], shape["line_reuse"])
    corpus = workdir / "corpus.jsonl"
    from repro.recipedb.corpus import save_recipes_jsonl

    save_recipes_jsonl(recipes, corpus)
    artifact = paper_artifact()
    reference = _reference(recipes, artifact)
    del recipes

    trace_out = WORK / "traces" / f"{workload}.jsonl"
    runs: list[dict] = []
    traced: list[dict] = []
    # Untraced runs give the end-to-end numbers.  A traced run pairs
    # each traced run with an untraced one, so the difference is the
    # tracing overhead measured under the same conditions.  Another
    # round starts only if it should end within the measuring time.
    start = time.perf_counter()
    while True:
        index = len(runs) + len(traced)
        runs.append(_run_child(shape, corpus, artifact, workdir, index,
                               trace=False, accuracy=not runs, trace_out=trace_out))
        if trace:
            traced.append(_run_child(shape, corpus, artifact, workdir, index + 1,
                                     trace=True, accuracy=False, trace_out=trace_out))
        elapsed = time.perf_counter() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            break

    mismatched = 0
    for result in runs + traced:
        digests = result["digests"]
        mismatched += abs(len(digests) - len(reference)) + sum(
            a != b for a, b in zip(digests, reference)
        )
    attempted = sum(r["lines"] for r in runs + traced)
    failed = mismatched + sum(
        r["dead_letters"] + r["retries"] for r in runs + traced
    )
    first = runs[0]
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "record": {
            "timed_runs": f"{len(runs)} untraced" + (f", {len(traced)} traced" if trace else ""),
            "corpus_sha256": sha256_file(corpus),
            "output_digest": output_digest(first["digests"]),
            "reference_digest": output_digest(reference),
            "lines": first["lines"],
            "distinct_lines": first["distinct_lines"],
            "mismatched_recipes": mismatched,
            "lines_per_s_each": [round(r["lines"] / r["wall_s"]) for r in runs],
            "latency_p99_ms": round(median([r["latency_p99_ms"] for r in runs]), 3),
        },
        "metrics": {
            "setup_s": median([r["setup_s"] for r in runs]),
            "lines_per_s": median([r["lines"] / r["wall_s"] for r in runs]),
            "throughput_rps": median([r["recipes"] / r["wall_s"] for r in runs]),
            "latency_p50_ms": median([r["latency_p50_ms"] for r in runs]),
            "calorie_mae_kcal": first["calorie_mae_kcal"],
            "match_rate": first["match_rate"],
            "peak_rss_mb": median([r["rss_mb"] for r in runs]),
        },
    }
    if trace:
        result["layers"] = _layer_medians(runs, traced)
    return result


def _layer_medians(runs: list[dict], traced: list[dict]) -> dict:
    layers = {
        name: median([t["layers"][name] for t in traced])
        for name in traced[0]["layers"]
    }
    untraced_wall = median([r["wall_s"] for r in runs])
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_s"] = median([t["wall_s"] for t in traced]) - untraced_wall
    return layers
