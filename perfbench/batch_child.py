"""One cold batch run: the process under test for the batch workloads.

``run.py`` starts a fresh interpreter per run, because a ``repro
batch`` user does: module-level memos, the estimator's parse and
matcher caches and the worker pool all start cold.  The process sees
only the generated JSONL file and the artifact.

Usage (``run.py`` does this)::

    python3 perfbench/batch_child.py CONFIG_JSON OUT_JSON

It prints nothing; everything it measured goes to ``OUT_JSON``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(config_path: str, out_path: str) -> None:
    config = json.loads(Path(config_path).read_text())
    tracer = None
    if config["trace"]:
        import tracing

        tracer = tracing.Tracer(tracing.SLOTS)
        tracing.install(tracer)
        tracer.run_id = "setup"

    from repro.pipeline import EstimatorSpec, ShardedCorpusEstimator

    engine = ShardedCorpusEstimator(
        EstimatorSpec(artifact_path=config["artifact"]),
        workers=config["workers"],
        chunk_size=config["chunk_size"],
        quarantine=config["quarantine"],
        run_dir=config["run_dir"],
    )
    if config["workers"] > 1:
        engine.ensure_pool()
    else:
        # An empty table forces the lazily built in-process estimator,
        # so set-up covers the artifact load a user pays before the
        # first line, as it does for the pooled engine.
        engine.estimate_table({})
    ready = time.monotonic()

    try:
        if tracer is not None:
            tracer.run_id = "run"
            root = tracer.begin("bench.run")
        estimates = []
        stamps = []
        start = time.perf_counter()
        for estimate in engine.iter_corpus_estimates(config["corpus"]):
            estimates.append(estimate)
            stamps.append(time.perf_counter())
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
    finally:
        engine.close()

    from common import percentile, recipe_digest, vm_hwm_mb

    rss_mb = vm_hwm_mb()
    report = engine.last_report
    since_start = [(t - start) * 1000.0 for t in stamps]
    result = {
        "ready": ready,
        "wall_s": wall,
        "lines": report.total_lines,
        "distinct_lines": report.distinct_lines,
        "recipes": len(estimates),
        "latency_p50_ms": percentile(since_start, 0.50),
        "latency_p99_ms": percentile(since_start, 0.99),
        "dead_letters": len(report.dead_letters),
        "retries": report.retries,
        "respawns": report.respawns,
        "rss_mb": rss_mb,
        "digests": [recipe_digest(e) for e in estimates],
    }

    if config["accuracy"]:
        from repro.eval.gold import select_evaluation_recipes
        from repro.eval.metrics import calorie_error_report, unique_ingredient_match_rate
        from repro.recipedb.corpus import load_recipes_jsonl

        recipes = load_recipes_jsonl(config["corpus"])
        pairs = select_evaluation_recipes(recipes, estimates)
        result["calorie_mae_kcal"] = calorie_error_report(pairs)[0].mean_abs_error
        result["match_rate"] = unique_ingredient_match_rate(estimates)[2]

    if tracer is not None:
        result["layers"] = _layers(tracer, config, report)
        tracer.dump(Path(config["trace_out"]))

    Path(out_path).write_text(json.dumps(result))


def _layers(tracer, config, report) -> dict:
    from layers import layer_metrics
    totals = tracer.totals()
    for name, value in tracer.worker_totals().items():
        totals[name] = totals.get(name, 0.0) + value
    metrics = layer_metrics(totals)
    metrics["pipeline.distinct_ratio"] = report.distinct_lines / report.total_lines
    metrics["pipeline.retries"] = report.retries + report.respawns
    if config["run_dir"] is not None:
        journal = Path(config["run_dir"]) / "journal.bin"
        metrics["runs.journal_bytes"] = journal.stat().st_size
    metrics["trace.self_sum_s"] = sum(tracer.self_times("run").values())
    return metrics


if __name__ == "__main__":
    main(*sys.argv[1:])
