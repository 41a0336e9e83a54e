"""The benchmark's metric vocabulary and its layer map.

``END_TO_END`` and ``PER_LAYER`` list every metric ``run.py`` prints,
in ``BENCHMARK.json`` order, as ``(name, unit, better)``.  ``LAYER_MAP``
records, for each per-layer metric, the public call it is measured at
and which end-to-end metric it should move on which workload — written
down before measuring, so a change to one layer can be checked against
the prediction.  A layer a workload does not exercise reads 0 there.
"""

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("lines_per_s", "lines/s", "higher"),
    ("throughput_rps", "req/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("calorie_mae_kcal", "kcal/serving", "lower"),
    ("match_rate", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

#: name -> (unit, better, measured at, moves)
LAYER_MAP = {
    "artifacts.load_s": (
        "s", "lower", "load_artifact + ArtifactSnapshot.build_estimator",
        "setup_s, all"),
    "pipeline.pool_spawn_s": (
        "s", "lower", "ShardedCorpusEstimator.ensure_pool",
        "setup_s, batch_fresh"),
    "pipeline.engine_self_s": (
        "s", "lower",
        "iter_corpus_estimates span minus its children (intern, fan-out)",
        "lines_per_s, batch_zipf"),
    "pipeline.distinct_ratio": (
        "ratio", "lower", "last_report distinct_lines / total_lines",
        "lines_per_s, batch_*"),
    "pipeline.pool_wait_s": (
        "s", "lower", "coordinator blocked in SupervisedWorkerPool.run",
        "lines_per_s, batch_fresh"),
    "pipeline.wire_decode_s": (
        "s", "lower", "pipeline.wire.loads_estimates",
        "lines_per_s, batch_fresh"),
    "pipeline.wire_bytes": (
        "bytes", "lower", "pipeline.wire.loads_estimates input",
        "lines_per_s, batch_fresh"),
    "pipeline.retries": (
        "count", "lower", "RunReport retries + respawns",
        "failed share, batch_fresh"),
    "recipedb.ingest_s": (
        "s", "lower", "inside iter_recipes_jsonl iteration, both passes",
        "lines_per_s, batch_zipf"),
    "recipedb.ingest_bytes": (
        "bytes", "lower", "corpus file size x passes",
        "lines_per_s, batch_zipf"),
    "core.collect_s": (
        "s", "lower", "NutritionEstimator.corpus_collect_estimates",
        "lines_per_s, batch_*; latency_p50_ms, serve_stream"),
    "core.collect_lines": (
        "count", "lower", "lines handed to corpus_collect_estimates",
        "lines_per_s, batch_*"),
    "core.fallback_s": (
        "s", "lower", "NutritionEstimator.corpus_fallback_estimates",
        "lines_per_s, batch_fresh"),
    "core.fallback_upgrade_ratio": (
        "ratio", "higher", "name-only lines upgraded / lines re-estimated",
        "lines_per_s, batch_fresh"),
    "core.assemble_s": (
        "s", "lower", "NutritionEstimator.finish_recipe",
        "lines_per_s, batch_zipf"),
    "core.profile_sum_s": (
        "s", "lower", "NutritionalProfile.sum",
        "lines_per_s, batch_zipf"),
    "core.parse_cache_hit_ratio": (
        "ratio", "higher", "parse_cache_stats() deltas over the passes",
        "lines_per_s, batch_fresh"),
    "text.tokenize_s": (
        "s", "lower", "tokenize_fast (columnar stage)",
        "lines_per_s, batch_fresh"),
    "ner.tag_s": (
        "s", "lower", "tagger predict_batch / predict",
        "lines_per_s, batch_fresh"),
    "matching.match_s": (
        "s", "lower", "DescriptionMatcher.match_chunk / match",
        "lines_per_s, batch_fresh"),
    "matching.match_calls": (
        "count", "lower", "DescriptionMatcher.match calls",
        "lines_per_s, batch_fresh"),
    "matching.cache_hit_ratio": (
        "ratio", "higher", "matcher cache_stats() deltas over the passes",
        "lines_per_s, batch_fresh"),
    "units.resolve_s": (
        "s", "lower", "UnitResolver.resolve", "lines_per_s, batch_fresh"),
    "units.merge_s": (
        "s", "lower", "UnitFallback.merge", "lines_per_s, batch_fresh"),
    "runs.journal_append_s": (
        "s", "lower",
        "DurableRun.record_collect / record_fallback / record_checkpoint",
        "lines_per_s, batch_fresh"),
    "runs.journal_bytes": (
        "bytes", "lower", "journal.bin size after the run",
        "lines_per_s, batch_fresh"),
    "service.decode_s": (
        "s", "lower", "json.loads + codec.validate_estimate (replay)",
        "latency_p50_ms, serve_stream"),
    "service.dispatch_s": (
        "s", "lower", "handlers.dispatch minus its children (replay)",
        "latency_p50_ms, serve_stream"),
    "service.estimate_s": (
        "s", "lower", "ServiceState.estimate minus its children (replay)",
        "latency_p50_ms, serve_stream"),
    "service.serialize_s": (
        "s", "lower",
        "codec.dumps_ingredient_fragment + assemble_recipe_estimate_bytes",
        "latency_p50_ms, serve_stream"),
    "service.server_p50_ms": (
        "ms", "lower", "/v1/estimate p50 from the server's /metrics",
        "latency_p50_ms, serve_stream"),
    "service.wait_p50_ms": (
        "ms", "lower", "client p50 - server p50 (HTTP, event loop, queue)",
        "throughput_rps and printed p99, serve_stream"),
    "service.cache.response_hit_ratio": (
        "ratio", "higher", "/metrics caches.response",
        "latency_p50_ms, serve_stream"),
    "service.cache.fragment_hit_ratio": (
        "ratio", "higher", "/metrics caches.fragment",
        "latency_p50_ms, serve_stream"),
    "service.cache.parse_hit_ratio": (
        "ratio", "higher", "/metrics caches.parse",
        "latency_p50_ms, serve_stream"),
    "service.cache.matcher_hit_ratio": (
        "ratio", "higher", "/metrics caches.matcher",
        "latency_p50_ms, serve_stream"),
    "service.shed": (
        "count", "lower", "/metrics resilience: shed + deadline_exceeded",
        "failed share, serve_stream"),
    "loadgen.late_p99_ms": (
        "ms", "lower", "send time - due time, open-loop phase",
        "validity of the serve_stream latencies"),
    "trace.overhead_s": (
        "s", "lower", "traced wall - untraced wall, same run",
        "validity of every layer time"),
    "trace.self_sum_s": (
        "s", "lower", "sum of layer self times in the traced run",
        "accounts for trace.untraced_wall_s + trace.overhead_s"),
    "trace.untraced_wall_s": (
        "s", "lower", "untraced timed region of the same run",
        "lines_per_s (batch) / replay time (serve)"),
}

PER_LAYER = [(name, unit, better) for name, (unit, better, _, _) in LAYER_MAP.items()]

#: Span name -> the per-layer self-time metric it feeds.
SPAN_METRICS = {
    "artifacts.load": "artifacts.load_s",
    "pipeline.pool_spawn": "pipeline.pool_spawn_s",
    "pipeline.engine": "pipeline.engine_self_s",
    "pipeline.pool_wait": "pipeline.pool_wait_s",
    "pipeline.wire_decode": "pipeline.wire_decode_s",
    "recipedb.ingest": "recipedb.ingest_s",
    "core.collect": "core.collect_s",
    "core.fallback": "core.fallback_s",
    "core.assemble": "core.assemble_s",
    "core.profile_sum": "core.profile_sum_s",
    "text.tokenize": "text.tokenize_s",
    "ner.tag": "ner.tag_s",
    "matching.match": "matching.match_s",
    "units.resolve": "units.resolve_s",
    "units.merge": "units.merge_s",
    "runs.journal_append": "runs.journal_append_s",
    "service.decode": "service.decode_s",
    "service.dispatch": "service.dispatch_s",
    "service.estimate": "service.estimate_s",
    "service.serialize": "service.serialize_s",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from merged span self times and counters.

    Every per-layer name appears; the caller fills the ones that do
    not come from spans (retries, journal bytes, /metrics, trace.*).
    """
    metrics = dict.fromkeys(LAYER_MAP, 0.0)
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = totals.get(span, 0.0)
    for name in ("pipeline.wire_bytes", "recipedb.ingest_bytes",
                 "core.collect_lines", "matching.match_calls"):
        metrics[name] = totals.get(name, 0.0)
    metrics["core.fallback_upgrade_ratio"] = _ratio(
        totals.get("core.fallback_upgraded", 0.0),
        totals.get("core.fallback_lines", 0.0),
    )
    for metric, prefix in (("core.parse_cache_hit_ratio", "core.parse"),
                           ("matching.cache_hit_ratio", "matching.cache")):
        hits = totals.get(prefix + "_hits", 0.0)
        metrics[metric] = _ratio(hits, hits + totals.get(prefix + "_misses", 0.0))
    return metrics
