"""Spans around the program's public calls, recorded from outside.

Nothing under ``src/`` knows about tracing: :func:`install` replaces
public functions and methods with wrappers that open a span, call the
original and close the span.  Spans live in memory and are written
out once, when the run ends.

A span is ``[name, start, end, parent, run_id]``.  A layer's *self
time* is its span minus the part its child spans cover; because the
process is single-threaded, children nest inside their parent, so the
self times of one tree add up to its root span.

Pool workers are forked after :func:`install`, so they inherit the
wrappers.  A worker cannot hand its span list back, so it folds its
spans into per-name self-time totals whenever its outermost span ends
and adds them, with its counters, to one shared array under a lock.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

perf = time.perf_counter


class Tracer:
    """In-memory span recorder with a fork-shared total for workers.

    Spans are columns of flat arrays, not one object each: a traced
    run holds ~10^5 spans, and that many small containers would make
    the garbage collector, not the wrappers, the tracing overhead.
    """

    def __init__(self, slots: list[str]):
        self.counts: Counter[str] = Counter()
        self.run_id = ""
        self._in_worker = False
        self._slot = {name: i for i, name in enumerate(slots)}
        self._shared = multiprocessing.RawArray("d", len(slots))
        self._lock = multiprocessing.Lock()
        self._clear()
        os.register_at_fork(after_in_child=self._forked)

    def _clear(self) -> None:
        self.names: list[str] = []
        self.run_ids: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[int] = []

    def _forked(self) -> None:
        self._in_worker = True
        self.counts = Counter()
        self._clear()

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.run_ids.append(self.run_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf()
        self._stack.pop()
        if self._in_worker and not self._stack:
            self._flush()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def _flush(self) -> None:
        totals = self.totals()
        with self._lock:
            for name, value in totals.items():
                self._shared[self._slot[name]] += value
        self.counts = Counter()
        self._clear()

    def worker_totals(self) -> dict[str, float]:
        """What forked workers added (self seconds per span name, and
        counters), keyed like :meth:`totals`."""
        with self._lock:
            return {
                name: self._shared[i]
                for name, i in self._slot.items()
                if self._shared[i]
            }

    def self_times(self, run_id: str | None = None) -> defaultdict[str, float]:
        """Per-name sum of span duration minus the duration of its
        children, over every span or only those of *run_id*."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                covered[parent] += duration
        totals: defaultdict[str, float] = defaultdict(float)
        for name, rid, duration, inner in zip(
            self.names, self.run_ids, durations, covered
        ):
            if run_id is None or rid == run_id:
                totals[name] += duration - inner
        return totals

    def totals(self) -> dict[str, float]:
        """This process's self seconds per span name plus its counters."""
        totals = self.self_times()
        totals.update(self.counts)
        return dict(totals)

    def dump(self, path: Path) -> None:
        """Write every span of this process once, as JSON lines:
        ``[name, start, end, parent, run_id]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents,
                            self.run_ids):
                fh.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# wrappers


def wrap(tracer: Tracer, name: str, fn, after=None):
    """*fn* under a span named *name*; *after* sees args and result."""
    def traced(*args, **kwargs):
        # Counters are taken before the span closes: a worker flushes
        # its totals when its outermost span ends.
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
        finally:
            tracer.end(index)
        return result

    traced.__wrapped__ = fn
    return traced


def _each_next(tracer: Tracer, name: str, iterable):
    """Yield from *iterable*, one span per ``next`` (time blocked in it)."""
    iterator = iter(iterable)
    while True:
        index = tracer.begin(name)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            tracer.end(index)
        yield item


def _whole(tracer: Tracer, name: str, iterable):
    """Yield from *iterable* under one span, first ``next`` to the end."""
    index = tracer.begin(name)
    try:
        yield from iterable
    finally:
        tracer.end(index)


def patch_function(tracer: Tracer, module, attr: str, name: str, after=None):
    setattr(module, attr, wrap(tracer, name, getattr(module, attr), after))


def patch_method(tracer: Tracer, cls, attr: str, name: str, after=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(wrap(tracer, name, raw.__func__, after)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(tracer, name, raw.__func__, after)))
    else:
        setattr(cls, attr, wrap(tracer, name, raw, after))


def patch_generator(tracer: Tracer, owner, attr: str, name: str, whole: bool):
    """Wrap a callable returning an iterator: one span over the whole
    iteration (*whole*) or one per ``next``."""
    fn = getattr(owner, attr)
    iterate = _whole if whole else _each_next

    def traced(*args, **kwargs):
        return iterate(tracer, name, fn(*args, **kwargs))

    setattr(owner, attr, traced)


def _estimator_pass(tracer: Tracer, cls, attr: str, name: str, fallback: bool):
    """Wrap a corpus pass: span, line count, parse/matcher cache hits
    and misses it added and, for the fallback pass, how many lines it
    upgraded."""
    from repro.core.estimator import STATUS_FULL

    fn = cls.__dict__[attr]

    def traced(self, items, *args, **kwargs):
        items = items if isinstance(items, list) else list(items)
        caches = {
            "core.parse": self.parse_cache_stats,
            "matching.cache": self.matcher.cache_stats,
        }
        before = {prefix: stats() for prefix, stats in caches.items()}
        index = tracer.begin(name)
        try:
            result = fn(self, items, *args, **kwargs)
            for prefix, stats in caches.items():
                after = stats()
                for key in ("hits", "misses"):
                    tracer.count(f"{prefix}_{key}", after[key] - before[prefix][key])
            tracer.count(name + "_lines", len(items))
            if fallback:
                tracer.count(
                    "core.fallback_upgraded",
                    sum(1 for e in result.values() if e.status == STATUS_FULL),
                )
        finally:
            tracer.end(index)
        return result

    setattr(cls, attr, traced)


def install(tracer: Tracer, *, service: bool = False) -> None:
    """Wrap the public calls of every layer the benchmark times."""
    import repro.artifacts
    from repro.artifacts.store import ArtifactSnapshot
    from repro.core import columnar
    from repro.core.estimator import NutritionEstimator
    from repro.core.profile import NutritionalProfile
    from repro.matching.matcher import DescriptionMatcher
    from repro.ner.perceptron import AveragedPerceptronTagger
    from repro.ner.rule_tagger import RuleBasedTagger
    from repro.pipeline import engine
    from repro.pipeline.supervisor import SupervisedWorkerPool
    from repro.runs.store import DurableRun
    from repro.units.fallback import UnitFallback
    from repro.units.gram_weights import UnitResolver

    patch_function(tracer, repro.artifacts, "load_artifact", "artifacts.load")
    patch_method(tracer, ArtifactSnapshot, "build_estimator", "artifacts.load")
    patch_method(
        tracer, engine.ShardedCorpusEstimator, "ensure_pool",
        "pipeline.pool_spawn",
    )
    patch_generator(
        tracer, engine.ShardedCorpusEstimator, "iter_corpus_estimates",
        "pipeline.engine", whole=True,
    )
    patch_generator(
        tracer, SupervisedWorkerPool, "run", "pipeline.pool_wait", whole=False
    )
    patch_function(
        tracer, engine, "loads_estimates", "pipeline.wire_decode",
        after=lambda args, _kw, _r: tracer.count(
            "pipeline.wire_bytes", len(args[0])
        ),
    )

    ingest = engine.iter_recipes_jsonl

    def traced_ingest(path, *args, **kwargs):
        tracer.count("recipedb.ingest_bytes", os.path.getsize(path))
        return _each_next(
            tracer, "recipedb.ingest", ingest(path, *args, **kwargs)
        )

    engine.iter_recipes_jsonl = traced_ingest

    _estimator_pass(
        tracer, NutritionEstimator, "corpus_collect_estimates",
        "core.collect", fallback=False,
    )
    _estimator_pass(
        tracer, NutritionEstimator, "corpus_fallback_estimates",
        "core.fallback", fallback=True,
    )
    patch_method(tracer, NutritionEstimator, "finish_recipe", "core.assemble")
    patch_method(tracer, NutritionalProfile, "sum", "core.profile_sum")
    patch_function(tracer, columnar, "tokenize_fast", "text.tokenize")
    for tagger in (AveragedPerceptronTagger, RuleBasedTagger):
        patch_method(tracer, tagger, "predict", "ner.tag")
        patch_method(tracer, tagger, "predict_batch", "ner.tag")
    patch_method(tracer, DescriptionMatcher, "match_chunk", "matching.match")
    patch_method(
        tracer, DescriptionMatcher, "match", "matching.match",
        after=lambda *_: tracer.count("matching.match_calls"),
    )
    patch_method(tracer, UnitResolver, "resolve", "units.resolve")
    patch_method(tracer, UnitFallback, "merge", "units.merge")
    for attr in ("record_collect", "record_fallback", "record_checkpoint"):
        patch_method(tracer, DurableRun, attr, "runs.journal_append")

    if service:
        from repro.service import codec, handlers
        from repro.service.state import ServiceState

        patch_method(tracer, ServiceState, "estimate", "service.estimate")
        for attr in ("dumps_ingredient_fragment", "assemble_recipe_estimate_bytes"):
            patch_function(tracer, codec, attr, "service.serialize")
        # The routing table holds the validator itself, not its name.
        route = ("POST", "/v1/estimate")
        endpoint = handlers.ENDPOINTS[route]
        handlers.ENDPOINTS[route] = dataclasses.replace(
            endpoint, validate=wrap(tracer, "service.decode", endpoint.validate)
        )


#: Every span name and counter a run can produce (the shared-array
#: vocabulary; a name missing here fails loudly at the first flush).
SLOTS = [
    "artifacts.load", "pipeline.pool_spawn", "pipeline.engine",
    "pipeline.pool_wait", "pipeline.wire_decode", "pipeline.wire_bytes",
    "recipedb.ingest", "recipedb.ingest_bytes",
    "core.collect", "core.collect_lines", "core.fallback",
    "core.fallback_lines", "core.fallback_upgraded", "core.assemble",
    "core.profile_sum", "core.parse_hits", "core.parse_misses",
    "text.tokenize", "ner.tag", "matching.match", "matching.match_calls",
    "matching.cache_hits", "matching.cache_misses",
    "units.resolve", "units.merge", "runs.journal_append",
    "service.request", "service.decode", "service.dispatch",
    "service.estimate", "service.serialize", "bench.run",
]
