"""The sharded corpus estimation coordinator.

Distributes the two-phase corpus protocol of
:meth:`NutritionEstimator.estimate_corpus` across a supervised
process pool:

1. **Collect (sharded)** — the coordinator decodes the corpus exactly
   once into a compact per-recipe line-id table (:class:`CorpusTable`:
   distinct ingredient lines in first-occurrence order, one
   distinct-line id per occurrence, per-recipe bounds and servings),
   then fans chunks of ``(text, count)`` out to workers.  Each worker
   estimates its chunk without the corpus fallback and returns
   compact wire estimates plus a mergeable unit-observation snapshot.
2. **Merge** — snapshots merge in chunk order
   (:meth:`UnitFallback.merge`), reproducing the exact table — counts
   *and* ``most_common`` tie-break order — a single process builds.
3. **Re-estimate (sharded)** — only lines that matched a description
   but failed unit resolution go back to the pool, which re-estimates
   them against the frozen merged table.
4. **Assemble** — the coordinator walks the line-id table recipe by
   recipe, without decoding the corpus again, and aggregates
   per-recipe results with the same float-operation order as the
   single-process path.

Every per-line outcome depends only on the line text and the merged
table — never on processing order — so the result is **bit-identical**
to ``NutritionEstimator.estimate_corpus`` regardless of worker count,
chunk size or scheduling (``tests/test_pipeline_parallel.py``).

**Fault tolerance** (ISSUE 6): the pool is a
:class:`~repro.pipeline.supervisor.SupervisedWorkerPool` — a worker
that crashes or hangs mid-chunk is detected (liveness + chunk
deadline), respawned from the spec (instant with an artifact-backed
spec), and its chunk retried on a healthy worker with a bounded
budget; because chunk results are pure functions of chunk content,
recovery preserves the bit-identical merge.  With ``quarantine=True``
malformed corpus lines and estimator-raising ingredient lines are
diverted to dead-letter records (:mod:`repro.deadletter`) instead of
aborting the run; :attr:`ShardedCorpusEstimator.last_report` carries
the run's dead letters and supervision counters.  Both recovery paths
are deterministically testable through :mod:`repro.faults`.

**Durable runs** (ISSUE 7): with ``run_dir=`` set, the coordinator
itself stops being a single point of failure.  Each phase-1/phase-3
chunk result is appended — wire bytes, unit-observation snapshot,
dead letters — to a checksummed, fsync'd journal in the run directory
(:mod:`repro.runs`) the moment it arrives, and the merged unit tables
are checkpointed at the phase boundary.  ``resume=True`` replays the
journaled prefix in shard order and dispatches **only missing
chunks** to the pool (no pool is even spawned when nothing is
missing), which composes with the exact-parity property: a run killed
at any chunk boundary — or mid-append, leaving a torn journal tail —
resumes to bit-identical output (``tests/test_durable_resume.py``).

Memory is bounded by the distinct-line table plus 4 bytes per
ingredient-line occurrence and each recipe's servings and bounds:
recipes are decoded one at a time (see
:func:`repro.recipedb.corpus.iter_recipes_jsonl`) and never kept, and
each worker holds at most one chunk at a time.

**Columnar hot path** (ISSUE 9): workers (and the ``workers=1``
in-process path) drive each chunk through the batched pipeline
(:mod:`repro.core.columnar`) — chunk-wide tokenize/tag/match stages
feeding the unmodified per-line tail — which is bit-identical to the
per-line reference by construction and pinned differentially by
``tests/test_columnar_parity.py``.  ``REPRO_COLUMNAR=0`` forces the
per-line path everywhere (the escape hatch the differential harness
and benchmarks flip).

**Duplicate collapse** (ISSUE 10): the coordinator hash-conses the
corpus's ingredient lines into the distinct-line table *before*
sharding, so wire traffic, NER, matching and unit-chain work all
scale with the distinct set — heavily Zipfian real corpora repeat "1
cup sugar" millions of times.  The collapse is exact: phase-1
observations are weighted by multiplicity
(:meth:`UnitFallback.observe` with ``count=n``), which produces the
identical counts *and* identical key insertion order — hence the same
``most_common`` tie-breaks — as n repeated observes, and phase-3
estimates are pure functions of (text, frozen table), so per-distinct
results expand to per-occurrence results losslessly at assembly.
``REPRO_DEDUP=0`` (or ``dedup=False`` / the CLI's
``--no-dedup``) pins the per-occurrence oracle: the line table keeps
one ``(text, 1)`` entry per occurrence in corpus order, and the
differential suites byte-compare the two modes end to end
(``tests/test_dedup_parity.py``).  Estimate-side dead letters are
re-numbered by the coordinator from line-table ordinals to
per-occurrence corpus positions with the same procedure in both
modes, so a poisoned line that occurs k times dead-letters k times
with correct positions — and the persisted report is byte-identical
across modes and across resume.

**Persistent pool** (ISSUE 9): the supervised pool outlives a single
run.  The first pool run spawns it (workers boot from a shared-memory
artifact segment, :mod:`repro.pipeline.shm`); later runs on the same
engine reuse the warm workers — the HTTP service keeps one engine, so
``/v1/estimate_batch`` requests skip process spawn and estimator
rebuild entirely.  Phase-3 tasks carry a per-run ``stats_token`` so a
reused worker can never serve a previous run's merged unit table.
Call :meth:`ShardedCorpusEstimator.close` (or use the engine as a
context manager) to release the pool; a finalizer covers engines that
are simply dropped, and a failed run closes the pool rather than
reuse workers in an unknown state.
"""

from __future__ import annotations

import dataclasses
import os
import time
import weakref
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path

from repro import __version__, faults
from repro.core.coverage import ReasonBreakdown, reason_breakdown_from_lines
from repro.core.estimator import (
    STATUS_NAME_ONLY,
    IngredientEstimate,
    NutritionEstimator,
    RecipeEstimate,
)
from repro.deadletter import MAX_INPUT_CHARS, DeadLetterLog
from repro.pipeline.spec import EstimatorSpec
from repro.pipeline.supervisor import SupervisedWorkerPool, WorkerState
from repro.pipeline.wire import dumps_estimates, loads_estimates
from repro.recipedb.corpus import iter_recipes_jsonl
from repro.recipedb.model import Recipe
from repro.runs import DurableRun, RunError, RunJournalError, RunManifest
from repro.runs.manifest import corpus_identity, new_run_id
from repro.units.fallback import UnitFallback, snapshot_digest

#: A corpus source: any iterable of recipes (traversed once, so a
#: one-shot generator works), or a path to a JSONL file.
CorpusSource = Iterable[Recipe] | str | Path

#: Default per-chunk wall-clock budget before a worker is presumed
#: hung.  Generous: a 512-line chunk estimates in well under a second
#: even with a trained tagger, so triggering this means a genuinely
#: stuck process, not a slow one.
DEFAULT_CHUNK_DEADLINE_S = 120.0

#: Default re-dispatches allowed per lost chunk.
DEFAULT_MAX_CHUNK_RETRIES = 2


def _columnar_enabled() -> bool:
    """Whether chunks run the columnar batch pipeline (default: yes).

    ``REPRO_COLUMNAR=0`` pins the per-line reference path — the
    differential harness and benchmarks use it to hold the oracle
    side still while the columnar side evolves.
    """
    return os.environ.get("REPRO_COLUMNAR", "1") != "0"


def _dedup_enabled() -> bool:
    """Whether corpus lines are collapsed to the distinct set (default:
    yes).

    ``REPRO_DEDUP=0`` pins the per-occurrence oracle — every
    ingredient-line occurrence is shipped, estimated and observed
    independently, exactly as if no interning layer existed.  The
    differential suites and the dedup benchmarks flip this to hold the
    reference side still.
    """
    return os.environ.get("REPRO_DEDUP", "1") != "0"


@dataclass
class RunReport:
    """What happened, beyond the estimates, during one corpus run."""

    workers: int = 1
    retries: int = 0
    respawns: int = 0
    worker_crashes: int = 0
    hung_workers: int = 0
    dead_letters: DeadLetterLog = field(default_factory=DeadLetterLog)
    #: Durable-run provenance (``None`` outside ``run_dir=`` runs).
    run_id: str | None = None
    run_dir: str | None = None
    resumed: bool = False
    #: Chunks whose results came straight from the journal vs chunks
    #: actually dispatched to workers.  A resume of a completed run is
    #: pure replay: ``executed_chunks == 0``.
    replayed_chunks: int = 0
    executed_chunks: int = 0
    #: Line-interning accounting (ISSUE 10).  ``total_lines`` counts
    #: ingredient-line occurrences across the corpus; ``distinct_lines``
    #: counts the entries that actually did pipeline work after
    #: duplicate collapse.  ``dedup=False`` marks the per-occurrence
    #: oracle run (``REPRO_DEDUP=0`` / ``--no-dedup``).
    dedup: bool = True
    total_lines: int = 0
    distinct_lines: int = 0
    #: Content digest of the frozen phase-boundary unit table — the
    #: statistics half of the service tier's fragment-cache token
    #: (:func:`repro.units.fallback.snapshot_digest`).
    stats_digest: str | None = None

    @property
    def dedup_ratio(self) -> float:
        """Occurrences per distinct line (1.0 when nothing repeats)."""
        if not self.distinct_lines:
            return 1.0
        return self.total_lines / self.distinct_lines

    def dedup_counters(self) -> dict:
        """Duplicate-collapse accounting (CLI summary + /metrics)."""
        return {
            "dedup": self.dedup,
            "total_lines": self.total_lines,
            "distinct_lines": self.distinct_lines,
            "dedup_ratio": round(self.dedup_ratio, 3),
        }

    def counters(self) -> dict:
        """Flat counter view (the service merges this into /metrics)."""
        return {
            "retries": self.retries,
            "respawns": self.respawns,
            "worker_crashes": self.worker_crashes,
            "hung_workers": self.hung_workers,
            "dead_lettered": len(self.dead_letters),
        }

    def journal_counters(self) -> dict:
        """Replay accounting for durable runs (journal + CLI summary)."""
        return {
            "replayed_chunks": self.replayed_chunks,
            "executed_chunks": self.executed_chunks,
            "resumed": self.resumed,
        }


# ----------------------------------------------------------------------
# worker-side task handlers (module-level: they cross the process
# boundary by reference; each runs with the worker's WorkerState)

def _collect_task(state: WorkerState, payload, task_id: int, attempt: int):
    """Phase-1 task: wire estimates + observation snapshot for a chunk.

    ``payload`` is ``(base_ordinal, chunk, quarantine_on, columnar)``.
    Returns ``(wire, snapshot, dead_letter_records)``.
    """
    base_ordinal, chunk, quarantine_on, columnar = payload
    plan = faults.active_plan()
    if plan is not None:
        plan.fire("collect-chunk", task_id, attempt)
    log = DeadLetterLog() if quarantine_on else None
    estimates, snapshot = state.estimator.corpus_collect_estimates(
        chunk, quarantine=log, ordinal_base=base_ordinal, columnar=columnar
    )
    wire = dumps_estimates(
        [estimates[text] for text, _ in chunk], state.estimator.database
    )
    return wire, snapshot, (log.records if log is not None else ())


def _fallback_task(state: WorkerState, payload, task_id: int, attempt: int):
    """Phase-3 task: re-estimate texts against the merged statistics.

    ``payload`` is ``(stats_token, snapshot, items, quarantine_on,
    columnar)`` with ``items`` a list of ``(ordinal, text)``.  The
    merged snapshot rides along with each task and a worker installs
    it once per *token* — a fresh serial per engine run — which makes
    two failure shapes correct at once: a worker respawned
    mid-phase-3 (``stats_token`` reset to 0) installs the snapshot
    from its next task, and a **persistent pool reused across runs**
    sees a new token and can never serve the previous run's table.
    Returns ``(present_indices, wire, dead_letter_records)`` where
    ``present_indices`` are the positions in *items* that produced an
    estimate (a line quarantined here keeps its phase-1 estimate).
    """
    stats_token, snapshot, items, quarantine_on, columnar = payload
    plan = faults.active_plan()
    if plan is not None:
        plan.fire("fallback-chunk", task_id, attempt)
    if state.stats_token != stats_token:
        fallback = state.estimator.fallback
        fallback.clear()
        fallback.merge(snapshot)
        state.stats_token = stats_token
    log = DeadLetterLog() if quarantine_on else None
    texts = [text for _, text in items]
    estimates = state.estimator.corpus_fallback_estimates(
        texts,
        quarantine=log,
        ordinals={text: ordinal for ordinal, text in items},
        columnar=columnar,
    )
    present = [i for i, text in enumerate(texts) if text in estimates]
    wire = dumps_estimates(
        [estimates[texts[i]] for i in present], state.estimator.database
    )
    return present, wire, (log.records if log is not None else ())


_HANDLERS = {
    "collect-chunk": _collect_task,
    "fallback-chunk": _fallback_task,
}


# ----------------------------------------------------------------------
# coordinator

def _chunked(items, size: int) -> Iterator[list]:
    iterator = iter(items)
    while chunk := list(islice(iterator, size)):
        yield chunk


@dataclass
class CorpusTable:
    """A corpus reduced to what estimation and assembly need.

    Built in the engine's single corpus traversal; each recipe is
    decoded once and dropped.  Recipe ``k`` is the ingredient lines
    ``texts[i] for i in ids[ends[k - 1]:ends[k]]`` (``ends[-1]`` read
    as 0) with ``servings[k]`` servings.
    """

    #: Distinct ingredient lines, in first-occurrence order.
    texts: list[str]
    #: One distinct-line id (index into *texts*) per line occurrence,
    #: in corpus order.
    ids: array
    #: Per-recipe end offset into *ids*.
    ends: array
    servings: list[int]
    #: Recipe titles, kept only when the caller asked for them.
    titles: list[str] | None = None

    @classmethod
    def build(
        cls, recipes: Iterable[Recipe], *, titles: bool = False
    ) -> "CorpusTable":
        index: dict[str, int] = {}
        intern = index.setdefault
        ids = array("i")
        ends = array("q")
        servings: list[int] = []
        kept: list[str] | None = [] if titles else None
        for recipe in recipes:
            # len(index) is read before each setdefault, so a new text
            # gets the next id and a known one keeps its own.
            ids.extend([
                intern(text, len(index)) for text in recipe.ingredient_texts
            ])
            ends.append(len(ids))
            servings.append(recipe.servings)
            if kept is not None:
                kept.append(recipe.title)
        return cls(list(index), ids, ends, servings, kept)

    def line_table(self, dedup: bool) -> list[tuple[str, int]]:
        """The ``(text, count)`` entries the run estimates.

        Dedup mode gives one entry per distinct line with its
        multiplicity, in first-occurrence order, so all downstream
        work scales with the distinct set.  The oracle mode gives one
        ``(text, 1)`` entry per occurrence in corpus order instead —
        identical statistics (a weighted observe equals n repeated
        observes, and first-occurrence key order is the same either
        way) at full per-occurrence cost.
        """
        texts = self.texts
        if dedup:
            counts = Counter(self.ids)
            return [(text, counts[i]) for i, text in enumerate(texts)]
        return [(texts[i], 1) for i in self.ids]

    def recipes(self) -> Iterator[tuple[int, array]]:
        """``(servings, line ids)`` per recipe, in corpus order."""
        ids = self.ids
        start = 0
        for servings, end in zip(self.servings, self.ends):
            yield servings, ids[start:end]
            start = end


class ShardedCorpusEstimator:
    """Corpus estimation across a supervised process pool with exact
    parity.

    Parameters
    ----------
    spec:
        The estimator configuration every worker rebuilds (default:
        the default pipeline — embedded database, rule tagger).
    workers:
        Process count; ``None`` means ``os.cpu_count()``.  ``1`` runs
        the identical protocol in-process with no pool (useful as the
        parity reference and for streaming over huge corpora without
        IPC).
    chunk_size:
        Distinct ingredient lines per pool task.  Bigger chunks
        amortize task/pickle overhead; smaller chunks balance load.
    max_pending:
        Retained for API compatibility; the supervised pool holds at
        most one task per worker, so in-flight work is already
        bounded tighter than any sensible value of this.
    quarantine:
        With ``True``, malformed JSONL corpus lines and ingredient
        lines whose estimation raises are diverted to dead-letter
        records on :attr:`last_report` instead of aborting the run.
        Default ``False``: strict mode, every failure propagates
        (the seed behaviour, and what the parity suites pin).
    chunk_deadline_s:
        Per-chunk wall-clock budget before a worker is presumed hung
        and replaced (``None`` disables hang detection).
    max_chunk_retries:
        Re-dispatches allowed per chunk lost to a crashed or hung
        worker before :class:`ChunkRetriesExhaustedError`.
    run_dir:
        Directory for a **durable run** (:mod:`repro.runs`): manifest,
        chunk journal, checkpoint.  Requires a JSONL-path corpus
        source (an in-memory sequence has no durable identity to bind
        the manifest to).  One engine instance maps to one run
        directory — construct a fresh engine per durable run.
    resume:
        Resume the existing run in *run_dir*: verify its manifest
        against this engine's corpus/config (typed
        :class:`~repro.runs.errors.RunMismatchError` on drift),
        truncate any torn journal tail, replay journaled chunks and
        execute only the missing ones.
    dedup:
        Collapse corpus lines to the distinct-line table before
        sharding (the interning layer).  ``None`` — the default —
        defers to the ``REPRO_DEDUP`` environment variable (on unless
        ``0``), resolved per run; ``False`` pins the per-occurrence
        oracle for this engine regardless of environment.
    force_pool:
        Route even ``workers=1`` non-durable runs through the
        supervised pool instead of the in-process shortcut.  The
        worker-scaling benchmarks use this so every point of a worker
        series measures the same pool machinery (spawn, IPC, shm
        bootstrap) rather than comparing a pool against a loop.
    estimator_supplier:
        Zero-arg callable returning an already-built estimator
        equivalent to ``spec.build()``, used only to capture the
        shared-memory bootstrap payload at pool spawn.  The HTTP
        service passes its warm estimator so the pool bootstrap does
        not build a second one; default is the engine's own lazily
        built in-process estimator.
    """

    def __init__(
        self,
        spec: EstimatorSpec | None = None,
        *,
        workers: int | None = None,
        chunk_size: int = 512,
        max_pending: int | None = None,
        quarantine: bool = False,
        chunk_deadline_s: float | None = DEFAULT_CHUNK_DEADLINE_S,
        max_chunk_retries: int = DEFAULT_MAX_CHUNK_RETRIES,
        run_dir: str | Path | None = None,
        resume: bool = False,
        dedup: bool | None = None,
        force_pool: bool = False,
        estimator_supplier=None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
        if max_chunk_retries < 0:
            raise ValueError(
                f"max_chunk_retries must be >= 0: {max_chunk_retries}"
            )
        if resume and run_dir is None:
            raise ValueError("resume=True requires run_dir")
        self._run_dir = Path(run_dir) if run_dir is not None else None
        self._resume = resume
        self._spec = spec or EstimatorSpec()
        if workers is not None:
            self._workers = workers
        else:
            self._workers = os.cpu_count() or 1
        self._chunk_size = chunk_size
        self._quarantine = quarantine
        self._dedup = dedup
        self._chunk_deadline_s = chunk_deadline_s
        self._max_chunk_retries = max_chunk_retries
        self._force_pool = force_pool
        self._estimator_supplier = estimator_supplier
        self._local: NutritionEstimator | None = None
        self._foods = None
        self._pinned_fingerprint: str | None = None
        #: Persistent supervised pool: spawned on the first pool run,
        #: reused by later runs until :meth:`close`.
        self._pool: SupervisedWorkerPool | None = None
        self._pool_finalizer: weakref.finalize | None = None
        #: Serial for phase-3 merged-table installs (see
        #: :func:`_fallback_task`); monotonically increasing per run.
        self._stats_serial = 0
        #: Supervision counters and dead letters for the most recent
        #: corpus run (None until a run happens).  Refreshed at the
        #: start of every run; read it before starting the next one.
        self.last_report: RunReport | None = None
        if self._spec.artifact_path is not None:
            # Pin the artifact version now: the coordinator's food
            # list (the wire codec's index space) must come from the
            # same file state the engine was created against, not from
            # whatever the file contains when the first corpus runs.
            # Foods and fingerprint both come from ONE snapshot so a
            # swap landing mid-construction cannot split the pin
            # across two file states.
            snapshot = self._spec._snapshot()
            self._foods = list(snapshot.database())
            self._pinned_fingerprint = snapshot.fingerprint

    @property
    def spec(self) -> EstimatorSpec:
        return self._spec

    @property
    def workers(self) -> int:
        return self._workers

    def _local_estimator(self) -> NutritionEstimator:
        if self._local is None:
            self._local = self._spec.build()
        return self._local

    # ------------------------------------------------------------------
    # persistent pool lifecycle

    def ensure_pool(self) -> None:
        """Spawn the persistent worker pool now (idempotent).

        Lets services and benchmarks pay the spawn + shared-memory
        bootstrap cost up front instead of inside the first request or
        timed region.  Only useful for engines that actually route
        through the pool (``workers > 1`` or ``force_pool=True``).
        """
        self._ensure_pool()

    def _ensure_pool(self) -> SupervisedWorkerPool:
        if self._pool is None:
            pool = SupervisedWorkerPool(
                self._worker_spec(),
                _HANDLERS,
                self._workers,
                deadline_s=self._chunk_deadline_s,
                max_retries=self._max_chunk_retries,
                estimator_supplier=(
                    self._estimator_supplier or self._local_estimator
                ),
            )
            self._pool = pool
            # Safety net for engines dropped without close(): the
            # callback holds the pool, never the engine, so the
            # finalizer cannot keep the engine alive.
            self._pool_finalizer = weakref.finalize(self, pool.close)
        return self._pool

    def close(self) -> None:
        """Shut down the persistent pool and its shared segment.

        Idempotent; the engine remains usable (the next pool run
        simply spawns a fresh pool).
        """
        pool, self._pool = self._pool, None
        finalizer, self._pool_finalizer = self._pool_finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ShardedCorpusEstimator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _food_list(self):
        if self._foods is None:
            self._foods = list(self._spec.database())
        return self._foods

    # ------------------------------------------------------------------

    def _dedup_on(self) -> bool:
        """Resolve the dedup mode for one run (ctor arg, else env)."""
        if self._dedup is not None:
            return self._dedup
        return _dedup_enabled()

    def _begin_run(self) -> RunReport:
        self.last_report = RunReport(
            workers=self._workers, dedup=self._dedup_on()
        )
        return self.last_report

    def _read_table(
        self, source: CorpusSource, report: RunReport, *, titles: bool
    ) -> CorpusTable:
        """The run's one corpus traversal → its :class:`CorpusTable`.

        JSONL sources get the full validating decode.  With quarantine
        on, malformed lines are skipped and recorded in the report's
        dead letters with their 1-based file line numbers; otherwise
        the first one raises.
        """
        if isinstance(source, (str, Path)):
            if self._quarantine:
                recipes = iter_recipes_jsonl(
                    source, on_error="skip", dead_letters=report.dead_letters
                )
            else:
                recipes = iter_recipes_jsonl(source)
        else:
            try:
                recipes = iter(source)
            except TypeError:
                raise TypeError(
                    "corpus source must be an iterable of Recipe or a "
                    f"JSONL path, got {type(source).__name__}"
                ) from None
        table = CorpusTable.build(recipes, titles=titles)
        report.total_lines = len(table.ids)
        report.distinct_lines = len(table.texts)
        return table

    @staticmethod
    def _renumber_poisoned(report: RunReport, table: CorpusTable) -> None:
        """Re-number estimate-side dead letters to corpus positions.

        Workers number estimate-side letters by line-table ordinal; a
        corpus run reports one letter per occurrence instead, at its
        position in the flattened ingredient-line stream (ingest
        letters keep their 1-based file line numbers).  Estimation is
        deterministic per text, so every occurrence of a poisoned line
        shares one reason/detail; running the identical procedure in
        both dedup modes makes the final report byte-identical across
        them.
        """
        log = report.dead_letters
        poisoned: dict[str, tuple[str, str]] = {}
        kept = []
        for letter in log.records:
            if letter.source == "estimate":
                poisoned.setdefault(
                    letter.input, (letter.reason, letter.detail)
                )
            else:
                kept.append(letter)
        if not poisoned:
            return
        log.replace(kept)
        texts = table.texts
        hits = {}
        for i, text in enumerate(texts):
            hit = poisoned.get(text[:MAX_INPUT_CHARS])
            if hit is not None:
                hits[i] = hit
        for position, i in enumerate(table.ids):
            hit = hits.get(i)
            if hit is not None:
                log.add("estimate", position, texts[i], hit[0], hit[1])

    # ------------------------------------------------------------------
    # durable runs

    def _database_fingerprint(self) -> str:
        """The fingerprint a durable run's manifest binds to."""
        if self._pinned_fingerprint is not None:
            return self._pinned_fingerprint
        from repro.artifacts.store import database_fingerprint

        return database_fingerprint(self._food_list())

    def _durable_run(
        self, source: CorpusSource, dedup: bool
    ) -> DurableRun | None:
        """Create (or reopen and verify) this engine's durable run."""
        if self._run_dir is None:
            return None
        if not isinstance(source, (str, Path)):
            raise RunError(
                "durable runs need a JSONL corpus path (an in-memory "
                "sequence has no durable identity for the manifest)"
            )
        fingerprint = self._database_fingerprint()
        if self._resume:
            run = DurableRun.open(self._run_dir)
            run.manifest.verify_corpus(source)
            run.manifest.verify_config(
                chunk_size=self._chunk_size,
                quarantine=self._quarantine,
                max_grams=self._spec.max_grams,
                database_fingerprint=fingerprint,
                dedup=dedup,
            )
            return run
        database: dict = {
            "fingerprint": fingerprint,
            "artifact_path": self._spec.artifact_path,
        }
        if self._spec.artifact_path is not None:
            from repro.artifacts.format import read_artifact_digest

            database["artifact_sha256"] = read_artifact_digest(
                self._spec.artifact_path
            )
        # The CLI names run directories after the run id it generates
        # (``ROOT/run-.../``); adopting such a name keeps directory and
        # manifest in agreement instead of minting a second id.
        dir_name = self._run_dir.name
        manifest = RunManifest(
            run_id=dir_name if dir_name.startswith("run-") else new_run_id(),
            created_at=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            repro_version=__version__,
            corpus=corpus_identity(source),
            config={
                "chunk_size": self._chunk_size,
                "quarantine": self._quarantine,
                "max_grams": self._spec.max_grams,
                "workers": self._workers,
                "dedup": dedup,
            },
            database=database,
        )
        return DurableRun.create(self._run_dir, manifest)

    @staticmethod
    def _note_run(report: RunReport, run: DurableRun | None) -> None:
        if run is not None:
            report.run_id = run.manifest.run_id
            report.run_dir = str(run.path)
            report.resumed = run.resumed

    # ------------------------------------------------------------------

    def estimate_corpus(self, source: CorpusSource) -> list[RecipeEstimate]:
        """All recipe estimates, in corpus order."""
        return list(self.iter_corpus_estimates(source))

    def iter_corpus_estimates(
        self, source: CorpusSource
    ) -> Iterator[RecipeEstimate]:
        """Stream recipe estimates in corpus order.

        The corpus is decoded once, into a compact line-id table; the
        estimates are then assembled from that table and yielded one
        recipe at a time, so a consumer that writes them out keeps
        memory bounded by the distinct-line estimate table plus the
        line-id table.
        """
        for _, estimate in self._assemble(source, titles=False):
            yield estimate

    def iter_titled_estimates(
        self, source: CorpusSource
    ) -> Iterator[tuple[str, RecipeEstimate]]:
        """:meth:`iter_corpus_estimates` paired with each recipe's title.

        The titles come from the same single corpus traversal (they
        are kept in the table only for this call), so a caller that
        prints them never decodes the corpus a second time.
        """
        return self._assemble(source, titles=True)

    def _assemble(
        self, source: CorpusSource, *, titles: bool
    ) -> Iterator[tuple[str | None, RecipeEstimate]]:
        """Fan-out: per-distinct estimates expand to per-occurrence
        results, recipe by recipe, in corpus order."""
        table, estimates = self._run_corpus(source, titles=titles)[:2]
        by_id = [estimates[text] for text in table.texts]
        finish = NutritionEstimator.finish_recipe
        names = table.titles if titles else repeat(None)
        for name, (servings, ids) in zip(names, table.recipes()):
            yield name, finish([by_id[i] for i in ids], servings)

    def corpus_diagnostics(self, source: CorpusSource) -> ReasonBreakdown:
        """Reason-code breakdown over a whole corpus (Figure 2 by cause).

        Runs the two-phase protocol over the corpus's distinct-line
        table (sharded at ``workers > 1`` — reason codes and traces
        ship bit-identically through the wire codec) and attributes
        every line, weighted by occurrence count, to the §II-C
        strategy that resolved or killed it.
        """
        _, estimates, lines = self._run_corpus(source, titles=False)
        return reason_breakdown_from_lines(
            (estimates[text], count) for text, count in lines
        )

    def _run_corpus(
        self, source: CorpusSource, *, titles: bool
    ) -> tuple[
        CorpusTable, dict[str, IngredientEstimate], list[tuple[str, int]]
    ]:
        """One corpus run: decode once, estimate the line table.

        Returns the corpus table, ``text -> final estimate`` and the
        ``(text, count)`` line table that was estimated.  Estimate-side
        dead letters come back re-numbered to per-occurrence corpus
        positions.
        """
        report = self._begin_run()
        run = self._durable_run(source, report.dedup)
        self._note_run(report, run)
        try:
            table = self._read_table(source, report, titles=titles)
            lines = table.line_table(report.dedup)
            estimates = self._estimate_table_into(lines, report, run)
        finally:
            if run is not None:
                run.close()
        self._renumber_poisoned(report, table)
        return table, estimates, lines

    # ------------------------------------------------------------------
    # execution backends

    def estimate_table(
        self, counts: dict[str, int]
    ) -> dict[str, IngredientEstimate]:
        """Run the two-phase protocol over a distinct-line table.

        ``text -> final estimate`` for every key of *counts* (values
        are occurrence counts, which weight the unit statistics).  The
        building block under :meth:`iter_corpus_estimates`, exposed
        for callers that already hold a distinct-line table — the HTTP
        service's batch endpoint assembles its own recipes from this.
        Dispatches to the in-process estimator at ``workers=1`` and to
        the supervised pool otherwise; results are bit-identical
        either way.  In oracle mode (``REPRO_DEDUP=0`` /
        ``dedup=False``) the multiplicities are expanded back into
        per-occurrence entries so even this pre-collapsed entry point
        exercises the undeduped pipeline.
        """
        report = self._begin_run()
        report.total_lines = sum(counts.values())
        report.distinct_lines = len(counts)
        if report.dedup:
            lines = list(counts.items())
        else:
            lines = [
                (text, 1)
                for text, count in counts.items()
                for _ in range(count)
            ]
        return self._estimate_table_into(lines, report)

    def _estimate_table_into(
        self,
        lines: list[tuple[str, int]],
        report: RunReport,
        run: DurableRun | None = None,
    ) -> dict[str, IngredientEstimate]:
        if run is None and self._workers == 1 and not self._force_pool:
            return self._run_local(lines, report)
        # A durable run always takes the chunked pool path, even at
        # workers=1: journaling and replay are defined over the chunk
        # plan, and a full replay never spawns a worker anyway.
        return self._run_pool(lines, report, run)

    def _run_local(
        self, lines: list[tuple[str, int]], report: RunReport
    ) -> dict[str, IngredientEstimate]:
        log = report.dead_letters if self._quarantine else None
        estimator = self._local_estimator()
        estimates = estimator.corpus_estimate_table(
            lines, quarantine=log, columnar=_columnar_enabled()
        )
        report.stats_digest = snapshot_digest(
            estimator.fallback.snapshot()
        )
        return estimates

    def _worker_spec(self) -> EstimatorSpec:
        """The spec shipped to pool workers.

        For artifact-backed specs the coordinator pins the database
        fingerprint it loaded at construction onto the worker spec:
        workers re-read the artifact file at pool start-up — and again
        on every supervised **respawn** — and the wire codec decodes
        foods by database *index* against the coordinator's list.  If
        the file were swapped for one built against different data
        between the coordinator's load and a later spawn (e.g. a
        deploy refreshing the artifact under a running service), the
        indices would silently resolve to the wrong foods.  Pinning
        routes that race into ``EstimatorSpec``'s fingerprint check,
        so every worker either loads the identical database or fails
        with a typed ``ArtifactMismatchError`` — at the cost of one
        string in the spawn args, not a pickled food list.
        """
        if (
            self._pinned_fingerprint is None
            or self._spec.expected_fingerprint is not None
        ):
            return self._spec
        return dataclasses.replace(
            self._spec, expected_fingerprint=self._pinned_fingerprint
        )

    def _run_pool(
        self,
        lines: list[tuple[str, int]],
        report: RunReport,
        run: DurableRun | None = None,
    ) -> dict[str, IngredientEstimate]:
        foods = self._food_list()
        merged_fallback = UnitFallback(self._spec.max_grams)
        estimates: dict[str, IngredientEstimate] = {}
        chunks = list(_chunked(lines, self._chunk_size))
        quarantine_on = self._quarantine
        columnar = _columnar_enabled()
        if run is not None:
            run.begin(
                n_chunks=len(chunks),
                distinct_lines=len(lines),
                chunk_size=self._chunk_size,
            )
        if not chunks:
            # Even an empty run freezes (an empty) unit table; give it
            # a digest so downstream cache tokens never see None.
            report.stats_digest = snapshot_digest(UnitFallback().snapshot())
            if run is not None and not run.complete:
                run.record_complete(
                    {**report.counters(), **report.journal_counters()}
                )
            return estimates

        # The pool is acquired lazily: a resume whose journal already
        # covers every chunk is pure replay and spawns no workers.
        # The pool itself is persistent (spawned once per engine,
        # reused run-to-run), so supervision counters are reported as
        # deltas against a baseline captured at first acquisition.
        used_pool: SupervisedWorkerPool | None = None
        baseline = (0, 0, 0, 0)

        def ensure_pool() -> SupervisedWorkerPool:
            nonlocal used_pool, baseline
            acquired = self._ensure_pool()
            if used_pool is None:
                used_pool = acquired
                stats = acquired.stats
                baseline = (
                    stats.retries, stats.respawns, stats.crashes, stats.hung
                )
            return acquired

        def replay_decode(wire, expected: int, what: str, index: int):
            decoded = loads_estimates(wire, foods)
            if len(decoded) != expected:
                raise RunJournalError(
                    f"journaled {what} chunk {index} decodes to "
                    f"{len(decoded)} estimates where the recomputed "
                    f"chunk holds {expected} — the corpus changed since "
                    f"the run was started"
                )
            return decoded

        try:
            # Phase 1+2: collect shards, merge snapshots in chunk
            # order.  The supervised pool yields results in task order
            # even when a retry finishes out of sequence, so the merge
            # order — and therefore the tie-break-exact table — is
            # independent of failures; journal replay slots into the
            # same chunk-order merge, with only the missing chunk
            # indices (in increasing order) dispatched to workers.
            replay = run.collect if run is not None else {}
            missing = [i for i in range(len(chunks)) if i not in replay]
            payloads = [
                (i * self._chunk_size, chunks[i], quarantine_on, columnar)
                for i in missing
            ]
            executed = (
                ensure_pool().run("collect-chunk", payloads)
                if payloads
                else iter(())
            )
            for i, chunk in enumerate(chunks):
                if i in replay:
                    wire, snapshot, letters = replay[i]
                    decoded = replay_decode(wire, len(chunk), "collect", i)
                    report.replayed_chunks += 1
                else:
                    wire, snapshot, letters = next(executed)
                    decoded = loads_estimates(wire, foods)
                    if run is not None:
                        run.record_collect(i, wire, snapshot, list(letters))
                    report.executed_chunks += 1
                merged_fallback.merge(snapshot)
                report.dead_letters.extend(list(letters))
                for (text, _), estimate in zip(chunk, decoded):
                    estimates[text] = estimate
            # Phase boundary: checkpoint the merged unit tables — or,
            # on a resume that already holds a checkpoint, cross-check
            # it against the tables just merged from replay.  A
            # divergence means the corpus or database changed in a way
            # the manifest's sampled prefix could not see.
            snapshot = merged_fallback.snapshot()
            report.stats_digest = snapshot_digest(snapshot)
            if run is not None:
                if run.checkpoint is None:
                    run.record_checkpoint(snapshot)
                elif run.checkpoint != snapshot:
                    raise RunJournalError(
                        "journaled phase-boundary checkpoint does not "
                        "match the unit tables merged from the replayed "
                        "chunks — the corpus changed since the run was "
                        "started"
                    )
            # Phase 3: re-estimate fallback candidates against the
            # frozen merged table.  The pending list is a pure function
            # of the phase-1 estimates, so a resume recomputes the
            # identical fallback chunking and can address journaled
            # phase-3 frames by chunk index.
            ordinals: dict[str, int] = {}
            for i, (text, _) in enumerate(lines):
                if text not in ordinals:
                    ordinals[text] = i
            pending = [
                (ordinals[text], text)
                for text, estimate in estimates.items()
                if estimate.status == STATUS_NAME_ONLY
            ]
            fallback_chunks = list(_chunked(pending, self._chunk_size))
            fb_replay = run.fallback if run is not None else {}
            fb_missing = [
                i for i in range(len(fallback_chunks)) if i not in fb_replay
            ]
            self._stats_serial += 1
            stats_token = self._stats_serial
            payloads = [
                (
                    stats_token, snapshot, fallback_chunks[i],
                    quarantine_on, columnar,
                )
                for i in fb_missing
            ]
            executed = (
                ensure_pool().run("fallback-chunk", payloads)
                if payloads
                else iter(())
            )
            for i, items in enumerate(fallback_chunks):
                if i in fb_replay:
                    present, wire, letters = fb_replay[i]
                    if present and not (
                        0 <= min(present) and max(present) < len(items)
                    ):
                        raise RunJournalError(
                            f"journaled fallback chunk {i} addresses "
                            f"lines outside the recomputed chunk — the "
                            f"corpus changed since the run was started"
                        )
                    decoded = replay_decode(
                        wire, len(present), "fallback", i
                    )
                    report.replayed_chunks += 1
                else:
                    present, wire, letters = next(executed)
                    decoded = loads_estimates(wire, foods)
                    if run is not None:
                        run.record_fallback(i, present, wire, list(letters))
                    report.executed_chunks += 1
                report.dead_letters.extend(list(letters))
                for p, estimate in zip(present, decoded):
                    estimates[items[p][1]] = estimate
        except BaseException:
            # A failed run leaves workers in an unknown state (mid-
            # chunk, half-installed table); close the pool so the next
            # run starts from fresh workers instead of reusing them.
            self.close()
            raise
        finally:
            if used_pool is not None:
                stats = used_pool.stats
                report.retries = stats.retries - baseline[0]
                report.respawns = stats.respawns - baseline[1]
                report.worker_crashes = stats.crashes - baseline[2]
                report.hung_workers = stats.hung - baseline[3]
        if run is not None and not run.complete:
            run.record_complete(
                {**report.counters(), **report.journal_counters()}
            )
        return estimates
