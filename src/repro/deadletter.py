"""Dead-letter records: quarantined inputs with reason-coded provenance.

A production corpus run must not die on one bad line.  When quarantine
is enabled, the two failure classes that used to abort a run are
instead diverted here:

* **ingest** — a JSONL corpus line that is not valid JSON or not a
  valid recipe (:func:`repro.recipedb.corpus.iter_recipes_jsonl` with
  ``on_error="skip"``), identified by its 1-based file line number;
* **estimate** — an ingredient line whose estimation raised
  (:meth:`NutritionEstimator.corpus_collect_estimates` with a
  quarantine log), identified by its ordinal in the corpus's
  distinct-line table.

Every record carries a machine-readable reason code in the same
registry style as :mod:`repro.core.resolution` — quarantined estimate
placeholders use :data:`repro.core.resolution.REASON_ESTIMATOR_ERROR`
so the reason surfaces through ``/metrics`` and reason breakdowns
exactly like any other per-line provenance.

The contract quarantine preserves: **a dead-lettered line behaves as
if it were absent from the corpus** — it contributes no unit
observations and a zero profile, so every clean line's estimate is
bit-identical to a run over the corpus with the bad line removed
(``tests/test_fault_tolerance.py``).

Durable batch runs persist their report with
:func:`write_report_jsonl`: one JSON object per line, stamped with
the run id and sorted into a stable canonical order, written
atomically into the run directory — so re-runs never overwrite each
other's reports and a resumed run's report is byte-identical to the
uninterrupted run's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.utils import atomic_write_text

# Ingest-side reason codes (estimate-side quarantine reuses
# repro.core.resolution.REASON_ESTIMATOR_ERROR).
REASON_MALFORMED_JSON = "malformed-json"
REASON_INVALID_RECIPE = "invalid-recipe"

#: Offending input is truncated to this many characters per record so
#: a multi-megabyte corrupted line cannot balloon the log.
MAX_INPUT_CHARS = 200


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """One quarantined input."""

    source: str  # "ingest" | "estimate"
    line_no: int  # 1-based file line (ingest) / distinct-line ordinal
    input: str  # offending input, truncated
    reason: str  # machine-readable reason code
    detail: str = ""  # human-readable cause (exception repr etc.)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "line_no": self.line_no,
            "input": self.input,
            "reason": self.reason,
            "detail": self.detail,
        }


class EstimateLineError(RuntimeError):
    """An ingredient line whose estimation raised, in a strict run.

    The strict-mode twin of an estimate-side :class:`DeadLetter`:
    ``line_no`` numbers the line exactly as the quarantine's record
    would (its distinct-line ordinal for table-level calls, its
    position in the flattened ingredient-line stream for corpus runs),
    and ``error`` is the exception estimation raised.  Picklable, so
    it crosses the worker-pool boundary intact.
    """

    def __init__(self, line_no: int, text: str, error: BaseException):
        super().__init__(line_no, text, error)
        self.line_no = line_no
        self.text = text
        self.error = error

    def __str__(self) -> str:
        return (
            f"estimate line {self.line_no}: "
            f"{self.text[:MAX_INPUT_CHARS]!r} "
            f"({type(self.error).__name__}: {self.error})"
        )


class DeadLetterLog:
    """An append-only collection of :class:`DeadLetter` records."""

    def __init__(self) -> None:
        self._records: list[DeadLetter] = []

    def add(
        self,
        source: str,
        line_no: int,
        input_text: str,
        reason: str,
        detail: str = "",
    ) -> None:
        self._records.append(
            DeadLetter(
                source=source,
                line_no=line_no,
                input=input_text[:MAX_INPUT_CHARS],
                reason=reason,
                detail=detail[:MAX_INPUT_CHARS],
            )
        )

    def extend(self, records: "DeadLetterLog | list[DeadLetter]") -> None:
        self._records.extend(records)

    def replace(self, records: "list[DeadLetter]") -> None:
        """Swap the log's contents in place (identity-preserving).

        The sharded coordinator uses this to renumber estimate-side
        records without breaking callers that already hold a
        reference to the run report's log.
        """
        self._records = list(records)

    @property
    def records(self) -> tuple[DeadLetter, ...]:
        return tuple(self._records)

    def by_reason(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for record in self._records:
            tally[record.reason] = tally.get(record.reason, 0) + 1
        return dict(sorted(tally.items()))

    def render(self) -> str:
        """Human-readable dead-letter report (the CLI prints this)."""
        if not self._records:
            return "no dead-lettered lines"
        lines = [f"{len(self._records)} dead-lettered line(s):"]
        for record in self._records:
            lines.append(
                f"  [{record.source} line {record.line_no}] "
                f"{record.reason}: {record.input!r}"
                + (f" ({record.detail})" if record.detail else "")
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)


# ----------------------------------------------------------------------
# durable report files

#: File name for a run's persisted dead-letter report (one JSON object
#: per line, inside the run directory).
REPORT_NAME = "dead_letters.jsonl"


def report_lines(log: DeadLetterLog, run_id: str) -> list[str]:
    """The report's JSONL lines in their canonical, stable order.

    Records are sorted by ``(source, line_no, input, reason)`` — not
    by arrival order — so a resumed run (which replays journaled
    chunks and re-derives ingest records) emits a byte-identical
    report to the uninterrupted run, and repeated runs over the same
    corpus diff cleanly against each other.  Every line carries the
    run id, so reports from different runs are self-identifying and
    never mistaken for one another.
    """
    ordered = sorted(
        log.records,
        key=lambda r: (r.source, r.line_no, r.input, r.reason),
    )
    return [
        json.dumps({"run_id": run_id, **record.to_dict()}, sort_keys=True)
        for record in ordered
    ]


def write_report_jsonl(
    path: str | Path, log: DeadLetterLog, run_id: str
) -> Path:
    """Persist *log* as a run-id-stamped JSONL report, atomically.

    Written through :func:`repro.utils.atomic_write_text` so a crash
    mid-write can never leave a torn report next to a valid journal.
    An empty log still writes an (empty) file: the report's existence
    marks "this run flushed its dead letters", and byte-diffing a
    resumed run against a clean one stays meaningful.
    """
    path = Path(path)
    lines = report_lines(log, run_id)
    content = "\n".join(lines) + ("\n" if lines else "")
    atomic_write_text(path, content)
    return path
