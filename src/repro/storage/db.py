"""Result database (the paper's Microsoft Access stand-in).

"Extracted information is saved in a Microsoft Access database."  We
use SQLite with one table per value kind plus a patients table.  Values
keep their provenance (association method for numerics) so downstream
analysis can audit how each cell was produced.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Any

from repro.errors import StorageError
from repro.extraction.pipeline import ExtractionResult

_SCHEMA = """
CREATE TABLE IF NOT EXISTS patients (
    patient_id TEXT PRIMARY KEY
);
CREATE TABLE IF NOT EXISTS numeric_values (
    patient_id TEXT NOT NULL REFERENCES patients(patient_id),
    attribute TEXT NOT NULL,
    value REAL,
    value2 REAL,            -- second component of ratio readings
    method TEXT,
    sentence TEXT,
    PRIMARY KEY (patient_id, attribute)
);
CREATE TABLE IF NOT EXISTS term_values (
    patient_id TEXT NOT NULL REFERENCES patients(patient_id),
    attribute TEXT NOT NULL,
    position INTEGER NOT NULL,
    term TEXT NOT NULL,
    PRIMARY KEY (patient_id, attribute, position)
);
CREATE TABLE IF NOT EXISTS categorical_values (
    patient_id TEXT NOT NULL REFERENCES patients(patient_id),
    attribute TEXT NOT NULL,
    label TEXT,
    PRIMARY KEY (patient_id, attribute)
);
CREATE TABLE IF NOT EXISTS provenance (
    patient_id TEXT NOT NULL REFERENCES patients(patient_id),
    kind TEXT NOT NULL,       -- numeric | term | categorical
    attribute TEXT NOT NULL,
    position INTEGER NOT NULL DEFAULT 0,
    value TEXT,
    method TEXT,
    detail TEXT,
    PRIMARY KEY (patient_id, kind, attribute, position)
);
CREATE TABLE IF NOT EXISTS quarantine (
    run_id TEXT NOT NULL DEFAULT '',
    record_id TEXT NOT NULL,
    record_index INTEGER NOT NULL,
    error_type TEXT NOT NULL,
    message TEXT,
    traceback_digest TEXT,
    trace_span TEXT,
    attempts INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, record_id)
);
"""

#: The pinned quarantine-table shape — the CI resilience job fails on
#: any drift between this and ``PRAGMA table_info(quarantine)``.
QUARANTINE_COLUMNS: tuple[tuple[str, str], ...] = (
    ("run_id", "TEXT"),
    ("record_id", "TEXT"),
    ("record_index", "INTEGER"),
    ("error_type", "TEXT"),
    ("message", "TEXT"),
    ("traceback_digest", "TEXT"),
    ("trace_span", "TEXT"),
    ("attempts", "INTEGER"),
)


class _Database:
    """One SQLite file in WAL mode, checkpointed on close."""

    def __init__(self, path: str | Path) -> None:
        self._connection = sqlite3.connect(str(path))
        # Write-ahead logging turns every commit into one sequential
        # log append instead of a full database rewrite, and NORMAL
        # synchronous skips the per-commit fsync of the main file —
        # together they make the corpus runner's batched writes cheap
        # while staying crash-consistent (WAL replays on reopen).
        # In-memory databases ignore the journal-mode request.
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")

    def close(self) -> None:
        """Checkpoint the WAL into the main file and close.

        Callers that compare or ship the database file should close
        the store first: until the WAL is checkpointed, recent
        commits live in the ``-wal`` sidecar, not the main file.
        Idempotent.
        """
        try:
            self._connection.execute(
                "PRAGMA wal_checkpoint(TRUNCATE)"
            )
        except sqlite3.ProgrammingError:
            return  # already closed
        self._connection.close()


class PayloadJournal(_Database):
    """A shard partition: wire payloads by global accept sequence.

    Its one table, ``shard_payloads``, is the raw material
    :func:`merge_partition_stores` reads to rebuild the corpus in
    accept order; it never appears in a merged or batch-written
    store.  Rows are ``(seq, kind, payload)`` with kind ``result`` or
    ``quarantine`` and payload the bit-exact JSON wire form.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__(path)
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS shard_payloads ("
            "seq INTEGER PRIMARY KEY, kind TEXT NOT NULL, "
            "payload TEXT NOT NULL)"
        )

    def save_shard_payloads(
        self, rows: list[tuple[int, str, str]]
    ) -> int:
        """Journal ``(seq, kind, payload)`` rows in one transaction."""
        with self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO shard_payloads VALUES "
                "(?, ?, ?)",
                rows,
            )
        return len(rows)

    def shard_payloads(self) -> list[tuple[int, str, str]]:
        """Journaled (seq, kind, payload) rows, in accept order."""
        cursor = self._connection.execute(
            "SELECT seq, kind, payload FROM shard_payloads ORDER BY seq"
        )
        return [tuple(row) for row in cursor]


class ResultStore(_Database):
    """SQLite sink and query surface for extraction results."""

    def __init__(self, path: str | Path = ":memory:") -> None:
        super().__init__(path)
        self._connection.executescript(_SCHEMA)

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------ write

    def save(self, result: ExtractionResult) -> None:
        """Insert or replace one record's extraction output."""
        self.store_many([result])

    def save_all(self, results: list[ExtractionResult]) -> None:
        self.store_many(results)

    def store_many(self, results: list[ExtractionResult]) -> int:
        """Bulk-insert many records in one transaction.

        Rows for all results are batched per table and written with
        ``executemany`` — the corpus runner's sink.  Returns the number
        of records stored.
        """
        for result in results:
            if not result.patient_id:
                raise StorageError("result has no patient_id")
        patient_rows: list[tuple] = []
        numeric_rows: list[tuple] = []
        term_deletes: list[tuple] = []
        term_rows: list[tuple] = []
        categorical_rows: list[tuple] = []
        provenance_deletes: list[tuple] = []
        provenance_rows: list[tuple] = []
        for result in results:
            patient_rows.append((result.patient_id,))
            provenance_deletes.append((result.patient_id,))
            provenance_rows.extend(
                (result.patient_id, entry.kind, entry.attribute,
                 entry.position, entry.value, entry.method,
                 entry.detail)
                for entry in result.provenance
            )
            for attribute, extraction in result.numeric.items():
                value = value2 = method = sentence = None
                if extraction is not None:
                    method = extraction.method.value
                    sentence = extraction.sentence
                    if isinstance(extraction.value, tuple):
                        value, value2 = extraction.value
                    else:
                        value = extraction.value
                numeric_rows.append(
                    (result.patient_id, attribute, value, value2,
                     method, sentence)
                )
            for attribute, terms in result.terms.items():
                term_deletes.append((result.patient_id, attribute))
                term_rows.extend(
                    (result.patient_id, attribute, position, term)
                    for position, term in enumerate(terms)
                )
            for attribute, label in result.categorical.items():
                categorical_rows.append(
                    (result.patient_id, attribute, label)
                )
        with self._connection:  # one transaction for the whole batch
            cur = self._connection.cursor()
            cur.executemany(
                "INSERT OR REPLACE INTO patients VALUES (?)",
                patient_rows,
            )
            cur.executemany(
                "INSERT OR REPLACE INTO numeric_values VALUES "
                "(?, ?, ?, ?, ?, ?)",
                numeric_rows,
            )
            cur.executemany(
                "DELETE FROM term_values WHERE patient_id=? AND "
                "attribute=?",
                term_deletes,
            )
            cur.executemany(
                "INSERT INTO term_values VALUES (?, ?, ?, ?)",
                term_rows,
            )
            cur.executemany(
                "INSERT OR REPLACE INTO categorical_values VALUES "
                "(?, ?, ?)",
                categorical_rows,
            )
            cur.executemany(
                "DELETE FROM provenance WHERE patient_id=?",
                provenance_deletes,
            )
            cur.executemany(
                "INSERT INTO provenance VALUES (?, ?, ?, ?, ?, ?, ?)",
                provenance_rows,
            )
        return len(results)

    def save_quarantine(
        self, entries: list[Any], run_id: str = ""
    ) -> int:
        """Record poisoned records set aside by the resilient runner.

        *entries* are :class:`~repro.runtime.resilience.QuarantineEntry`
        objects or dicts with the same fields.  Returns the number of
        rows written.
        """
        rows: list[tuple] = []
        for entry in entries:
            data = (
                entry if isinstance(entry, dict) else entry.to_dict()
            )
            try:
                rows.append(
                    (
                        run_id,
                        data["record_id"],
                        data["record_index"],
                        data["error_type"],
                        data.get("message", ""),
                        data.get("traceback_digest", ""),
                        data.get("trace_span", ""),
                        data.get("attempts", 0),
                    )
                )
            except KeyError as missing:
                raise StorageError(
                    f"quarantine entry missing field {missing}"
                ) from None
        with self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO quarantine VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    # ------------------------------------------------------------- read

    def quarantined(
        self, run_id: str | None = None
    ) -> list[dict[str, Any]]:
        """Quarantine rows, optionally restricted to one run."""
        sql = (
            "SELECT run_id, record_id, record_index, error_type, "
            "message, traceback_digest, trace_span, attempts "
            "FROM quarantine"
        )
        parameters: tuple = ()
        if run_id is not None:
            sql += " WHERE run_id=?"
            parameters = (run_id,)
        sql += " ORDER BY run_id, record_index"
        names = [column for column, _ in QUARANTINE_COLUMNS]
        return [
            dict(zip(names, row))
            for row in self._connection.execute(sql, parameters)
        ]

    def quarantine_schema(self) -> list[tuple[str, str]]:
        """Live (column, type) pairs for the quarantine table.

        Compared against :data:`QUARANTINE_COLUMNS` by the CI
        resilience job so schema drift cannot slip in unnoticed.
        """
        return [
            (row[1], row[2])
            for row in self._connection.execute(
                "PRAGMA table_info(quarantine)"
            )
        ]

    def content_digest(self) -> str:
        """Order-independent fingerprint of the extraction content.

        Covers patients, values, and provenance — not quarantine
        bookkeeping — so a run that quarantined a poison record and a
        run that never saw it hash identically.
        """
        import hashlib

        hasher = hashlib.sha256()
        for table, order in (
            ("patients", "patient_id"),
            ("numeric_values", "patient_id, attribute"),
            ("term_values", "patient_id, attribute, position"),
            ("categorical_values", "patient_id, attribute"),
            ("provenance", "patient_id, kind, attribute, position"),
        ):
            for row in self._connection.execute(
                f"SELECT * FROM {table} ORDER BY {order}"
            ):
                hasher.update(repr((table, row)).encode())
        return hasher.hexdigest()[:16]

    def quarantine_digest(self) -> str:
        """Fingerprint of the quarantine bookkeeping.

        Complements :meth:`content_digest` (which deliberately
        excludes quarantine): the CI shard-parity gate checks that a
        sharded run isolated exactly the same poisons, at the same
        global indices, as the 1-shard run.
        """
        import hashlib

        hasher = hashlib.sha256()
        for row in self._connection.execute(
            "SELECT run_id, record_id, record_index, error_type, "
            "traceback_digest, attempts FROM quarantine "
            "ORDER BY run_id, record_index, record_id"
        ):
            hasher.update(repr(tuple(row)).encode())
        return hasher.hexdigest()[:16]

    def patients(self) -> list[str]:
        rows = self._connection.execute(
            "SELECT patient_id FROM patients ORDER BY patient_id"
        )
        return [r[0] for r in rows]

    def numeric_value(
        self, patient_id: str, attribute: str
    ) -> float | tuple[float, float] | None:
        row = self._connection.execute(
            "SELECT value, value2 FROM numeric_values WHERE "
            "patient_id=? AND attribute=?",
            (patient_id, attribute),
        ).fetchone()
        if row is None or row[0] is None:
            return None
        return (row[0], row[1]) if row[1] is not None else row[0]

    def terms(self, patient_id: str, attribute: str) -> list[str]:
        rows = self._connection.execute(
            "SELECT term FROM term_values WHERE patient_id=? AND "
            "attribute=? ORDER BY position",
            (patient_id, attribute),
        )
        return [r[0] for r in rows]

    def categorical_value(
        self, patient_id: str, attribute: str
    ) -> str | None:
        row = self._connection.execute(
            "SELECT label FROM categorical_values WHERE patient_id=? "
            "AND attribute=?",
            (patient_id, attribute),
        ).fetchone()
        return row[0] if row else None

    def provenance(
        self,
        patient_id: str,
        attribute: str | None = None,
    ) -> list[dict[str, Any]]:
        """Provenance rows for one patient (optionally one attribute).

        Each row answers "where did this cell come from": the kind of
        value, the method that produced it (``linkage``, ``pattern``,
        ``regex``, ``proximity``, ``pos-pattern``, ``id3``) and the
        method-specific decision detail.
        """
        sql = (
            "SELECT kind, attribute, position, value, method, detail "
            "FROM provenance WHERE patient_id=?"
        )
        parameters: tuple = (patient_id,)
        if attribute is not None:
            sql += " AND attribute=?"
            parameters += (attribute,)
        sql += " ORDER BY kind, attribute, position"
        return [
            {
                "kind": kind,
                "attribute": attr,
                "position": position,
                "value": value,
                "method": method,
                "detail": detail,
            }
            for kind, attr, position, value, method, detail
            in self._connection.execute(sql, parameters)
        ]

    def method_counts(self, kind: str | None = None) -> dict[str, int]:
        """How many stored values each method produced."""
        sql = (
            "SELECT method, COUNT(*) FROM provenance"
            + (" WHERE kind=?" if kind is not None else "")
            + " GROUP BY method ORDER BY method"
        )
        parameters = (kind,) if kind is not None else ()
        return dict(self._connection.execute(sql, parameters))

    def missing_provenance(self) -> list[tuple[str, str, str]]:
        """Stored values with no provenance row: (kind, patient, attr).

        The CI smoke job gates on this returning an empty list —
        every non-null numeric value, every term, and every non-null
        categorical label must join to exactly one provenance row.
        """
        out = self._connection.execute(
            "SELECT 'numeric', v.patient_id, v.attribute "
            "FROM numeric_values v LEFT JOIN provenance p ON "
            "p.kind='numeric' AND p.patient_id=v.patient_id AND "
            "p.attribute=v.attribute "
            "WHERE v.value IS NOT NULL AND p.patient_id IS NULL"
        ).fetchall()
        out += self._connection.execute(
            "SELECT 'term', v.patient_id, v.attribute "
            "FROM term_values v LEFT JOIN provenance p ON "
            "p.kind='term' AND p.patient_id=v.patient_id AND "
            "p.attribute=v.attribute AND p.position=v.position "
            "WHERE p.patient_id IS NULL"
        ).fetchall()
        out += self._connection.execute(
            "SELECT 'categorical', v.patient_id, v.attribute "
            "FROM categorical_values v LEFT JOIN provenance p ON "
            "p.kind='categorical' AND p.patient_id=v.patient_id AND "
            "p.attribute=v.attribute "
            "WHERE v.label IS NOT NULL AND p.patient_id IS NULL"
        ).fetchall()
        return [tuple(row) for row in out]

    def query(self, sql: str, parameters: tuple = ()) -> list[tuple]:
        """Arbitrary read-only research query over the result tables."""
        lowered = sql.lstrip().lower()
        if not lowered.startswith("select"):
            raise StorageError("query() only accepts SELECT statements")
        return self._connection.execute(sql, parameters).fetchall()

    # ------------------------------------------------------- analytics

    def label_distribution(self, attribute: str) -> dict[str, int]:
        """Cohort-level counts for a categorical attribute — the kind
        of chart-review question the paper's introduction motivates."""
        rows = self._connection.execute(
            "SELECT label, COUNT(*) FROM categorical_values WHERE "
            "attribute=? AND label IS NOT NULL GROUP BY label",
            (attribute,),
        )
        return {label: count for label, count in rows}

    def numeric_summary(
        self, attribute: str
    ) -> dict[str, float] | None:
        rows = self._connection.execute(
            "SELECT MIN(value), AVG(value), MAX(value), COUNT(value) "
            "FROM numeric_values WHERE attribute=? AND value IS NOT "
            "NULL",
            (attribute,),
        ).fetchone()
        if not rows or rows[3] == 0:
            return None
        return {
            "min": rows[0], "mean": rows[1], "max": rows[2],
            "count": rows[3],
        }

    def term_frequencies(self, attribute: str) -> dict[str, int]:
        rows = self._connection.execute(
            "SELECT term, COUNT(*) FROM term_values WHERE attribute=? "
            "GROUP BY term ORDER BY COUNT(*) DESC",
            (attribute,),
        )
        return {term: count for term, count in rows}

    # --------------------------------------------------------- export

    def export_csv(self, path: str | Path) -> int:
        """Write one wide CSV row per patient ("for future data
        mining", the paper's stated purpose).  Numeric columns hold
        plain values (``systolic``/``diastolic`` split out), term
        columns hold ``;``-joined lists, categorical columns labels.
        Returns the number of rows written.
        """
        import csv

        numeric_attrs = [
            r[0]
            for r in self._connection.execute(
                "SELECT DISTINCT attribute FROM numeric_values "
                "ORDER BY attribute"
            )
        ]
        term_attrs = [
            r[0]
            for r in self._connection.execute(
                "SELECT DISTINCT attribute FROM term_values "
                "ORDER BY attribute"
            )
        ]
        cat_attrs = [
            r[0]
            for r in self._connection.execute(
                "SELECT DISTINCT attribute FROM categorical_values "
                "ORDER BY attribute"
            )
        ]
        header = ["patient_id"]
        for attr in numeric_attrs:
            if attr == "blood_pressure":
                header += ["systolic", "diastolic"]
            else:
                header.append(attr)
        header += term_attrs + cat_attrs

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            count = 0
            for patient_id in self.patients():
                row: list = [patient_id]
                for attr in numeric_attrs:
                    value = self.numeric_value(patient_id, attr)
                    if attr == "blood_pressure":
                        if isinstance(value, tuple):
                            row += [value[0], value[1]]
                        else:
                            row += ["", ""]
                    else:
                        row.append("" if value is None else value)
                for attr in term_attrs:
                    row.append(";".join(self.terms(patient_id, attr)))
                for attr in cat_attrs:
                    label = self.categorical_value(patient_id, attr)
                    row.append("" if label is None else label)
                writer.writerow(row)
                count += 1
        return count


# ------------------------------------------------------------- merge

def merge_partition_stores(
    target_path: str | Path,
    partition_paths: list[str | Path],
    run_id: str = "",
) -> dict[str, int]:
    """Merge shard partitions into one store, byte-identical to batch.

    Reads every partition's journaled wire payloads, orders them by
    global accept sequence, and replays the exact write sequence the
    batch CLI performs — one ``store_many`` over all results, one
    ``save_quarantine``, one checkpointing close — into a *fresh*
    target.  Because the wire forms round-trip bit-exactly and SQLite
    is deterministic over an identical operation sequence, the merged
    file compares byte-equal to a single-process ``repro extract``
    over the same records in the same order.
    """
    from repro.extraction.pipeline import ExtractionResult

    merged: list[tuple[int, str, str]] = []
    for path in partition_paths:
        if not Path(path).exists():
            continue
        partition = PayloadJournal(path)
        try:
            merged.extend(partition.shard_payloads())
        finally:
            partition.close()
    merged.sort(key=lambda row: row[0])
    results = [
        ExtractionResult.from_dict(json.loads(payload))
        for _, kind, payload in merged
        if kind == "result"
    ]
    quarantine = [
        json.loads(payload)
        for _, kind, payload in merged
        if kind == "quarantine"
    ]
    target = Path(target_path)
    for stale in (
        target,
        Path(f"{target}-wal"),
        Path(f"{target}-shm"),
    ):
        if stale.exists():
            stale.unlink()
    store = ResultStore(target)
    try:
        store.store_many(results)
        if quarantine:
            store.save_quarantine(quarantine, run_id=run_id)
    finally:
        store.close()
    return {
        "results": len(results),
        "quarantined": len(quarantine),
        "partitions": len(partition_paths),
    }
