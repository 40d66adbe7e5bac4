"""End-to-end record extraction (the paper's Figure 2 architecture).

A :class:`RecordExtractor` wires the three method-specific extractors
over split records: numeric fields through link-grammar association,
term fields through POS patterns + ontology, categorical fields through
trained ID3 classifiers.  Results go to
:class:`~repro.storage.db.ResultStore` (the Access-database stand-in).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import tracing
from repro.errors import TrainingError
from repro.extraction.categorical import CategoricalClassifier
from repro.extraction.numeric import NumericExtraction, NumericExtractor
from repro.extraction.schema import (
    CATEGORICAL_ATTRIBUTES,
    CategoricalAttribute,
)
from repro.extraction.terms import TermExtractor
from repro.linkgrammar.parser import LinkGrammarParser
from repro.ml.id3 import ID3Classifier
from repro.ml.serialize import tree_from_dict
from repro.records.model import PatientRecord
from repro.runtime.cache import ExtractionCaches
from repro.synth.gold import GoldAnnotations


@dataclass(frozen=True)
class Provenance:
    """How one stored value was produced.

    One row per emitted value, regardless of kind:

    * numeric — ``method`` is the association route (``regex``,
      ``alignment``, ``linkage``, ``pattern``, ``proximity``) and
      ``detail`` the exact decision (graph distance, list ordinal,
      instantiated fallback pattern, regex);
    * term — ``method`` is ``pos-pattern`` and ``detail`` carries the
      candidate POS pattern plus the matched concept;
    * categorical — ``method`` is ``id3`` and ``detail`` the
      root-to-leaf decision path.
    """

    attribute: str
    kind: str  # "numeric" | "term" | "categorical"
    value: str
    method: str
    detail: str = ""
    position: int = 0  # ordinal for multi-valued (term) attributes

    def to_dict(self) -> dict[str, Any]:
        return {
            "attribute": self.attribute,
            "kind": self.kind,
            "value": self.value,
            "method": self.method,
            "detail": self.detail,
            "position": self.position,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Provenance":
        return cls(
            attribute=data["attribute"],
            kind=data["kind"],
            value=data["value"],
            method=data["method"],
            detail=data.get("detail", ""),
            position=int(data.get("position", 0)),
        )


@dataclass
class ExtractionResult:
    """Everything extracted from one record."""

    patient_id: str
    numeric: dict[str, NumericExtraction | None] = field(
        default_factory=dict
    )
    terms: dict[str, list[str]] = field(default_factory=dict)
    categorical: dict[str, str | None] = field(default_factory=dict)
    provenance: list[Provenance] = field(default_factory=list)

    def numeric_values(self) -> dict[str, Any]:
        """Attribute → plain value (no provenance)."""
        return {
            name: (extraction.value if extraction else None)
            for name, extraction in self.numeric.items()
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form, round-trippable via :meth:`from_dict`.

        Dict insertion order and float values survive the JSON trip
        exactly, so ``from_dict(json.loads(json.dumps(to_dict())))``
        reproduces the result bit for bit — the service protocol
        depends on this to keep its stores byte-identical to the
        batch path's.
        """
        return {
            "patient_id": self.patient_id,
            "numeric": {
                name: (
                    extraction.to_dict() if extraction else None
                )
                for name, extraction in self.numeric.items()
            },
            "terms": {
                name: list(values)
                for name, values in self.terms.items()
            },
            "categorical": dict(self.categorical),
            "provenance": [p.to_dict() for p in self.provenance],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExtractionResult":
        return cls(
            patient_id=data["patient_id"],
            numeric={
                name: (
                    NumericExtraction.from_dict(entry)
                    if entry is not None
                    else None
                )
                for name, entry in data.get("numeric", {}).items()
            },
            terms={
                name: list(values)
                for name, values in data.get("terms", {}).items()
            },
            categorical=dict(data.get("categorical", {})),
            provenance=[
                Provenance.from_dict(p)
                for p in data.get("provenance", [])
            ],
        )


def _numeric_value_str(value: float | tuple[float, float]) -> str:
    if isinstance(value, tuple):
        return "/".join(f"{component:g}" for component in value)
    return f"{value:g}"


def _categorical_attribute(name: Any) -> CategoricalAttribute:
    for attr in CATEGORICAL_ATTRIBUTES:
        if attr.name == name:
            return attr
    raise TrainingError(f"{name!r} is not a categorical attribute")


class RecordExtractor:
    """Full-record extraction with optional categorical models.

    By default all sub-extractors share one :class:`ExtractionCaches`
    set — a document cache (each section's NLP run is reused by every
    attribute reading that section) and a cross-record linkage cache
    (one parse serves every sentence with the same token signature in
    the whole cohort).  Explicitly-passed sub-extractors keep whatever
    caches they were built with.  *models* maps attribute names to
    serialized ID3 trees (see :meth:`attach_model`).
    """

    def __init__(
        self,
        numeric: NumericExtractor | None = None,
        terms: TermExtractor | None = None,
        caches: ExtractionCaches | None = None,
        parse_budget: float | None = None,
        models: dict[str, dict] | None = None,
    ) -> None:
        self.caches = caches or ExtractionCaches()
        self.parse_budget = parse_budget
        if numeric is None:
            numeric = NumericExtractor(
                parser=LinkGrammarParser(time_budget=parse_budget),
                document_cache=self.caches.documents,
                linkage_cache=self.caches.linkages,
            )
        self.numeric = numeric
        self.terms = terms or TermExtractor(
            document_cache=self.caches.documents
        )
        self.categorical: dict[str, CategoricalClassifier] = {}
        # Over the engine's (possibly compiled) dictionary, so no
        # classifier rebuilds the grammar from source.
        self._feature_parser = LinkGrammarParser(
            dictionary=self.numeric.parser.dictionary, max_linkages=1
        )
        for name, tree in (models or {}).items():
            self.attach_model(
                _categorical_attribute(name), tree_from_dict(tree)
            )

    @classmethod
    def from_artifact(
        cls,
        artifact: "Any",
        parse_budget: float | None = None,
    ) -> "RecordExtractor":
        """Build from a compiled artifact (path or object).

        Behaviourally identical to ``RecordExtractor()`` but skips
        dictionary expansion and ontology loading — see
        :mod:`repro.runtime.compiled`.
        """
        from repro.runtime.compiled import CompiledArtifact

        if not isinstance(artifact, CompiledArtifact):
            artifact = CompiledArtifact.load(artifact)
        return artifact.make_extractor(parse_budget=parse_budget)

    def train_categorical(
        self,
        records: list[PatientRecord],
        golds: list[GoldAnnotations],
        attributes: tuple[CategoricalAttribute, ...] =
        CATEGORICAL_ATTRIBUTES,
    ) -> None:
        """Fit one ID3 classifier per categorical attribute.

        Records whose gold label is ``None`` (no information dictated)
        are skipped for that attribute, as the paper does with its
        five subjects lacking smoking information.
        """
        if len(records) != len(golds):
            raise ValueError(
                f"{len(records)} records vs {len(golds)} golds"
            )
        for attr in attributes:
            texts: list[str] = []
            labels: list[str] = []
            for record, gold in zip(records, golds):
                label = gold.categorical.get(attr.name)
                text = record.section_text(attr.section)
                if label is None or not text:
                    continue
                texts.append(text)
                labels.append(label)
            if not texts:
                raise TrainingError(
                    f"no training data for {attr.name!r}"
                )
            self.attach_model(attr).fit(texts, labels)

    def attach_model(
        self,
        attribute: CategoricalAttribute,
        model: ID3Classifier | None = None,
    ) -> CategoricalClassifier:
        """Install and return the ID3 classifier for *attribute*.

        It reads sections through the engine's caches, so a record's
        sections are scanned once for all three extractors.  Without
        a trained *model* the caller fits the classifier.
        """
        classifier = CategoricalClassifier(
            attribute,
            document_cache=self.caches.documents,
            linkage_cache=self.caches.linkages,
            parser=self._feature_parser,
        )
        classifier._id3 = model
        self.categorical[attribute.name] = classifier
        return classifier

    def save_models(self, directory) -> list:
        """Write every trained categorical model to *directory*."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, classifier in sorted(self.categorical.items()):
            path = directory / f"{name}.json"
            path.write_text(json.dumps(classifier.to_dict(), indent=1))
            paths.append(path)
        return paths

    def load_models(self, directory) -> int:
        """Load all ``*.json`` models from *directory*; returns count.

        Models attach in schema order, as training attaches them, so
        results equal a trained engine's.  A malformed or unreadable
        file raises :class:`TrainingError` naming it.
        """
        loaded = []
        for path in sorted(Path(directory).glob("*.json")):
            try:
                data = json.loads(path.read_text())
                attr = _categorical_attribute(data["attribute"])
                loaded.append((attr, tree_from_dict(data["tree"])))
            except (
                OSError, ValueError, KeyError, TypeError, TrainingError
            ) as exc:
                raise TrainingError(
                    f"cannot load classifier from {path}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        loaded.sort(key=lambda entry: CATEGORICAL_ATTRIBUTES.index(entry[0]))
        for attr, model in loaded:
            self.attach_model(attr, model)
        return len(loaded)

    def extract(self, record: PatientRecord) -> ExtractionResult:
        """Extract every attribute the extractor knows how to handle.

        Every emitted value also gets a :class:`Provenance` entry; the
        whole record runs under one ``record`` span when a tracer is
        active.
        """
        result = ExtractionResult(patient_id=record.patient_id)
        with tracing.span("record", record.patient_id):
            result.numeric = self.numeric.extract_record(record)
            terms, assigned = self.terms.extract_record_detailed(
                record
            )
            result.terms = terms
            paths: dict[str, str] = {}
            with tracing.span("categorical"):
                for name, classifier in self.categorical.items():
                    label, path = (
                        classifier.predict_record_detailed(record)
                    )
                    result.categorical[name] = label
                    paths[name] = path
            for name, extraction in result.numeric.items():
                if extraction is None:
                    continue
                result.provenance.append(
                    Provenance(
                        attribute=name,
                        kind="numeric",
                        value=_numeric_value_str(extraction.value),
                        method=extraction.method.value,
                        detail=extraction.detail,
                    )
                )
            for name, pairs in assigned.items():
                for position, (canonical, hit) in enumerate(pairs):
                    result.provenance.append(
                        Provenance(
                            attribute=name,
                            kind="term",
                            value=canonical,
                            method="pos-pattern",
                            detail=(
                                f"pattern:{hit.pattern} "
                                f"surface:{hit.surface} "
                                f"cui:{hit.cui}"
                            ),
                            position=position,
                        )
                    )
            for name, label in result.categorical.items():
                if label is None:
                    continue
                result.provenance.append(
                    Provenance(
                        attribute=name,
                        kind="categorical",
                        value=label,
                        method="id3",
                        detail=paths.get(name, ""),
                    )
                )
        return result

    def extract_all(
        self, records: list[PatientRecord]
    ) -> list[ExtractionResult]:
        return [self.extract(record) for record in records]

    # ------------------------------------------------------ engine stats

    def counters(self) -> dict[str, Any]:
        """Cumulative additive counters across the engine's layers.

        Nested dict of numbers only, so worker processes can ship
        per-chunk deltas back (see :mod:`repro.runtime.metrics`).
        """
        out: dict[str, Any] = {}
        document_cache = getattr(self.numeric, "document_cache", None)
        if document_cache is not None:
            out["documents"] = document_cache.counters()
        linkage_cache = getattr(self.numeric, "linkage_cache", None)
        if linkage_cache is not None:
            out["linkages"] = linkage_cache.counters()
        parser = getattr(self.numeric, "parser", None)
        if parser is not None:
            out["parser"] = parser.stats.to_dict()
        return out
