"""Ahead-of-time compiled extraction artifacts.

Building an extraction stack from source is not free: expanding the
link-grammar lexicon into disjunct lists, loading the ontology into
SQLite, and deriving the connector match table together dominate
process start-up — a cost every worker in a process pool used to pay
again.  This module compiles those inputs **once** into a single
picklable :class:`CompiledArtifact`:

* :class:`CompiledGrammar` — the fully-expanded dictionary (words,
  tag defaults, number disjuncts) plus the precomputed dictionary-wide
  connector match table, rehydrated by
  :meth:`~repro.linkgrammar.dictionary.Dictionary.from_compiled`
  without touching the expression expander;
* :class:`~repro.ontology.store.CompiledOntology` — the in-memory
  normalized-name index that replaces per-lookup SQLite round-trips;
* the POS lexicon fingerprint and (optionally) serialized ID3 models.

Artifacts are versioned and fingerprinted against the embedded source
data (:func:`source_fingerprint`): loading an artifact built from
different lexicon or vocabulary contents raises
:class:`~repro.errors.ArtifactError` instead of silently extracting
with stale tables.  :func:`cached_artifact` keys the on-disk cache by
that fingerprint, so repeated CLI runs warm-start from one pickle
load and a stale cache entry is transparently rebuilt.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ArtifactError

if TYPE_CHECKING:
    from repro.extraction.pipeline import RecordExtractor
    from repro.linkgrammar.dictionary import Dictionary, MatchTables
    from repro.linkgrammar.expressions import Disjunct
    from repro.ontology.automaton import TermAutomaton
    from repro.ontology.store import CompiledOntology

#: Bump whenever the pickled layout of :class:`CompiledGrammar`,
#: :class:`CompiledOntology`, or :class:`CompiledArtifact` changes in
#: a way old readers cannot handle.  Part of the fingerprint, so a
#: version bump also invalidates every cached artifact.
#: Version 2 added the term automaton and numeric regex index sections;
#: version 3 pickles the grammar's match table without matcher sets.
ARTIFACT_VERSION = 3


def source_fingerprint() -> str:
    """Fingerprint of every compiled-in input an artifact bakes down.

    Hashes the link-grammar lexicon (macros, entries, tag defaults,
    number expression), the POS lexicon, the ontology vocabulary, and
    :data:`ARTIFACT_VERSION`.  Cheap — no dictionary build, no
    ontology load — so callers can validate a cache entry before
    paying for anything.
    """
    from repro.extraction.schema import NUMERIC_ATTRIBUTES
    from repro.linkgrammar import lexicon_data
    from repro.nlp.lexicon import WORD_TAGS
    from repro.ontology.data.vocabulary import CATEGORIES

    digest = hashlib.sha256()
    digest.update(f"version={ARTIFACT_VERSION}".encode())
    digest.update(repr(sorted(lexicon_data.MACROS.items())).encode())
    digest.update(repr(lexicon_data.NUMBER_EXPR).encode())
    digest.update(repr(lexicon_data.ENTRIES).encode())
    digest.update(repr(lexicon_data.TAG_DEFAULTS).encode())
    digest.update(repr(sorted(WORD_TAGS.items())).encode())
    digest.update(repr(sorted(CATEGORIES.items())).encode())
    digest.update(
        repr(
            [
                (attr.name, attr.regex_patterns)
                for attr in NUMERIC_ATTRIBUTES
            ]
        ).encode()
    )
    return digest.hexdigest()[:16]


@dataclass
class CompiledGrammar:
    """A fully-expanded, match-table-carrying dictionary snapshot.

    Everything :class:`~repro.linkgrammar.dictionary.Dictionary` would
    compute from the lexicon source, captured after the fact: the
    word → disjunct-list map, tag fallbacks, number disjuncts, the
    dictionary signature, and the dictionary-wide connector match
    table the parser threads into every parse session.
    """

    signature: str
    words: dict[str, list["Disjunct"]]
    tag_defaults: list[tuple[str, list["Disjunct"]]]
    number_disjuncts: list["Disjunct"]
    match_tables: "MatchTables"

    @classmethod
    def from_dictionary(
        cls, dictionary: "Dictionary"
    ) -> "CompiledGrammar":
        """Snapshot *dictionary*, forcing its derived tables."""
        return cls(
            signature=dictionary.signature(),
            words=dictionary._words,
            tag_defaults=dictionary._tag_defaults,
            number_disjuncts=dictionary._number_disjuncts,
            match_tables=dictionary.match_tables(),
        )

    def dictionary(self) -> "Dictionary":
        """Rehydrate a ready-to-parse dictionary (no expansion)."""
        from repro.linkgrammar.dictionary import Dictionary

        return Dictionary.from_compiled(self)


@dataclass
class CompiledArtifact:
    """One-file warm-start bundle for the whole extraction stack."""

    version: int
    fingerprint: str
    grammar: CompiledGrammar
    ontology: "CompiledOntology"
    #: POS lexicon at build time.  The tagger reads its module-level
    #: table directly (the fingerprint guarantees both agree); this
    #: copy exists for inspection and cross-process diffing.
    word_tags: dict[str, str]
    #: Serialized ID3 trees, when the artifact was compiled from a
    #: trained extractor.  ``None`` for the shared fingerprint-keyed
    #: cache — models vary per run and ride in separately.
    models: dict[str, dict] | None = None
    #: Word-level term automaton over every normalized ontology
    #: surface form (version 2).  Lets the term extractor find all
    #: candidate mention starts in one pass per sentence instead of
    #: probing the prefix index at every token.
    term_automaton: "TermAutomaton | None" = None
    #: Per-attribute alternation of the numeric fallback regexes
    #: (version 2), compiled lazily by the numeric extractor as a
    #: single no-match prefilter before the ordered per-pattern loop.
    regex_index: dict[str, str] | None = None

    @classmethod
    def build(
        cls,
        models: dict[str, dict] | None = None,
        fresh: bool = False,
    ) -> "CompiledArtifact":
        """Compile the embedded sources into a fresh artifact.

        By default the process-wide dictionary and ontology singletons
        are reused (a CLI process compiles at most once, so sharing is
        free).  ``fresh=True`` builds new component instances instead,
        for callers that must observe the full from-source cost — the
        benchmarks — or need isolation from the shared state.
        """
        from repro.extraction.schema import NUMERIC_ATTRIBUTES
        from repro.linkgrammar.dictionary import (
            Dictionary,
            default_dictionary,
        )
        from repro.nlp.lexicon import WORD_TAGS
        from repro.ontology.automaton import TermAutomaton
        from repro.ontology.builder import (
            build_concepts,
            default_ontology,
        )
        from repro.ontology.store import OntologyStore

        if fresh:
            dictionary = Dictionary()
            store = OntologyStore(build_concepts())
        else:
            dictionary = default_dictionary()
            store = default_ontology()
        ontology = store.compiled()
        regex_index = {
            attr.name: "|".join(
                f"(?:{pattern})" for pattern in attr.regex_patterns
            )
            for attr in NUMERIC_ATTRIBUTES
            if len(attr.regex_patterns) > 1
        }
        return cls(
            version=ARTIFACT_VERSION,
            fingerprint=source_fingerprint(),
            grammar=CompiledGrammar.from_dictionary(dictionary),
            ontology=ontology,
            word_tags=dict(WORD_TAGS),
            models=models,
            term_automaton=TermAutomaton.from_ontology(ontology),
            regex_index=regex_index,
        )

    # -------------------------------------------------------- persist

    def save(self, path: str | Path) -> int:
        """Atomically pickle the artifact to *path*; returns bytes.

        Writes to a temporary file in the destination directory and
        renames it into place, so concurrent readers never observe a
        half-written artifact.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as tmp:
                tmp.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return len(payload)

    @staticmethod
    def load(path: str | Path) -> "CompiledArtifact":
        """Unpickle and validate an artifact.

        Raises :class:`ArtifactError` when the file is unreadable,
        not an artifact, from a different :data:`ARTIFACT_VERSION`,
        or fingerprinted against different source data than this
        process carries.
        """
        path = Path(path)
        try:
            with open(path, "rb") as stream:
                artifact = pickle.load(stream)
        except OSError as exc:
            raise ArtifactError(
                f"cannot read artifact {path}: {exc}"
            ) from exc
        except Exception as exc:  # unpickling is open-ended
            raise ArtifactError(
                f"cannot unpickle artifact {path}: {exc}"
            ) from exc
        if not isinstance(artifact, CompiledArtifact):
            raise ArtifactError(
                f"{path} is not a compiled artifact "
                f"(got {type(artifact).__name__})"
            )
        if artifact.version != ARTIFACT_VERSION:
            raise ArtifactError(
                f"artifact {path} has version {artifact.version}, "
                f"this build reads version {ARTIFACT_VERSION}; "
                "recompile with `repro compile`"
            )
        expected = source_fingerprint()
        if artifact.fingerprint != expected:
            raise ArtifactError(
                f"artifact {path} was compiled from different source "
                f"data (fingerprint {artifact.fingerprint}, expected "
                f"{expected}); recompile with `repro compile`"
            )
        return artifact

    def require_section(self, name: str) -> Any:
        """The named artifact section, or a recompile-hint error.

        Version gating already rejects artifacts from older layouts,
        but hand-built or partially-populated artifacts can still
        carry ``None`` sections; the error names exactly what is
        missing so the fix is obvious.
        """
        value = getattr(self, name, None)
        if value is None:
            raise ArtifactError(
                f"{name.replace('_', ' ')} section absent from "
                "compiled artifact — rerun `repro compile`"
            )
        return value

    # ---------------------------------------------------------- build

    def make_extractor(
        self, parse_budget: float | None = None
    ) -> "RecordExtractor":
        """A ready :class:`RecordExtractor` over the compiled tables.

        Identical in behaviour to ``RecordExtractor()`` built cold —
        same dictionary contents, same ontology answers, same caches —
        but without expression expansion or SQLite loading.  It
        attaches the artifact's own models (serialized ID3 trees).
        """
        from repro.extraction.numeric import NumericExtractor
        from repro.extraction.pipeline import RecordExtractor
        from repro.extraction.terms import TermExtractor
        from repro.linkgrammar.parser import LinkGrammarParser
        from repro.runtime.cache import ExtractionCaches

        caches = ExtractionCaches()
        parser = LinkGrammarParser(
            dictionary=self.grammar.dictionary(),
            time_budget=parse_budget,
        )
        numeric = NumericExtractor(
            parser=parser,
            document_cache=caches.documents,
            linkage_cache=caches.linkages,
            regex_index=self.require_section("regex_index"),
        )
        terms = TermExtractor(
            ontology=self.ontology,
            document_cache=caches.documents,
            automaton=self.require_section("term_automaton"),
        )
        return RecordExtractor(
            numeric=numeric,
            terms=terms,
            caches=caches,
            parse_budget=parse_budget,
            models=self.models,
        )

    def stats(self) -> dict[str, Any]:
        """Human-facing summary for the compile CLI."""
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "grammar_signature": self.grammar.signature,
            "words": len(self.grammar.words),
            "concepts": len(self.ontology),
            "word_tags": len(self.word_tags),
            "models": sorted(self.models) if self.models else [],
            "automaton_nodes": (
                self.term_automaton.node_count
                if self.term_automaton is not None
                else 0
            ),
            "regex_index": sorted(self.regex_index or {}),
        }


# ------------------------------------------------------------- cache


def artifact_cache_dir() -> Path:
    """Directory for fingerprint-keyed artifacts.

    ``$REPRO_ARTIFACT_CACHE`` when set, else ``~/.cache/repro``.
    """
    override = os.environ.get("REPRO_ARTIFACT_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def cached_artifact(
    cache_dir: str | Path | None = None,
) -> tuple[CompiledArtifact, Path, bool]:
    """Load the fingerprint-matched cached artifact, or rebuild it.

    Returns ``(artifact, path, loaded)`` where *loaded* tells whether
    the artifact came off disk (warm) or was compiled fresh (cold,
    and written back for next time).  A stale, corrupt, or unreadable
    cache entry is silently replaced; an unwritable cache directory
    degrades to compile-per-run rather than failing.
    """
    directory = (
        Path(cache_dir) if cache_dir is not None else artifact_cache_dir()
    )
    path = directory / f"artifact-{source_fingerprint()}.pkl"
    if path.exists():
        try:
            return CompiledArtifact.load(path), path, True
        except ArtifactError:
            pass
    artifact = CompiledArtifact.build()
    try:
        artifact.save(path)
    except OSError:
        pass
    return artifact, path, False
