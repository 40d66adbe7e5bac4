"""Per-process memos never reach a compiled artifact.

The artifact pickles a :class:`Lemmatizer` (the ontology normalizer's,
shared with the term automaton), and :func:`source_fingerprint` hashes
data, not code, so an artifact written before lemmas were memoized
still loads.  Two contracts keep such artifacts working: pickling
drops the memo, so a warm artifact pickles to the same bytes as a
cold one; and unpickling a state without a memo — the layout written
before it existed — yields a lemmatizer that extracts identically.
"""

import copyreg
import io
import pickle

import pytest

from repro.morphology.lemmatizer import Lemmatizer
from repro.runtime.compiled import CompiledArtifact
from repro.synth import CohortSpec
from repro.synth.packs import STYLE_PACKS

SPEC = CohortSpec(
    size=4, smoking_counts={"never": 2, "current": 1, None: 1}
)


@pytest.fixture(scope="module")
def records():
    out = []
    for pack in STYLE_PACKS:
        cohort, _ = pack.generate_cohort(SPEC, seed=61)
        out.extend(cohort)
    return out


def _dumps(artifact: CompiledArtifact) -> bytes:
    return pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)


class _MemoFreePickler(pickle.Pickler):
    """Pickles every lemmatizer's state as ``{"_known": predicate}``,
    the layout written before the memo existed."""

    def reducer_override(self, obj):
        if type(obj) is Lemmatizer:
            state = {"_known": obj.known}
            return copyreg.__newobj__, (Lemmatizer,), state
        return NotImplemented


def _dumps_memo_free_layout(artifact: CompiledArtifact) -> bytes:
    buffer = io.BytesIO()
    pickler = _MemoFreePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dump(artifact)
    return buffer.getvalue()


def _extract(artifact: CompiledArtifact, records) -> list[dict]:
    extractor = artifact.make_extractor()
    return [extractor.extract(record).to_dict() for record in records]


def test_artifacts_pickle_in_the_memo_free_layout(records):
    artifact = CompiledArtifact.build(fresh=True)
    cold = _dumps(artifact)
    assert cold == _dumps_memo_free_layout(artifact)
    _extract(artifact, records)
    lemmatizer = artifact.ontology.normalizer.lemmatizer
    assert lemmatizer.lemma("pressures", "noun") == "pressure"
    assert _dumps(artifact) == cold


def test_memo_free_layout_loads_and_extracts_identically(
    records, tmp_path
):
    artifact = CompiledArtifact.build(fresh=True)
    path = tmp_path / "memo-free.pkl"
    path.write_bytes(_dumps_memo_free_layout(artifact))
    loaded = CompiledArtifact.load(path)
    lemmatizer = loaded.ontology.normalizer.lemmatizer
    assert lemmatizer.lemma("pressures", "noun") == "pressure"
    assert _extract(loaded, records) == _extract(artifact, records)
