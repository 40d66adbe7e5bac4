"""ID3 models attached to an engine run on the engine's own stack.

Training, ``load_models`` and ``CompiledArtifact.make_extractor`` (the
artifact's own models) all attach classifiers through
:meth:`RecordExtractor.attach_model`.  The contract under test: every
classifier reads sections through the engine's document cache and
parses over the engine's dictionary, so a loaded-model engine scans
each section once, never rebuilds the grammar from source, extracts
exactly what a trained engine does — and a malformed model file is a
typed error naming the file, not a traceback.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import TrainingError
from repro.extraction.schema import ALL_ATTRIBUTES
from repro.nlp.pipeline import Pipeline
from repro.runtime.compiled import CompiledArtifact
from repro.synth import STYLE_PACKS, CohortSpec, RecordGenerator

SPEC = CohortSpec(
    size=8,
    smoking_counts={"never": 4, "current": 2, "former": 1, None: 1},
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Loads a compiled artifact and saved models in a fresh interpreter,
#: extracts one record, and reports what the process built and loaded.
_WARM_START = """
import json, sys
import repro.linkgrammar.dictionary as dictionary
from repro.records.model import PatientRecord, Section
from repro.runtime.compiled import CompiledArtifact

artifact_path, models, record = sys.argv[1:]
extractor = CompiledArtifact.load(artifact_path).make_extractor()
loaded = extractor.load_models(models)
data = json.loads(record)
result = extractor.extract(PatientRecord(
    data["id"], [Section(name, text) for name, text in data["sections"]]
))
print(json.dumps({
    "loaded": loaded,
    "smoking": result.categorical.get("smoking"),
    "dictionary_rebuilt": dictionary._default is not None,
    "networkx": "networkx" in sys.modules,
}))
"""


@pytest.fixture(scope="module")
def artifact():
    return CompiledArtifact.build()


@pytest.fixture(scope="module")
def cohort():
    return RecordGenerator(seed=17).generate_cohort(SPEC)


@pytest.fixture(scope="module")
def models(artifact, cohort, tmp_path_factory):
    """Directory of the 12 models trained on the cohort."""
    records, golds = cohort
    trained = artifact.make_extractor()
    trained.train_categorical(records, golds)
    directory = tmp_path_factory.mktemp("models")
    trained.save_models(directory)
    return directory


def _loaded(artifact, models):
    extractor = artifact.make_extractor()
    assert extractor.load_models(models) == 12
    return extractor


class TestSharedStack:
    def test_classifiers_use_the_engine_caches_and_dictionary(
        self, artifact, models
    ):
        extractor = _loaded(artifact, models)
        dictionary = extractor.numeric.parser.dictionary
        for classifier in extractor.categorical.values():
            features = classifier.extractor
            assert features.document_cache is extractor.caches.documents
            assert features.linkage_cache is extractor.caches.linkages
            assert features.parser.dictionary is dictionary
            assert features.parser.max_linkages == 1

    def test_one_scan_per_distinct_section(
        self, artifact, models, cohort, monkeypatch
    ):
        extractor = _loaded(artifact, models)
        record = cohort[0][0]
        scans = []
        process_text = Pipeline.process_text

        def counting(self, text, name=""):
            scans.append(text)
            return process_text(self, text, name)

        monkeypatch.setattr(Pipeline, "process_text", counting)
        extractor.extract(record)
        sections = {
            record.section_text(attr.section) for attr in ALL_ATTRIBUTES
        } - {""}
        assert len(scans) == len(sections)
        assert extractor.caches.documents.counters()["misses"] == len(
            sections
        )

    def test_loaded_equals_trained_over_style_packs(
        self, artifact, models, cohort
    ):
        records, golds = cohort
        trained = artifact.make_extractor()
        trained.train_categorical(records, golds)
        loaded = _loaded(artifact, models)
        spec = CohortSpec(size=2, smoking_counts={"current": 1, None: 1})
        for pack in STYLE_PACKS:
            for record in pack.generate_cohort(spec, seed=23)[0]:
                assert json.dumps(loaded.extract(record).to_dict()) == (
                    json.dumps(trained.extract(record).to_dict())
                )

    def test_warm_start_builds_no_dictionary_and_no_networkx(
        self, artifact, models, cohort, tmp_path
    ):
        artifact_path = tmp_path / "artifact.pkl"
        artifact.save(artifact_path)
        record = cohort[0][0]
        payload = json.dumps({
            "id": record.patient_id,
            "sections": [[s.name, s.text] for s in record.sections],
        })
        env = dict(os.environ, PYTHONPATH=SRC)
        run = subprocess.run(
            [
                sys.executable, "-c", _WARM_START,
                str(artifact_path), str(models), payload,
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        report = json.loads(run.stdout.splitlines()[-1])
        assert report == {
            "loaded": 12,
            "smoking": _loaded(artifact, models).extract(
                record
            ).categorical["smoking"],
            "dictionary_rebuilt": False,
            "networkx": False,
        }


class TestMalformedModelFiles:
    @pytest.mark.parametrize(
        "content, reason",
        [
            ({"tree": {}}, "KeyError: 'attribute'"),
            ({"attribute": "smoking"}, "KeyError: 'tree'"),
            ({"attribute": "age", "tree": {}}, "'age' is not a categ"),
            ({"attribute": None, "tree": {}}, "None is not a categ"),
            ([1, 2], "TypeError"),
            (
                {"attribute": "smoking", "tree": {"format": 1}},
                "expected an object with a root",
            ),
            (
                {"attribute": "smoking",
                 "tree": {"format": 1, "root": {"feature": "x"}}},
                r"missing \['absent', 'present'\]",
            ),
        ],
    )
    def test_typed_error_names_the_file(
        self, artifact, tmp_path, content, reason
    ):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(content))
        extractor = artifact.make_extractor()
        with pytest.raises(TrainingError, match=reason) as caught:
            extractor.load_models(tmp_path)
        assert str(path) in str(caught.value)

    def test_cli_reports_instead_of_crashing(self, tmp_path, capsys):
        from repro.cli import main
        from repro.records.loader import save_records

        notes = tmp_path / "notes"
        records, _ = RecordGenerator(seed=3).generate_cohort(
            CohortSpec(size=1, smoking_counts={"never": 1})
        )
        save_records(records, notes)
        models = tmp_path / "models"
        models.mkdir()
        (models / "age.json").write_text(
            json.dumps({"attribute": "age", "tree": {}})
        )
        code = main([
            "extract", "--input", str(notes), "--db",
            str(tmp_path / "x.db"), "--models", str(models),
            "--no-warm-start",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "age.json" in err and "not a categorical" in err
