"""Style-recovery floors and the ratchet gate, plus parity re-checks.

Three layers:

1. ``check_floors`` unit behaviour — violations are detected, missing
   packs/attributes are themselves violations, passing results are
   clean;
2. the repository ratchet — the checked-in ``EVAL_styles.json``
   (regenerated at seed 42 whenever extraction changes) must satisfy
   every floor in the checked-in ``eval_floors.json``, and the floors
   file must keep flooring the ISSUE-recovered gaps at their
   recovered levels;
3. parity on the recovery paths — the fused scanner and the term
   automaton were both touched by surfaces the fixes introduced
   (chart-speak numerics, multi-word surgical phrases), so their
   contracts are re-asserted on exactly those texts: the scanner
   computes what its building blocks do, the automaton proposes
   every start where the term probe hits, and the term scan finds
   what probing every start finds.
"""

import json
from pathlib import Path

import pytest

from repro.eval import check_floors, load_floors

REPO = Path(__file__).resolve().parents[2]

PASSING = {
    "packs": {
        "verbose": {
            "numeric": {
                "pulse": {"precision": 1.0, "recall": 1.0},
            },
        },
    },
}

FLOORS = {
    "packs": {
        "verbose": {
            "numeric": {"pulse": {"recall": 0.9}},
        },
    },
}


class TestCheckFloors:
    def test_passing_results_clean(self):
        assert check_floors(PASSING, FLOORS) == []

    def test_below_floor_is_violation(self):
        failing = {
            "packs": {
                "verbose": {
                    "numeric": {
                        "pulse": {"precision": 1.0, "recall": 0.5},
                    },
                },
            },
        }
        violations = check_floors(failing, FLOORS)
        assert len(violations) == 1
        assert "pulse" in violations[0]
        assert "0.5" in violations[0]

    def test_missing_pack_is_violation(self):
        assert check_floors({"packs": {}}, FLOORS)

    def test_missing_attribute_is_violation(self):
        results = {"packs": {"verbose": {"numeric": {}}}}
        violations = check_floors(results, FLOORS)
        assert violations and "missing" in violations[0]

    def test_smoking_floor_checked(self):
        floors = {"packs": {"consistent": {"smoking_accuracy": 0.9}}}
        ok = {"packs": {"consistent": {"smoking_accuracy": 0.95}}}
        bad = {"packs": {"consistent": {"smoking_accuracy": 0.5}}}
        assert check_floors(ok, floors) == []
        assert check_floors(bad, floors)


class TestRepositoryRatchet:
    """The checked-in artifact satisfies the checked-in floors."""

    @pytest.fixture(scope="class")
    def artifact(self):
        return json.loads((REPO / "EVAL_styles.json").read_text())

    @pytest.fixture(scope="class")
    def floors(self):
        return load_floors(REPO / "eval_floors.json")

    def test_artifact_meets_every_floor(self, artifact, floors):
        assert check_floors(artifact, floors) == []

    def test_artifact_is_baseline_matched_seed_42(self, artifact):
        assert artifact["seed"] == 42
        assert artifact["baseline_match"] is True

    def test_artifact_has_no_gold_violations(self, artifact):
        for name, entry in artifact["packs"].items():
            assert entry["gold_violations"] == 0, name

    def test_floors_pin_recovered_gaps(self, floors):
        # the ISSUE-named recoveries may never be un-floored: verbose
        # pulse, abbreviation-dense age/gravida/para + smoking,
        # cardiology SpO2/EF/LDL, baseline predefined surgical recall
        packs = floors["packs"]
        assert packs["verbose"]["numeric"]["pulse"]["recall"] >= 0.9
        for name in ("age", "gravida", "para"):
            floor = packs["abbreviation-dense"]["numeric"][name]
            assert floor["recall"] >= 0.85, name
        assert packs["abbreviation-dense"]["smoking_accuracy"] >= 0.93
        cardio = packs["cardiology-vitals"]["numeric"]
        assert cardio["oxygen_saturation"]["recall"] >= 0.8
        assert cardio["ejection_fraction"]["recall"] >= 0.85
        assert cardio["ldl_cholesterol"]["recall"] >= 0.85
        baseline_terms = packs["consistent"]["terms"]
        predefined = baseline_terms["predefined_past_surgical_history"]
        assert predefined["recall"] >= 0.9
        assert packs["medication-dosage"]["numeric"]

    def test_every_floored_pack_is_registered(self, floors):
        from repro.synth.packs import STYLE_PACKS

        registered = {p.name for p in STYLE_PACKS}
        assert set(floors["packs"]) <= registered


RECOVERY_TEXTS = [
    "Pt is a 33 y/o female, G4P3A1.",
    "Wt 154 lbs. Denies tob. use, 20 pk-yr history quit 10 yrs ago.",
    "SpO2 94%. Ejection fraction is 57.5 percent.",
    "LDL cholesterol down from 201 to 180 mg/dL.",
    "Respiratory rate, oxygen saturation, and ejection fraction are "
    "12, 95, and 45.",
    "Metoprolol was increased from 25 to 50 mg. Lisinopril 2.5 mg.",
    "Status post removal of the gallbladder and biopsy of the "
    "breast; breast conservation surgery 1998.",
]


class TestParityOnRecoveryPaths:
    def test_fused_scanner_parity_on_recovery_texts(self):
        from tests.nlp.test_scanner_parity import (
            assert_scan_matches_building_blocks,
        )

        for text in RECOVERY_TEXTS:
            assert_scan_matches_building_blocks(text)

    def test_automaton_parity_on_recovery_texts(self):
        from repro.extraction.terms import TermExtractor
        from tests.ontology.test_automaton import uncovered_hits

        extractor = TermExtractor()
        total = 0
        for text in RECOVERY_TEXTS:
            hits, missed = uncovered_hits(extractor, text)
            assert missed == [], text
            total += hits
        assert total > 0

    def test_automaton_parity_with_v1_assignment(self):
        # the extended POS patterns must scan identically with and
        # without the candidate skip under v1 assignment too
        # (use_synonyms only changes routing, never the scan)
        from tests.ontology.test_automaton import extractor_pair

        fast, every_start = extractor_pair(use_synonyms=False)
        total = 0
        for text in RECOVERY_TEXTS:
            hits = fast.extract_terms(text)
            assert hits == every_start.extract_terms(text), text
            total += len(hits)
        assert total > 0


class TestLiveRecoveryFloors:
    """Small-cohort live floors for the two headline recoveries."""

    def test_verbose_pulse_and_weight_recovered(self):
        from repro.eval import numeric_experiment
        from repro.synth import CohortSpec, pack_by_name

        pack = pack_by_name("verbose")
        records, golds = pack.generate_cohort(
            CohortSpec(size=10, smoking_counts={"never": 10}), seed=11
        )
        result = numeric_experiment(records, golds)
        for name in ("pulse", "weight"):
            counts = result.per_attribute[name]
            assert counts.recall() >= 0.9, name

    def test_abbreviation_dense_numerics_recovered(self):
        from repro.eval import numeric_experiment
        from repro.synth import CohortSpec, pack_by_name

        pack = pack_by_name("abbreviation-dense")
        records, golds = pack.generate_cohort(
            CohortSpec(size=10, smoking_counts={"never": 10}), seed=11
        )
        result = numeric_experiment(records, golds)
        for name in ("age", "gravida", "para", "weight"):
            counts = result.per_attribute[name]
            assert counts.recall() >= 0.85, name

    def test_medication_dosage_pack_extracts(self):
        from repro.eval import numeric_experiment
        from repro.synth import CohortSpec, pack_by_name

        pack = pack_by_name("medication-dosage")
        records, golds = pack.generate_cohort(
            CohortSpec(size=8, smoking_counts={"never": 8}), seed=11
        )
        result = numeric_experiment(
            records, golds, attributes=pack.all_attributes()
        )
        for attr in pack.attributes:
            counts = result.per_attribute[attr.name]
            assert counts.recall() >= 0.8, attr.name
            assert counts.precision() >= 0.9, attr.name
