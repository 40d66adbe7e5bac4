"""Machine-readable experiment manifest.

The DESIGN.md experiment index, as code: every paper artifact with its
bench target and the paper's reported values.  Tests assert the
manifest and the ``benchmarks/`` directory stay in sync, so adding an
experiment without registering it (or vice versa) fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    id: str
    artifact: str
    bench_file: str
    paper_values: dict = field(default_factory=dict, hash=False)
    kind: str = "reproduction"  # or "ablation", "extension",
    #                              "baseline", "infrastructure"


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        id="FIG1",
        artifact="Figure 1 linkage diagram",
        bench_file="bench_figure1_linkage.py",
        paper_values={
            "is-144/90 link": "O",
            "association": {
                "pressure": "144/90", "pulse": "84",
                "temperature": "98.3", "weight": "154",
            },
        },
    ),
    Experiment(
        id="FIG2",
        artifact="Figure 2 system architecture",
        bench_file="bench_figure2_pipeline.py",
        kind="infrastructure",
    ),
    Experiment(
        id="NUM",
        artifact="§5 numeric attributes, P=R=100%",
        bench_file="bench_numeric_extraction.py",
        paper_values={"precision": 1.0, "recall": 1.0},
    ),
    Experiment(
        id="TAB1",
        artifact="Table 1 medical term extraction",
        bench_file="bench_table1_terms.py",
        paper_values={
            "predefined_past_medical_history": (0.967, 0.967),
            "other_past_medical_history": (0.761, 0.864),
            "predefined_past_surgical_history": (0.778, 0.350),
            "other_past_surgical_history": (0.620, 0.750),
        },
    ),
    Experiment(
        id="SMOKE",
        artifact="§5 smoking classification",
        bench_file="bench_smoking_classification.py",
        paper_values={"accuracy": 0.922, "features": (4, 7),
                      "cases": 45},
    ),
    Experiment(
        id="ABL-ASSOC",
        artifact="§3.1 hybrid association design",
        bench_file="bench_ablation_association.py",
        kind="ablation",
    ),
    Experiment(
        id="ABL-STYLE",
        artifact="§5 dictation-variability caveat",
        bench_file="bench_ablation_style.py",
        kind="ablation",
    ),
    Experiment(
        id="ABL-LEMMA",
        artifact="§3.3 lemma option",
        bench_file="bench_ablation_lemma.py",
        kind="ablation",
    ),
    Experiment(
        id="ABL-ONTO",
        artifact="§5 ontology incompleteness / synonym fix",
        bench_file="bench_ablation_ontology.py",
        kind="ablation",
    ),
    Experiment(
        id="ABL-PRUNE",
        artifact="reduced-error pruning at chart-review scale",
        bench_file="bench_ablation_pruning.py",
        kind="ablation",
    ),
    Experiment(
        id="EXT-NUMBOOL",
        artifact="§3.3 numeric Boolean features (proposed)",
        bench_file="bench_ext_numeric_features.py",
        kind="extension",
    ),
    Experiment(
        id="BASE-WHISK",
        artifact="§2 supervised pattern learning cost",
        bench_file="bench_baseline_induction.py",
        kind="baseline",
    ),
    Experiment(
        id="SCALE",
        artifact="introduction's chart-review throughput motivation",
        bench_file="bench_scaling.py",
        kind="infrastructure",
    ),
    Experiment(
        id="PARSE",
        artifact="persistent parse cache: cold vs warm-sidecar lanes",
        bench_file="bench_parse.py",
        kind="infrastructure",
    ),
    Experiment(
        id="PIPELINE",
        artifact="post-parse pipeline: serial, profiled, parallel lanes",
        bench_file="bench_pipeline.py",
        kind="infrastructure",
    ),
    Experiment(
        id="SUBSTRATE",
        artifact="substrate micro-benchmarks",
        bench_file="bench_substrates.py",
        kind="infrastructure",
    ),
    Experiment(
        id="SERVE",
        artifact="resident daemon vs one-shot batch path",
        bench_file="bench_service.py",
        kind="infrastructure",
    ),
    Experiment(
        id="STYLES",
        artifact="per-style accuracy matrix over adversarial "
                 "dictation packs (§5 style-variance caveat)",
        bench_file="bench_style_matrix.py",
        kind="extension",
        paper_values={
            "consistent_numeric": (1.0, 1.0),
            "prediction": "degradation when the writing style is "
                          "full of variants",
        },
    ),
)


def by_id(experiment_id: str) -> Experiment:
    for experiment in EXPERIMENTS:
        if experiment.id == experiment_id:
            return experiment
    raise KeyError(experiment_id)


def bench_files() -> set[str]:
    return {e.bench_file for e in EXPERIMENTS}
