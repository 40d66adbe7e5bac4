"""Seeded record streams for the benchmark workloads.

Every input comes from a seed.  Generator seeds for ID3 training,
parse-cache warm-up and measured traffic are drawn from disjoint
ranges, so no measured record is one the stack has trained or warmed
on, and no record is sent twice.  A *pass* is one batch of fresh
records; pass ``p`` of seed ``s`` is the same on every run.

Patient ids are prefixed with the part (pack) and pass that made them:
at one seed every pack numbers its cohort from 1, and two records with
one id in one store collide on the term table's primary key.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.extraction.schema import TERMS_ATTRIBUTES
from repro.synth.generator import CohortSpec, RecordGenerator
from repro.synth.packs import STYLE_PACKS, StylePack, pack_by_name
from repro.synth.traps import all_traps
from repro.synth.validator import validate_cohort

#: Records one pack contributes to one pass (the paper's cohort shape).
PART_SPEC = CohortSpec.paper()
#: Smaller per-pack cohort for training the ID3 models.
TRAIN_SPEC = CohortSpec(
    size=20,
    smoking_counts={"never": 11, "current": 5, "former": 2, None: 2},
)
#: Parts per pass: nine packs plus the trap records (mix), or nine
#: consistent-style parts (consistent).  Also the seed stride.
PARTS = len(STYLE_PACKS) + 1
MAX_PASSES = 1000

TRAIN_BASE = 100_000
WARM_BASE = 200_000
WARM_PARTS_PER_PACK = 2
MEASURE_BASE = 1_000_000

_TRAP_SOCIAL = ("smoking", "alcohol_use", "drug_use", "exercise_level")


class WorkloadError(Exception):
    """Generated inputs failed validation."""


@dataclass
class Item:
    """One record with its gold and the concepts it must not emit."""

    record: object
    gold: object
    forbidden_terms: tuple[str, ...] = ()
    forbidden_categorical: dict[str, str] = field(default_factory=dict)

    @property
    def patient_id(self) -> str:
        return self.record.patient_id


def measure_seed(seed: int, pass_index: int, part: int) -> int:
    """Generator seed of one part of one measured pass."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= pass_index < MAX_PASSES:
        raise ValueError(f"pass {pass_index} out of range")
    if not 0 <= part < PARTS:
        raise ValueError(f"part {part} out of range")
    return MEASURE_BASE + (seed * MAX_PASSES + pass_index) * PARTS + part


def _relabel(items: list[Item], label: str, pass_index: int) -> None:
    for item in items:
        patient_id = f"{label}.{pass_index}.{item.record.patient_id}"
        item.record.patient_id = patient_id
        item.gold.patient_id = patient_id


def _validate(items: list[Item], pack: StylePack) -> None:
    violations = validate_cohort(
        [item.record for item in items],
        [item.gold for item in items],
        numeric_attributes=pack.all_attributes(),
    )
    if violations:
        raise WorkloadError(
            f"{len(violations)} invalid records, first: {violations[0]}"
        )


def pack_part(
    pack: StylePack,
    generator_seed: int,
    label: str,
    pass_index: int,
    spec: CohortSpec = PART_SPEC,
) -> list[Item]:
    """One pack's cohort, validated, with prefixed patient ids."""
    records, golds = pack.generate_cohort(spec, seed=generator_seed)
    items = [Item(record, gold) for record, gold in zip(records, golds)]
    _relabel(items, label, pass_index)
    _validate(items, pack)
    return items


def trap_part(generator_seed: int, pass_index: int) -> list[Item]:
    """The negation and family-history traps over fresh surroundings.

    Each trap's history sections (and, for the smoking trap, its social
    history) are laid over a newly generated record, so only the decoy
    sentences repeat across passes.
    """
    generator = RecordGenerator(seed=generator_seed)
    items = []
    for index, case in enumerate(all_traps()):
        record, gold = generator.generate("1", smoking="never")
        sections = ["Past Medical History", "Past Surgical History"]
        if case.forbidden_categorical:
            sections.append("Social History")
            for name in _TRAP_SOCIAL:
                gold.categorical[name] = case.gold.categorical[name]
        for name in sections:
            record.section(name).text = case.record.section(name).text
        for attr in TERMS_ATTRIBUTES:
            gold.terms[attr.name] = list(case.gold.terms[attr.name])
        record.raw_text = record.render()
        item = Item(
            record, gold, tuple(case.forbidden_terms),
            dict(case.forbidden_categorical),
        )
        _relabel([item], f"trap-{case.kind}-{index}", pass_index)
        items.append(item)
    _validate(items, pack_by_name("consistent"))
    return items


def make_pass(workload: str, seed: int, pass_index: int) -> list[Item]:
    """Fresh records for one pass, in a seeded arrival order."""
    items: list[Item] = []
    if workload == "mix":
        for part, pack in enumerate(STYLE_PACKS):
            items += pack_part(
                pack, measure_seed(seed, pass_index, part), pack.name,
                pass_index,
            )
        items += trap_part(
            measure_seed(seed, pass_index, len(STYLE_PACKS)), pass_index
        )
    elif workload == "consistent":
        consistent = pack_by_name("consistent")
        for part in range(len(STYLE_PACKS)):
            items += pack_part(
                consistent, measure_seed(seed, pass_index, part),
                f"consistent-{part}", pass_index,
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order|{workload}|{seed}|{pass_index}").shuffle(items)
    return items


def stream(workload: str, seed: int) -> Iterator[Item]:
    """Every record of every pass, in order."""
    for pass_index in itertools.count():
        yield from make_pass(workload, seed, pass_index)


def train_items() -> list[Item]:
    """The ID3 training cohort: a small part from every pack."""
    items: list[Item] = []
    for part, pack in enumerate(STYLE_PACKS):
        items += pack_part(
            pack, TRAIN_BASE + part, f"train-{pack.name}", 0, TRAIN_SPEC
        )
    return items


def warm_items() -> list[Item]:
    """The parse-cache warm-up corpus: every pack plus the traps."""
    items: list[Item] = []
    for part, pack in enumerate(STYLE_PACKS):
        for copy in range(WARM_PARTS_PER_PACK):
            items += pack_part(
                pack,
                WARM_BASE + part * WARM_PARTS_PER_PACK + copy,
                f"warm-{pack.name}-{copy}",
                0,
            )
    items += trap_part(
        WARM_BASE + len(STYLE_PACKS) * WARM_PARTS_PER_PACK, 0
    )
    return items
