"""Output checks: accuracy against gold, trap leaks, stored provenance.

All of these run outside the timed windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.extraction.schema import NUMERIC_ATTRIBUTES, TERMS_ATTRIBUTES

#: The paper's eight numeric slots; pack-extra attributes are not part
#: of the production schema and are not scored.
CORE_NUMERIC = tuple(attr.name for attr in NUMERIC_ATTRIBUTES)
TERM_SLOTS = tuple(attr.name for attr in TERMS_ATTRIBUTES)


class Outcome(NamedTuple):
    """What one workload run measured and found."""

    metrics: dict[str, float]
    #: Reported in the log only: name -> (value, unit).
    extras: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    log: list[str]


@dataclass
class Score:
    """Gold core slots seen and reproduced, and forbidden emissions."""

    records: int = 0
    slots: int = 0
    reproduced: int = 0
    leaks: int = 0

    def add(self, other: "Score") -> None:
        self.records += other.records
        self.slots += other.slots
        self.reproduced += other.reproduced
        self.leaks += other.leaks

    @property
    def accuracy(self) -> float:
        """Share of core slots reproduced, minus one per trap leak."""
        if not self.slots:
            return 0.0
        return (self.reproduced - self.leaks) / self.slots


def _same_value(got, expected) -> bool:
    if got is None:
        return False
    if isinstance(expected, tuple):
        return (
            isinstance(got, (tuple, list))
            and len(got) == len(expected)
            and all(abs(a - b) < 1e-9 for a, b in zip(got, expected))
        )
    return not isinstance(got, (tuple, list)) and abs(got - expected) < 1e-9


def score(item, result) -> Score:
    """Score one extraction result against its item's gold."""
    gold = item.gold
    out = Score(records=1)
    for name in CORE_NUMERIC:
        expected = gold.numeric.get(name)
        if expected is None:
            continue
        out.slots += 1
        extraction = result.numeric.get(name)
        if _same_value(extraction.value if extraction else None,
                       expected):
            out.reproduced += 1
    for name in TERM_SLOTS:
        out.slots += 1
        if set(result.terms.get(name, ())) == set(gold.terms.get(name, ())):
            out.reproduced += 1
    smoking = gold.categorical.get("smoking")
    if smoking is not None:
        out.slots += 1
        if result.categorical.get("smoking") == smoking:
            out.reproduced += 1
    emitted = {term for terms in result.terms.values() for term in terms}
    out.leaks = sum(term in emitted for term in item.forbidden_terms)
    out.leaks += sum(
        result.categorical.get(name) == label
        for name, label in item.forbidden_categorical.items()
    )
    return out


def check_store(path, expected_ids) -> list[str]:
    """Problems with a finished result store (empty when it is sound)."""
    from repro.storage import ResultStore

    problems = []
    store = ResultStore(path)
    try:
        missing = store.missing_provenance()
        if missing:
            problems.append(
                f"{path}: {len(missing)} values without provenance, "
                f"first {missing[0]}"
            )
        stored = set(store.patients())
        expected = set(expected_ids)
        if stored != expected:
            problems.append(
                f"{path}: {len(stored)} patients stored, "
                f"{len(expected)} expected "
                f"({len(expected - stored)} missing, "
                f"{len(stored - expected)} unexpected)"
            )
    finally:
        store.close()
    return problems
