"""FaultPlan: spec grammar, symbolic resolution, firing semantics."""

import pickle

import pytest

from repro.errors import FaultSpecError
from repro.runtime import Fault, FaultPlan
from repro.runtime.faults import (
    InjectedCacheCorruption,
    InjectedFailure,
    InjectedHang,
    InjectedInterrupt,
    InjectedWorkerKill,
)


class TestGrammar:
    def test_single_fault(self):
        plan = FaultPlan.parse("raise@3")
        assert plan.faults == (Fault("raise", 3),)

    def test_multi_fault_with_modes(self):
        plan = FaultPlan.parse("raise@3;kill@mid:once;hang@last:always")
        assert plan.faults == (
            Fault("raise", 3),
            Fault("kill", "mid", "once"),
            Fault("hang", "last", "always"),
        )

    def test_roundtrips_through_spec(self):
        spec = "raise@3;kill@mid:once;corrupt@0"
        assert FaultPlan.parse(spec).spec() == spec

    @pytest.mark.parametrize("bad", [
        "", ";;", "raise", "raise@", "raise@minus", "raise@-1",
        "explode@3", "raise@3:sometimes",
    ])
    def test_bad_specs_raise_typed_error(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(bad)

    def test_bad_fault_kind_direct_construction(self):
        with pytest.raises(FaultSpecError):
            Fault("explode", 0)


class TestResolution:
    def test_symbolic_indices_resolve_against_corpus_size(self):
        plan = FaultPlan.parse("raise@first;kill@mid;hang@last")
        resolved = plan.resolved(9)
        assert [f.index for f in resolved.faults] == [0, 4, 8]

    def test_numeric_indices_untouched(self):
        plan = FaultPlan.parse("raise@7")
        assert plan.resolved(3).faults == plan.faults

    def test_unresolved_symbolic_fire_is_an_error(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("raise@mid").fire(0, 0)


class TestSampling:
    def test_same_seed_same_plan(self):
        a = FaultPlan.sample(100, kinds=("raise", "kill"), count=5, seed=3)
        b = FaultPlan.sample(100, kinds=("raise", "kill"), count=5, seed=3)
        assert a == b

    def test_different_seed_different_plan(self):
        a = FaultPlan.sample(100, count=5, seed=3)
        b = FaultPlan.sample(100, count=5, seed=4)
        assert a != b

    def test_indices_in_range(self):
        plan = FaultPlan.sample(10, count=20, seed=0)
        assert all(0 <= f.index < 10 for f in plan.faults)

    def test_empty_corpus_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.sample(0)


class TestFiring:
    def test_no_fault_is_a_noop(self):
        FaultPlan.parse("raise@3").fire(2, 0)

    def test_raise_fires_on_every_attempt_by_default(self):
        plan = FaultPlan.parse("raise@3")
        for attempt in (0, 1, 5):
            with pytest.raises(InjectedFailure):
                plan.fire(3, attempt)

    def test_once_mode_fires_on_first_attempt_only(self):
        plan = FaultPlan.parse("raise@3:once")
        with pytest.raises(InjectedFailure):
            plan.fire(3, 0)
        plan.fire(3, 1)  # retry survives

    def test_kill_defaults_to_once(self):
        plan = FaultPlan.parse("kill@0")
        with pytest.raises(InjectedWorkerKill):
            plan.fire(0, 0)  # serial: typed error, not os._exit
        plan.fire(0, 1)

    def test_hang_sleeps_then_raises(self):
        plan = FaultPlan.parse("hang@0", hang_seconds=0.0)
        with pytest.raises(InjectedHang):
            plan.fire(0, 0)

    def test_corrupt_poisons_caches_then_raises(self):
        from repro.extraction import RecordExtractor

        extractor = RecordExtractor()
        documents = extractor.caches.documents
        documents.get("admitted text")
        for i in range(40):  # push it out of the front ...
            documents.get(f"filler {i}.")
        documents.get("admitted text")  # ... so a second miss admits it
        documents.get("front-only text")
        assert list(documents._main) == ["admitted text"]
        assert "front-only text" in documents._front
        parser = extractor.numeric.parser
        sentence = ("pulse of 84 .".split(), ["NN", "IN", "CD", "."])
        linkages = extractor.caches.linkages
        assert linkages.lookup(parser, *sentence) is not None
        plan = FaultPlan.parse("corrupt@0")
        with pytest.raises(InjectedCacheCorruption):
            plan.fire(0, 0, extractor=extractor)
        poisoned = ("__corrupted-cache-entry__",)
        for table in (documents._front, documents._main):
            assert set(table.values()) == {poisoned}
        assert len(documents._front) == 32
        assert list(linkages._lru._data.values()) == [poisoned]
        # The poisoned front crashes its reader instead of answering,
        # and the garbage never reaches the parse store.
        with pytest.raises(ValueError):
            linkages.lookup(parser, *sentence)
        assert [o[0] for o in linkages.store.entries.values()] == ["ok"]
        linkages.clear()
        assert linkages.lookup(parser, *sentence) is not None
        assert parser.stats.persistent_hits == 1

    def test_interrupt_is_not_an_exception_subclass(self):
        plan = FaultPlan.parse("interrupt@2")
        with pytest.raises(InjectedInterrupt) as exc_info:
            plan.fire(2, 0)
        assert not isinstance(exc_info.value, Exception)
        assert exc_info.value.index == 2

    def test_plan_is_picklable(self):
        plan = FaultPlan.parse("raise@3;kill@mid:once")
        assert pickle.loads(pickle.dumps(plan)) == plan
