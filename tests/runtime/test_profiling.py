"""Stage timing: exclusive-time semantics and engine integration.

Every span of :mod:`repro.tracing` is timed; these tests hold the
per-kind totals that ``--profile-stages`` prints, and the span trees
that a tracer records alongside them, to the runner's contracts.
"""

import math
import time

import pytest

from repro import tracing
from repro.extraction import RecordExtractor
from repro.runtime import CorpusRunner, FaultPlan, RetryPolicy
from repro.synth import CohortSpec, RecordGenerator
from repro.tracing import TIMING_KINDS, StageTimer, Tracer

#: The decision kinds an extraction trace is made of.
TREE_KINDS = {
    "record", "section", "attribute", "sentence", "association",
    "parse", "parse-timeout", "lookup", "classification",
}


def _cohort(size=6):
    return RecordGenerator(seed=19).generate_cohort(
        CohortSpec(
            size=size,
            smoking_counts={
                "never": size - 3, "current": 1, "former": 1, None: 1,
            },
        )
    )


def _shape(span):
    """A span tree without its timings."""
    return (
        span.kind,
        span.name,
        span.attributes,
        [_shape(child) for child in span.children],
    )


@pytest.fixture(autouse=True)
def _reset_active_tracer():
    yield
    tracing.activate(None)


class TestStageProfiler:
    def test_exclusive_nesting_sums_to_outer_wall_time(self):
        tracer = Tracer()
        with tracing.activated(tracer):
            with tracing.span("outer"):
                time.sleep(0.01)
                with tracing.span("inner"):
                    time.sleep(0.01)
                time.sleep(0.01)
        seconds = tracer.seconds
        assert seconds["inner"] >= 0.009
        # Exclusive attribution: outer's time excludes inner's.
        assert seconds["outer"] >= 0.019
        assert math.isclose(
            seconds["outer"] + seconds["inner"],
            tracer.roots[0].duration,
            rel_tol=1e-9,
        )
        assert tracer.counts == {"outer": 1, "inner": 1}

    def test_counters_shape_is_merge_friendly(self):
        from repro.runtime.metrics import diff_stats, merge_stats

        timer = StageTimer()
        with tracing.activated(timer):
            with tracing.span("a"):
                pass
        before = timer.stages()
        assert set(before) == {"seconds", "counts"}
        with tracing.activated(timer):
            with tracing.span("a"):
                pass
        delta = diff_stats(timer.stages(), before)
        assert delta["counts"]["a"] == 1
        merged: dict = {}
        merge_stats(merged, delta)
        merge_stats(merged, delta)
        assert merged["counts"]["a"] == 2
        # A tracer adopts another's totals the way the runner adopts
        # a worker chunk's; a stage timer keeps no trees.
        parent = StageTimer()
        parent.merge(timer.to_dict())
        parent.merge(timer.to_dict())
        assert parent.counts == {"a": 4}
        assert timer.roots == [] and parent.roots == []

    def test_stage_is_noop_without_active_profiler(self):
        assert tracing.current() is None
        assert not tracing.enabled()
        # The shared null context must be reused, not allocated.
        assert tracing.span("x") is tracing.span("y")
        with tracing.span("x"):
            pass

    def test_activated_restores_previous(self):
        outer = StageTimer()
        inner = Tracer()
        with tracing.activated(outer):
            assert tracing.current() is outer
            assert not tracing.enabled()  # totals only, no trees
            with tracing.activated(inner):
                assert tracing.current() is inner
                assert tracing.enabled()
            assert tracing.current() is outer
        assert tracing.current() is None


class TestRunnerIntegration:
    def test_stages_off_by_default(self):
        records, _ = _cohort()
        runner = CorpusRunner()
        runner.run(records)
        assert runner.stats()["stages"] == {}
        # A tracer alone records trees, not a stage table.
        traced = CorpusRunner(tracer=Tracer())
        traced.run(records)
        assert traced.stats()["stages"] == {}

    def test_serial_stages_sum_to_extract_time(self):
        records, _ = _cohort()
        runner = CorpusRunner(profile_stages=True)
        baseline = CorpusRunner()
        assert runner.run(records) == baseline.run(records)
        stages = runner.stats()["stages"]
        expected = {
            "record", "tokenize", "split", "pos", "number",
            "term-scan", "term-assign", "numeric", "section",
            "attribute",
        }
        assert expected <= set(stages["seconds"])
        assert stages["counts"]["record"] == len(records)
        total = sum(stages["seconds"].values())
        extract = runner.metrics.timers["extract_seconds"]
        # Exclusive stage times account for the extraction wall clock
        # (runner bookkeeping outside the record loop is the slack).
        assert total <= extract
        assert total >= 0.8 * extract

    def test_parallel_workers_ship_stage_deltas(self):
        records, _ = _cohort(8)
        serial = CorpusRunner().run(records)
        runner = CorpusRunner(
            workers=2, chunk_size=2, profile_stages=True
        )
        assert runner.run(records) == serial
        stages = runner.stats()["stages"]
        assert stages["counts"]["record"] == len(records)
        assert stages["seconds"]["numeric"] > 0.0


class TestStagesAndTrees:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_profiling_leaves_trees_unchanged(self, workers):
        """Stage timing adds no span and changes no tree."""
        records, _ = _cohort(8)
        # A store holding every parse makes each parallel lookup a
        # hit, whichever worker runs a chunk.
        warm = CorpusRunner()
        warm.run(records)
        trees, stages = {}, {}
        for profile_stages in (False, True):
            tracer = Tracer()
            runner = CorpusRunner(
                RecordExtractor(),
                workers=workers,
                chunk_size=2,
                tracer=tracer,
                profile_stages=profile_stages,
                parse_cache=warm.parse_cache,
            )
            runner.run(records)
            trees[profile_stages] = [
                _shape(root) for root in tracer.roots
            ]
            stages[profile_stages] = runner.stats()["stages"]
            kinds = {
                span.kind for root in tracer.roots for span in root.walk()
            }
            assert not kinds & TIMING_KINDS
            assert kinds <= TREE_KINDS
        assert trees[True] == trees[False]
        assert len(trees[True]) == len(records)
        assert stages[False] == {}
        counts = stages[True]["counts"]
        assert counts["split"] == counts["tokenize"]


class TestFailedAttemptsLeaveNoTrace:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec", ["raise@2", "raise@3"])
    def test_failed_attempts_leave_no_trace(self, workers, spec):
        """Retried and bisected chunks count each record once.

        ``raise@3`` fails a chunk after record 2 has been extracted
        in it, so the failed attempts did record a tree and stage
        time that must be rolled back.
        """
        records, _ = _cohort(8)
        tracer = Tracer()
        runner = CorpusRunner(
            workers=workers,
            chunk_size=2,
            tracer=tracer,
            fault_plan=FaultPlan.parse(spec),
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0),
            profile_stages=True,
        )
        results = runner.run(records)
        assert len(results) == 7
        names = [
            root.name for root in tracer.roots if root.kind == "record"
        ]
        assert len(names) == len(set(names)) == 7
        assert runner.stats()["stages"]["counts"]["record"] == 7
        assert [
            root.kind for root in tracer.roots if root.kind != "record"
        ] == ["chunk-retry", "chunk-bisect", "chunk-retry", "quarantine"]


class TestNormalizationHoisting:
    def test_sections_scanned_once_across_term_attributes(self):
        """Attributes sharing a section must not rescan it.

        The four term attributes read two distinct sections, so one
        record costs at most one term scan per (section, type-filter)
        group — not one per attribute — and each distinct section text
        runs the NLP pipeline exactly once (the document cache absorbs
        the rest).
        """
        records, _ = _cohort(4)
        runner = CorpusRunner(profile_stages=True)
        runner.run(records)
        stages = runner.stats()["stages"]
        counts = stages["counts"]
        attributes = runner.extractor.terms.attributes
        groups = {
            (a.section, frozenset(a.semantic_types))
            for a in attributes
        }
        assert len(groups) < len(attributes)
        assert counts["term-scan"] <= len(groups) * len(records)
        # Tokenize runs once per document-cache miss, never per
        # attribute: misses bound the fused scanner invocations.
        misses = runner.extractor.caches.documents.counters()["misses"]
        assert counts["tokenize"] == misses
