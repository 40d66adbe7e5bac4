"""Tests for the harness's own arithmetic and inputs.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from serving import Phase, chunked_p50_ms, poisson_schedule  # noqa: E402
from spans import (  # noqa: E402
    Recorder,
    Span,
    covered,
    full_speed,
    layer_totals,
    percentile,
    process_cpu_s,
    reconcile,
    self_times,
    tail,
    tail_percentile,
)

# ----------------------------------------------------------- percentiles


def beyond(n: int, q: float) -> int:
    """Samples strictly past the nearest-rank *q*-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(500) == 98.0
    assert tail_percentile(11) == pytest.approx(100 / 11)
    assert tail_percentile(10) is None
    for n in (11, 57, 200, 999, 1000, 1001, 4321):
        q = tail_percentile(n)
        assert beyond(n, q) >= 10
        # Any higher percentile leaves fewer than ten beyond.
        assert beyond(n, q + 100.0 / n) < 10


def test_tail_lowers_the_requested_percentile_to_what_is_supported():
    samples = list(range(1, 1001))
    assert tail(samples, 99.0) == (99.0, 990)
    used, value = tail(list(range(1, 501)), 99.0)
    assert used == 98.0
    assert value == 490
    assert sum(s > value for s in range(1, 501)) == 10
    assert tail(list(range(1, 5001)), 99.0) == (99.0, 4950)
    with pytest.raises(ValueError):
        tail(list(range(10)), 99.0)


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3], 50) == 3
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([1, 2, 3, 4], 100) == 4


# ----------------------------------------------------------- self time


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: union is 1..6
        Span("leaf", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_covered_clips_to_the_interval():
    assert covered([(-5, 1), (2, 3), (2.5, 20)], 0, 10) == pytest.approx(
        1 + 8
    )
    assert covered([], 0, 10) == 0


def test_recorder_nests_wrapped_calls_and_self_times_add_up():
    recorder = Recorder()

    def inner():
        time.sleep(0.002)

    wrapped_inner = recorder.wrap("inner", inner)

    def outer():
        wrapped_inner()
        time.sleep(0.001)
        wrapped_inner()

    wrapped_outer = recorder.wrap("outer", outer)
    wrapped_outer()
    (spans,) = recorder.threads()
    assert [s.name for s in spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in spans] == [-1, 0, 0]
    own = self_times(spans)
    assert sum(own) == pytest.approx(spans[0].duration)
    assert own[0] >= 0.001


# --------------------------------------------------------- reconciliation


def test_self_times_plus_unattributed_equal_the_wall_time():
    spans = [
        Span("runner", 1.0, 5.0),
        Span("parse", 2.0, 3.5, parent=0),
        Span("store", 5.5, 6.0),
        Span("runner", 8.0, 9.0),  # outside every window
    ]
    totals = layer_totals([spans], [(0.0, 7.0)])
    assert totals.wall_s == 7.0
    assert totals.self_s == pytest.approx(
        {"runner": 2.5, "parse": 1.5, "store": 0.5}
    )
    assert totals.calls == {"runner": 1, "parse": 1, "store": 1}
    assert totals.uncovered_s == pytest.approx(2.5)
    assert reconcile(totals) == pytest.approx(0.0)


def test_reconcile_detects_spans_that_do_not_nest():
    # A child recorded outside its parent double-counts time.
    spans = [Span("runner", 0.0, 2.0), Span("parse", 1.0, 3.0, parent=0)]
    totals = layer_totals([spans], [(0.0, 4.0)])
    assert reconcile(totals) > 0.1


def test_layer_totals_can_count_only_some_threads():
    shard = [Span("service.batch", 1.0, 2.0)]
    loop = [Span("store.merge", 1.0, 3.0)]
    totals = layer_totals([loop, shard], [(0.0, 4.0)], only_threads=[1])
    assert totals.self_s == {"service.batch": 1.0}
    assert totals.uncovered_s == pytest.approx(3.0)


# ----------------------------------------------------------------- inputs


def test_patient_ids_are_unique_across_packs_and_passes():
    first = workloads.make_pass("mix", 0, 0)
    second = workloads.make_pass("mix", 0, 1)
    ids = [item.patient_id for item in first + second]
    assert len(ids) == len(set(ids))
    packs = {patient_id.split(".")[0] for patient_id in ids}
    assert len(packs) == len(workloads.STYLE_PACKS) + 5
    consistent = workloads.make_pass("consistent", 0, 0)
    assert len({item.patient_id for item in consistent}) == len(consistent)


def test_same_seed_same_inputs_and_new_text_every_pass():
    a = workloads.make_pass("mix", 3, 2)
    b = workloads.make_pass("mix", 3, 2)
    assert [i.record.raw_text for i in a] == [i.record.raw_text for i in b]
    other = workloads.make_pass("mix", 3, 3)
    texts = {i.record.raw_text for i in a}
    assert not texts & {i.record.raw_text for i in other}


def test_seed_ranges_are_disjoint():
    measured = {
        workloads.measure_seed(seed, pass_index, part)
        for seed in range(4)
        for pass_index in (0, 1, workloads.MAX_PASSES - 1)
        for part in range(workloads.PARTS)
    }
    assert len(measured) == 4 * 3 * workloads.PARTS
    assert min(measured) >= workloads.MEASURE_BASE
    assert workloads.TRAIN_BASE + workloads.PARTS < workloads.WARM_BASE
    assert (
        workloads.WARM_BASE + workloads.PARTS * workloads.WARM_PARTS_PER_PACK
        < workloads.MEASURE_BASE
    )
    with pytest.raises(ValueError):
        workloads.measure_seed(-1, 0, 0)
    with pytest.raises(ValueError):
        workloads.measure_seed(0, workloads.MAX_PASSES, 0)


def test_chunked_p50_takes_the_median_of_chunk_medians():
    light = Phase("light", 12.0, [None] * 42, [0.0] * 42)
    light.read = [0.010 * (i + 1) for i in range(42)]
    light.responses = [{"ok": True}] * 42
    # Chunks of 12 with medians 65, 185 and 305 ms, and a ragged 6 that
    # does not count however slow it is.
    light.chunks = [
        list(range(0, 12)), list(range(12, 24)), list(range(24, 36)),
        list(range(36, 42)),
    ]
    assert chunked_p50_ms(light) == pytest.approx(185.0)
    light.chunks = [list(range(36, 42))]
    with pytest.raises(Exception, match="no light chunk"):
        chunked_p50_ms(light)


def test_full_speed_keeps_samples_whose_probe_ran_fast():
    # Probes of 1.0 (full speed) and 1.9 (slowed); costs mark which is
    # which.  Heavy samples cost 100 at full speed.
    samples = [(1.0 + 0.01 * (i % 3), 3.0, False) for i in range(20)] + [
        (1.9, 5.7, False) for _ in range(28)
    ] + [(1.0, 100.0, True), (1.9, 190.0, True)]
    fast, mean, limit = full_speed(samples)
    assert limit == pytest.approx(1.25)
    assert fast == [3.0] * 20 + [100.0]
    # 48 light samples at 3.0 and 2 heavy at 100, out of 50.
    assert mean == pytest.approx((48 * 3.0 + 2 * 100.0) / 50)


def test_full_speed_counts_a_stratum_with_no_fast_sample_in_full():
    samples = [(1.0, 3.0, False)] * 10 + [(1.9, 190.0, True)]
    _, mean, _ = full_speed(samples)
    assert mean == pytest.approx((10 * 3.0 + 190.0) / 11)


def test_process_cpu_s_counts_this_process_busy_time():
    import os

    before = process_cpu_s(os.getpid())
    started = time.process_time()
    while time.process_time() - started < 0.05:
        pass
    assert process_cpu_s(os.getpid()) - before >= 0.04


def test_poisson_schedule_is_seeded_and_inside_the_duration():
    a = poisson_schedule(100.0, 5.0, random.Random("x"))
    b = poisson_schedule(100.0, 5.0, random.Random("x"))
    assert a == b
    assert all(0 < t < 5.0 for t in a)
    assert a == sorted(a)
    assert 400 < len(a) < 600


# ----------------------------------------------------------------- scoring


def test_score_counts_core_slots_and_trap_leaks():
    from repro.extraction.numeric import NumericExtraction
    from repro.extraction.pipeline import ExtractionResult

    trap = next(
        item for item in workloads.trap_part(workloads.WARM_BASE, 0)
        if item.forbidden_terms
    )
    gold = trap.gold
    result = ExtractionResult(
        patient_id=trap.patient_id,
        numeric={
            name: (
                NumericExtraction.from_dict(
                    {"attribute": name, "value": value,
                     "method": "regex", "sentence": ""}
                )
                if value is not None else None
            )
            for name, value in gold.numeric.items()
        },
        terms={name: list(terms) for name, terms in gold.terms.items()},
        categorical=dict(gold.categorical),
    )
    perfect = checks.score(trap, result)
    assert perfect.slots == perfect.reproduced
    assert perfect.leaks == 0
    assert perfect.accuracy == 1.0
    attr = checks.TERM_SLOTS[0]
    result.terms[attr] = result.terms[attr] + [trap.forbidden_terms[0]]
    leaked = checks.score(trap, result)
    assert leaked.leaks == 1
    assert leaked.reproduced == perfect.reproduced - 1
    assert leaked.accuracy == pytest.approx(
        (perfect.slots - 2) / perfect.slots
    )
