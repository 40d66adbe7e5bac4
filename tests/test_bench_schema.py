"""Committed benchmark artifacts: schema and sanity regression tests.

``BENCH_parse.json`` once shipped a speedup of 238,597,814x — a ratio
against a microsecond denominator that nobody caught because nothing
validated the committed payloads.  These tests pin the schema of the
benchmark artifacts the CI jobs gate on: ratio fields are
float-or-null (``guarded_ratio`` semantics), lane keys are present,
and timings are plausible numbers rather than garbage.
"""

import json
import math
from pathlib import Path

import pytest

from repro.runtime.metrics import guarded_ratio

ROOT = Path(__file__).resolve().parent.parent

# A speedup beyond this is a measurement artifact, not a result.
SPEEDUP_CEILING = 1000.0


def _load(name):
    path = ROOT / name
    if not path.exists():
        pytest.skip(f"{name} not generated in this checkout")
    return json.loads(path.read_text())


def _assert_ratio(value, field):
    """guarded_ratio output: finite positive float, or null."""
    if value is None:
        return
    assert isinstance(value, float), field
    assert math.isfinite(value), field
    assert 0.0 < value < SPEEDUP_CEILING, (field, value)


def _assert_seconds(lane, key, field):
    value = lane[key]
    assert isinstance(value, (int, float)), field
    assert 0.0 <= value < 3600.0, (field, value)


class TestGuardedRatio:
    def test_normal_ratio(self):
        assert guarded_ratio(3.0, 1.5) == 2.0

    def test_noise_floor_returns_none(self):
        # The 238,597,814x case: denominator is timer noise.
        assert guarded_ratio(2.4, 1e-8, floor=1e-4) is None
        assert guarded_ratio(2.4, 0.0) is None

    def test_floor_boundary(self):
        assert guarded_ratio(1.0, 1e-4, floor=1e-4) == pytest.approx(
            1e4
        )
        assert guarded_ratio(1.0, 0.99e-4, floor=1e-4) is None


class TestBenchParseSchema:
    LANES = ("cold", "warm_first", "warm", "combined")

    def test_lanes_and_fields(self):
        payload = _load("BENCH_parse.json")
        assert payload["bench"] == "bench_parse"
        assert payload["corpus_size"] > 0
        for lane in self.LANES:
            stats = payload[lane]
            for key in ("extract_seconds", "parse_seconds"):
                _assert_seconds(stats, key, f"{lane}.{key}")
            assert stats["sentences_parsed"] >= 0
            assert 0.0 <= stats["persistent_parse_hit_rate"] <= 1.0

    def test_speedup_is_guarded(self):
        payload = _load("BENCH_parse.json")
        _assert_ratio(
            payload["parse_speedup_combined_vs_cold"],
            "parse_speedup_combined_vs_cold",
        )

    def test_gate_invariants_hold_in_committed_payload(self):
        payload = _load("BENCH_parse.json")
        assert payload["warm"]["persistent_parse_hit_rate"] >= 0.9
        assert (
            payload["combined"]["parse_seconds"]
            <= 0.5 * payload["cold"]["parse_seconds"]
        )


class TestBenchPipelineSchema:
    SERIAL_LANES = ("fused", "fused_profiled")

    def test_lanes_and_fields(self):
        payload = _load("BENCH_pipeline.json")
        assert payload["bench"] == "bench_pipeline"
        assert payload["corpus_size"] > 0
        for lane in self.SERIAL_LANES:
            stats = payload[lane]
            for key in (
                "cold_seconds", "warm_seconds", "extract_seconds",
            ):
                _assert_seconds(stats, key, f"{lane}.{key}")
        _assert_seconds(
            payload["fused_parallel"],
            "total_seconds",
            "fused_parallel.total_seconds",
        )

    def test_gate_invariants_hold_in_committed_payload(self):
        payload = _load("BENCH_pipeline.json")
        fused = payload["fused"]
        profiled = payload["fused_profiled"]
        extract = profiled["extract_seconds"]
        assert abs(payload["stage_seconds_sum"] - extract) <= (
            0.2 * extract
        )
        # Only the profiled lane carries stage counters.
        assert profiled["stages"]["seconds"]
        assert not fused["stages"].get("seconds")
