"""Median and tail reporting of timing samples."""

import pytest

from common import RunResult


def test_tail_is_the_highest_percentile_leaving_ten_beyond():
    result = RunResult()
    result.put_timings("job", [i / 1000.0 for i in range(1, 101)])  # 1..100 ms
    tail = result.metrics["job_tail_ms"]
    assert (tail.value, tail.percentile, tail.samples) == (pytest.approx(90.0), 90, 100)
    assert result.metrics["job_p50_ms"].value == pytest.approx(50.5)


def test_tail_over_many_samples_is_taken_over_all_of_them():
    result = RunResult()
    seconds = [0.010] * 1000
    seconds[:200] = [0.100] * 200  # one long burst of slow samples
    result.put_timings("job", seconds)
    tail = result.metrics["job_tail_ms"]
    assert (tail.value, tail.percentile, tail.samples) == (pytest.approx(100.0), 99, 1000)


def test_benchmark_json_lists_the_per_layer_metrics_the_code_computes():
    import json
    from pathlib import Path

    from layers import PER_LAYER_UNITS

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
