"""Tests of the benchmark's own arithmetic and span recording.

    python3 -m pytest perfbench/test_arith.py -q
"""

import math
import sys
import types

import pytest

import arith
import spans


def test_self_time_is_span_minus_children():
    recorded = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 7.0, 0),
        ("d", 2.0, 3.0, 1),
    ]
    assert arith.self_times(recorded) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    # Two children of one span overlap (threads share no spans, but a
    # clock step can make siblings touch); the covered part counts once.
    recorded = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 4.0, 6.0, 0)]
    assert arith.self_times(recorded)[0] == pytest.approx(5.0)


def test_self_totals_sum_per_name():
    recorded = [
        ("run", 0.0, 4.0, -1),
        ("sample", 1.0, 2.0, 0),
        ("run", 5.0, 7.0, -1),
        ("sample", 5.5, 6.0, 2),
    ]
    totals = arith.self_totals(recorded)
    assert totals["run"] == pytest.approx(3.0 + 1.5)
    assert totals["sample"] == pytest.approx(1.5)


def test_inclusive_time_counts_reentrant_calls_once():
    recorded = [
        ("serialize", 0.0, 3.0, -1),
        ("serialize", 1.0, 2.0, 0),
        ("save", 4.0, 6.0, -1),
        ("serialize", 4.5, 5.0, 2),
    ]
    totals = arith.inclusive_times(recorded)
    assert totals["serialize"] == pytest.approx(3.5)
    assert totals["save"] == pytest.approx(2.0)


def test_unattributed_is_wall_minus_top_level_layers():
    recorded = [
        ("timed", 0.0, 10.0, -1),
        ("layer", 1.0, 4.0, 0),
        ("phase", 4.0, 9.5, 0),
        ("layer", 5.0, 9.0, 2),
        ("inner", 6.0, 7.0, 3),
    ]
    tops = arith.top_level(recorded, roots=[0, 2])
    assert tops == [(1.0, 4.0), (5.0, 9.0)]
    # Covered: [1, 4] and [5, 9]; the gaps are 1 + 1 + 1 = 3 seconds.
    assert arith.unattributed(tops, 0.0, 10.0) == pytest.approx(3.0)
    # Only the measured window counts.
    assert arith.unattributed(tops, 2.0, 8.0) == pytest.approx(1.0)


def test_unattributed_without_roots_uses_parentless_spans():
    # A daemon thread: two top-level layers and an overlapping
    # coroutine span; intervals from several threads count once.
    loop = [
        ("layer", 1.0, 3.0, -1),
        ("inner", 1.5, 2.0, 0),
        ("coroutine", 2.5, 6.0, -1),
    ]
    pool = [("stats", 5.0, 8.0, -1)]
    tops = arith.top_level(loop) + arith.top_level(pool)
    assert sorted(tops) == [(1.0, 3.0), (2.5, 6.0), (5.0, 8.0)]
    assert arith.unattributed(tops, 0.0, 10.0) == pytest.approx(3.0)


def test_highest_percentile_needs_ten_samples_beyond():
    assert arith.highest_percentile(10) is None
    assert arith.highest_percentile(100) == pytest.approx(90.0)
    assert arith.highest_percentile(300) == pytest.approx(96.6666, rel=1e-4)
    count = 300
    pct = arith.highest_percentile(count)
    rank = math.ceil(pct / 100.0 * count)
    assert count - rank == arith.TAIL_SAMPLES


def test_latency_summary_reports_p90_with_enough_samples():
    sample = [float(i) for i in range(1, 101)]
    summary = arith.latency_summary(sample)
    assert summary["count"] == 100
    assert summary["p50"] == 50.0
    assert summary["tail_pct"] == 90.0
    assert summary["tail"] == 90.0
    assert sum(x > summary["tail"] for x in sample) == 10


def test_latency_summary_lowers_the_tail_when_samples_are_few():
    sample = [float(i) for i in range(1, 51)]
    summary = arith.latency_summary(sample)
    assert summary["tail_pct"] == pytest.approx(80.0)
    assert summary["tail"] == 40.0
    assert sum(x > summary["tail"] for x in sample) == 10


def test_failed_operation_misses_every_latency_limit():
    sample = [0.1] * 89
    assert arith.latency_summary(sample, failures=0)["tail"] == 0.1
    summary = arith.latency_summary(sample, failures=11)
    assert summary["count"] == 100
    assert math.isinf(summary["tail"])
    assert summary["p50"] == 0.1


def test_failed_frac_counts_failures_against_attempts():
    clean = arith.failed_frac(0, 100)
    assert clean == pytest.approx(1 / 101)
    assert clean > 0
    assert arith.failed_frac(1, 100) == pytest.approx(2 * clean)
    assert arith.failed_frac(100, 100) == 1.0
    with pytest.raises(ValueError):
        arith.failed_frac(3, 2)


def test_median_and_percentile():
    assert arith.median([3.0, 1.0, 2.0]) == 2.0
    assert arith.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert arith.percentile([5.0, 1.0, 3.0], 50.0) == 3.0
    with pytest.raises(ValueError):
        arith.median([])


def test_install_wraps_every_importer_and_records_parents(monkeypatch):
    monkeypatch.setattr(spans, "PROGRAM_PREFIXES", ("fakepkg",))
    source = types.ModuleType("fakepkg.source")

    def inner(x):
        return x + 1

    def outer(x):
        return source.inner(x) * 2

    source.inner = inner
    source.outer = outer
    importer = types.ModuleType("fakepkg.importer")
    importer.renamed = outer
    sys.modules["fakepkg.source"] = source
    sys.modules["fakepkg.importer"] = importer
    try:
        tracer = spans.Tracer()
        replaced = spans.install(
            tracer,
            [
                ("fakepkg.source:inner", "layer.inner", None),
                ("fakepkg.source:outer", "layer.outer", None),
            ],
        )
        assert replaced == 3
        assert importer.renamed(1) == 4
        (recorded,) = tracer.threads()
        assert [span[0] for span in recorded] == ["layer.outer", "layer.inner"]
        assert recorded[1][3] == 0
        assert recorded[0][1] <= recorded[1][1] <= recorded[1][2] <= recorded[0][2]
    finally:
        del sys.modules["fakepkg.source"]
        del sys.modules["fakepkg.importer"]


def test_coroutine_span_has_no_parent_and_encloses_nothing():
    import asyncio

    tracer = spans.Tracer()

    def layer():
        return 1

    async def shard():
        await asyncio.sleep(0)
        return 2

    traced_layer = tracer.wrap("layer", layer)
    traced_shard = tracer.wrap("shard", shard)

    async def loop():
        # The layer runs on the loop while the shard coroutine waits.
        task = asyncio.ensure_future(traced_shard())
        await asyncio.sleep(0)
        traced_layer()
        return await task

    assert asyncio.run(loop()) == 2
    (recorded,) = tracer.threads()
    assert sorted(span[0] for span in recorded) == ["layer", "shard"]
    assert all(span[3] == -1 for span in recorded)
    assert len(arith.top_level(recorded)) == 2


def test_hook_runs_around_every_binding(monkeypatch):
    monkeypatch.setattr(spans, "PROGRAM_PREFIXES", ("fakepkg",))
    source = types.ModuleType("fakepkg.hooked")
    source.double = lambda x: 2 * x
    importer = types.ModuleType("fakepkg.user")
    importer.double = source.double
    sys.modules["fakepkg.hooked"] = source
    sys.modules["fakepkg.user"] = importer
    seen = []
    try:
        replaced = spans.hook(
            "fakepkg.hooked:double",
            before=lambda: seen.append("before"),
            after=lambda result: seen.append(result),
        )
        assert replaced == 2
        assert importer.double(3) == 6
        assert seen == ["before", 6]
    finally:
        del sys.modules["fakepkg.hooked"]
        del sys.modules["fakepkg.user"]
