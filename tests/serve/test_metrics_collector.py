"""MetricsCollector: queue-depth stats and batch-size histograms."""

from repro.serve.metrics import MetricsCollector


def collector_with_queue(samples) -> MetricsCollector:
    return MetricsCollector(queue_samples=list(samples))


def test_queue_stats_empty():
    assert collector_with_queue([])._queue_stats() == (0.0, 0, 0.0, 0.0)


def test_queue_stats_single_sample():
    mean, mx, p95, p99 = collector_with_queue([(10, 4)])._queue_stats()
    assert (mean, mx, p95, p99) == (4.0, 4, 4.0, 4.0)


def test_queue_stats_zero_span():
    """All samples at one cycle: no time passes, fall back to last depth."""
    mean, mx, p95, p99 = collector_with_queue(
        [(5, 2), (5, 7), (5, 3)]
    )._queue_stats()
    assert (mean, p95, p99) == (3.0, 3.0, 3.0)
    assert mx == 7


def test_queue_stats_time_weighted():
    # Depth 0 for 90 cycles, depth 10 for 10 cycles: the time weighting
    # must put p50 at 0 and p95/p99 at 10 (an event-weighted percentile
    # over the 3 samples would get this wrong).
    m = collector_with_queue([(0, 0), (90, 10), (100, 0)])
    mean, mx, p95, p99 = m._queue_stats()
    assert mean == 1.0
    assert mx == 10
    assert p95 == 10.0 and p99 == 10.0


def test_queue_stats_p95_vs_p99_split():
    # Depth 5 occupies exactly the last 2% of the horizon.
    m = collector_with_queue([(0, 1), (98, 5), (100, 0)])
    _, _, p95, p99 = m._queue_stats()
    assert p95 == 1.0
    assert p99 == 5.0


def test_batch_histograms_sorted_and_counted():
    m = MetricsCollector()
    for size in (1, 2, 1, 10, 2, 1):
        m.record_dispatch("decode", size)
    m.record_dispatch("vit", 1)
    hist = m._batch_histograms()
    assert hist == {"decode": {"1": 3, "2": 2, "10": 1}, "vit": {"1": 1}}
    assert list(hist["decode"]) == ["1", "2", "10"]  # numeric order


def test_summary_contains_new_keys():
    m = MetricsCollector()
    m.record_dispatch("decode", 4)
    m.record_dispatch("decode", 2)
    s = m.summary()
    assert s["queue_depth_p95"] == 0.0 and s["queue_depth_p99"] == 0.0
    assert s["batch_size_hist"] == {"decode": {"2": 1, "4": 1}}
    assert s["decode_weight_passes"] == 2
    assert s["decode_weight_pass_amortization"] == 3.0


def test_summary_empty_collector_is_all_zero():
    s = MetricsCollector().summary()
    assert s["decode_weight_pass_amortization"] == 0.0
    assert s["batch_size_hist"] == {}
    assert s["latency_p99_ms"] == 0.0
