"""The shared disabled observers hold no state after real runs.

``NULL_TRACER``, ``NULL_SLO``, ``NULL_RECORDER`` and ``NULL_MONITOR``
are process-wide instances built with ``enabled=False``.  Each recording
method returns at once when disabled, and call sites skip it with one
``enabled`` check; a call that recorded anyway would leave state in a
singleton every later run shares.  These runs drive every hook site with
the default observers and check that none did.
"""

import numpy as np

from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ClusterSpec,
    simulate_cluster,
)
from repro.models.backend import get_backend
from repro.models.decoder import TinyLM
from repro.obs.numerics import NULL_MONITOR, get_monitor
from repro.obs.recorder import NULL_RECORDER
from repro.obs.slo import NULL_SLO
from repro.obs.tracer import NULL_TRACER
from repro.serve.dispatcher import ServeConfig, simulate
from repro.serve.request import (
    DiurnalConfig,
    TrafficConfig,
    diurnal_trace,
    poisson_trace,
)


def test_default_observers_record_nothing():
    traffic = TrafficConfig(rate_rps=2000, vit_fraction=0.2)
    # A short queue sheds arrivals, so the rejection hooks run too.
    report = simulate(poisson_trace(300, traffic, seed=7),
                      ServeConfig(max_queue=16))
    assert report.summary["rejected"] > 0

    fleet = ClusterConfig(
        serve=ServeConfig(max_queue=32),
        spec=ClusterSpec(boards=2),
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=2),
        max_cluster_queue=48,
    )
    trace = diurnal_trace(400, traffic, DiurnalConfig(period_s=0.2),
                          seed=7, n_users=32)
    cluster = simulate_cluster(trace, fleet)
    assert cluster.summary["edge_rejected"] > 0 and cluster.scale_events

    assert get_monitor() is NULL_MONITOR
    model = TinyLM(vocab=8, seq_len=12, dim=16, depth=1, n_heads=2, seed=4)
    for name in ("bfp8-mixed", "int8-all", "fp16-linear", "mixed-fp8"):
        model.generate_cached(np.arange(4), 3, get_backend(name),
                              compiled=False)

    t = NULL_TRACER
    assert (t.spans, t.counters, t.async_spans, t.flows) == ([], [], [], [])
    assert t.tracks() == []
    assert NULL_SLO.burn_rates(0) == {}
    r = NULL_RECORDER
    assert not (r.ring_requests or r.ring_metrics or r.ring_decisions
                or r.ring_numerics)
    assert r._epoch_arrivals == [] and r.incidents == []
    assert NULL_MONITOR.stats == {} and NULL_MONITOR.alignment == {}
