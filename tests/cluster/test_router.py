"""Router: affinity stickiness, least-loaded fallback, seeded tie-breaks."""

import heapq

from repro.cluster.router import Router
from repro.cluster.sharding import ShardedCostModel
from repro.cluster.topology import ClusterSpec, Replica
from repro.hw.system import UnitPool
from repro.serve.dispatcher import Dispatcher, ServeConfig
from repro.serve.request import Request


def _replica(rid, n_units=2):
    events = []
    seq = [0]

    def push(t, tag, payload=None):
        heapq.heappush(events, (t, seq[0], tag, payload))
        seq[0] += 1

    r = Replica(rid, (rid,), spawned_at=0)
    r.dispatcher = Dispatcher(
        ServeConfig(), UnitPool(n_units), push,
        cost=ShardedCostModel(ServeConfig(), ClusterSpec()))
    return r


def _req(rid, user=None, kind="vit"):
    kwargs = {"prompt_tokens": 8, "gen_tokens": 4} if kind == "llm" else {}
    return Request(rid=rid, kind=kind, arrival=0, user=user, **kwargs)


def test_routes_to_least_loaded():
    a, b = _replica(0), _replica(1)
    for i in range(3):
        a.dispatcher.enqueue(_req(i), now=0)
    router = Router(seed=0)
    assert router.route(_req(10), [a, b]) is b


def test_affinity_sticks_across_depth_imbalance():
    a, b = _replica(0), _replica(1)
    router = Router(seed=0)
    first = router.route(_req(1, user=7), [a, b])
    first.dispatcher.enqueue(_req(1, user=7), now=0)
    # the sticky replica is now deeper, but the user still lands there
    assert router.route(_req(2, user=7), [a, b]) is first
    assert router.affinity_hits == 1


def test_affinity_ignores_drained_replica():
    a, b = _replica(0), _replica(1)
    router = Router(seed=0)
    target = router.route(_req(1, user=7), [a, b])
    target.state = "draining"
    rerouted = router.route(_req(2, user=7), [a, b])
    assert rerouted is not target
    assert rerouted.active


def test_forget_clears_affinity():
    a, b = _replica(0), _replica(1)
    router = Router(seed=0)
    target = router.route(_req(1, user=7), [a, b])
    router.forget(target.rid)
    assert router._affinity == {}


def test_sticky_full_queue_falls_through():
    cfg = ServeConfig(max_queue=1)
    a, b = _replica(0), _replica(1)
    a.dispatcher.config = cfg
    b.dispatcher.config = cfg
    router = Router(seed=0)
    target = router.route(_req(1, user=7), [a, b])
    target.dispatcher.enqueue(_req(1, user=7), now=0)  # queue at bound
    other = router.route(_req(2, user=7), [a, b])
    assert other is not target


def test_tie_break_is_seeded_and_reproducible():
    def draw(seed, n=40):
        replicas = [_replica(i) for i in range(4)]
        router = Router(seed=seed)
        return [router.route(_req(i), replicas).rid for i in range(n)]

    # equal depths every time (vit requests are never enqueued here), so
    # every route is a 4-way tie: the draw sequence is the seed's signature
    assert draw(0) == draw(0)
    assert draw(1) == draw(1)
    assert draw(0) != draw(1)
    assert len(set(draw(0))) > 1  # ties actually spread across replicas


def test_no_active_replicas():
    a = _replica(0)
    a.state = "draining"
    assert Router(seed=0).route(_req(1), [a]) is None
